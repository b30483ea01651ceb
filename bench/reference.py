"""Reference computations made apart from the program, and the checks on them.

Nothing here imports ``cokrig`` or the repository's test oracles.  The
design criteria are evaluated per distinct gap value from closed forms
in 40-digit mpmath arithmetic, so cancellation at small ``theta * d``
cannot hide; Bayes risks integrate those forms over the decay-rate prior
with mpmath's adaptive quadrature.  Kriging, cokriging and the
log-likelihood are dense numpy solves of the textbook systems (the
bordered Lagrange system for the unknown-mean variants).

Closed forms, for a gap ``d`` and decay rate ``theta`` (unit variance):

* simple-kriging error at offset ``a``:
  ``(1 - e^{-2 theta a}) (1 - e^{-2 theta (d - a)}) / (1 - e^{-2 theta d})``;
  its supremum (the midpoint) is ``tanh(theta d / 2)`` and its integral
  over the gap is ``d coth(theta d) - 1 / theta``;
* the unknown-mean penalty is ``(1 - t(a))^2 / q0`` with
  ``t(a) = (e^{-theta a} + e^{-theta (d - a)}) / (1 + e^{-theta d})`` and
  ``q0 = 1 + sum_i tanh(theta d_i / 2)``; ``t`` is ``sech(theta d / 2)`` at
  the midpoint, and with ``E = e^{-theta d}`` the gap integral of
  ``(1 - t)^2`` is ``d - 4 (1 - E) / (theta (1 + E))
  + ((1 - E^2) / theta + 2 d E) / (1 + E)^2``.

The benchmark's own tests check these against quadrature of the
pointwise error and against dense kriging.
"""

import math
from collections import Counter

import numpy as np

EARTH_RADIUS_KM = 6371.0088

# Relative tolerance for criteria and risks.  A backward-stable
# evaluation in double precision meets it with room to spare; the
# cancelling forms miss it by three orders of magnitude at n = 1e5.
CRITERION_RTOL = 1e-9

# Absolute tolerances for dense-algebra comparisons: prediction values
# and weights (data of unit scale, condition numbers below 1e4) and
# prediction errors.
WEIGHT_ATOL = 1e-8
MSPE_ATOL = 1e-10

# A design returned by the optimizer counts as equispaced when every gap
# is within this distance of 1 / (n - 1).
OPT_GAP_TOL = 1e-6

# Statistical checks on simulated draws reject beyond this many
# standard deviations (two-sided false alarm below 2e-9 per statistic).
SIM_SIGMAS = 6.0


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def close(got, want, rtol=0.0, atol=0.0, what="value"):
    """Raise ``CheckFailed`` unless ``|got - want| <= atol + rtol |want|``."""
    got, want = float(got), float(want)
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise CheckFailed(
            f"{what}: got {got!r}, want {want!r} "
            f"(rel {abs(got - want) / max(abs(want), 1e-300):.3e})"
        )


def close_array(got, want, atol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, want {want.shape}")
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= atol:
        raise CheckFailed(f"{what}: worst deviation {worst:.3e} above {atol:.0e}")


# --------------------------------------------------------------------------
# design criteria in mpmath
# --------------------------------------------------------------------------

def _mp():
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def gap_groups(gaps):
    """Distinct gap values with their multiplicities, as (mpf, count)."""
    mp = _mp()
    return [(mp.mpf(float(d)), c) for d, c in Counter(np.asarray(gaps).tolist()).items()]


def _q0(mp, theta, groups):
    return 1 + mp.fsum(c * mp.tanh(theta * d / 2) for d, c in groups)


def criterion_at(criterion, model, theta, groups):
    """Unit-variance ``smspe``/``imspe`` at one decay rate (an mpf)."""
    mp = _mp()
    theta = mp.mpf(theta)
    ordinary = model == "ordinary"
    q0 = _q0(mp, theta, groups) if ordinary else None
    if criterion == "smspe":
        def sup(d):
            x = theta * d / 2
            v = mp.tanh(x)
            if ordinary:
                v += (1 - mp.sech(x)) ** 2 / q0
            return v
        return max(sup(d) for d, _ in groups)
    total = mp.fsum(c * (d * mp.coth(theta * d) - 1 / theta) for d, c in groups)
    if ordinary:
        def g(d):
            e = mp.exp(-theta * d)
            return (d - 4 * (1 - e) / (theta * (1 + e))
                    + ((1 - e * e) / theta + 2 * d * e) / (1 + e) ** 2)
        total += mp.fsum(c * g(d) for d, c in groups) / q0
    return total


def criterion(criterion_name, model, theta, gaps, sigma11=1.0):
    """Criterion value on a gap vector, as a float."""
    return float(sigma11 * criterion_at(criterion_name, model, theta, gap_groups(gaps)))


def risk(criterion_name, model, theta1, theta2, gaps, e_sigma11=1.0):
    """Uniform-prior Bayes risk: the criterion averaged over ``[theta1, theta2]``."""
    mp = _mp()
    groups = gap_groups(gaps)
    t1, t2 = mp.mpf(theta1), mp.mpf(theta2)
    avg = mp.quad(lambda t: criterion_at(criterion_name, model, t, groups), [t1, t2])
    return float(e_sigma11 * avg / (t2 - t1))


def check_optimum(n, gaps, value, want_value):
    """An optimizer result must be the equispaced design with its true value.

    Every criterion here is Schur-convex, so the equispaced design is
    the optimum; ``want_value`` is the reference criterion at ``gaps``.
    """
    gaps = np.asarray(gaps, dtype=float)
    if gaps.size != n - 1:
        raise CheckFailed(f"optimum has {gaps.size} gaps, want {n - 1}")
    dev = float(np.max(np.abs(gaps - 1.0 / (n - 1))))
    if not dev <= OPT_GAP_TOL:
        raise CheckFailed(f"optimum is not equispaced: gap deviation {dev:.3e}")
    close(value, want_value, rtol=CRITERION_RTOL, what="optimum value")


# --------------------------------------------------------------------------
# dense prediction
# --------------------------------------------------------------------------

def exp_cov(points, theta, sigma11, targets=None):
    points = np.asarray(points, dtype=float)
    other = points if targets is None else np.asarray(targets, dtype=float)
    return sigma11 * np.exp(-theta * np.abs(points[:, None] - other[None, :]))


def _bordered_solve(cov, cross, drift, f0):
    """Unbiased BLUP weights from the Lagrange system.

    Solves ``[[C, F], [F', 0]] [w; mu] = [c0; f0]`` for every target
    (columns of ``cross``); the error is ``c00 - w'c0 - f0'mu``, so this
    returns the weights and ``w'c0 + f0'mu`` per target.
    """
    n, k = drift.shape
    system = np.zeros((n + k, n + k))
    system[:n, :n] = cov
    system[:n, n:] = drift
    system[n:, :n] = drift.T
    rhs = np.vstack([cross, np.repeat(np.asarray(f0, dtype=float)[:, None],
                                      cross.shape[1], axis=1)])
    sol = np.linalg.solve(system, rhs)
    w, mu = sol[:n], sol[n:]
    explained = np.sum(w * cross, axis=0) + np.asarray(f0) @ mu
    return w, explained


def blup(cov, cross, c00, data, drift=None, f0=None):
    """Dense best linear unbiased predictions at many targets.

    ``cross`` holds one target per column.  Without ``drift`` the mean is
    known (zero); with it, ``drift' w = f0`` is imposed.  Returns
    ``(values, mspe, weights)`` with one weight column per target.
    """
    if drift is None:
        w = np.linalg.solve(cov, cross)
        explained = np.sum(w * cross, axis=0)
    else:
        w, explained = _bordered_solve(cov, cross, drift, f0)
    return data @ w, c00 - explained, w


def krige(points, theta, sigma11, z, targets, model):
    cov = exp_cov(points, theta, sigma11)
    cross = exp_cov(points, theta, sigma11, targets)
    if model == "simple":
        return blup(cov, cross, sigma11, z)
    return blup(cov, cross, sigma11, z, np.ones((len(points), 1)), [1.0])


def check_prediction(result, value, mspe, weights, what):
    """Compare one ``PredictionResult``-like output with dense references."""
    close_array(result.weights, weights, WEIGHT_ATOL, f"{what} weights")
    close(result.value, value, atol=WEIGHT_ATOL, what=f"{what} value")
    close(result.mspe, mspe, atol=MSPE_ATOL, what=f"{what} mspe")


def check_site_error_zero(mspe_at_sites, what):
    """Prediction error at a design site is zero: the data are exact there."""
    worst = float(np.max(np.abs(mspe_at_sites)))
    if not worst <= MSPE_ATOL:
        raise CheckFailed(f"{what}: error {worst:.3e} at a design site, want 0")


# Bivariate models the benchmark cokriges with, written out from their
# definitions.  ``gm`` is the shared-component model with a white
# residual; ``ns2`` has exponential margins and a slower cross decay.

def joint_cov(family, params, points, targets=None):
    """Stacked ``(Z1, Z2)`` covariance, or its cross block with Z1 at targets.

    Returns the ``2n x 2n`` matrix, or with ``targets`` the ``2n x m``
    covariances between the observations and ``Z1`` at each target.
    """
    p = np.asarray(points, dtype=float)
    t = p if targets is None else np.asarray(targets, dtype=float)
    h = np.abs(p[:, None] - t[None, :])
    s11, s22 = params["sigma11"], params["sigma22"]
    if family == "gm":
        c11 = s11 * np.exp(-params["theta"] * h)
        c12 = params["rho"] * c11
        if targets is not None:
            return np.vstack([c11, c12])
        tau = s22 - params["rho"] ** 2 * s11
        c22 = params["rho"] ** 2 * c11 + tau * (h == 0.0)
    elif family == "ns2":
        lam = params["lam"]
        c11 = s11 * lam ** h
        c12 = math.sqrt(s11 * s22) * params["lamc"] * lam ** (params["alpha"] * h)
        if targets is not None:
            return np.vstack([c11, c12])
        c22 = s22 * lam ** h
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.block([[c11, c12], [c12.T, c22]])


def cokrige(family, params, points, z1, z2, targets, model):
    cov = joint_cov(family, params, points)
    cross = joint_cov(family, params, points, targets)
    data = np.concatenate([z1, z2])
    if model == "simple":
        return blup(cov, cross, params["sigma11"], data)
    n = len(points)
    drift = np.zeros((2 * n, 2))
    drift[:n, 0] = 1.0
    drift[n:, 1] = 1.0
    return blup(cov, cross, params["sigma11"], data, drift, [1.0, 0.0])


# --------------------------------------------------------------------------
# likelihood and simulation
# --------------------------------------------------------------------------

def gm_params(theta, sigma11, sigma22, rho):
    return {"theta": theta, "sigma11": sigma11, "sigma22": sigma22, "rho": rho}


def loglik(points, z1, z2, theta, sigma11, sigma22, rho):
    """Dense Gaussian log-likelihood of replicate rows of ``(z1, z2)``."""
    cov = joint_cov("gm", gm_params(theta, sigma11, sigma22, rho), points)
    data = np.hstack([np.atleast_2d(z1), np.atleast_2d(z2)])
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise CheckFailed("reference covariance is not positive definite")
    quad = float(np.sum(data * np.linalg.solve(cov, data.T).T))
    r, m = data.shape
    return -0.5 * (r * (m * math.log(2.0 * math.pi) + logdet) + quad)


def check_fit(fit_loglik, fit_params, truth_params, points, z1, z2, what):
    """A fit's log-likelihood is its own, and no worse than the truth's."""
    at_fit = loglik(points, z1, z2, *fit_params)
    close(fit_loglik, at_fit, rtol=1e-9, atol=1e-9, what=f"{what} loglik")
    at_truth = loglik(points, z1, z2, *truth_params)
    if not at_fit >= at_truth - 1e-9 * abs(at_truth):
        raise CheckFailed(
            f"{what}: maximized loglik {at_fit!r} below the generating "
            f"parameters' {at_truth!r}"
        )


def check_simulation(points, z1, z2, theta, sigma11, sigma22, rho, what):
    """Whitened draws must look like independent standard normals.

    Whitens ``z1`` with the Cholesky factor of ``sigma11 P`` and the
    residual ``z2 - rho z1`` by ``tau``; both sums of squares must be
    chi-square with ``r n`` degrees of freedom, and the whitened primary
    series must show no lag-one correlation.
    """
    z1, z2 = np.atleast_2d(z1), np.atleast_2d(z2)
    r, n = z1.shape
    if z2.shape != (r, n) or n != len(points):
        raise CheckFailed(f"{what}: draw shapes {z1.shape}, {z2.shape}")
    chol = np.linalg.cholesky(exp_cov(points, theta, sigma11))
    white = np.linalg.solve(chol, z1.T).T
    tau = sigma22 - rho**2 * sigma11
    resid = (z2 - rho * z1) / math.sqrt(tau)
    dof = r * n
    for name, e in (("primary", white), ("residual", resid)):
        ss = float(np.sum(e * e))
        if abs(ss - dof) > SIM_SIGMAS * math.sqrt(2.0 * dof):
            raise CheckFailed(f"{what}: {name} sum of squares {ss:.1f} for {dof} draws")
    lag1 = float(np.sum(white[:, 1:] * white[:, :-1])) / (r * (n - 1))
    if abs(lag1) > SIM_SIGMAS / math.sqrt(r * (n - 1)):
        raise CheckFailed(f"{what}: whitened lag-one correlation {lag1:.4f}")


def sample_gm(points, theta, sigma11, sigma22, rho, replicates, rng):
    """Draw ``(z1, z2)`` replicate rows from the shared-component model."""
    chol = np.linalg.cholesky(exp_cov(points, theta, sigma11))
    z1 = rng.standard_normal((replicates, len(points))) @ chol.T
    tau = sigma22 - rho**2 * sigma11
    z2 = rho * z1 + math.sqrt(tau) * rng.standard_normal(z1.shape)
    return z1, z2


# --------------------------------------------------------------------------
# stations
# --------------------------------------------------------------------------

def great_circle_km(lat1, lon1, lat2, lon2):
    """Great-circle distance (haversine in its atan2 form), in km."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin((p2 - p1) / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))
