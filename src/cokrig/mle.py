"""Maximum-likelihood fitting of the shared-component covariance model.

The model fitted here suits collocated monitoring data: a primary
process with exponential correlation ``exp(-theta h)`` and variance
``sigma11``, secondary process regressing on the primary with slope
``rho`` plus an independent white-noise residual, so that

    C11 = sigma11 exp(-theta h),   C12 = rho C11,
    C22 = rho^2 C11 + (sigma22 - rho^2 sigma11) 1{h = 0}.

Under that structure the joint likelihood of the stacked vector
factorizes exactly: ``Z1 ~ N(0, sigma11 P)`` and, conditionally,
``Z2 - rho Z1 ~ N(0, tau I)`` with ``tau = sigma22 - rho^2 sigma11``.
``P`` is AR(1) along the sites: over a gap ``d`` the primary keeps
``e^{-theta d}`` of its value and gains an innovation of variance
``w = 1 - e^{-2 theta d}``, so likelihood and simulation take O(r n)
work for ``r`` replicates of ``n`` sites and form no matrix.

Given ``theta`` the other parameters have closed-form maxima, so the
fit maximizes the profile likelihood in ``log theta`` alone (Mardia &
Marshall, Biometrika 71:135, 1984).  Standard errors come from a
finite-difference Hessian of the negative log-likelihood in the
natural parameters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .design import Design, _count, _finite, _positive
from .exceptions import ConditioningError, DomainError
from .kernel import MIN_THETA_GAP

__all__ = [
    "MleFit",
    "loglikelihood",
    "fit_mle",
    "simulate_observations",
]

# theta's search bracket runs from theta * length = _LOW_SPAN (the data
# look like one constant) to theta * smallest gap = _HIGH_GAP (neighbours
# correlated by e^-20: white noise); a theta_hat within _EDGE of either
# end, in log theta, lies on the edge.
_LOW_SPAN, _HIGH_GAP, _EDGE = 1e-2, 20.0, 1e-5
_GRID_POINTS = 64


@dataclass(frozen=True)
class MleFit:
    """Fitted parameters, log-likelihood at the optimum, and standard errors.

    ``stderr`` maps parameter names (``theta``, ``sigma11``, ``sigma22``,
    ``rho``) to observed-information standard errors, or is None when the
    finite-difference Hessian was not invertible.  ``converged`` reports
    whether the scalar solve in ``log theta`` succeeded strictly inside
    the search bracket; at the bracket's edge the data look like white
    noise (top) or a constant (bottom).
    """

    theta_hat: float
    sigma11_hat: float
    sigma22_hat: float
    rho_hat: float
    loglik: float
    converged: bool
    stderr: dict[str, float] | None = None


def _as_replicates(n: int, z1, z2) -> tuple[np.ndarray, np.ndarray]:
    """Both variables as replicate matrices of equal shape ``(r, n)``."""
    z1, z2 = np.atleast_2d(np.asarray(z1, dtype=float), np.asarray(z2, dtype=float))
    for what, arr in (("z1", z1), ("z2", z2)):
        if arr.ndim != 2 or arr.shape[1] != n:
            raise DomainError(f"{what} must have {n} values per replicate, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{what} must be finite")
    if z1.shape != z2.shape:
        raise DomainError(f"z1 and z2 shapes differ: {z1.shape} vs {z2.shape}")
    return z1, z2


def _check_params(theta, sigma11, sigma22, rho) -> float:
    for name, v in (("theta", theta), ("sigma11", sigma11), ("sigma22", sigma22)):
        _positive(v, name)
    _finite(rho, "rho")
    tau = sigma22 - rho**2 * sigma11
    if tau <= 0:
        raise DomainError(
            f"invalid model: sigma22 - rho^2*sigma11 = {tau} must be positive"
        )
    return tau


def _primary_terms(gaps: np.ndarray, theta: float, z1: np.ndarray) -> tuple[float, float]:
    """``z1' P^{-1} z1`` over all replicate rows, and ``log det P``; each innovation
    ``z_i - e^{-theta d} z_{i-1}`` is taken through ``expm1`` so that it does not cancel."""
    x = theta * gaps
    if gaps.size and x.min() < MIN_THETA_GAP:
        raise ConditioningError(
            f"theta * gap = {x.min():.3e} below {MIN_THETA_GAP:.0e}; "
            "sites are numerically coincident"
        )
    w = -np.expm1(-2.0 * x)
    step = np.diff(z1, axis=1) - np.expm1(-x) * z1[:, :-1]
    quad = float(np.sum(z1[:, 0] ** 2) + np.sum(step * step / w))
    return quad, float(np.sum(np.log(w)))


def loglikelihood(
    design: Design, z1, z2, theta: float, sigma11: float, sigma22: float, rho: float
) -> float:
    """Exact joint Gaussian log-likelihood of collocated observations.

    ``z1`` and ``z2`` may be single vectors of length ``n`` or replicate
    matrices of shape ``(r, n)``; replicates are independent draws on
    the same design and their log-likelihoods add.
    """
    tau = _check_params(theta, sigma11, sigma22, rho)
    z1, z2 = _as_replicates(design.n, z1, z2)
    r, n = z1.shape
    quad1, logdet_p = _primary_terms(design.gaps, theta, z1)
    resid = z2 - rho * z1
    quad2 = float(np.sum(resid * resid))
    return (
        -r * n * math.log(2.0 * math.pi)
        - 0.5 * r * (n * math.log(sigma11) + logdet_p)
        - 0.5 * quad1 / sigma11
        - 0.5 * r * n * math.log(tau)
        - 0.5 * quad2 / tau
    )


def simulate_observations(
    design: Design,
    theta: float,
    sigma11: float,
    sigma22: float,
    rho: float,
    replicates: int = 1,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(z1, z2)`` replicate matrices of shape ``(replicates, n)``;
    ``z1`` follows the AR(1) recursion, i.e. the rows of P's Cholesky factor."""
    tau = _check_params(theta, sigma11, sigma22, rho)
    replicates = _count(replicates, "replicates", 1)
    rng = np.random.default_rng(seed)
    x = theta * design.gaps
    keep, scale = np.exp(-x), np.sqrt(-np.expm1(-2.0 * x))
    z1 = rng.standard_normal((replicates, design.n))
    for i in range(1, design.n):
        z1[:, i] = keep[i - 1] * z1[:, i - 1] + scale[i - 1] * z1[:, i]
    z1 *= math.sqrt(sigma11)
    z2 = rho * z1 + math.sqrt(tau) * rng.standard_normal((replicates, design.n))
    return z1, z2


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def _standardize(z: np.ndarray) -> np.ndarray:
    sd = float(z.std(ddof=1))
    if sd <= 0:
        raise DomainError("cannot standardize a constant variable")
    return (z - float(z.mean())) / sd


def fit_mle(design: Design, z1, z2, standardize: bool = True) -> MleFit:
    """Fit ``(theta, sigma11, sigma22, rho)`` by maximum likelihood.

    Searches the profile likelihood in ``log theta`` on a coarse grid
    across a bracket set by the design's length and smallest gap, then
    by a bounded scalar solve between the best grid point's neighbours.
    ``standardize`` centers and scales each variable first, in which
    case the returned variances refer to the standardized data.
    """
    from scipy import optimize as spopt

    if design.n < 4:
        raise DomainError(f"need at least 4 sites to fit, got {design.n}")
    z1, z2 = _as_replicates(design.n, z1, z2)
    if standardize:
        z1, z2 = _standardize(z1), _standardize(z2)
    r, n = z1.shape
    ss1 = float(np.sum(z1 * z1))
    if ss1 <= 0:
        raise DomainError("z1 is identically zero")
    rho = float(np.sum(z1 * z2)) / ss1
    resid = z2 - rho * z1
    tau = float(np.sum(resid * resid)) / (r * n)
    # an exact multiple leaves only the rounding of rho * z1, about eps^2 of z2's moment
    if tau <= np.finfo(float).eps * float(np.sum(z2 * z2)) / (r * n):
        raise DomainError("z2 is a constant multiple of z1; the residual variance is zero")

    gaps = design.gaps
    lo = math.log(max(_LOW_SPAN / gaps.sum(), 2.0 * MIN_THETA_GAP / gaps.min()))
    hi = math.log(_HIGH_GAP / gaps.min())

    def profile(log_theta: float) -> float:
        quad, logdet = _primary_terms(gaps, math.exp(log_theta), z1)
        return n * math.log(quad) + logdet

    grid = np.linspace(lo, hi, _GRID_POINTS)
    k = int(np.argmin([profile(t) for t in grid]))
    res = spopt.minimize_scalar(
        profile, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
        method="bounded", options={"xatol": 1e-10},
    )
    converged = bool(res.success and lo + _EDGE < res.x < hi - _EDGE)
    theta_hat = math.exp(res.x)
    s11_hat = _primary_terms(gaps, theta_hat, z1)[0] / (r * n)
    s22_hat = tau + rho**2 * s11_hat
    ll_hat = loglikelihood(design, z1, z2, theta_hat, s11_hat, s22_hat, rho)
    stderr = _stderr(design, z1, z2, theta_hat, s11_hat, s22_hat, rho)
    return MleFit(theta_hat, s11_hat, s22_hat, rho, ll_hat, converged, stderr)


def _stderr(design, z1, z2, theta, s11, s22, rho) -> dict[str, float] | None:
    """Observed-information standard errors via a central FD Hessian.

    Steps shrink automatically so every evaluation stays inside the
    valid region; returns None when the information matrix is not
    positive definite (optimum on or near the validity boundary).
    """
    p = np.array([theta, s11, s22, rho])
    names = ("theta", "sigma11", "sigma22", "rho")
    steps = 1e-4 * np.maximum(np.abs(p), 0.1)
    margin = s22 - rho**2 * s11
    # worst-case margin erosion per unit step: d(margin) terms
    erosion = np.array([0.0, rho**2, 1.0, 2.0 * abs(rho) * s11 + 1e-8])
    with np.errstate(all="ignore"):
        scale = np.where(erosion > 0, 0.1 * margin / erosion, np.inf)
    steps = np.minimum(steps, scale)
    if not np.all(steps > 0):
        return None

    def f(q: np.ndarray) -> float:
        return -loglikelihood(design, z1, z2, q[0], q[1], q[2], q[3])

    k = p.size
    hess = np.empty((k, k))
    try:
        f0 = f(p)
        for i in range(k):
            ei = np.zeros(k)
            ei[i] = steps[i]
            for j in range(i, k):
                ej = np.zeros(k)
                ej[j] = steps[j]
                if i == j:
                    val = (f(p + ei) - 2.0 * f0 + f(p - ei)) / steps[i] ** 2
                else:
                    val = (
                        f(p + ei + ej) - f(p + ei - ej)
                        - f(p - ei + ej) + f(p - ei - ej)
                    ) / (4.0 * steps[i] * steps[j])
                hess[i, j] = hess[j, i] = val
        cov = np.linalg.inv(hess)
    except (DomainError, ConditioningError, np.linalg.LinAlgError):
        return None
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        return None
    return {name: float(math.sqrt(d)) for name, d in zip(names, diag)}
