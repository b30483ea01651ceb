"""Naive dense-matrix oracles for the closed-form code paths.

Everything here is written the slow, obvious way on purpose: build the
full correlation matrix, call ``numpy.linalg`` on it, and read the
answer off the textbook formulas.  The package must agree with these
to tight tolerances; the package itself never calls them.
"""

import numpy as np
from scipy import integrate


def dense_corr(points: np.ndarray, theta: float) -> np.ndarray:
    h = np.abs(points[:, None] - points[None, :])
    return np.exp(-theta * h)


def dense_precision(points: np.ndarray, theta: float) -> np.ndarray:
    return np.linalg.inv(dense_corr(points, theta))


def dense_quad_forms(points: np.ndarray, theta: float, x0: float):
    """(sigma0' P^-1 sigma0, 1' P^-1 sigma0) by direct solve."""
    p = dense_corr(points, theta)
    s0 = np.exp(-theta * np.abs(points - x0))
    sol = np.linalg.solve(p, s0)
    return float(s0 @ sol), float(np.sum(sol))


def dense_ones_form(points: np.ndarray, theta: float) -> float:
    ones = np.ones(len(points))
    return float(ones @ np.linalg.solve(dense_corr(points, theta), ones))


def dense_simple_mspe(points, theta, sigma11, x0) -> float:
    s_quad, _ = dense_quad_forms(points, theta, x0)
    return sigma11 * (1.0 - s_quad)


def dense_ordinary_mspe(points, theta, sigma11, x0) -> float:
    s_quad, cross = dense_quad_forms(points, theta, x0)
    q0 = dense_ones_form(points, theta)
    return sigma11 * (1.0 - s_quad) + sigma11 * (1.0 - cross) ** 2 / q0


def dense_simple_krige(points, theta, sigma11, z1, x0):
    p = dense_corr(points, theta)
    s0 = np.exp(-theta * np.abs(points - x0))
    w = np.linalg.solve(p, s0)
    return float(w @ z1), sigma11 * float(1.0 - s0 @ w)


def dense_ordinary_krige(points, theta, sigma11, z1, x0):
    p = dense_corr(points, theta)
    s0 = np.exp(-theta * np.abs(points - x0))
    ones = np.ones(len(points))
    pinv_s0 = np.linalg.solve(p, s0)
    pinv_1 = np.linalg.solve(p, ones)
    q0 = float(ones @ pinv_1)
    mu = float(1.0 - ones @ pinv_s0) / q0
    w = pinv_s0 + mu * pinv_1
    mspe = sigma11 * (1.0 - float(s0 @ pinv_s0) + float(1.0 - ones @ pinv_s0) ** 2 / q0)
    return float(w @ z1), mspe


def joint_blocks(model, points: np.ndarray):
    """Stacked covariance blocks from a model's entrywise evaluators."""
    h = np.abs(points[:, None] - points[None, :])
    k11 = np.asarray(model.cov11(h), dtype=float)
    k12 = np.asarray(model.cov12(h), dtype=float)
    k22 = np.asarray(model.cov22(h), dtype=float)
    top = np.hstack([k11, k12])
    bottom = np.hstack([k12.T, k22])
    return np.vstack([top, bottom])


def dense_simple_cokrige(model, points, z_stacked, x0):
    sigma = joint_blocks(model, points)
    h0 = np.abs(points - x0)
    s0 = np.concatenate([np.asarray(model.cov11(h0), dtype=float),
                         np.asarray(model.cov12(h0), dtype=float)])
    w = np.linalg.solve(sigma, s0)
    s00 = float(model.cov11(0.0))
    return float(w @ z_stacked), s00 - float(s0 @ w)


def dense_ordinary_cokrige(model, points, z_stacked, x0):
    n = len(points)
    sigma = joint_blocks(model, points)
    h0 = np.abs(points - x0)
    s0 = np.concatenate([np.asarray(model.cov11(h0), dtype=float),
                         np.asarray(model.cov12(h0), dtype=float)])
    f = np.zeros((2 * n, 2))
    f[:n, 0] = 1.0
    f[n:, 1] = 1.0
    f0 = np.array([1.0, 0.0])
    sig_inv_s0 = np.linalg.solve(sigma, s0)
    sig_inv_f = np.linalg.solve(sigma, f)
    gram = f.T @ sig_inv_f
    gamma = np.linalg.solve(gram, f0 - f.T @ sig_inv_s0)
    w = sig_inv_s0 + sig_inv_f @ gamma
    s00 = float(model.cov11(0.0))
    mspe = s00 - float(s0 @ sig_inv_s0) + float((f0 - f.T @ sig_inv_s0) @ gamma)
    return float(w @ z_stacked), mspe


def quad_risk(prior_density, lo, hi, criterion_of_theta) -> float:
    """Adaptive quadrature of criterion(theta) * density(theta) over [lo, hi]."""
    val, err = integrate.quad(
        lambda t: criterion_of_theta(t) * prior_density(t), lo, hi,
        epsabs=1e-11, epsrel=1e-11, limit=300,
    )
    assert err < 1e-8
    return val


def random_design_gaps(rng: np.random.Generator, n: int, min_gap: float = 0.02):
    """Random unit-sum gap vector with every gap at least ``min_gap``."""
    k = n - 1
    assert k * min_gap < 1.0
    raw = rng.dirichlet(np.ones(k))
    return min_gap + (1.0 - k * min_gap) * raw


def mp_prior_averaged_smspe_terms(rates, densities, gaps, model, dps=30):
    """Each interval's unit-variance error supremum averaged over a
    piecewise-linear prior density, by mpmath quadrature in the rate.

    ``rates``/``densities`` are the density's nodes (a uniform prior is
    two nodes of equal density); the supremum of interval ``i`` is
    ``tanh(theta d_i / 2)``, plus ``(1 - sech(theta d_i / 2))^2 / q0`` with
    ``q0 = 1 + sum_j tanh(theta d_j / 2)`` for the ordinary model.
    """
    import mpmath as mp

    with mp.workdps(dps):
        ds = [mp.mpf(float(d)) for d in gaps]
        ts = [mp.mpf(float(t)) for t in rates]
        rs = [mp.mpf(float(r)) for r in densities]

        def term(i, theta):
            v = mp.tanh(theta * ds[i] / 2)
            if model == "ordinary":
                q0 = 1 + mp.fsum(mp.tanh(theta * d / 2) for d in ds)
                v += (1 - mp.sech(theta * ds[i] / 2)) ** 2 / q0
            return v

        out = []
        for i in range(len(ds)):
            total = mp.mpf(0)
            for t0, t1, r0, r1 in zip(ts[:-1], ts[1:], rs[:-1], rs[1:]):
                total += mp.quad(
                    lambda t: term(i, t) * (r0 + (r1 - r0) * (t - t0) / (t1 - t0)), [t0, t1])
            out.append(float(total))
    return out
