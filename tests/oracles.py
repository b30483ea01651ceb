"""Naive oracles for the closed-form code paths and the optimizer.

Everything here is written the slow, obvious way on purpose: build the
full correlation matrix, call ``numpy.linalg`` on it, and read the
answer off the textbook formulas; take a criterion's supremum on a grid
and its integral by adaptive quadrature; enumerate a simplex grid of
designs.  The package must agree with these to tight tolerances; the
package itself never calls them.  ``majorization_perturb`` builds the
more uneven designs of the Schur-convexity tests.
"""

from math import comb

import numpy as np
from scipy import integrate

from cokrig import (
    Design,
    DomainError,
    NumericError,
    OptimizationResult,
    evaluate_criterion,
    mspe_closed_form,
)

# Enumeration cap for brute_force_min.
MAX_GRID_NODES = 10_000_000


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


def dense_cokrige_weights(model, points, x0, ordinary):
    """Stacked cokriging weights (primary first) and the error, by dense solves."""
    n = len(points)
    sigma = joint_blocks(model, points)
    h0 = np.abs(points - x0)
    s0 = np.concatenate([np.asarray(model.cov11(h0), dtype=float),
                         np.asarray(model.cov12(h0), dtype=float)])
    s00 = float(model.cov11(0.0))
    sig_inv_s0 = np.linalg.solve(sigma, s0)
    if not ordinary:
        return sig_inv_s0, s00 - float(s0 @ sig_inv_s0)
    f = np.zeros((2 * n, 2))
    f[:n, 0] = 1.0
    f[n:, 1] = 1.0
    f0 = np.array([1.0, 0.0])
    sig_inv_f = np.linalg.solve(sigma, f)
    gram = f.T @ sig_inv_f
    gamma = np.linalg.solve(gram, f0 - f.T @ sig_inv_s0)
    w = sig_inv_s0 + sig_inv_f @ gamma
    mspe = s00 - float(s0 @ sig_inv_s0) + float((f0 - f.T @ sig_inv_s0) @ gamma)
    return w, mspe


def dense_simple_cokrige(model, points, z_stacked, x0):
    w, mspe = dense_cokrige_weights(model, points, x0, ordinary=False)
    return float(w @ z_stacked), mspe


def dense_ordinary_cokrige(model, points, z_stacked, x0):
    w, mspe = dense_cokrige_weights(model, points, x0, ordinary=True)
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


def majorization_perturb(design: Design, from_idx: int, to_idx: int, eps: float) -> Design:
    """Move gap mass from a smaller gap onto a larger one.

    Subtracts ``eps`` from ``gaps[from_idx]`` and adds it to
    ``gaps[to_idx]``.  Requires ``gaps[to_idx] >= gaps[from_idx]`` and
    ``0 < eps < gaps[from_idx]``, so the new gap vector majorizes the
    old one: the design becomes more uneven while the total length and
    the number of sites stay fixed.  Every design criterion in the
    package is Schur-convex, hence never decreases under this move.
    """
    gaps = design.gaps.copy()
    k = gaps.size
    if not (0 <= from_idx < k and 0 <= to_idx < k):
        raise DomainError(f"gap indices must lie in [0, {k - 1}]")
    if from_idx == to_idx:
        raise DomainError("perturbation needs two distinct gaps")
    if gaps[to_idx] < gaps[from_idx]:
        raise DomainError("mass must move toward the larger gap")
    if not (0 < eps < gaps[from_idx]):
        raise DomainError(f"eps must lie strictly inside (0, {gaps[from_idx]})")
    gaps[from_idx] -= eps
    gaps[to_idx] += eps
    return Design(design.x_start, design.x_end, gaps)


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


def smspe_numeric(kernel, design: Design, model: str = "simple",
                  grid_points_per_interval: int = 64) -> float:
    """Grid maximum of the pointwise MSPE, midpoints always included.

    Evaluates the closed pointwise error on a uniform grid in every
    interval, plus the exact midpoints where the suprema live.
    """
    if grid_points_per_interval < 64:
        raise DomainError(
            f"need at least 64 grid points per interval, got {grid_points_per_interval}"
        )
    offsets = np.append(np.linspace(0.0, 1.0, grid_points_per_interval), 0.5)[:, None]
    x0 = design.points[:-1] + offsets * design.gaps
    return float(mspe_closed_form(kernel, design, x0, model).max())


def imspe_numeric(kernel, design: Design, model: str = "simple", tol: float = 1e-10) -> float:
    """Adaptive-quadrature integral of the pointwise MSPE.

    Integrates interval by interval (the integrand is smooth inside
    each gap and kinked at the sites).  Raises ``NumericError`` if any
    panel fails to converge to ``tol``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive, got {tol}")
    pts = design.points
    total = 0.0
    for i in range(design.n - 1):
        val, err = integrate.quad(
            lambda x: mspe_closed_form(kernel, design, x, model),
            pts[i], pts[i + 1], epsabs=tol / design.n, epsrel=1e-12, limit=200,
        )
        if not np.isfinite(val) or err > max(tol, 1e-8):
            raise NumericError(
                f"quadrature failed on interval {i}: estimate {val}, error {err}"
            )
        total += val
    return total


def _compositions(total: int, parts: int):
    """Yield positive integer vectors of the given length summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def brute_force_min(problem, grid_step: float = 0.005) -> OptimizationResult:
    """Exhaustive minimum over a simplex grid of gap vectors.

    Gaps are restricted to positive multiples of ``1/K`` with
    ``K = round(1/grid_step)``, and each node is scored by the public
    ``evaluate_criterion`` on its ``Design``.  Only sensible for
    ``n <= 4``; the node count is capped at ``MAX_GRID_NODES``.  Ties
    break toward the lexicographically smallest gap vector, the first
    one enumerated.  The enumeration is exhaustive, so ``converged`` is
    always true; ``residual`` is not computed and reads NaN.
    """
    if problem.n > 4:
        raise DomainError(f"brute force enumeration is limited to n <= 4, got {problem.n}")
    if not (np.isfinite(grid_step) and 0 < grid_step < 1):
        raise DomainError(f"grid_step must lie in (0, 1), got {grid_step}")
    k = problem.n - 1
    K = round(1.0 / grid_step)
    if K < k:
        raise DomainError(f"grid step {grid_step} too coarse for {k} gaps")
    n_nodes = comb(K - 1, k - 1)
    if n_nodes > MAX_GRID_NODES:
        raise DomainError(f"simplex grid would hold {n_nodes} nodes, cap is {MAX_GRID_NODES}")
    best, best_val = None, np.inf
    for comp in _compositions(K, k):
        design = Design(0.0, 1.0, np.asarray(comp, dtype=float) / K)
        val = evaluate_criterion(problem, design)
        if val < best_val:
            best, best_val = design, val
    deviation = float(np.abs(best.gaps - 1.0 / k).max())
    return OptimizationResult(best, best_val, True, deviation, n_nodes, float("nan"),
                              f"exhaustive minimum over {n_nodes} grid nodes",
                              float("nan"), deviation)
