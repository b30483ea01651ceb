"""Best linear unbiased prediction of the primary process.

Simple variants assume a known zero mean; ordinary variants estimate an
unknown constant mean per process via the usual augmented equations.
The cokriging solvers work for any bivariate covariance model through
dense Cholesky solves; the single-process kriging solvers additionally
exploit the exponential kernel's tridiagonal inverse and closed-form
error expressions.  No pseudo-inverse is used anywhere: a factorization
failure raises ``ConditioningError``.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import kernel as kern
from .covmodel import (BivariateCovariance, Correlogram, _require_valid, build_cross_vector,
                       build_joint_covariance)
from .design import Design
from .exceptions import ConditioningError, DomainError
from .kernel import ExponentialKernel

__all__ = [
    "ObservationVector",
    "PredictionResult",
    "simple_cokrige",
    "ordinary_cokrige",
    "simple_krige",
    "ordinary_krige",
    "mspe_closed_form",
]


@dataclass
class ObservationVector:
    """Collocated observations of both processes at the design sites."""

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        z1 = np.atleast_1d(np.asarray(self.z1, dtype=float))
        z2 = np.atleast_1d(np.asarray(self.z2, dtype=float))
        if z1.ndim != 1 or z2.ndim != 1 or z1.size != z2.size:
            raise DomainError("z1 and z2 must be one-dimensional and equally long")
        if z1.size == 0:
            raise DomainError("observation vectors must not be empty")
        if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))):
            raise DomainError("observations must be finite")
        self.z1, self.z2 = z1, z2

    @property
    def n(self) -> int:
        return self.z1.size

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.z1, self.z2])


@dataclass(frozen=True)
class PredictionResult:
    """A point prediction, its mean squared error, and the weights used."""

    value: float
    mspe: float
    weights: np.ndarray


def _cho_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        factor = linalg.cho_factor(matrix, lower=True)
    except linalg.LinAlgError as exc:
        raise ConditioningError(f"covariance matrix is not positive definite: {exc}") from exc
    return linalg.cho_solve(factor, rhs)


def _split_kernel(kernel) -> tuple[float, Correlogram | None, float | None]:
    """Return (sigma11, correlogram-or-None, theta-or-None).

    Accepts either an :class:`ExponentialKernel` (closed-form route) or
    a ``(sigma11, Correlogram)`` pair (dense route).
    """
    if isinstance(kernel, ExponentialKernel):
        return kernel.sigma11, None, kernel.theta
    try:
        sigma11, corr = kernel
    except (TypeError, ValueError):
        raise DomainError(
            "kernel must be an ExponentialKernel or a (sigma11, Correlogram) pair"
        ) from None
    if not isinstance(corr, Correlogram):
        raise DomainError(f"second element must be a Correlogram, got {corr!r}")
    if not (np.isfinite(sigma11) and sigma11 > 0):
        raise DomainError(f"variance must be positive, got {sigma11}")
    return float(sigma11), corr, None


def _check_obs_length(n_design: int, z: np.ndarray, what: str):
    if z.size != n_design:
        raise DomainError(f"{what} has {z.size} entries for {n_design} sites")


def mspe_closed_form(kernel: ExponentialKernel, design: Design, x0, model: str = "simple"):
    """Exact kriging MSPE at ``x0`` under the exponential kernel.

    For a target at distances ``a`` and ``b`` from the sites bracketing
    it in interval ``i``, the simple-kriging error is

        ``sigma11 * (1 - e^{-2 theta a}) * (1 - e^{-2 theta b}) / w(d_i)``

    and the ordinary variant adds
    ``sigma11 * [(1 - e^{-theta a}) (1 - e^{-theta b}) / (1 + e^{-theta d_i})]^2 / q0``,
    the squared complement of the ones/cross quadratic form, with
    ``q0 = 1'P^{-1}1``.  Zero exactly at the design sites, positive in
    between.  ``x0`` may be an array of targets; the result then is an
    array of the same shape, otherwise a float.
    """
    if not isinstance(kernel, ExponentialKernel):
        raise DomainError("closed-form errors require an ExponentialKernel")
    if model not in ("simple", "ordinary"):
        raise DomainError(f"model must be 'simple' or 'ordinary', got {model!r}")
    err, cross = kern._pointwise(design, kernel.theta, x0)
    if model == "ordinary":
        err = err + cross**2 / kern.ones_quadratic_form(design, kernel.theta)
    err = kernel.sigma11 * err
    return float(err) if err.ndim == 0 else err


def simple_krige(kernel, design: Design, z1, x0: float) -> PredictionResult:
    """Zero-mean kriging of the primary process from its own data.

    ``kernel`` is an :class:`ExponentialKernel` (tridiagonal closed
    route) or a ``(sigma11, Correlogram)`` pair (dense route).
    """
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    if not np.all(np.isfinite(z1)):
        raise DomainError("observations must be finite")
    _check_obs_length(design.n, z1, "z1")
    x0 = float(kern._bracket(design, x0))
    sigma11, corr, theta = _split_kernel(kernel)
    pts = design.points
    if theta is not None:
        sigma_p0 = np.exp(-theta * np.abs(pts - x0))
        weights = kern.precision_matrix(design, theta) @ sigma_p0
        mspe = mspe_closed_form(ExponentialKernel(theta, sigma11), design, x0, "simple")
    else:
        H = np.abs(pts[:, None] - pts[None, :])
        cmat = sigma11 * np.asarray(corr.value(H), dtype=float)
        c0 = sigma11 * np.asarray(corr.value(np.abs(pts - x0)), dtype=float)
        weights = _cho_solve(cmat, c0)
        mspe = max(float(sigma11 - c0 @ weights), 0.0)
    return PredictionResult(float(weights @ z1), mspe, weights)


def ordinary_krige(kernel, design: Design, z1, x0: float) -> PredictionResult:
    """Unknown-constant-mean kriging of the primary process."""
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    if not np.all(np.isfinite(z1)):
        raise DomainError("observations must be finite")
    _check_obs_length(design.n, z1, "z1")
    x0 = float(kern._bracket(design, x0))
    sigma11, corr, theta = _split_kernel(kernel)
    pts = design.points
    ones = np.ones(design.n)
    if theta is not None:
        Q = kern.precision_matrix(design, theta)
        s = Q @ np.exp(-theta * np.abs(pts - x0))
        q_ones = Q @ ones
        q0 = kern.ones_quadratic_form(design, theta)
        weights = s + q_ones * (1.0 - ones @ s) / q0
        mspe = mspe_closed_form(ExponentialKernel(theta, sigma11), design, x0, "ordinary")
    else:
        H = np.abs(pts[:, None] - pts[None, :])
        cmat = sigma11 * np.asarray(corr.value(H), dtype=float)
        c0 = sigma11 * np.asarray(corr.value(np.abs(pts - x0)), dtype=float)
        s = _cho_solve(cmat, c0)
        q_ones = _cho_solve(cmat, ones)
        q0 = float(ones @ q_ones)
        resid = 1.0 - float(ones @ s)
        weights = s + q_ones * resid / q0
        mspe = max(float(sigma11 - c0 @ s + resid**2 / q0), 0.0)
    return PredictionResult(float(weights @ z1), mspe, weights)


def _cokriging_system(model, design: Design, obs: ObservationVector, x0: float):
    """Joint covariance, cross-covariance vector and target variance of a valid model."""
    _require_valid(model)
    if obs.n != design.n:
        raise DomainError(f"observations have {obs.n} sites, design has {design.n}")
    x0 = float(kern._bracket(design, x0))
    return (build_joint_covariance(model, design), *build_cross_vector(model, design, x0))


def simple_cokrige(
    model: BivariateCovariance, design: Design, obs: ObservationVector, x0: float
) -> PredictionResult:
    """Zero-mean cokriging of the primary process from both processes.

    Solves the full ``2n`` system with the joint covariance of the
    stacked observations; the weight vector carries primary weights
    first, secondary weights last.  An invalid model raises
    ``ValidationError`` before any solve.
    """
    sigma, sigma0, sigma00 = _cokriging_system(model, design, obs, x0)
    weights = _cho_solve(sigma, sigma0)
    mspe = max(float(sigma00 - sigma0 @ weights), 0.0)
    return PredictionResult(float(weights @ obs.stacked()), mspe, weights)


def ordinary_cokrige(
    model: BivariateCovariance, design: Design, obs: ObservationVector, x0: float
) -> PredictionResult:
    """Cokriging with separate unknown constant means for each process.

    The unbiasedness constraints force the primary weights to sum to
    one and the secondary weights to sum to zero; the returned MSPE
    includes the penalty for estimating the two means.
    """
    sigma, sigma0, sigma00 = _cokriging_system(model, design, obs, x0)
    n = design.n
    drift = np.zeros((2 * n, 2))
    drift[:n, 0] = 1.0
    drift[n:, 1] = 1.0
    f0 = np.array([1.0, 0.0])
    sol = _cho_solve(sigma, np.column_stack([sigma0, drift]))
    si_sigma0, si_drift = sol[:, 0], sol[:, 1:]
    gram = drift.T @ si_drift
    resid = f0 - drift.T @ si_sigma0
    try:
        gamma = linalg.solve(gram, resid, assume_a="pos")
    except linalg.LinAlgError as exc:
        raise ConditioningError(f"drift normal equations are singular: {exc}") from exc
    weights = si_sigma0 + si_drift @ gamma
    mspe = max(float(sigma00 - sigma0 @ si_sigma0 + resid @ gamma), 0.0)
    return PredictionResult(float(weights @ obs.stacked()), mspe, weights)
