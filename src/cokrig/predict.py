"""Best linear unbiased prediction of the primary process.

Simple variants assume a known zero mean; ordinary variants estimate an
unknown constant mean per process via the usual augmented equations.

* Kriging with an exponential correlogram, given as an
  :class:`ExponentialKernel` or a ``(sigma11, ExponentialCorrelogram)``
  pair, is O(n) per target on two or more sites: the kernel is Markov
  on the transect, so the simple-kriging weights sit on the two sites
  bracketing the target, and the ordinary model adds the closed-form
  ``P^{-1} 1``.  The error comes from the same bracket.
* Cokriging a valid model with ``C12 = c * C11`` (``reduction_applies``)
  is kriging of the primary from its own data, with zero secondary
  weights.
* One dense Cholesky solve serves the rest: kriging with any other
  correlogram or on one site, and cokriging the non-reducible families
  (NS2, NS3).

No pseudo-inverse is used anywhere: a factorization failure raises
``ConditioningError``.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel as kern
from .covmodel import (BivariateCovariance, Correlogram, ExponentialCorrelogram, _require_valid,
                       build_cross_vector, build_joint_covariance, reduction_applies)
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


def _blup(cov: np.ndarray, cov0: np.ndarray, var0: float, drift: np.ndarray | None = None):
    """Weights and error of the best linear unbiased predictor, by Cholesky.

    ``cov`` is the data covariance, ``cov0`` the data's covariance with
    the target and ``var0`` the target's variance.  Each ``drift`` column
    carries an unknown constant mean; the first is the target's own, so
    its weights sum to one and the others' to zero.

    ``cov`` is factored in place: it must be an exactly symmetric array
    the caller no longer needs, whose transpose is then the
    Fortran-ordered matrix LAPACK works on without a copy.
    """
    from scipy import linalg

    rhs = cov0 if drift is None else np.column_stack([cov0, drift])
    try:
        sol = linalg.cho_solve(linalg.cho_factor(cov.T, lower=True, overwrite_a=True), rhs)
    except linalg.LinAlgError as exc:
        raise ConditioningError(f"covariance matrix is not positive definite: {exc}") from exc
    if drift is None:
        return sol, max(float(var0 - cov0 @ sol), 0.0)
    s, s_drift = sol[:, 0], sol[:, 1:]
    resid = -drift.T @ s
    resid[0] += 1.0
    try:
        gamma = linalg.solve(drift.T @ s_drift, resid, assume_a="pos")
    except linalg.LinAlgError as exc:
        raise ConditioningError(f"drift normal equations are singular: {exc}") from exc
    return s + s_drift @ gamma, max(float(var0 - cov0 @ s + resid @ gamma), 0.0)


def _check_pair(kernel) -> tuple[float, Correlogram]:
    """A ``(sigma11, Correlogram)`` kernel as a checked pair."""
    try:
        sigma11, corr = kernel
    except (TypeError, ValueError):
        raise DomainError(
            "kernel must be an ExponentialKernel or a (sigma11, Correlogram) pair"
        ) from None
    if not isinstance(corr, Correlogram):
        raise DomainError(f"second element must be a Correlogram, got {corr!r}")
    if not (np.isfinite(sigma11) and sigma11 > 0):
        raise DomainError(f"variance must be finite and positive, got {sigma11}")
    return float(sigma11), corr


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
    err = kernel.sigma11 * kern._pointwise(design, kernel.theta, x0, model == "ordinary")[0]
    return float(err) if err.ndim == 0 else err


def _krige(kernel, design: Design, z1, x0: float, ordinary: bool) -> PredictionResult:
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    if not np.all(np.isfinite(z1)):
        raise DomainError("observations must be finite")
    if z1.size != design.n:
        raise DomainError(f"z1 has {z1.size} entries for {design.n} sites")
    if isinstance(kernel, ExponentialKernel):
        sigma11, corr = kernel.sigma11, ExponentialCorrelogram(kernel.theta)
    else:
        sigma11, corr = _check_pair(kernel)
    if isinstance(corr, ExponentialCorrelogram) and design.n > 1:  # one site has no bracket
        err, _, weights = kern._pointwise(design, corr.rate, float(x0), ordinary, weights=True)
        mspe = sigma11 * float(err)
    else:
        x0 = float(kern._bracket(design, x0))
        pts = design.points
        cov = sigma11 * np.asarray(corr.value(np.abs(pts[:, None] - pts[None, :])), dtype=float)
        cov0 = sigma11 * np.asarray(corr.value(np.abs(pts - x0)), dtype=float)
        drift = np.ones((design.n, 1)) if ordinary else None
        weights, mspe = _blup(cov, cov0, sigma11, drift)
    return PredictionResult(float(weights @ z1), mspe, weights)


def simple_krige(kernel, design: Design, z1, x0: float) -> PredictionResult:
    """Zero-mean kriging of the primary process from its own data.

    ``kernel`` is an :class:`ExponentialKernel` or a ``(sigma11,
    Correlogram)`` pair.  An exponential correlogram on two or more sites
    gets closed-form weights on the two bracketing sites; anything else
    takes the dense route.
    """
    return _krige(kernel, design, z1, x0, ordinary=False)


def ordinary_krige(kernel, design: Design, z1, x0: float) -> PredictionResult:
    """Unknown-constant-mean kriging of the primary process."""
    return _krige(kernel, design, z1, x0, ordinary=True)


def _cokrige(model, design: Design, obs: ObservationVector, x0: float, ordinary: bool):
    _require_valid(model)
    if obs.n != design.n:
        raise DomainError(f"observations have {obs.n} sites, design has {design.n}")
    n = design.n
    if reduction_applies(model)[0]:
        kr = _krige((model.sigma11, model.c11), design, obs.z1, x0, ordinary)
        return PredictionResult(kr.value, kr.mspe, np.concatenate([kr.weights, np.zeros(n)]))
    x0 = float(kern._bracket(design, x0))
    cov0, var0 = build_cross_vector(model, design, x0)
    drift = None
    if ordinary:
        drift = np.zeros((2 * n, 2))
        drift[:n, 0] = 1.0
        drift[n:, 1] = 1.0
    weights, mspe = _blup(build_joint_covariance(model, design), cov0, var0, drift)
    return PredictionResult(float(weights @ obs.stacked()), mspe, weights)


def simple_cokrige(
    model: BivariateCovariance, design: Design, obs: ObservationVector, x0: float
) -> PredictionResult:
    """Zero-mean cokriging of the primary process from both processes.

    The weight vector carries primary weights first, secondary weights
    last.  When ``C12 = c * C11`` this is simple kriging of the primary
    with zero secondary weights; otherwise it solves the full ``2n``
    system.  An invalid model raises ``ValidationError`` before any
    solve.
    """
    return _cokrige(model, design, obs, x0, ordinary=False)


def ordinary_cokrige(
    model: BivariateCovariance, design: Design, obs: ObservationVector, x0: float
) -> PredictionResult:
    """Cokriging with separate unknown constant means for each process.

    The unbiasedness constraints force the primary weights to sum to
    one and the secondary weights to sum to zero; the returned MSPE
    includes the penalty for estimating the two means.
    """
    return _cokrige(model, design, obs, x0, ordinary=True)
