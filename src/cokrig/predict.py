"""Best linear unbiased prediction of the primary process.

Simple variants assume a known zero mean; ordinary variants estimate an
unknown constant mean per process via the usual augmented equations.

* Kriging with an exponential correlogram, given as an
  :class:`ExponentialKernel` or a ``(sigma11, ExponentialCorrelogram)``
  pair, is O(n) per target: the kernel is Markov on the transect, so
  the simple-kriging weights sit on the two sites bracketing the
  target, and the ordinary model adds the closed-form ``P^{-1} 1``.
  The error comes from the same bracket.
* Cokriging a valid model with ``C12 = c * C11`` (``reduction_applies``)
  is kriging of the primary from its own data, with zero secondary
  weights.
* Cokriging NS2 is O(n) per target: its joint covariance is a sum of
  four exponential terms, so one banded LU solve of a sparse embedding
  gives the weights without forming the ``2n x 2n`` matrix.
* One dense Cholesky solve serves the rest: cokriging NS3, and kriging
  with any other correlogram, which is also where the reducible
  families with a non-exponential primary end up.

No pseudo-inverse is used anywhere: a factorization failure raises
``ConditioningError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernel as kern
from .covmodel import (NS2, BivariateCovariance, Correlogram, ExponentialCorrelogram,
                       _require_valid, build_cross_vector, build_joint_covariance,
                       reduction_applies)
from .design import Design, _positive, _real
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
    carries an unknown constant mean (see :func:`_gls`).

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
    return _gls(sol, cov0, var0, drift)


# The vectors ``v_k`` that write NS2's 2 x 2 site blocks
# ``R1 e^{-r h} + R2 e^{-alpha r h}`` as four rank-one terms
# ``coef_k v_k v_k' e^{-rate_k h}``: ``R1 = diag(sigma11, sigma22)`` gives
# the first two at rate ``r``, and ``R2 = rho [[0, 1], [1, 0]] =
# rho/2 (1, 1)(1, 1)' - rho/2 (1, -1)(1, -1)'`` the last two at ``alpha r``.
_NS2_VECTORS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])

# Unknowns per site in the banded NS2 system: the lower sums l_1..l_4,
# the weights x1 and x2, the upper sums u_1..u_4.  It is also the number
# of bands on either side of the diagonal.
_NS2_BLOCK = 10


def _ns2_blup(model: NS2, design: Design, cov0: np.ndarray, var0: float,
              drift: np.ndarray | None):
    """:func:`_blup` for NS2 in O(n) per target, without forming the covariance.

    With ``y_{k,j} = v_k' x_j``, the covariance times ``x`` at site ``i``
    is ``sum_k coef_k v_k (l_{k,i} + y_{k,i} + u_{k,i})``.  The strict
    lower and upper sums obey ``l_{k,i} = phi_{k,i} (l_{k,i-1} +
    y_{k,i-1})`` and ``u_{k,i} = phi_{k,i+1} (u_{k,i+1} + y_{k,i+1})``
    with ``phi_{k,i} = e^{-rate_k d_{i-1}} <= 1``, so no growing
    exponential is formed (the generalized Rybicki-Press embedding).
    Those recursions and the data equations, unknowns ordered site by
    site, make a system of ``10 n`` rows with 10 bands on either side of
    the diagonal: one LAPACK banded LU (``gbsv``) solves it for every
    right-hand side at once.
    """
    from scipy import linalg

    n, b = design.n, _NS2_BLOCK
    rho = math.sqrt(model.sigma11 * model.sigma22) * model.lamc
    rates = -math.log(model.lam) * np.array([1.0, 1.0, model.alpha, model.alpha])
    phi = np.exp(-np.outer(rates, design.gaps))
    coef = np.array([model.sigma11, model.sigma22, 0.5 * rho, -0.5 * rho])
    # the coefficients within one site, the same at every site
    site = np.eye(b)
    site[4:6, :4] = site[4:6, 6:] = (coef[:, None] * _NS2_VECTORS).T
    site[4:6, 4:6] = [[model.sigma11, rho], [rho, model.sigma22]]
    # LAPACK's band storage, entry (i, j) at ab[b + i - j, j], with the
    # column j = b * site + position split in two axes
    ab = np.zeros((2 * b + 1, n * b))
    band = ab.reshape(2 * b + 1, n, b)
    p, q = np.indices((b, b)).reshape(2, -1)
    band[b + p - q, :, q] = site.ravel()[:, None]
    # each l row reaches back to the previous site's l and x, each u row
    # forward to the next site's u and x, all through -phi
    band[2 * b, :-1, :4] = band[0, 1:, 6:] = -phi.T
    k = np.arange(4)
    for m in (0, 1):
        band[2 * b - 4 - m + k, :-1, 4 + m] = band[2 - m + k, 1:, 4 + m] = (
            -phi * _NS2_VECTORS[:, m, None])
    rhs = cov0 if drift is None else np.column_stack([cov0, drift])
    cols = rhs.reshape(2, n, -1)
    full = np.zeros((n, b, cols.shape[2]))
    full[:, 4:6] = cols.transpose(1, 0, 2)
    try:
        x = linalg.solve_banded((b, b), ab, full.reshape(n * b, -1), overwrite_ab=True,
                                overwrite_b=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise ConditioningError(f"NS2 cokriging system is singular: {exc}") from exc
    sol = x.reshape(n, b, -1)[:, 4:6].transpose(1, 0, 2).reshape(rhs.shape)
    return _gls(sol, cov0, var0, drift)


def _gls(sol, cov0: np.ndarray, var0: float, drift: np.ndarray | None):
    """Weights and error from ``sol``, the data covariance's solve of
    ``cov0``, or of ``[cov0, drift]`` when there is a drift.

    Each ``drift`` column carries an unknown constant mean; the first is
    the target's own, so its weights sum to one and the others' to zero.
    """
    from scipy import linalg

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
    return _positive(sigma11, "sigma11"), corr


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
    x0 = _real(x0, "x0")
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    if not np.all(np.isfinite(z1)):
        raise DomainError("observations must be finite")
    if z1.size != design.n:
        raise DomainError(f"z1 has {z1.size} entries for {design.n} sites")
    if isinstance(kernel, ExponentialKernel):
        sigma11, corr = kernel.sigma11, ExponentialCorrelogram(kernel.theta)
    else:
        sigma11, corr = _check_pair(kernel)
    if isinstance(corr, ExponentialCorrelogram):
        err, _, weights = kern._pointwise(design, corr.rate, x0, ordinary, weights=True)
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
    Correlogram)`` pair.  An exponential correlogram gets closed-form
    weights on the two bracketing sites; anything else takes the dense
    route.
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
    x0 = float(kern._bracket(design, _real(x0, "x0")))
    cov0, var0 = build_cross_vector(model, design, x0)
    drift = None
    if ordinary:
        drift = np.zeros((2 * n, 2))
        drift[:n, 0] = 1.0
        drift[n:, 1] = 1.0
    if isinstance(model, NS2):
        weights, mspe = _ns2_blup(model, design, cov0, var0, drift)
    else:
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
