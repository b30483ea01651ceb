"""Exponential-correlation matrix algebra on transect designs.

For sites ``x_1 < ... < x_n`` and decay rate ``theta`` the correlation
matrix ``P`` has entries ``exp(-theta * |x_i - x_j|)``.  Because the
exponential correlation is Markov in one dimension, ``P`` factors in
closed form and its inverse is tridiagonal.  Everything downstream
(prediction weights, error formulas, design criteria) rests on the
closed forms in this module, so each routine returns exact expressions
rather than output of a generic solver.

Throughout, ``w(d) = 1 - exp(-2 * theta * d)`` is the conditional
variance picked up over a gap of width ``d``.  The design criteria's
per-interval terms and the pointwise error are written here once each.
"""

import math
from dataclasses import dataclass

import numpy as np

from .design import Design, _check_fields, _positive, _real
from .exceptions import ConditioningError, ExtrapolationError

# Gaps with theta * d below this would make w(d) numerically
# indistinguishable from zero; refuse to form the noisy inverse.
MIN_THETA_GAP = 1e-10

# Below this x = theta * d the integrated-error terms cancel, and their
# Taylor series in x^2 take over; with ten terms both sides stay within
# a few units in the last place.
_SERIES_CUTOFF = 0.5

# x coth x - 1 = sum_k _COTH_SERIES[k] x^(2k+2)
_COTH_SERIES = np.array([1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
                         4 / 18243225, -3617 / 162820783125, 87734 / 38979295480125,
                         -349222 / 1531329465290625])

# x (3 - t^2) - 6 t with t = tanh(x / 2) is sum_k _G_SERIES[k] x^(2k+5)
_G_SERIES = np.array([1 / 60, -17 / 5040, 31 / 60480, -691 / 9979200, 5461 / 622702080,
                      -929569 / 871782912000, 3202291 / 25406244864000,
                      -221930581 / 15205637551104000, 4722116521 / 2838385676206080000,
                      -56963745931 / 304141373398646784000])

# Their derivatives in x, term by term: (x coth x - 1)' = coth x - x csch^2 x
# is sum_k _D_COTH_SERIES[k] x^(2k+1), and the G series' is sum_k
# _D_G_SERIES[k] x^(2k+4).
_D_COTH_SERIES = _COTH_SERIES * np.arange(2, 2 * _COTH_SERIES.size + 1, 2)
_D_G_SERIES = _G_SERIES * np.arange(5, 2 * _G_SERIES.size + 5, 2)


@dataclass(frozen=True)
class ExponentialKernel:
    """Stationary exponential covariance ``sigma11 * exp(-theta * h)``.

    Parameters
    ----------
    theta : float
        Positive decay rate.  Correlation at distance ``h`` is
        ``exp(-theta * h)``.
    sigma11 : float, optional
        Positive variance scale, 1 by default.
    """

    theta: float
    sigma11: float = 1.0

    def __post_init__(self):
        _check_fields(self, _positive, "theta", "sigma11")


def precision_matrix(design: Design, theta: float) -> np.ndarray:
    """Tridiagonal inverse of the exponential correlation matrix.

    With ``w_i = 1 - exp(-2 theta d_i)`` the nonzero entries are

    * corners: ``1 / w_1`` and ``1 / w_{n-1}``,
    * interior diagonal: ``1 / w_{i-1} + exp(-2 theta d_i) / w_i``,
    * off-diagonal: ``-exp(-theta d_i) / w_i``.

    Raises a conditioning error when any ``theta * d_i`` falls below
    ``MIN_THETA_GAP``.
    """
    theta = _positive(theta, "theta")
    gaps = design.gaps
    if theta * gaps.min() < MIN_THETA_GAP:
        raise ConditioningError(
            f"theta * gap = {theta * gaps.min():.3e} below {MIN_THETA_GAP:.0e}; "
            "sites are numerically coincident"
        )
    n = design.n
    w = -np.expm1(-2.0 * theta * gaps)
    diag = np.empty(n)
    diag[0] = 1.0
    diag[1:] = 1.0 / w
    diag[:-1] += np.exp(-2.0 * theta * gaps) / w
    off = -np.exp(-theta * gaps) / w
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def ones_quadratic_form(design: Design, theta: float) -> float:
    """Quadratic form ``1' P^{-1} 1`` in closed form.

    Equals ``1 + sum_i tanh(theta * d_i / 2)``; with gaps summing to one
    this is also ``sum_i omega(d_i)`` for ``omega(d) = d + tanh(theta d / 2)``.
    Strictly increasing in every gap, which is what makes the ordinary
    criteria Schur-convex.
    """
    theta = _positive(theta, "theta")
    return 1.0 + float(np.sum(np.tanh(0.5 * theta * design.gaps)))


def _piecewise(x, small, direct, coefs, power: int):
    """``direct()`` where ``x >= _SERIES_CUTOFF``, and below it the series
    ``sum_k coefs[k] x^(2k+power)`` by Horner's rule in ``x^2``; it sums as
    many terms as double precision needs, each shrinking by at most
    ``0.21 x^2``.  ``small`` is ``x < _SERIES_CUTOFF``.
    """
    every = small.all()
    out = None if every else direct()
    if not (every or small.any()):
        return out
    xs = x if every else x[small]
    y = xs * xs
    k = min(coefs.size, 1 + int(-17.0 / math.log10(max(0.21 * float(y.max()), 1e-300))))
    acc = coefs[k - 1]
    for c in coefs[:k - 1][::-1]:
        acc = acc * y + c
    acc = acc * (y if power == 2 else y * y * xs if power == 5 else y * y if power == 4 else xs)
    if every:
        return acc
    out[small] = acc
    return out


def _interval_terms(theta, gaps, criterion: str, model: str, terms: bool = True,
                    grad: bool = False):
    """Unit-variance per-interval terms of a criterion, and its value.

    The forms are those of the ``criteria`` module docstring; ``theta``
    may be an array (terms ``theta.shape + gaps.shape``, value
    ``theta.shape``).  ``x coth x - 1`` is ``x - 1 + q`` with ``q = 2 x
    e^{-2x} / (1 - e^{-2x})``; as the gaps sum to one, the simple imspe
    value is also ``1 - (k - sum q) / theta`` for ``k`` gaps, whose
    design-independent part is exact, used once every ``theta >= k``
    (some ``x >= 1`` then).  ``terms=False`` may return None for terms.

    ``grad=True`` adds a third item, the derivatives in the gaps from the
    same pass: for ``imspe`` the value's gradient (shaped like the terms),
    for ``smspe`` the terms' Jacobian (``theta.shape + (k, k)``).  With
    ``t' = (theta / 2) sech^2(x / 2)`` the gradient is ``coth x - x
    csch^2 x`` per gap, plus for the ordinary model ``G'(x) / (2 q0) -
    t' sum g / q0`` with ``G' = t (2 t - x sech^2(x / 2))``; the Jacobian
    is ``diag(t')`` for the simple model, and for the ordinary model with
    ``s = 1 - sech(x / 2)`` it is ``diag(t' + theta s sech t / q0) - (s^2 /
    q0^2) t'^T``, diagonal plus rank one.  Below the cutoff the series are
    differentiated term by term.  The gradient is that of the sum of the
    terms, so it does not assume that the gaps sum to one.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    x = theta * gaps
    ordinary = model == "ordinary"
    tanh_terms = ordinary or criterion == "smspe"
    if tanh_terms:
        t = np.tanh(0.5 * x)
    if ordinary:
        q0 = 1.0 + t.sum(axis=-1, keepdims=True)
    if (criterion == "smspe" and ordinary) or (grad and tanh_terms):
        e = np.exp(-0.5 * x)
    if grad and tanh_terms:
        sech = 2.0 * e / (1.0 + e * e)
        dt = 0.5 * theta * sech * sech
    if criterion == "smspe":
        if grad:
            diag, low = dt, 0.0
            if ordinary:
                s = t * t * (1.0 + e * e) / (1.0 + e) ** 2
                diag = dt + theta * s * sech * t / q0
                low = (s * s / (q0 * q0))[..., :, None] * dt[..., None, :]
            jac = np.eye(gaps.shape[-1]) * diag[..., None, :] - low
        if ordinary:
            t = t + (t * t * (1.0 + e * e) / (1.0 + e) ** 2) ** 2 / q0
        value = t.max(axis=-1, initial=0.0)
        return (t, value, jac) if grad else (t, value)

    rate, k = theta[..., 0], gaps.shape[-1]
    split = rate.min() >= k
    small = x < _SERIES_CUTOFF
    if split or not small.all():
        m = -2.0 * x
        em, den = np.exp(m), np.expm1(m)
        q = m * em / den
    per = None
    if terms or not split:
        per = _piecewise(x, small, lambda: x - 1.0 + q, _COTH_SERIES, 2) / theta
    value = 1.0 - (k - q.sum(axis=-1)) / rate if split else per.sum(axis=-1)
    if grad:
        def d_coth():
            # coth x - x csch^2 x with c = coth x - 1, q = x c, csch^2 = c (c + 2)
            c = -2.0 * em / den
            return 1.0 + c - q * (c + 2.0)
        dvalue = _piecewise(x, small, d_coth, _D_COTH_SERIES, 1)
    if ordinary:
        g = _piecewise(x, small, lambda: x * (3.0 - t * t) - 6.0 * t, _G_SERIES, 5)
        g /= 2.0 * theta * q0
        per = None if per is None else per + g
        value = value + g.sum(axis=-1)
        if grad:
            dg = _piecewise(x, small, lambda: t * (2.0 * t - x * (sech * sech)), _D_G_SERIES, 4)
            dvalue = dvalue + dg / (2.0 * q0) - g.sum(axis=-1, keepdims=True) * dt / q0
    return (per, value, dvalue) if grad else (per, value)


def _bracket(design: Design, x0) -> np.ndarray:
    """Targets clamped into ``[x_start, x_end]``; beyond round-off, ``ExtrapolationError``."""
    x0 = np.asarray(x0, dtype=float)
    slack = 1e-12 * max(1.0, abs(design.x_start), abs(design.x_end))
    inside = (x0 >= design.x_start - slack) & (x0 <= design.x_end + slack)
    if not inside.all():
        raise ExtrapolationError(
            f"target {x0[~inside].flat[0]} outside sampled interval "
            f"[{design.x_start}, {design.x_end}]"
        )
    return np.minimum(np.maximum(x0, design.x_start), design.x_end)


def _pointwise(design: Design, theta: float, x0, ordinary: bool = False,
               weights: bool = False) -> tuple:
    """Unit-variance kriging error at targets, and ``1 - 1' P^{-1} sigma0``.

    The simple error ``1 - sigma0' P^{-1} sigma0`` and the cross form are
    products over the bracketing sites at distances ``a`` and ``b`` (see
    ``predict.mspe_closed_form``), taken through ``expm1`` so that neither
    cancels; both are exactly 0 at a site.  ``ordinary`` adds ``cross^2 /
    q0``, ``q0 = 1' P^{-1} 1 = 1 + sum_j t_j`` with ``t_j = tanh(theta d_j
    / 2)``.  With ``weights``, also the weights at a scalar target:
    ``sinh(theta b) / sinh(theta d)`` and ``sinh(theta a) / sinh(theta d)``
    on the bracketing sites, plus for ``ordinary`` ``P^{-1} 1 = (t_{j-1} +
    t_j) / 2`` (``t_0 = t_n = 1``) times ``cross / q0``.
    """
    x0 = _bracket(design, x0)
    pts = design.points
    i = np.minimum(np.searchsorted(pts, x0, side="right") - 1, design.n - 2)
    a, b, d = x0 - pts[i], pts[i + 1] - x0, pts[i + 1] - pts[i]
    if np.any(theta * d < MIN_THETA_GAP):
        raise ConditioningError(
            f"theta * gap = {np.min(theta * d):.3e} below {MIN_THETA_GAP:.0e} "
            "in a bracketing interval"
        )
    ea, eb, ed = np.expm1(-2.0 * theta * a), np.expm1(-2.0 * theta * b), np.expm1(-2.0 * theta * d)
    err = ea * eb / -ed
    cross = np.expm1(-theta * a) * np.expm1(-theta * b) / (1.0 + np.exp(-theta * d))
    if ordinary:
        t = np.tanh(0.5 * theta * design.gaps)
        q0 = 1.0 + float(np.sum(t))
        err = err + cross**2 / q0
    if not weights:
        return err, cross
    if ordinary:
        w = np.empty(design.n)
        w[:-1] = t
        w[-1] = 1.0
        w[1:] += t
        w[0] += 1.0
        w *= 0.5
        w *= cross / q0
    else:
        w = np.zeros(design.n)
    w[i] += np.exp(-theta * a) * eb / ed
    w[i + 1] += np.exp(-theta * b) * ea / ed
    return err, cross, w


def quad_forms_at(design: Design, theta: float, x0: float) -> tuple[float, float]:
    """Quadratic forms linking a target site to its bracketing interval.

    For ``x0`` inside interval ``i`` at offset ``a = x0 - x_i`` of width
    ``d = d_i``, the cross-covariance vector ``sigma0`` with entries
    ``exp(-theta |x_j - x0|)`` satisfies

    * ``sigma0' P^{-1} sigma0
        = (e^{-2 theta a} - 2 e^{-2 theta d} + e^{-2 theta (d - a)}) / w(d)``
    * ``1' P^{-1} sigma0
        = (e^{-theta a} + e^{-theta (d - a)}) / (1 + e^{-theta d})``

    so only the bracketing sites matter, again by the Markov screening
    property.  Returns the pair in that order.  Both are exactly 1 when
    ``x0`` coincides with a design site.

    Raises
    ------
    ExtrapolationError
        If ``x0`` lies outside ``[x_start, x_end]``; the closed error
        formulas do not extend beyond the sampled interval.
    """
    theta = _positive(theta, "theta")
    simple, cross = _pointwise(design, theta, _real(x0, "x0"))
    return 1.0 - float(simple), 1.0 - float(cross)
