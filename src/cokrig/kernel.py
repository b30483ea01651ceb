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
    return float(_q0(_half_tanh(theta, design.gaps)))


def _half_tanh(theta, gaps, out=None):
    """``t = tanh(theta d / 2)`` for each gap, into ``out``."""
    return np.tanh(np.multiply(0.5 * theta, gaps, out=out), out=out)


def _q0(t):
    """``q0 = 1' P^{-1} 1 = 1 + sum t`` for each rate."""
    return 1.0 + t.sum(axis=-1)


def _interval_terms(theta, gaps, criterion: str, model: str, terms: bool = True,
                    grad: bool = False, work=None):
    """Unit-variance per-interval terms of a criterion, and its value.

    The forms are those of the ``criteria`` module docstring; ``theta``
    may be an array (terms ``theta.shape + gaps.shape``, value
    ``theta.shape``).  ``terms=False`` returns None for the terms.
    ``work`` is an array of at least ``theta.size`` rows of gaps,
    overwritten, or None to allocate one; a value alone is one pass per
    rate over it, each per-gap array summed before the next one takes it.

    Every term rises with its own gap, so the ``smspe`` value is the
    widest gap's term, which for the ordinary model needs ``q0`` too.
    For ``imspe`` a gap's term is ``F(x) / theta`` with ``F(x) = x coth x
    - 1``, plus for the ordinary model ``G(x) / (2 theta q0)`` with ``G(x)
    = x (3 - t^2) - 6 t``.  Below ``_SERIES_CUTOFF`` each is its Taylor
    series in ``x``, by Horner's rule in ``x^2`` with ``x`` set to zero at
    the gaps past the cutoff, and past it its closed form, taken at those
    gaps only; with ``q = 2 x / expm1(2 x)``, ``F(x) = x - 1 + q``.  The
    value sums the terms, except where every ``x`` is past the cutoff or
    every rate is at least ``k`` (some ``x >= 1`` then, on ``k`` unit-sum
    gaps): there the sum of ``F`` is ``theta sum d - k + sum q``, with
    ``sum d`` taken as 1 in the latter case, so that its
    design-independent part is exact.

    ``grad=True`` adds a third item, the derivatives in the gaps from the
    same pass: for ``imspe`` the value's gradient (shaped like the terms),
    for ``smspe`` the terms' Jacobian (``theta.shape + (k, k)``).  With
    ``t' = (theta / 2) sech^2(x / 2)`` the gradient is ``F'(x) = coth x -
    x csch^2 x`` per gap, plus for the ordinary model ``G'(x) / (2 q0) -
    t' sum g / q0`` with ``G' = t (2 t - x sech^2(x / 2))``; the Jacobian
    is ``diag(t')`` for the simple model, and for the ordinary model with
    ``s = 1 - sech(x / 2)`` it is ``diag(t' + theta s sech t / q0) - (s^2 /
    q0^2) t'^T``, diagonal plus rank one.  Below the cutoff the series are
    differentiated term by term.  The gradient is that of the sum of the
    terms, so it does not assume that the gaps sum to one.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    ordinary = model == "ordinary"
    rate, k = theta[..., 0], gaps.size
    shape = rate.shape + gaps.shape
    work = None if work is None else work[:rate.size].reshape(shape)
    full = terms or grad
    if criterion == "smspe":
        sites = gaps if full else gaps.max(keepdims=True)
        t = _half_tanh(theta, sites, work if full else None)
        if ordinary:
            q0 = _q0(t if full else _half_tanh(theta, gaps, work))[..., None]
        if ordinary or grad:
            e = np.exp(-0.5 * theta * sites)
        if ordinary:
            s = t * t * (1.0 + e * e) / (1.0 + e) ** 2
        if grad:
            sech = 2.0 * e / (1.0 + e * e)
            dt = 0.5 * theta * sech * sech
            diag, rank_one = dt, 0.0
            if ordinary:
                diag = dt + theta * s * sech * t / q0
                rank_one = (s * s / (q0 * q0))[..., :, None] * dt[..., None, :]
            jac = np.eye(k) * diag[..., None, :] - rank_one
        if ordinary:
            t = t + s * s / q0
        out = (t if terms else None, t.max(axis=-1, initial=0.0))
        return out + (jac,) if grad else out

    if work is None and (ordinary or not full):
        work = np.empty(shape)
    if ordinary:
        t = _half_tanh(theta, gaps, work)
        q0 = _q0(t)
    # once every rate is at least k, some x >= 1 on k unit-sum gaps, and
    # the value sums the closed forms over every gap
    split = rate.min() >= k
    x_max = None if split else rate.max() * gaps.max()
    every_small, every_big = not split and x_max < _SERIES_CUTOFF, False
    if not every_small:
        x = theta * gaps
        if not split or terms or grad or ordinary:
            every_big = x.min() >= _SERIES_CUTOFF
    mixed = not (every_small or every_big)
    summed = every_big or split
    with_f = terms or not summed
    per_gap = with_f or grad or ordinary
    if grad and ordinary:
        e = np.exp(-0.5 * theta * gaps)
        sech = 2.0 * e / (1.0 + e * e)
    # q of every gap, once, when both the closed forms and their sum need it
    q_all = _q(x, np.empty(shape)) if summed and (with_f or grad) else None
    if per_gap and not every_small:
        # the closed forms' inputs: every gap's, or those past the cutoff
        at = np.greater_equal(x, _SERIES_CUTOFF) if mixed else ...
        xb = x[at]
        tb = t[at] if ordinary else None
        sb = sech[at] if grad and ordinary else None
        if with_f or grad:
            qb = q_all[at] if summed else _q(xb, np.empty(xb.shape))
    if per_gap and not every_big:
        if mixed:
            # x is zero past the cutoff, so that the series stays finite
            # there and its length follows the gaps below; in place, unless
            # the closed forms' sum still needs x
            y = x.copy() if summed and q_all is None else x
            y[at] = 0.0
            x_max = y.max()
        else:
            y = theta * gaps
        y *= y
        # each term is at most 0.21 x^2 times the one before
        n = min(_COTH_SERIES.size, 1 + int(-17.0 / math.log10(max(0.21 * x_max * x_max, 1e-300))))

    def piece(coefs, tail: int, closed):
        """Per gap, ``sum_j coefs[j] x^(2j+tail)`` below the cutoff and
        ``closed()`` past it; a value alone takes it in ``work``."""
        if every_big:
            return closed()
        out = np.empty(shape) if full else work
        out[...] = coefs[n - 1]
        for c in coefs[:n - 1][::-1]:
            out *= y
            out += c
        for _ in range(tail // 2):
            out *= y
        if tail % 2:
            out *= gaps
            out *= theta
        if mixed:
            out[at] = closed()
        return out

    def f_prime():
        # coth x - x csch^2 x with c = coth x - 1 = q / x, csch^2 = c (c + 2)
        c = qb / xb
        return 1.0 + c - qb * (c + 2.0)

    # a value alone sums each per-gap array before the next takes work
    per, value = None, 0.0
    if with_f:
        f = piece(_COTH_SERIES, 2, lambda: _xcoth(xb, 1.0, qb))
        if terms:
            per = f / theta
        if not summed:
            value = f.sum(axis=-1) / rate
    if grad:
        dvalue = piece(_D_COTH_SERIES, 1, f_prime)
    if ordinary:
        g = piece(_G_SERIES, 5, lambda: xb * (3.0 - tb * tb) - 6.0 * tb)
        gsum = g.sum(axis=-1) / (2.0 * rate * q0)
        value = value + gsum
        q0 = q0[..., None]
        if terms:
            per = per + g / (2.0 * theta * q0)
        if grad:
            dg = piece(_D_G_SERIES, 4, lambda: tb * (2.0 * tb - xb * (sb * sb)))
            dt = 0.5 * theta * sech * sech
            dvalue = dvalue + dg / (2.0 * q0) - gsum[..., None] * dt / q0
    if summed:
        q = q_all if q_all is not None else _q(x, work)
        fsum = _xcoth(rate if split else rate * gaps.sum(), k, q.sum(axis=-1))
        value = fsum / rate + value if ordinary else fsum / rate
    return (per, value, dvalue) if grad else (per, value)


def _q(x, out):
    """``q = 2 x / expm1(2 x)``, into ``out``; 2x is capped at 700, as
    expm1 overflows from 709.8 and x / expm1(700) is below 1e-300."""
    np.minimum(np.multiply(2.0, x, out=out), 700.0, out=out)
    np.divide(x, np.expm1(out, out=out), out=out)
    out *= 2.0
    return out


def _xcoth(x, count, q):
    """``x coth x - 1 = x - 1 + q``, or its sum over ``count`` gaps."""
    return x - (count - q)


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
        t = _half_tanh(theta, design.gaps)
        q0 = _q0(t)
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
