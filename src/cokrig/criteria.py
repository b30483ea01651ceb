"""Design criteria: worst-case and integrated prediction error.

All criteria live on designs normalized to the unit interval (use
``design.rescale`` first; the exponential kernel only feels the product
of rate and distance, so nothing is lost).  With gaps ``d_i``,
``x_i = theta d_i`` and ``t_i = tanh(x_i / 2)``:

* the simple-kriging error supremum over interval ``i`` is
  ``sigma11 * t_i``, attained at the midpoint;
* the ordinary variant adds ``sigma11 * (t_i^2 / (1 + sech(x_i / 2)))^2
  / q0``, i.e. ``(1 - sech)^2 / q0`` without the cancellation, with
  ``q0 = 1'P^{-1}1 = 1 + sum_i t_i``; it too peaks at the midpoint;
* the integrated simple-kriging error over interval ``i`` is
  ``sigma11 * (x_i coth x_i - 1) / theta``;
* the ordinary variant adds ``sigma11 * g(d_i) / q0`` with
  ``g(d) = (x (3 - t^2) - 6 t) / (2 theta)``.

Both integrated terms cancel at small ``x``, where their Taylor series
in ``x^2`` (``x^2/3 - x^4/45 + ...``, ``x^5/120 - ...``) take over.  The
criteria, the risk quadrature and the optimizer all get these terms from
``kernel._interval_terms``.

Every one of these is symmetric and convex in the gap vector, hence
Schur-convex, which is why the equispaced design minimizes each
criterion and their averages over any decay-rate prior.

Bayes risks average a criterion over a prior on ``theta`` and scale by
the prior mean of ``sigma11`` (criteria are linear in the variance).
A prior is a table of ``(rate, density)`` nodes, linear between them; a
uniform prior is the flat two-node table.  The average walks the
table's segments.  On a flat segment the simple-model criteria
integrate in closed form, through ``log cosh`` and ``log(sinh x / x)``;
every other segment takes Gauss-Legendre quadrature, starting at 8
nodes and doubling until two successive estimates agree to a relative
``RISK_QUAD_TOL``.  The integrands are analytic in ``theta`` on each
segment, so the rule converges geometrically: on the paper's prior the
8- and 16-node estimates already agree, 24 rate evaluations in all.
``risk_report`` returns a risk with the nodes it took and the last
doubling difference.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel as kern
from .design import Design, _check_fields, _positive, _real
from .exceptions import DomainError, NumericError
from .kernel import ExponentialKernel

__all__ = [
    "ThetaPrior",
    "CriterionReport",
    "smspe",
    "imspe",
    "risk_smspe",
    "risk_imspe",
    "RiskReport",
    "risk_report",
    "relative_efficiency",
]

MODELS = ("simple", "ordinary")

# Gauss-Legendre node counts tried by the risk quadrature on each prior
# segment: start at 8 and double until two successive estimates agree to
# RISK_QUAD_TOL relative to the newer one, or fail beyond RISK_QUAD_MAX.
RISK_QUAD_START = 8
RISK_QUAD_MAX = 4096
RISK_QUAD_TOL = 1e-9

# The risk quadrature evaluates at most this many (node, gap) terms at
# once, so its memory does not grow with the number of sites.
_RISK_QUAD_BLOCK = 2**19

# log(sinh x / x) integrates (x coth x - 1) / x term by term.
_SINHC_SERIES = kern._COTH_SERIES / np.arange(2, 2 * kern._COTH_SERIES.size + 1, 2)

# A flat prior segment [lo, hi] with hi at least this multiple of lo is
# wide enough for its closed forms' differences to cancel little.
_WIDE_SEGMENT = 1.5


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise DomainError(f"model must be one of {MODELS}, got {model!r}")
    return model


def _check_kernel(kernel) -> ExponentialKernel:
    if not isinstance(kernel, ExponentialKernel):
        raise DomainError("criteria require an ExponentialKernel")
    return kernel


def _require_unit(design: Design):
    if not design.is_unit_interval():
        raise DomainError(
            "criteria are defined for designs on [0, 1]; rescale first"
        )


# --------------------------------------------------------------------------
# prior over the decay rate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaPrior:
    """Prior on the exponential decay rate, plus the mean variance scale.

    ``nodes`` is the prior's density table: ``(rate, density)`` pairs at
    positive, strictly increasing rates, the density linear between them
    and zero outside, integrating to one.  :meth:`uniform` builds the flat
    two-node table and :meth:`tabulated` the table it is given.  ``nodes``
    is stored as a tuple of float pairs.  ``e_sigma11`` is the prior mean
    of the variance scale; risks are proportional to it.
    """

    nodes: tuple[tuple[float, float], ...]
    e_sigma11: float = 1.0

    def __post_init__(self):
        _check_fields(self, _positive, "e_sigma11")
        try:
            nodes = tuple((_real(t, "prior rate"), _real(r, "prior density"))
                          for t, r in self.nodes)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"prior nodes must be (rate, density) pairs: {exc}") from None
        object.__setattr__(self, "nodes", nodes)
        table = np.array(nodes).reshape(-1, 2)
        t, r = table.T
        if t.size < 2:
            raise DomainError("tabulated prior needs at least two nodes")
        if not np.isfinite(table).all():
            raise DomainError("prior nodes must be finite")
        if t[0] <= 0 or np.any(np.diff(t) <= 0):
            raise DomainError("prior rates must be positive and strictly increasing")
        if np.any(r < 0):
            raise DomainError("prior density must be nonnegative")
        mass = float(np.trapezoid(r, t))
        if abs(mass - 1.0) > 1e-6:
            raise DomainError(
                f"tabulated density integrates to {mass!r}, expected 1 "
                "within 1e-6 under trapezoidal quadrature"
            )

    @classmethod
    def uniform(cls, theta1: float, theta2: float, e_sigma11: float = 1.0) -> "ThetaPrior":
        t1, t2 = _positive(theta1, "theta1"), _positive(theta2, "theta2")
        if not t1 < t2:
            raise DomainError(f"need theta1 < theta2, got [{t1}, {t2}]")
        r = 1.0 / (t2 - t1)
        return cls(((t1, r), (t2, r)), e_sigma11)

    @classmethod
    def tabulated(cls, rates, densities, e_sigma11: float = 1.0) -> "ThetaPrior":
        return cls(zip(rates, densities, strict=True), e_sigma11)

    @property
    def support(self) -> tuple[float, float]:
        return self.nodes[0][0], self.nodes[-1][0]

    def density(self, thetas) -> np.ndarray:
        t, r = np.array(self.nodes).T
        return np.interp(np.asarray(thetas, dtype=float), t, r, left=0.0, right=0.0)


# --------------------------------------------------------------------------
# criterion reports
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CriterionReport:
    """A criterion value with its per-interval breakdown.

    ``per_interval`` is a read-only float array.  For ``smspe`` its
    entries are each interval's error supremum and ``value`` is their
    maximum; for ``imspe`` they are each interval's integral
    contribution and ``value`` is their sum.
    """

    criterion: str
    model: str
    value: float
    per_interval: np.ndarray


# --------------------------------------------------------------------------
# criteria on a known kernel
# --------------------------------------------------------------------------

def _report(criterion: str, kernel, design: Design, model: str) -> CriterionReport:
    kernel = _check_kernel(kernel)
    model = _check_model(model)
    _require_unit(design)
    per, value = kern._interval_terms(kernel.theta, design.gaps, criterion, model)
    s11 = kernel.sigma11
    per = s11 * per
    per.flags.writeable = False
    return CriterionReport(criterion, model, s11 * float(value), per)


def smspe(kernel: ExponentialKernel, design: Design, model: str = "simple") -> CriterionReport:
    """Supremum of the kriging MSPE over the unit interval.

    The per-interval supremum sits at the interval midpoint and is
    increasing in the gap, so the criterion value is attained on (one
    of) the widest gap(s).
    """
    return _report("smspe", kernel, design, model)


def imspe(kernel: ExponentialKernel, design: Design, model: str = "simple") -> CriterionReport:
    """Integral of the kriging MSPE over the unit interval."""
    return _report("imspe", kernel, design, model)


# --------------------------------------------------------------------------
# Bayes risks
# --------------------------------------------------------------------------

def _check_prior(prior) -> ThetaPrior:
    if not isinstance(prior, ThetaPrior):
        raise DomainError("risk criteria require a ThetaPrior")
    return prior


@lru_cache(maxsize=16)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


@lru_cache(maxsize=64)
def _prior_rule(prior: ThetaPrior, m: int):
    """``m``-node Gauss-Legendre rates and density-weighted weights for each
    segment between the prior's nodes (the rule stalls across kinks)."""
    x, w = _leggauss(m)
    rules = []
    for (lo, _), (hi, _) in zip(prior.nodes, prior.nodes[1:]):
        thetas = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        rules.append((thetas, 0.5 * (hi - lo) * w * prior.density(thetas)))
    return rules


def _log_cosh(y):
    """``log cosh y`` elementwise for ``y >= 0``, without overflow or cancellation."""
    return np.where(y < 1.0, np.log1p(2.0 * np.sinh(0.5 * np.minimum(y, 1.0)) ** 2),
                    y - math.log(2.0) + np.log1p(np.exp(-2.0 * y)))


def _log_sinhc(x):
    """``log(sinh x / x)`` for ``x > 0``, by its series below the cutoff."""
    return kern._piecewise(x, x < kern._SERIES_CUTOFF, lambda: x + np.log(-np.expm1(-2.0 * x))
                           - np.log(2.0 * x), _SINHC_SERIES, 2)


def _x_coth_x(x):
    """``x coth x - 1`` for ``x > 0``, by its series below the cutoff."""
    return kern._piecewise(x, x < kern._SERIES_CUTOFF, lambda: x / np.tanh(x) - 1.0,
                           kern._COTH_SERIES, 2)


def _tanh_step(a, b, delta):
    """``tanh b - tanh a`` for ``b = a + delta``, as ``sinh delta / (cosh a
    cosh b)`` scaled by ``e^{-a-b}`` so that nothing overflows."""
    return -2.0 * np.exp(-2.0 * a) * np.expm1(-2.0 * delta) / (
        (1.0 + np.exp(-2.0 * a)) * (1.0 + np.exp(-2.0 * b)))


def _log_cosh_step(a, delta):
    """``log cosh(a + delta) - log cosh a`` for ``delta >= 0``, without
    cancellation: ``log1p(2 sinh^2(delta / 2) + tanh(a) sinh delta)``, and
    from ``delta = 1`` on, where ``sinh`` could overflow, ``delta +
    log1p(expm1(-2 delta) e^{-2a} / (1 + e^{-2a}))``."""
    near, e = np.minimum(delta, 1.0), np.exp(-2.0 * a)
    return np.where(delta < 1.0, np.log1p(2.0 * np.sinh(0.5 * near) ** 2 + np.tanh(a) * np.sinh(near)),
                    delta + np.log1p(np.expm1(-2.0 * delta) * e / (1.0 + e)))


def _series_step(coefs, u, v):
    """``(p(v) - p(u)) / (v - u)`` for ``p(y) = sum_k coefs[k] y^(k+1)``:
    Horner's rule at ``v`` gives the quotient's coefficients, and Horner's
    rule at ``u`` on those sums the divided difference without subtracting
    ``p(u)`` from ``p(v)``."""
    b = acc = coefs[-1]
    for c in coefs[-2::-1]:
        b = c + v * b
        acc = b + u * acc
    return acc


def _sinhc_step(a, b, delta):
    """``S(b) - S(a)`` and ``F(b) - F(a)`` for ``S(x) = log(sinh x / x)``,
    ``F(x) = x coth x - 1`` and ``b = a + delta < _WIDE_SEGMENT a``, without
    subtracting nearly equal values.  Below the cutoff both are ``b^2 - a^2
    = delta (a + b)`` times a divided difference of their series in ``x^2``.
    Above it ``a > _SERIES_CUTOFF / _WIDE_SEGMENT``, and with ``log(sinh b /
    sinh a) = delta + log1p(e^{-2a} expm1(-2 delta) / expm1(-2a))``, ``S(b) -
    S(a)`` is that minus ``log1p(delta / a)`` and ``F(b) - F(a) = delta coth
    b - a sinh delta / (sinh a sinh b)``, each scaled so that nothing
    overflows."""
    small = b < kern._SERIES_CUTOFF
    ds, df = np.empty(b.shape), np.empty(b.shape)
    sa, sb, sd = a[small], b[small], delta[small]
    width = sd * (sa + sb)
    ds[small] = width * _series_step(_SINHC_SERIES, sa * sa, sb * sb)
    df[small] = width * _series_step(kern._COTH_SERIES, sa * sa, sb * sb)
    la, lb, ld = a[~small], b[~small], delta[~small]
    ea, eb, ed = np.expm1(-2.0 * la), np.expm1(-2.0 * lb), np.expm1(-2.0 * ld)
    shift = np.exp(-2.0 * la) * ed / ea
    ds[~small] = ld + np.log1p(shift) - np.log1p(ld / la)
    df[~small] = ld * (1.0 - 2.0 * np.exp(-2.0 * lb) / eb) + 2.0 * la * shift / eb
    return ds, df


def _flat_integral(criterion: str, lo: float, hi: float, gaps, terms: bool, grad: bool = False):
    """Integral over ``[lo, hi]`` in the rate of the simple model's
    unit-variance criterion, or with ``terms`` of each per-interval term;
    the closed forms are those of :func:`risk_smspe` and :func:`risk_imspe`.

    A wide segment (``hi >= _WIDE_SEGMENT lo``) takes them as differences
    at the two ends, which lose at most a factor of about 3 to
    cancellation; a narrower one takes :func:`_log_cosh_step` and
    :func:`_sinhc_step`.  With ``grad``, also each term's derivative in its
    own gap, for ``smspe`` ``(2 / d^2) (H(B) - H(A))`` with ``H(u) = u tanh
    u - log cosh u`` at ``A, B = lo d / 2, hi d / 2``, and for ``imspe``
    ``b S'(b d) - a S'(a d) = (F(hi d) - F(lo d)) / d``.
    """
    wide = hi >= _WIDE_SEGMENT * lo
    if criterion == "smspe":
        d = gaps if terms else gaps.max()
        a, b, delta = 0.5 * lo * d, 0.5 * hi * d, 0.5 * (hi - lo) * d
        step = _log_cosh(b) - _log_cosh(a) if wide else _log_cosh_step(a, delta)
        value = 2.0 * step / d
        if not grad:
            return value
        return value, 2.0 * (delta * np.tanh(b) + a * _tanh_step(a, b, delta) - step) / (d * d)
    if wide:
        s = _log_sinhc(np.multiply.outer((lo, hi), gaps))
        if not terms:
            s = s.sum(axis=-1)
        value = s[1] - s[0]
        if not grad:
            return value
        return value, (_x_coth_x(hi * gaps) - _x_coth_x(lo * gaps)) / gaps
    step, dstep = _sinhc_step(lo * gaps, hi * gaps, (hi - lo) * gaps)
    value = step if terms else step.sum()
    return (value, dstep / gaps) if grad else value


@dataclass(frozen=True)
class RiskReport:
    """A Bayes risk with the work its prior quadrature took.

    ``nodes`` counts the rates at which the criterion was evaluated, over
    every Gauss-Legendre rule tried and every segment of the prior;
    ``error`` is the last doubling difference, summed over the segments
    and scaled like ``value``.  Segments in closed form add to neither.
    """

    value: float
    nodes: int
    error: float


def _risk(criterion: str, prior: ThetaPrior, gaps, model: str, terms: bool = False,
          grad: bool = False):
    """Bayes risk on a unit-sum gap vector; also the optimizer's objective.

    Walks the prior's segments.  The simple model on a flat segment takes
    the closed form of :func:`_flat_integral` times the density.  Every
    other segment takes Gauss-Legendre quadrature, doubling the node count
    from ``RISK_QUAD_START`` until two successive estimates differ by at
    most ``RISK_QUAD_TOL`` times the newer one's largest entry; the nodes
    are evaluated in blocks of at most ``_RISK_QUAD_BLOCK`` terms.  With
    ``terms=True`` the per-interval terms are averaged instead, and
    ``value`` is an array with one average per gap.

    ``grad=True`` returns the report and the derivatives in the gaps,
    averaged by the rule the value settled on: the value's gradient, or
    with ``terms`` (for ``smspe``) the terms' Jacobian.
    """
    size = gaps.size * (gaps.size if grad and terms else 1)
    block = max(1, _RISK_QUAD_BLOCK // size)
    pick = 0 if terms else 1
    total, dtotal, nodes, error = 0.0, 0.0, 0, 0.0
    for seg, ((lo, r_lo), (hi, r_hi)) in enumerate(zip(prior.nodes, prior.nodes[1:])):
        if model == "simple" and r_lo == r_hi:
            flat = _flat_integral(criterion, lo, hi, gaps, terms, grad)
            if grad:
                flat, dflat = flat
                dtotal += r_lo * (np.diag(dflat) if terms else dflat)
            total += r_lo * flat
            continue
        m, prev = RISK_QUAD_START, None
        while True:
            thetas, weights = _prior_rule(prior, m)[seg]
            est = dest = 0
            for j in range(0, m, block):
                out = kern._interval_terms(thetas[j:j + block], gaps, criterion, model,
                                           terms=terms, grad=grad)
                est = est + weights[j:j + block] @ out[pick]
                if grad:
                    dest = dest + np.tensordot(weights[j:j + block], out[2], axes=1)
                del out  # one block's arrays alive at a time, as the block size intends
            nodes += m
            if prev is not None:
                diff = float(np.max(np.abs(est - prev)))
                if diff <= RISK_QUAD_TOL * float(np.max(np.abs(est))):
                    break
            if m >= RISK_QUAD_MAX:
                raise NumericError(
                    f"risk quadrature did not stabilize to a relative {RISK_QUAD_TOL} "
                    f"within {RISK_QUAD_MAX} nodes on segment {seg} of the prior"
                )
            prev = est
            m *= 2
        total += est
        dtotal += dest
        error += diff
    value = total if terms else float(total)
    report = RiskReport(prior.e_sigma11 * value, nodes, prior.e_sigma11 * error)
    return (report, prior.e_sigma11 * dtotal) if grad else report


def risk_smspe(prior: ThetaPrior, design: Design, model: str = "simple") -> float:
    """Prior-averaged supremum criterion.

    For the simple model the theta-integral of ``tanh(theta d_max / 2)``
    over a flat segment ``[a, b]`` of density ``r`` is ``log cosh``,
    giving the segment's closed form

        ``E_sigma * r * 2 (log cosh(b d / 2) - log cosh(a d / 2)) / d``

    with ``d`` the widest gap.  Every other segment goes through the prior
    quadrature.
    """
    return risk_report("smspe", prior, design, model).value


def risk_imspe(prior: ThetaPrior, design: Design, model: str = "simple") -> float:
    """Prior-averaged integrated criterion.

    For the simple model the theta-integral of ``(x coth x - 1) / theta``
    is ``log(sinh x / x)`` with ``x = theta d``; over a flat segment
    ``[a, b]`` of density ``r`` that gives

        ``E_sigma * r * sum_i (S(b d_i) - S(a d_i))``,
        ``S(x) = log(sinh x / x)``.

    Every other segment goes through the prior quadrature.
    """
    return risk_report("imspe", prior, design, model).value


def risk_report(criterion: str, prior: ThetaPrior, design: Design,
                model: str = "simple") -> RiskReport:
    """``risk_smspe`` (``criterion="smspe"``) or ``risk_imspe``
    (``"imspe"``), with the nodes and the doubling difference of its
    prior quadrature."""
    if criterion not in ("smspe", "imspe"):
        raise DomainError(f"criterion must be 'smspe' or 'imspe', got {criterion!r}")
    prior = _check_prior(prior)
    model = _check_model(model)
    _require_unit(design)
    return _risk(criterion, prior, design.gaps, model)


def relative_efficiency(reference_value: float, candidate_value: float) -> float:
    """Ratio of a reference (usually optimal) criterion to a candidate's.

    Both values must be finite and positive; a candidate no better than the
    reference yields a ratio in (0, 1].
    """
    reference = _positive(reference_value, "reference_value")
    return reference / _positive(candidate_value, "candidate_value")
