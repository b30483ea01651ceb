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
table's segments, each by Gauss-Legendre quadrature in ``s = log
theta`` with weights ``theta * density(theta)``, on pieces no wider than
a decade, starting at 8 nodes and doubling until two successive
estimates agree to a relative ``RISK_QUAD_TOL``.  Each criterion changes
with ``log theta``, and saturates once ``theta d`` is large, so a rule in
``s`` resolves a prior spanning many decades where a rule linear in
``theta`` puts all its nodes in the saturated range.  On the paper's
prior the 8- and 16-node estimates already agree, 24 rate evaluations in
all.  ``risk_report`` returns a risk with the nodes it took and the last
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

# Gauss-Legendre node counts tried by the risk quadrature in log theta on
# each piece of a prior segment: start at 8 and double until two successive
# estimates agree to RISK_QUAD_TOL relative to the newer one, or fail
# beyond RISK_QUAD_MAX.
RISK_QUAD_START = 8
RISK_QUAD_MAX = 4096
RISK_QUAD_TOL = 1e-9

# The risk quadrature cuts a prior segment into equal pieces no wider than
# this in log theta.  The criteria have poles pi / 2 off the real log-theta
# axis (where theta d = i pi k), so on a piece of half-width h an m-node
# rule's error falls like rho^(-2m), rho = b + sqrt(1 + b^2), b = pi / (2h):
# on a decade rho is about 3, and 16 nodes reach about 3e-16.  Over a whole
# segment of many decades rho nears 1, and the 16- and 32-node rules can
# agree to RISK_QUAD_TOL while both are off by 1e-11.
_LOG_WIDTH = math.log(10.0)

# The risk quadrature evaluates at most this many (node, gap) terms at
# once, so its memory does not grow with the number of sites.
_RISK_QUAD_BLOCK = 2**19


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
def _prior_rule(prior: ThetaPrior, counts: tuple[int, ...]):
    """Gauss-Legendre rules in ``s = log theta`` on each segment between
    the prior's nodes (a rule stalls across kinks).

    A segment ``[lo, hi]`` is cut into the fewest equal pieces in ``s``
    no wider than ``_LOG_WIDTH``, and each rule is applied on every piece.
    On a piece of half-width ``h`` starting at ``s0`` the nodes map to
    ``theta = exp(s0 + h (x + 1))``, with ``h`` taken from ``log1p((hi -
    lo) / lo)`` so that a narrow segment does not cancel, and the weights
    are ``h w theta density(theta)``.  For each segment: the rates of
    every rule in ``counts`` side by side, and one weight row per rule,
    zero off its own rates.
    """
    rules = [_leggauss(m) for m in counts]
    x = np.concatenate([r[0] for r in rules])
    ends = np.cumsum([0, *counts])
    out = []
    for (lo, _), (hi, _) in zip(prior.nodes, prior.nodes[1:]):
        span = math.log1p((hi - lo) / lo)
        pieces = math.ceil(span / _LOG_WIDTH)
        h = 0.5 * span / pieces
        thetas = lo * np.exp(h * (x + 1.0 + 2.0 * np.arange(pieces)[:, None]))
        scale = h * thetas * prior.density(thetas)
        weights = np.zeros((len(counts), pieces, x.size))
        for row, (_, w) in enumerate(rules):
            a, b = ends[row], ends[row + 1]
            weights[row, :, a:b] = w * scale[:, a:b]
        out.append((thetas.ravel(), weights.reshape(len(counts), -1)))
    return out


@dataclass(frozen=True)
class RiskReport:
    """A Bayes risk with the work its prior quadrature took.

    ``nodes`` counts the rates at which the criterion was evaluated, over
    every Gauss-Legendre rule tried and every segment of the prior;
    ``error`` is the last doubling difference, summed over the segments
    and scaled like ``value``.
    """

    value: float
    nodes: int
    error: float


def _risk(criterion: str, prior: ThetaPrior, gaps, model: str, terms: bool = False,
          grad: bool = False):
    """Bayes risk on a unit-sum gap vector; also the optimizer's objective.

    Walks the prior's segments, each by Gauss-Legendre quadrature in
    ``log theta`` (see :func:`_prior_rule`).  The first pass evaluates the
    ``RISK_QUAD_START``- and doubled rules' rates together; each later
    pass doubles the node count, until two successive estimates differ by
    at most ``RISK_QUAD_TOL`` times the newer one's largest entry.  The
    rates are evaluated in blocks of at most ``_RISK_QUAD_BLOCK`` terms.
    With ``terms=True`` the per-interval terms are averaged instead, and
    ``value`` is an array with one average per gap.

    ``grad=True`` returns the report and the derivatives in the gaps,
    averaged by the rule the value settled on: the value's gradient, or
    with ``terms`` (for ``smspe``) the terms' Jacobian.
    """
    size = gaps.size * (gaps.size if grad and terms else 1)
    block = max(1, _RISK_QUAD_BLOCK // size)
    pick = 0 if terms else 1
    total, dtotal, nodes, error = 0.0, 0.0, 0, 0.0
    for seg in range(len(prior.nodes) - 1):
        counts, prev = (RISK_QUAD_START, 2 * RISK_QUAD_START), None
        while True:
            thetas, weights = _prior_rule(prior, counts)[seg]
            est = dest = 0
            for j in range(0, thetas.size, block):
                out = kern._interval_terms(thetas[j:j + block], gaps, criterion, model,
                                           terms=terms, grad=grad)
                est = est + weights[:, j:j + block] @ out[pick]
                if grad:
                    dest = dest + np.tensordot(weights[:, j:j + block], out[2], axes=1)
                del out  # one block's arrays alive at a time, as the block size intends
            nodes += thetas.size
            *lower, est = est
            prev = lower[-1] if lower else prev
            diff = float(np.max(np.abs(est - prev)))
            if diff <= RISK_QUAD_TOL * float(np.max(np.abs(est))):
                break
            if counts[-1] >= RISK_QUAD_MAX:
                raise NumericError(
                    f"risk quadrature did not stabilize to a relative {RISK_QUAD_TOL} "
                    f"within {RISK_QUAD_MAX} nodes a piece on segment {seg} of the prior"
                )
            prev, counts = est, (2 * counts[-1],)
        total += est
        dtotal += dest[-1] if grad else 0.0
        error += diff
    value = total if terms else float(total)
    report = RiskReport(prior.e_sigma11 * value, nodes, prior.e_sigma11 * error)
    return (report, prior.e_sigma11 * dtotal) if grad else report


def risk_smspe(prior: ThetaPrior, design: Design, model: str = "simple") -> float:
    """Prior-averaged supremum criterion: the prior average of ``smspe``
    at unit variance, times the prior mean of ``sigma11``."""
    return risk_report("smspe", prior, design, model).value


def risk_imspe(prior: ThetaPrior, design: Design, model: str = "simple") -> float:
    """Prior-averaged integrated criterion: the prior average of ``imspe``
    at unit variance, times the prior mean of ``sigma11``."""
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
