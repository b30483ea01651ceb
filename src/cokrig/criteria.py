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
The uniform-prior simple-model risks integrate in closed form, through
``log cosh`` and ``log(sinh x / x)``; all other combinations use
Gauss-Legendre quadrature on each segment of the prior, starting at 8
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
from .design import Design
from .exceptions import DomainError, NumericError
from .kernel import ExponentialKernel

__all__ = [
    "ThetaPrior",
    "CriterionReport",
    "smspe",
    "imspe",
    "smspe_numeric",
    "imspe_numeric",
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


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise DomainError(f"model must be one of {MODELS}, got {model!r}")
    return model


def _check_kernel(kernel) -> ExponentialKernel:
    if not isinstance(kernel, ExponentialKernel):
        raise DomainError("criteria require an ExponentialKernel")
    return kernel


def _require_unit(design: Design):
    if design.n < 2:
        raise DomainError("criteria need at least two sites")
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

    Two kinds are supported: ``uniform`` on ``[theta1, theta2]`` and
    ``tabulated``, a piecewise-linear density given by ``(rate,
    density)`` nodes.  ``e_sigma11`` is the prior mean of the variance
    scale; risks are proportional to it.

    Use the :meth:`uniform` / :meth:`tabulated` constructors.
    """

    kind: str
    theta1: float | None = None
    theta2: float | None = None
    nodes: tuple[tuple[float, float], ...] | None = None
    e_sigma11: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.e_sigma11) and self.e_sigma11 > 0):
            raise DomainError(f"e_sigma11 must be positive, got {self.e_sigma11}")
        if self.kind == "uniform":
            t1, t2 = self.theta1, self.theta2
            if t1 is None or t2 is None or self.nodes is not None:
                raise DomainError("uniform prior takes theta1 and theta2 only")
            if not (np.isfinite(t1) and np.isfinite(t2) and 0 < t1 < t2):
                raise DomainError(f"need 0 < theta1 < theta2, got [{t1}, {t2}]")
        elif self.kind == "tabulated":
            if self.nodes is None or self.theta1 is not None or self.theta2 is not None:
                raise DomainError("tabulated prior takes nodes only")
            t = np.array([p[0] for p in self.nodes], dtype=float)
            r = np.array([p[1] for p in self.nodes], dtype=float)
            if t.size < 2:
                raise DomainError("tabulated prior needs at least two nodes")
            if not np.all(np.isfinite(t)) or not np.all(np.isfinite(r)):
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
        else:
            raise DomainError(f"prior kind must be 'uniform' or 'tabulated', got {self.kind!r}")

    @classmethod
    def uniform(cls, theta1: float, theta2: float, e_sigma11: float = 1.0) -> "ThetaPrior":
        return cls("uniform", theta1=float(theta1), theta2=float(theta2),
                   e_sigma11=float(e_sigma11))

    @classmethod
    def tabulated(cls, rates, densities, e_sigma11: float = 1.0) -> "ThetaPrior":
        nodes = tuple((float(t), float(r)) for t, r in zip(rates, densities, strict=True))
        return cls("tabulated", nodes=nodes, e_sigma11=float(e_sigma11))

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return self.theta1, self.theta2
        return self.nodes[0][0], self.nodes[-1][0]

    def density(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if self.kind == "uniform":
            inside = (thetas >= self.theta1) & (thetas <= self.theta2)
            return np.where(inside, 1.0 / (self.theta2 - self.theta1), 0.0)
        t = np.array([p[0] for p in self.nodes])
        r = np.array([p[1] for p in self.nodes])
        return np.interp(thetas, t, r, left=0.0, right=0.0)


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
# brute-force numeric versions (oracles for the closed forms)
# --------------------------------------------------------------------------

def smspe_numeric(
    kernel: ExponentialKernel,
    design: Design,
    model: str = "simple",
    grid_points_per_interval: int = 64,
) -> float:
    """Grid maximum of the pointwise MSPE, midpoints always included.

    A deliberately naive check on :func:`smspe`: evaluates the closed
    pointwise error on a uniform grid in every interval, plus the exact
    midpoints where the suprema live.
    """
    kernel = _check_kernel(kernel)
    model = _check_model(model)
    _require_unit(design)
    if grid_points_per_interval < 64:
        raise DomainError(
            f"need at least 64 grid points per interval, got {grid_points_per_interval}"
        )
    offsets = np.append(np.linspace(0.0, 1.0, grid_points_per_interval), 0.5)[:, None]
    x0 = design.points[:-1] + offsets * design.gaps
    vals = kern._pointwise(design, kernel.theta, x0, model == "ordinary")[0]
    return kernel.sigma11 * float(vals.max())


def imspe_numeric(
    kernel: ExponentialKernel,
    design: Design,
    model: str = "simple",
    tol: float = 1e-10,
) -> float:
    """Adaptive-quadrature integral of the pointwise MSPE.

    Integrates interval by interval (the integrand is smooth inside
    each gap and kinked at the sites).  Raises ``NumericError`` if any
    panel fails to converge to ``tol``.
    """
    from scipy import integrate

    from .predict import mspe_closed_form

    kernel = _check_kernel(kernel)
    model = _check_model(model)
    _require_unit(design)
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
    segment between a tabulated density's nodes (it stalls across kinks)."""
    cuts = [p[0] for p in prior.nodes] if prior.kind == "tabulated" else list(prior.support)
    x, w = _leggauss(m)
    rules = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        thetas = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        rules.append((thetas, 0.5 * (hi - lo) * w * prior.density(thetas)))
    return rules


def _prior_quadrature(prior: ThetaPrior, criterion: str, gaps, model: str, terms: bool = False):
    """Average the unit-variance criterion over the prior.

    Gauss-Legendre quadrature on each segment of the prior, doubling the
    node count from ``RISK_QUAD_START`` until two successive estimates
    differ by at most ``RISK_QUAD_TOL`` times the newer one's largest
    entry.  The nodes are evaluated in blocks of at most
    ``_RISK_QUAD_BLOCK`` terms.  With ``terms=True`` the per-interval
    terms are averaged instead, giving one average per gap.

    Returns the average, the number of rates evaluated over all rules and
    segments, and the sum over segments of the last doubling difference.
    """
    block = max(1, _RISK_QUAD_BLOCK // gaps.size)
    pick = 0 if terms else 1
    total, nodes, error = 0.0, 0, 0.0
    for seg in range(len(_prior_rule(prior, RISK_QUAD_START))):
        m = RISK_QUAD_START
        prev = None
        while True:
            thetas, weights = _prior_rule(prior, m)[seg]
            est = sum(weights[j:j + block] @ kern._interval_terms(
                thetas[j:j + block], gaps, criterion, model, terms=terms)[pick]
                for j in range(0, m, block))
            nodes += m
            if prev is not None:
                diff = float(np.max(np.abs(est - prev)))
                if diff <= RISK_QUAD_TOL * float(np.max(np.abs(est))):
                    total += est
                    error += diff
                    break
            if m >= RISK_QUAD_MAX:
                raise NumericError(
                    f"risk quadrature did not stabilize to a relative {RISK_QUAD_TOL} "
                    f"within {RISK_QUAD_MAX} nodes on segment {seg} of the prior"
                )
            prev = est
            m *= 2
    return (total if terms else float(total)), nodes, error


def _prior_average(prior: ThetaPrior, criterion: str, gaps, model: str, terms: bool = False):
    """The average alone of :func:`_prior_quadrature`."""
    return _prior_quadrature(prior, criterion, gaps, model, terms)[0]


def _log_cosh(y: float) -> float:
    """``log cosh y`` for ``y >= 0``, without overflow or cancellation."""
    if y < 1.0:
        return math.log1p(2.0 * math.sinh(0.5 * y) ** 2)
    return y - math.log(2.0) + math.log1p(math.exp(-2.0 * y))


def _log_sinhc(x):
    """``log(sinh x / x)`` for ``x > 0``, by its series below the cutoff."""
    return kern._piecewise(x, x < kern._SERIES_CUTOFF, lambda: x + np.log(-np.expm1(-2.0 * x))
                           - np.log(2.0 * x), _SINHC_SERIES, 2)


@dataclass(frozen=True)
class RiskReport:
    """A Bayes risk with the work its prior quadrature took.

    ``nodes`` counts the rates at which the criterion was evaluated, over
    every Gauss-Legendre rule tried and every segment of the prior;
    ``error`` is the last doubling difference, summed over the segments
    and scaled like ``value``.  Both are 0 for the closed forms.
    """

    value: float
    nodes: int
    error: float


def _risk(criterion: str, prior: ThetaPrior, gaps, model: str) -> RiskReport:
    """Bayes risk on a unit-sum gap vector; also the optimizer's objective."""
    nodes, error = 0, 0.0
    if model == "simple" and prior.kind == "uniform":
        t1, t2 = prior.theta1, prior.theta2
        if criterion == "smspe":
            d = float(gaps.max())
            value = 2.0 * (_log_cosh(0.5 * t2 * d) - _log_cosh(0.5 * t1 * d)) / (d * (t2 - t1))
        else:
            s1, s2 = _log_sinhc(np.multiply.outer((t1, t2), gaps)).sum(axis=-1)
            value = float(s2 - s1) / (t2 - t1)
    else:
        value, nodes, error = _prior_quadrature(prior, criterion, gaps, model)
    return RiskReport(prior.e_sigma11 * value, nodes, prior.e_sigma11 * error)


def risk_smspe(prior: ThetaPrior, design: Design, model: str = "simple") -> float:
    """Prior-averaged supremum criterion.

    For the uniform prior and the simple model the theta-integral of
    ``tanh(theta d_max / 2)`` is ``log cosh``, giving the closed form

        ``E_sigma * 2 (log cosh(t2 d / 2) - log cosh(t1 d / 2)) / (d (t2 - t1))``

    with ``d`` the widest gap.  Everything else goes through the prior
    quadrature.
    """
    return risk_report("smspe", prior, design, model).value


def risk_imspe(prior: ThetaPrior, design: Design, model: str = "simple") -> float:
    """Prior-averaged integrated criterion.

    For the uniform prior and the simple model the theta-integral of
    ``(x coth x - 1) / theta`` is ``log(sinh x / x)`` with ``x = theta d``:

        ``E_sigma * sum_i (S(t2 d_i) - S(t1 d_i)) / (t2 - t1)``,
        ``S(x) = log(sinh x / x)``.

    Everything else goes through the prior quadrature.
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

    Both values must be positive; a candidate no better than the
    reference yields a ratio in (0, 1].
    """
    if not (np.isfinite(reference_value) and reference_value > 0):
        raise DomainError(f"reference value must be positive, got {reference_value}")
    if not (np.isfinite(candidate_value) and candidate_value > 0):
        raise DomainError(f"candidate value must be positive, got {candidate_value}")
    return float(reference_value) / float(candidate_value)
