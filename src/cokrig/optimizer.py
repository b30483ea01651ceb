"""Search for criterion-minimizing designs on the unit interval.

One SLSQP solve (Kraft 1988) runs directly on the gap vector: every gap
is bounded to ``[_MIN_GAP, 1]`` and the gaps sum to one.  The integrated
criteria (``imspe``, ``risk_imspe``) are smooth in the gaps and are
minimized as they are, through the same closed forms or quadrature the
public criteria use, and the solve's end is polished by a few Newton
steps toward equal partial derivatives.  The supremum criteria
(``smspe``, ``risk_smspe``) are the largest of per-interval terms and
take the epigraph form: minimize ``t`` subject to ``t >= term_i(d)`` for
every interval.  Gradients are finite differences.

The solve starts from one seeded gap vector that is not equispaced.  The
equispaced design is evaluated as a candidate too and wins ties, and
near-ties within rounding, so the returned value never exceeds the
equispaced criterion value; where a criterion is flat to rounding along
the simplex (large rates, few sites) that candidate decides.
Convergence is judged by an optimality residual (see
``OptimizationResult``), not by SciPy's success flag, which reports
"Positive directional derivative for linesearch" at some exact optima.
"""

from dataclasses import dataclass

import numpy as np

from . import criteria as crit
from . import kernel as kern
from .criteria import ThetaPrior
from .design import Design, _count
from .exceptions import DomainError
from .kernel import ExponentialKernel

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "optimize",
]

CRITERIA = ("smspe", "imspe", "risk_smspe", "risk_imspe")

# Seed for the solve's start; fixed so repeated runs of the optimizer are
# bit-for-bit identical.
OPTIMIZER_SEED = 20240601

# Lower bound on every gap during the solve.
_MIN_GAP = 1e-12

# Cap on SLSQP's iterations.
_MAX_ITERS = 20_000

# SLSQP's stopping tolerance on the change of the scaled objective; this
# small, the solve stops only when it can make no further progress.
_FTOL = 1e-15

# Relative step of the central differences in the gaps of an integrated
# criterion: about the cube root of machine epsilon balances rounding
# against truncation for the first derivative.
_DIFF_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

# Most Newton steps _polish takes after the solve.
_POLISH_STEPS = 4

# The solve's end replaces the equispaced candidate only when its value is
# lower by more than this relative margin, which rounding cannot produce.
_TIE_MARGIN = 8.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class OptimizationProblem:
    """What to minimize: a criterion, a model, and its parameters.

    ``smspe``/``imspe`` need ``kernel``; ``risk_smspe``/``risk_imspe``
    need ``prior``.  ``n`` is the number of sites of the candidate
    designs (all on [0, 1]).  ``tolerance`` bounds the optimality
    residual (see ``OptimizationResult``) of a converged result; for
    ``imspe``/``risk_imspe`` the solve's Newton polish also runs until the
    residual is within it or stops falling, while the supremum criteria's
    solve does not depend on it.
    """

    n: int
    criterion: str
    model: str = "simple"
    kernel: ExponentialKernel | None = None
    prior: ThetaPrior | None = None
    tolerance: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n", 2))
        if self.criterion not in CRITERIA:
            raise DomainError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if self.model not in crit.MODELS:
            raise DomainError(f"model must be one of {crit.MODELS}, got {self.model!r}")
        if self.criterion.startswith("risk"):
            if self.prior is None or self.kernel is not None:
                raise DomainError(f"criterion {self.criterion!r} takes a prior, not a kernel")
        else:
            if self.kernel is None or self.prior is not None:
                raise DomainError(f"criterion {self.criterion!r} takes a kernel, not a prior")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise DomainError(f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best design found, its criterion value, and convergence facts.

    ``gap_deviation`` is ``max_i |d_i - 1/(n-1)|``, the distance from
    the equispaced design.  ``residual`` is the optimality residual at
    the returned design: the spread (largest minus smallest) of the
    per-interval quantities that are all equal at an interior optimum,
    relative to the criterion value.  Those quantities are the partial
    derivatives in the gaps for ``imspe``/``risk_imspe`` and the
    per-interval terms for ``smspe``/``risk_smspe``; the residual is 0 at
    the equispaced design by symmetry.  ``converged`` is ``residual <=
    problem.tolerance``.  ``n_evaluations`` counts criterion (or
    per-interval term) evaluations, and ``message`` says why the search
    stopped, or that the equispaced candidate won.
    """

    design: Design
    value: float
    converged: bool
    gap_deviation: float
    n_evaluations: int
    residual: float
    message: str


def evaluate_criterion(problem: OptimizationProblem, design: Design) -> float:
    """The problem's criterion value at a candidate design."""
    if problem.criterion == "smspe":
        return crit.smspe(problem.kernel, design, problem.model).value
    if problem.criterion == "imspe":
        return crit.imspe(problem.kernel, design, problem.model).value
    if problem.criterion == "risk_smspe":
        return crit.risk_smspe(problem.prior, design, problem.model)
    return crit.risk_imspe(problem.prior, design, problem.model)


def _objective(problem: OptimizationProblem):
    """What the solve works on, and whether that is the per-interval terms
    of a supremum criterion (the epigraph form; the criterion is their
    maximum) rather than an integrated criterion's value.

    Both come from the gap-level functions behind the public criteria,
    minus their checks; a risk is one ``_risk`` walk over the prior's
    segments, closed forms included.  For ``risk_smspe`` each term is
    averaged over the prior: every term rises with its own gap at every
    rate, so the widest gap holds the largest term at every rate, and the
    average of the maximum is the maximum of the averages.
    """
    model = problem.model
    epigraph = problem.criterion.endswith("smspe")
    if problem.prior is not None:
        prior, criterion = problem.prior, problem.criterion.removeprefix("risk_")
        return (lambda g: crit._risk(criterion, prior, g, model, terms=epigraph).value), epigraph
    theta, s11 = problem.kernel.theta, problem.kernel.sigma11
    if epigraph:
        return (lambda g: s11 * kern._interval_terms(theta, g, "smspe", model)[0]), True
    return (lambda g: s11 * float(
        kern._interval_terms(theta, g, "imspe", model, terms=False)[1])), False


def _solve(problem: OptimizationProblem, fn, epigraph: bool):
    """One SLSQP solve on the gap vector from the seeded start.

    ``fn`` is the criterion on a gap vector, or with ``epigraph`` its
    per-interval terms.  Both are scaled by their value at the start, so
    ``_FTOL`` acts on a relative change.  An integrated criterion's end
    is then polished (see ``_polish``).  Returns the unit-sum gaps where
    the search stopped, their optimality residual and SciPy's reason for
    stopping.
    """
    from scipy import optimize as sciopt

    k = problem.n - 1
    w = np.exp(np.random.default_rng(OPTIMIZER_SEED).normal(0.0, 1.0, k))
    start = w / w.sum()
    scale = 1.0 / float(np.max(fn(start)))
    unit_sum = {"type": "eq", "fun": lambda z: z[:k].sum() - 1.0,
                "jac": lambda z: np.append(np.ones(k), np.zeros(z.size - k))}
    bounds = [(_MIN_GAP, 1.0)] * k
    options = dict(maxiter=_MAX_ITERS, ftol=_FTOL)
    if epigraph:
        # minimize t subject to t >= every scaled term
        above = {"type": "ineq", "fun": lambda z: z[k] - scale * fn(z[:k])}
        t_grad = np.eye(k + 1)[k]
        res = sciopt.minimize(lambda z: z[k], np.append(start, 1.0), jac=lambda z: t_grad,
                              method="SLSQP", bounds=bounds + [(None, None)],
                              constraints=[unit_sum, above], options=options)
        gaps = res.x[:k] / res.x[:k].sum()
        return gaps, _residual(fn, True, gaps), res.message
    res = sciopt.minimize(lambda g: scale * fn(g), start, method="SLSQP",
                          bounds=bounds, constraints=[unit_sum], options=options)
    gaps, residual = _polish(fn, res.x / res.x.sum(), problem.tolerance)
    return gaps, residual, res.message


def _derivatives(fn, gaps: np.ndarray):
    """Value, partial derivatives and diagonal second derivatives of an
    integrated criterion in the gaps, by central differences."""
    h = _DIFF_STEP * gaps
    f0 = fn(gaps)
    up = np.array([fn(gaps + step) for step in np.diag(h)])
    down = np.array([fn(gaps - step) for step in np.diag(h)])
    return f0, (up - down) / (2.0 * h), (up - 2.0 * f0 + down) / (h * h)


def _polish(fn, gaps: np.ndarray, tolerance: float):
    """Newton steps on the optimality condition of an integrated criterion.

    SLSQP stops on the objective's change, and a smooth minimum is flat
    to rounding within about the square root of machine epsilon of its
    minimizer, so the solve ends with residuals near 1e-7 from n = 17 on.
    The partial derivatives still resolve the minimizer there: each step
    moves the gaps toward equal partial derivatives with the diagonal of
    the Hessian, keeping the unit sum.  Steps stop once the residual is
    at most ``tolerance``, stops falling, or after ``_POLISH_STEPS``.
    Returns the gaps and their residual.
    """
    f0, grad, curv = _derivatives(fn, gaps)
    residual = _spread(grad, f0)
    for _ in range(_POLISH_STEPS):
        if residual <= tolerance or not np.all(curv > 0):
            break
        lam = np.sum(grad / curv) / np.sum(1.0 / curv)
        trial = gaps - (grad - lam) / curv
        if not np.all(trial >= _MIN_GAP):
            break
        trial = trial / trial.sum()
        f1, grad1, curv1 = _derivatives(fn, trial)
        trial_residual = _spread(grad1, f1)
        if not trial_residual < residual:
            break
        gaps, residual, grad, curv = trial, trial_residual, grad1, curv1
    return gaps, residual


def _spread(parts: np.ndarray, value: float) -> float:
    return float((parts.max() - parts.min()) / value)


def _residual(fn, epigraph: bool, gaps: np.ndarray) -> float:
    """Relative spread of the per-interval quantities that are equal at an
    interior optimum: the terms of a supremum criterion, or the partial
    derivatives of an integrated one, each spread taken relative to the
    criterion value."""
    if epigraph:
        parts = fn(gaps)
        return _spread(parts, parts.max())
    f0, grad, _ = _derivatives(fn, gaps)
    return _spread(grad, f0)


def _gap_deviation(gaps: np.ndarray) -> float:
    return float(np.abs(gaps - 1.0 / gaps.size).max())


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Minimize the design criterion with one SLSQP solve on the gap simplex.

    Integrated criteria are minimized directly and supremum criteria in
    their epigraph form (see the module docstring).  The equispaced
    design is evaluated as a candidate too and is returned unless the
    solve found a value lower by more than rounding.  The reported value is recomputed
    through the public criterion functions on the returned design.
    """
    n = problem.n
    if n == 2:
        design = Design(0.0, 1.0, (1.0,))
        return OptimizationResult(design, evaluate_criterion(problem, design), True, 0.0, 1,
                                  0.0, "two sites have one design")

    base, epigraph = _objective(problem)
    evals = 0

    def fn(gaps):
        nonlocal evals
        evals += 1
        return base(gaps)

    def value(gaps):
        return float(np.max(fn(gaps)))

    gaps, residual, message = _solve(problem, fn, epigraph)
    even = np.full(n - 1, 1.0 / (n - 1))
    if not value(gaps) < value(even) * (1.0 - _TIE_MARGIN):
        # every criterion here is symmetric in the gaps, so its per-interval
        # quantities are all equal at the equispaced design
        gaps, residual = even, 0.0
        message = f"the equispaced candidate is no worse than the solve's end ({message})"
    design = Design(0.0, 1.0, gaps)
    return OptimizationResult(design, evaluate_criterion(problem, design),
                              residual <= problem.tolerance, _gap_deviation(gaps), evals,
                              residual, message)
