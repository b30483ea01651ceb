"""Search for criterion-minimizing designs on the unit interval.

The gap vector is optimized through the log-ratio map
``d_i = exp(u_i) / sum_j exp(u_j)`` with the last coordinate pinned to
zero, so the simplex constraint disappears and the parametrization has
no flat direction.  Eight deterministic Nelder-Mead starts are used
(the equispaced design plus seven seeded random gap vectors); each run
is restarted once from its own solution with a fresh simplex, which
guards against stagnation on the nonsmooth supremum criterion.

Because the equispaced design is one of the starts and Nelder-Mead
never discards its best vertex, the returned value can never exceed
the equispaced criterion value.  A small brute-force enumerator on a
simplex grid is provided to confirm minimizers independently for
``n <= 4``.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize as sciopt

from . import criteria as crit
from . import kernel as kern
from .criteria import ThetaPrior
from .design import Design, equispaced
from .exceptions import DomainError, ResourceError
from .kernel import ExponentialKernel

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "optimize",
    "brute_force_min",
]

CRITERIA = ("smspe", "imspe", "risk_smspe", "risk_imspe")

# Seed for the seven random Nelder-Mead starts; fixed so repeated runs
# of the optimizer are bit-for-bit identical.
OPTIMIZER_SEED = 20240601

N_STARTS = 8

# Enumeration cap for brute_force_min.
MAX_GRID_NODES = 10_000_000


@dataclass(frozen=True)
class OptimizationProblem:
    """What to minimize: a criterion, a model, and its parameters.

    ``smspe``/``imspe`` need ``kernel``; ``risk_smspe``/``risk_imspe``
    need ``prior``.  ``n`` is the number of sites of the candidate
    designs (all on [0, 1]).
    """

    n: int
    criterion: str
    model: str = "simple"
    kernel: ExponentialKernel | None = None
    prior: ThetaPrior | None = None
    tolerance: float = 1e-7
    max_iters: int = 20_000

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need n >= 2 sites, got {self.n}")
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
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iters < 100:
            raise DomainError(f"max_iters must be at least 100, got {self.max_iters}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best design found, its criterion value, and convergence facts.

    ``gap_deviation`` is ``max_i |d_i - 1/(n-1)|``, the distance from
    the equispaced design; ``converged`` records whether SciPy reported
    success for the winning run, i.e. it met the tolerance before the
    iteration or evaluation cap.
    """

    design: Design
    value: float
    converged: bool
    gap_deviation: float
    n_evaluations: int


def evaluate_criterion(problem: OptimizationProblem, design: Design) -> float:
    """The problem's criterion value at a candidate design."""
    if problem.criterion == "smspe":
        return crit.smspe(problem.kernel, design, problem.model).value
    if problem.criterion == "imspe":
        return crit.imspe(problem.kernel, design, problem.model).value
    if problem.criterion == "risk_smspe":
        return crit.risk_smspe(problem.prior, design, problem.model)
    return crit.risk_imspe(problem.prior, design, problem.model)


def _gap_values_fn(problem: OptimizationProblem):
    """Criterion value on a raw unit-sum gap vector: the public criteria's
    own gap-level functions, closed forms included, minus their checks."""
    criterion, model = problem.criterion, problem.model
    if problem.prior is not None:
        prior, base = problem.prior, criterion.removeprefix("risk_")
        return lambda g: crit._risk(base, prior, g, model)
    theta, s11 = problem.kernel.theta, problem.kernel.sigma11
    return lambda g: s11 * float(kern._interval_terms(theta, g, criterion, model, terms=False)[1])


def _softmax_gaps(u: np.ndarray) -> np.ndarray:
    full = np.concatenate((u, (0.0,)))
    full -= full.max()
    e = np.exp(full)
    return e / e.sum()


def optimize(problem: OptimizationProblem) -> OptimizationResult:
    """Multi-start Nelder-Mead minimization of the design criterion.

    Runs ``N_STARTS`` searches in the log-ratio coordinates (equispaced
    start first, then seeded random starts), restarts each from its own
    endpoint, and returns the best design found.  The reported value is
    recomputed through the public criterion functions on the final
    design.
    """
    n = problem.n
    if n == 2:
        design = Design(0.0, 1.0, (1.0,))
        return OptimizationResult(design, evaluate_criterion(problem, design),
                                  True, 0.0, 1)

    dim = n - 2
    fast = _gap_values_fn(problem)
    evals = 0

    def objective(u: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        gaps = _softmax_gaps(u)
        if gaps.min() < 1e-14:
            return 1e6 * (1.0 + float(np.abs(u).max()))
        return fast(gaps)

    rng = np.random.default_rng(OPTIMIZER_SEED)
    starts = [np.zeros(dim)]
    starts += [rng.normal(0.0, 1.0, dim) for _ in range(N_STARTS - 1)]

    best_u, best_val, best_ok = None, np.inf, False
    options = dict(xatol=problem.tolerance, fatol=1e-13,
                   maxiter=problem.max_iters, maxfev=problem.max_iters)
    for u0 in starts:
        res = sciopt.minimize(objective, u0, method="Nelder-Mead", options=options)
        # fresh simplex around the found point; cheap insurance against
        # stagnation on the max-type criterion
        res = sciopt.minimize(objective, res.x, method="Nelder-Mead", options=options)
        if res.fun < best_val:
            best_u, best_val, best_ok = res.x, res.fun, bool(res.success)

    gaps = _softmax_gaps(best_u)
    design = Design(0.0, 1.0, tuple(float(g) for g in gaps))
    value = evaluate_criterion(problem, design)
    gap_dev = float(np.abs(gaps - 1.0 / (n - 1)).max())
    return OptimizationResult(design, value, best_ok, gap_dev, evals)


def _compositions(total: int, parts: int):
    """Yield positive integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def brute_force_min(problem: OptimizationProblem, grid_step: float = 0.005) -> OptimizationResult:
    """Exhaustive minimum over a simplex grid of gap vectors.

    Gaps are restricted to positive multiples of ``1/K`` with
    ``K = round(1/grid_step)``.  Only sensible for ``n <= 4``; the node
    count is capped at ``MAX_GRID_NODES``.  Ties break toward the
    lexicographically smallest gap vector, so results are deterministic.
    """
    if problem.n > 4:
        raise DomainError(f"brute force enumeration is limited to n <= 4, got {problem.n}")
    if not (np.isfinite(grid_step) and 0 < grid_step < 1):
        raise DomainError(f"grid_step must lie in (0, 1), got {grid_step}")
    k = problem.n - 1
    K = round(1.0 / grid_step)
    if K < k:
        raise DomainError(f"grid step {grid_step} too coarse for {k} gaps")
    from math import comb

    n_nodes = comb(K - 1, k - 1)
    if n_nodes > MAX_GRID_NODES:
        raise ResourceError(
            f"simplex grid would hold {n_nodes} nodes, cap is {MAX_GRID_NODES}"
        )
    fast = _gap_values_fn(problem)
    best_gaps, best_val = None, np.inf
    evals = 0
    for comp in _compositions(K, k):
        gaps = np.asarray(comp, dtype=float) / K
        val = fast(gaps)
        evals += 1
        if val < best_val - 0.0 or (val == best_val and comp < best_gaps):
            best_gaps, best_val = comp, val
    gaps = np.asarray(best_gaps, dtype=float) / K
    design = Design(0.0, 1.0, tuple(float(g) for g in gaps))
    value = evaluate_criterion(problem, design)
    gap_dev = float(np.abs(gaps - 1.0 / (problem.n - 1)).max())
    return OptimizationResult(design, value, True, gap_dev, evals)
