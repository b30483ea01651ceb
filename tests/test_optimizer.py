"""Design optimization: validation, dispatch, convergence to equispaced."""

import dataclasses

import numpy as np
import pytest

from cokrig import optimizer as opt
from cokrig import (
    Design,
    DomainError,
    ExponentialKernel,
    OptimizationProblem,
    ThetaPrior,
    equispaced,
    evaluate_criterion,
    imspe,
    optimize,
    risk_imspe,
    risk_smspe,
    smspe,
)
from oracles import brute_force_min

KERN = ExponentialKernel(17.12, sigma11=0.85)
PRIOR = ThetaPrior.uniform(15.12, 19.12)

CRITERIA = ("smspe", "imspe", "risk_smspe", "risk_imspe")
MODELS = ("simple", "ordinary")


def _paper_problem(n, criterion, model):
    """The benchmark's problems: rate 17.12, or uniform on [12.12, 22.12]."""
    if criterion.startswith("risk_"):
        return OptimizationProblem(n, criterion, model, prior=ThetaPrior.uniform(12.12, 22.12))
    return OptimizationProblem(n, criterion, model, kernel=ExponentialKernel(17.12))


def _solve_alone(problem):
    """The solve without the equispaced candidate: its gaps and their
    residual, recomputed here rather than taken from the solve."""
    fn, epigraph = opt._objective(problem)
    gaps, _, _ = opt._solve(problem, fn, epigraph)
    return gaps, opt._residual(fn, epigraph, gaps)


# --------------------------------------------------------------------------
# problem construction
# --------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(DomainError):
        OptimizationProblem(1, "smspe", kernel=KERN)
    with pytest.raises(DomainError):
        OptimizationProblem(3, "mspe", kernel=KERN)
    with pytest.raises(DomainError):
        OptimizationProblem(3, "smspe", model="universal", kernel=KERN)
    # risk criteria take a prior, fixed-rate criteria take a kernel
    with pytest.raises(DomainError):
        OptimizationProblem(3, "risk_smspe", kernel=KERN)
    with pytest.raises(DomainError):
        OptimizationProblem(3, "smspe", prior=PRIOR)
    with pytest.raises(DomainError):
        OptimizationProblem(3, "smspe", kernel=KERN, prior=PRIOR)
    with pytest.raises(DomainError):
        OptimizationProblem(3, "smspe", kernel=KERN, tolerance=0.0)


def test_evaluate_criterion_dispatch(xi0):
    cases = [
        (OptimizationProblem(17, "smspe", "ordinary", kernel=KERN),
         smspe(KERN, xi0, "ordinary").value),
        (OptimizationProblem(17, "imspe", kernel=KERN),
         imspe(KERN, xi0).value),
        (OptimizationProblem(17, "risk_smspe", prior=PRIOR),
         risk_smspe(PRIOR, xi0)),
        (OptimizationProblem(17, "risk_imspe", "ordinary", prior=PRIOR),
         risk_imspe(PRIOR, xi0, "ordinary")),
    ]
    for problem, want in cases:
        assert evaluate_criterion(problem, xi0) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------
# optimization
# --------------------------------------------------------------------------

def test_two_sites_shortcut():
    problem = OptimizationProblem(2, "imspe", kernel=KERN)
    res = optimize(problem)
    assert res.design.gaps.tolist() == [1.0]
    assert res.converged
    assert res.gap_deviation == 0.0
    assert res.n_evaluations == 1
    assert res.value == pytest.approx(
        imspe(KERN, Design(0.0, 1.0, (1.0,))).value, rel=1e-12)


@pytest.mark.parametrize("criterion,model", [
    ("smspe", "simple"),
    ("imspe", "ordinary"),
])
def test_optimum_is_equispaced_fixed_rate(criterion, model):
    problem = OptimizationProblem(5, criterion, model, kernel=KERN)
    res = optimize(problem)
    assert res.gap_deviation < 1e-4
    eq_val = evaluate_criterion(problem, equispaced(5))
    assert res.value <= eq_val + 1e-9


def test_optimum_is_equispaced_risk():
    problem = OptimizationProblem(3, "risk_imspe", prior=PRIOR)
    res = optimize(problem)
    assert res.gap_deviation < 1e-4
    assert res.value <= evaluate_criterion(problem, equispaced(3)) + 1e-9


def test_paper_risk_optimum_on_17_sites():
    # the paper's 17-site Bayes-risk search runs through the closed form
    prior = ThetaPrior.uniform(12.12, 22.12)
    problem = OptimizationProblem(17, "risk_imspe", prior=prior)
    res = optimize(problem)
    assert res.converged
    assert res.gap_deviation < 1e-6
    assert res.value == pytest.approx(
        evaluate_criterion(problem, equispaced(17)), rel=1e-12)


def test_optimum_with_tabulated_prior():
    tent = ThetaPrior.tabulated([15.12, 17.12, 19.12], [0.0, 0.5, 0.0])
    problem = OptimizationProblem(3, "risk_smspe", prior=tent)
    res = optimize(problem)
    assert res.gap_deviation < 1e-4


def test_optimize_never_beats_nothing(xi0):
    # value is recomputed through the public criterion functions, so it
    # must match evaluate_criterion on the returned design exactly
    problem = OptimizationProblem(4, "smspe", kernel=KERN)
    res = optimize(problem)
    assert res.value == pytest.approx(
        evaluate_criterion(problem, res.design), rel=1e-12)
    assert res.converged
    assert res.n_evaluations > 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_paper_problems_on_17_sites(criterion, model):
    problem = _paper_problem(17, criterion, model)
    res = optimize(problem)
    assert res.n_evaluations <= 5000
    assert res.gap_deviation <= 1e-6
    assert res.converged
    assert res.residual <= problem.tolerance
    assert res.message


@pytest.mark.parametrize("n,criterion,model",
                         [(8, c, m) for c in CRITERIA for m in MODELS]
                         + [(17, "smspe", "ordinary"), (17, "imspe", "simple"),
                            (17, "imspe", "ordinary"), (17, "risk_imspe", "simple"),
                            (50, "imspe", "ordinary"), (50, "smspe", "ordinary")])
def test_solve_alone_lands_on_equispaced(n, criterion, model):
    # from the seeded start, without the equispaced candidate's help
    problem = _paper_problem(n, criterion, model)
    gaps, residual = _solve_alone(problem)
    assert float(np.abs(gaps - 1.0 / (n - 1)).max()) <= 1e-6
    assert residual <= problem.tolerance


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", ["imspe", "risk_imspe"])
def test_tolerance_steers_the_polish(criterion, model):
    # SLSQP alone ends these near a residual of 1e-7; the Newton polish
    # goes on to a tighter tolerance when one is asked for
    loose = _paper_problem(17, criterion, model)
    tight = dataclasses.replace(loose, tolerance=1e-9)
    fn, _ = opt._objective(loose)
    _, loose_residual, _ = opt._solve(loose, fn, False)
    gaps, tight_residual, _ = opt._solve(tight, fn, False)
    assert loose_residual <= 1e-7
    assert tight_residual <= 1e-9
    assert opt._residual(fn, False, gaps) == tight_residual


@pytest.mark.parametrize("n", [3, 5])
def test_converged_where_scipy_may_report_failure(n):
    # SciPy's SLSQP can stop with "Positive directional derivative for
    # linesearch" on this exact optimum; the residual judges it instead
    problem = OptimizationProblem(n, "smspe", "ordinary", kernel=ExponentialKernel(5.0))
    res = optimize(problem)
    assert res.converged
    assert res.gap_deviation <= 1e-12
    gaps, residual = _solve_alone(problem)
    assert float(np.abs(gaps - 1.0 / (n - 1)).max()) <= 1e-12
    assert residual <= problem.tolerance


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_residual_flags_a_design_off_the_optimum(criterion, model, xi0):
    # the network design is far from optimal, and the residual says so
    objective = opt._objective(_paper_problem(17, criterion, model))
    assert opt._residual(*objective, xi0.gap_array()) > 1e-2
    assert opt._residual(*objective, equispaced(17).gap_array()) <= 1e-9


def test_optimize_is_deterministic():
    problem = OptimizationProblem(4, "imspe", kernel=KERN)
    a = optimize(problem)
    b = optimize(problem)
    assert a.design.gaps.tolist() == b.design.gaps.tolist()
    assert a.value == b.value
    assert a.n_evaluations == b.n_evaluations


# --------------------------------------------------------------------------
# brute force confirmation
# --------------------------------------------------------------------------

def test_brute_force_finds_equispaced():
    problem = OptimizationProblem(3, "imspe", kernel=ExponentialKernel(1.0))
    res = brute_force_min(problem, grid_step=0.05)
    assert res.design.gaps.tolist() == [0.5, 0.5]
    assert res.gap_deviation == 0.0
    assert res.value == pytest.approx(
        evaluate_criterion(problem, equispaced(3)), rel=1e-12)


def test_brute_force_matches_optimizer():
    problem = OptimizationProblem(4, "smspe", kernel=KERN)
    brute = brute_force_min(problem, grid_step=0.05)
    nm = optimize(problem)
    # the grid is coarse; the smooth optimizer can only do better
    assert nm.value <= brute.value + 1e-12


def test_brute_force_limits():
    with pytest.raises(DomainError):
        brute_force_min(OptimizationProblem(5, "smspe", kernel=KERN))
    with pytest.raises(DomainError):
        brute_force_min(OptimizationProblem(4, "smspe", kernel=KERN),
                        grid_step=0.5)
    with pytest.raises(DomainError):
        brute_force_min(OptimizationProblem(3, "smspe", kernel=KERN),
                        grid_step=1.5)
    with pytest.raises(DomainError, match="cap"):
        brute_force_min(OptimizationProblem(4, "smspe", kernel=KERN),
                        grid_step=1e-5)


def test_brute_force_two_sites():
    problem = OptimizationProblem(2, "smspe", kernel=KERN)
    res = brute_force_min(problem, grid_step=0.01)
    assert res.design.gaps.tolist() == [1.0]
