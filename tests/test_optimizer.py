"""Design optimization: validation, dispatch, convergence to equispaced."""

import numpy as np
import pytest

from cokrig import (
    Design,
    DomainError,
    ExponentialKernel,
    OptimizationProblem,
    ResourceError,
    ThetaPrior,
    brute_force_min,
    equispaced,
    evaluate_criterion,
    imspe,
    optimize,
    risk_imspe,
    risk_smspe,
    smspe,
)

KERN = ExponentialKernel(17.12, sigma11=0.85)
PRIOR = ThetaPrior.uniform(15.12, 19.12)


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
    with pytest.raises(DomainError):
        OptimizationProblem(3, "smspe", kernel=KERN, max_iters=10)


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
    assert res.design.gaps == (1.0,)
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


def test_optimize_is_deterministic():
    problem = OptimizationProblem(4, "imspe", kernel=KERN)
    a = optimize(problem)
    b = optimize(problem)
    assert a.design.gaps == b.design.gaps
    assert a.value == b.value
    assert a.n_evaluations == b.n_evaluations


# --------------------------------------------------------------------------
# brute force confirmation
# --------------------------------------------------------------------------

def test_brute_force_finds_equispaced():
    problem = OptimizationProblem(3, "imspe", kernel=ExponentialKernel(1.0))
    res = brute_force_min(problem, grid_step=0.05)
    assert res.design.gaps == (0.5, 0.5)
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
    with pytest.raises(ResourceError):
        brute_force_min(OptimizationProblem(4, "smspe", kernel=KERN),
                        grid_step=1e-5)


def test_brute_force_two_sites():
    problem = OptimizationProblem(2, "smspe", kernel=KERN)
    res = brute_force_min(problem, grid_step=0.01)
    assert res.design.gaps == (1.0,)
