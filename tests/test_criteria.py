"""Design criteria: closed forms vs numeric oracles, risks vs quadrature."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cokrig import (
    Design,
    DomainError,
    ExponentialKernel,
    ThetaPrior,
    equispaced,
    imspe,
    mspe_closed_form,
    relative_efficiency,
    risk_imspe,
    risk_report,
    risk_smspe,
    smspe,
)
from cokrig import criteria as crit
from cokrig import kernel as kern
import oracles
from oracles import imspe_numeric, majorization_perturb, smspe_numeric


def _random_unit_design(rng, n_max=7):
    n = int(rng.integers(2, n_max + 1))
    return Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, n)))


# --------------------------------------------------------------------------
# prior container
# --------------------------------------------------------------------------

def test_uniform_prior_basics():
    p = ThetaPrior.uniform(12.84, 21.4, e_sigma11=0.85)
    assert p.support == (12.84, 21.4)
    assert p.density(15.0) == pytest.approx(1.0 / (21.4 - 12.84), rel=1e-12)
    assert p.density(12.0) == 0.0
    assert p.density(22.0) == 0.0


def test_uniform_prior_validation():
    with pytest.raises(DomainError):
        ThetaPrior.uniform(5.0, 5.0)
    with pytest.raises(DomainError):
        ThetaPrior.uniform(-1.0, 5.0)
    with pytest.raises(DomainError):
        ThetaPrior.uniform(1.0, 5.0, e_sigma11=0.0)


def test_tabulated_prior_basics():
    rates = np.array([5.0, 10.0, 15.0])
    dens = np.array([0.0, 0.2, 0.0])
    p = ThetaPrior.tabulated(rates, dens)
    assert p.support == (5.0, 15.0)
    assert p.density(10.0) == pytest.approx(0.2, rel=1e-12)
    assert p.density(7.5) == pytest.approx(0.1, rel=1e-12)
    assert p.density(4.0) == 0.0


def test_tabulated_prior_validation():
    with pytest.raises(DomainError, match="integrates"):
        ThetaPrior.tabulated([1.0, 2.0], [1.0, 1.5])
    with pytest.raises(DomainError):
        ThetaPrior.tabulated([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        ThetaPrior.tabulated([1.0], [1.0])
    with pytest.raises(DomainError):
        ThetaPrior.tabulated([1.0, 2.0], [2.0, -0.1])
    with pytest.raises(DomainError, match="pairs"):
        ThetaPrior.tabulated([1.0, 2.0, 3.0], [0.5, 0.5])


def test_prior_built_from_its_node_table():
    p = ThetaPrior(((1.0, 0.5), (3.0, 0.5)))
    assert p.support == (1.0, 3.0) and p.density(2.0) == 0.5
    listed = ThetaPrior([[1, 0.5], np.array([3.0, 0.5])])
    assert listed.nodes == ((1.0, 0.5), (3.0, 0.5))
    assert all(type(v) is float for pair in listed.nodes for v in pair)
    assert listed == p and hash(listed) == hash(p)
    assert risk_report("smspe", listed, equispaced(5)).value > 0.0


@pytest.mark.parametrize("nodes", ["uniform", ((1.0,), (3.0, 0.5)), ((1.0, 0.5),),
                                   ((1.0, 0.5, 0.0), (3.0, 0.5)), 7.0, None])
def test_malformed_prior_table_is_a_domain_error(nodes):
    with pytest.raises(DomainError):
        ThetaPrior(nodes)


# --------------------------------------------------------------------------
# fixed-rate criteria: closed forms
# --------------------------------------------------------------------------

def test_smspe_simple_equals_widest_gap_formula():
    kern = ExponentialKernel(17.12, sigma11=0.85)
    rep = smspe(kern, equispaced(17))
    assert rep.criterion == "smspe" and rep.model == "simple"
    assert len(rep.per_interval) == 16
    assert rep.value == pytest.approx(0.85 * math.tanh(17.12 / 32.0), rel=1e-12)
    assert rep.value == pytest.approx(max(rep.per_interval), rel=1e-15)


def test_smspe_supremum_sits_at_widest_midpoint(xi0):
    # the pointwise error at the midpoint of the widest gap must equal
    # the reported supremum
    kern = ExponentialKernel(17.12)
    rep = smspe(kern, xi0)
    gaps = xi0.gap_array()
    i = int(np.argmax(gaps))
    mid = float(xi0.points[i] + 0.5 * gaps[i])
    assert mspe_closed_form(kern, xi0, mid, "simple") == pytest.approx(
        rep.value, rel=1e-12)


def test_smspe_matches_grid_search(rng):
    for _ in range(25):
        design = _random_unit_design(rng)
        theta = float(rng.uniform(0.5, 30.0))
        kern = ExponentialKernel(theta, sigma11=float(rng.uniform(0.2, 2.0)))
        for model in ("simple", "ordinary"):
            closed = smspe(kern, design, model).value
            gridded = smspe_numeric(kern, design, model)
            assert closed == pytest.approx(gridded, rel=1e-9, abs=1e-12)


def test_imspe_two_point_value():
    # single unit gap at rate one: 1 - 1/theta + 2 e^{-2}/(1 - e^{-2})
    rep = imspe(ExponentialKernel(1.0), Design(0.0, 1.0, (1.0,)))
    assert rep.value == pytest.approx(2.0 / (math.e**2 - 1.0), rel=1e-12)
    assert rep.per_interval == (rep.value,)


def test_imspe_matches_quadrature(rng):
    for _ in range(12):
        design = _random_unit_design(rng, n_max=5)
        theta = float(rng.uniform(0.5, 25.0))
        kern = ExponentialKernel(theta)
        for model in ("simple", "ordinary"):
            closed = imspe(kern, design, model).value
            numeric = imspe_numeric(kern, design, model)
            assert closed == pytest.approx(numeric, abs=1e-8)


def test_imspe_per_interval_sums_to_value(rng):
    design = _random_unit_design(rng)
    rep = imspe(ExponentialKernel(8.0), design, "ordinary")
    assert rep.value == pytest.approx(sum(rep.per_interval), rel=1e-12)


def test_criteria_scale_linearly_in_variance(xi0):
    base = ExponentialKernel(17.12, sigma11=1.0)
    scaled = ExponentialKernel(17.12, sigma11=2.5)
    for fn in (smspe, imspe):
        for model in ("simple", "ordinary"):
            assert fn(scaled, xi0, model).value == pytest.approx(
                2.5 * fn(base, xi0, model).value, rel=1e-12)


def test_criteria_invariant_under_gap_permutation(rng, xi0):
    perm = tuple(np.array(xi0.gaps)[rng.permutation(len(xi0.gaps))])
    shuffled = Design(0.0, 1.0, perm)
    kern = ExponentialKernel(17.12)
    for model in ("simple", "ordinary"):
        assert smspe(kern, shuffled, model).value == pytest.approx(
            smspe(kern, xi0, model).value, rel=1e-12)
        assert imspe(kern, shuffled, model).value == pytest.approx(
            imspe(kern, xi0, model).value, rel=1e-12)


def test_criteria_decrease_with_more_sites():
    kern = ExponentialKernel(17.12)
    for model in ("simple", "ordinary"):
        s_prev = i_prev = math.inf
        for n in (3, 5, 9, 17):
            d = equispaced(n)
            s, i = smspe(kern, d, model).value, imspe(kern, d, model).value
            assert s < s_prev and i < i_prev
            s_prev, i_prev = s, i


def test_per_interval_error_terms_increase_with_gap():
    # both the simple supremum tanh(theta d / 2) and the ordinary
    # mean-estimation add-on grow with the gap width
    theta = 4.0
    d = np.linspace(0.01, 1.0, 120)
    td = theta * d
    w_sup = np.tanh(0.5 * td)
    u_sup = (1.0 - 2.0 * np.exp(-0.5 * td) / (1.0 + np.exp(-td))) ** 2
    assert np.all(np.diff(w_sup) > 0)
    assert np.all(np.diff(u_sup) > 0)


def test_smspe_value_increases_with_dominant_gap():
    kern = ExponentialKernel(6.0)
    prev = {"simple": 0.0, "ordinary": 0.0}
    for d in np.linspace(0.55, 0.95, 9):
        design = Design(0.0, 1.0, (float(d), float(1.0 - d)))
        for model in ("simple", "ordinary"):
            val = smspe(kern, design, model).value
            assert val > prev[model]
            prev[model] = val


def test_criteria_validation():
    kern = ExponentialKernel(2.0)
    with pytest.raises(DomainError):
        smspe(kern, equispaced(4), "universal")
    with pytest.raises(DomainError):
        smspe((1.0, None), equispaced(4))
    with pytest.raises(DomainError):
        smspe(kern, Design(0.0, 2.0, (1.0, 1.0)))
    with pytest.raises(DomainError):
        imspe(kern, Design(0.5, 0.5, ()))
    with pytest.raises(DomainError):
        smspe_numeric(kern, equispaced(4), grid_points_per_interval=10)
    with pytest.raises(DomainError):
        imspe_numeric(kern, equispaced(4), tol=0.0)


# --------------------------------------------------------------------------
# prior-averaged risks
# --------------------------------------------------------------------------

def _risk_oracle(prior, design, model, which):
    fn = {"smspe": smspe, "imspe": imspe}[which]
    lo, hi = prior.support

    def criterion(theta):
        return fn(ExponentialKernel(theta), design, model).value

    def density(theta):
        return float(prior.density(theta))

    return prior.e_sigma11 * oracles.quad_risk(density, lo, hi, criterion)


def test_risks_match_independent_quadrature(rng, xi0):
    uniform = ThetaPrior.uniform(15.12, 19.12)
    # piecewise-linear tent over the same support
    tab = ThetaPrior.tabulated([15.12, 17.12, 19.12],
                               [0.0, 0.5, 0.0])
    designs = [xi0, equispaced(6)] + [_random_unit_design(rng, 5) for _ in range(3)]
    for design in designs:
        for prior in (uniform, tab):
            for model in ("simple", "ordinary"):
                got = risk_smspe(prior, design, model)
                assert got == pytest.approx(
                    _risk_oracle(prior, design, model, "smspe"), abs=1e-7)
                got = risk_imspe(prior, design, model)
                assert got == pytest.approx(
                    _risk_oracle(prior, design, model, "imspe"), abs=1e-7)


@pytest.mark.parametrize("model", ["simple", "ordinary"])
@pytest.mark.parametrize("kind", ["uniform", "tabulated"])
def test_risk_smspe_is_the_largest_averaged_term(kind, model, rng):
    # every term rises with its own gap at every rate, so the widest gap
    # is the largest term at every rate and E max = max E; the optimizer's
    # epigraph form rests on this
    pytest.importorskip("mpmath")
    if kind == "uniform":
        rates, densities = (12.12, 22.12), (0.1, 0.1)
        prior = ThetaPrior.uniform(*rates, e_sigma11=0.85)
    else:
        rates, densities = (15.12, 17.12, 19.12), (0.0, 0.5, 0.0)
        prior = ThetaPrior.tabulated(rates, densities, e_sigma11=0.85)
    for n in (3, 8, 17):
        gaps = oracles.random_design_gaps(rng, n)
        want = 0.85 * np.array(oracles.mp_prior_averaged_smspe_terms(rates, densities, gaps, model))
        terms = crit._risk("smspe", prior, gaps, model, terms=True).value
        np.testing.assert_allclose(terms, want, rtol=1e-12, atol=0.0)
        got = risk_smspe(prior, Design(0.0, 1.0, tuple(gaps)), model)
        assert got == pytest.approx(want.max(), rel=1e-12)


def test_risk_values_on_benchmark_design(xi0):
    # anchors computed with scipy.integrate.quad to 1e-13; the closed
    # forms must land on them
    prior = ThetaPrior.uniform(16.62, 17.62)
    assert risk_smspe(prior, xi0) == pytest.approx(0.9367970043861275, abs=1e-9)
    assert risk_imspe(prior, xi0) == pytest.approx(0.4342768438877362, abs=1e-9)


def test_risk_on_equispaced_benchmark():
    prior = ThetaPrior.uniform(16.62, 17.62)
    xs = equispaced(17)
    assert risk_smspe(prior, xs) == pytest.approx(0.4891635499764353, abs=1e-9)
    assert risk_imspe(prior, xs) == pytest.approx(0.3320907565596042, abs=1e-9)
    assert risk_smspe(prior, xs, "ordinary") == pytest.approx(
        0.4910157929042474, abs=1e-9)
    assert risk_imspe(prior, xs, "ordinary") == pytest.approx(
        0.3330853161805158, abs=1e-9)


def test_point_like_prior_recovers_fixed_rate(xi0):
    theta_star = 17.12
    eps = 1e-3
    spike = ThetaPrior.tabulated(
        [theta_star - eps, theta_star, theta_star + eps],
        [0.0, 1.0 / eps, 0.0])
    kern = ExponentialKernel(theta_star)
    assert risk_smspe(spike, xi0) == pytest.approx(
        smspe(kern, xi0).value, abs=1e-5)
    assert risk_imspe(spike, xi0) == pytest.approx(
        imspe(kern, xi0).value, abs=1e-5)


def test_flat_tabulated_prior_matches_uniform(xi0):
    t1, t2 = 12.84, 21.4
    flat = ThetaPrior.tabulated([t1, t2], [1.0 / (t2 - t1)] * 2)
    uniform = ThetaPrior.uniform(t1, t2)
    assert flat == uniform and hash(flat) == hash(uniform)
    for criterion in ("smspe", "imspe"):
        for model in ("simple", "ordinary"):
            report = risk_report(criterion, flat, xi0, model)
            assert report.nodes == 8 + 16
            assert report.value == pytest.approx(
                _risk_oracle(uniform, xi0, model, criterion), abs=1e-7)


def test_flat_and_sloped_segments(rng, xi0):
    # flat on [15.12, 17.12], falling linearly to 0 on [17.12, 19.12]
    prior = ThetaPrior.tabulated([15.12, 17.12, 19.12], [1.0 / 3.0, 1.0 / 3.0, 0.0],
                                 e_sigma11=0.85)
    for design in (xi0, equispaced(6), _random_unit_design(rng, 9)):
        for criterion in ("smspe", "imspe"):
            report = risk_report(criterion, prior, design, "simple")
            assert report.value == pytest.approx(
                _risk_oracle(prior, design, "simple", criterion), abs=1e-7)
            assert report.nodes == 2 * (8 + 16)


def test_risks_scale_with_mean_variance(xi0):
    base = ThetaPrior.uniform(12.84, 21.4)
    scaled = ThetaPrior.uniform(12.84, 21.4, e_sigma11=0.85)
    for model in ("simple", "ordinary"):
        assert risk_smspe(scaled, xi0, model) == pytest.approx(
            0.85 * risk_smspe(base, xi0, model), rel=1e-12)
        assert risk_imspe(scaled, xi0, model) == pytest.approx(
            0.85 * risk_imspe(base, xi0, model), rel=1e-12)


def test_risk_validation(xi0):
    with pytest.raises(DomainError):
        risk_smspe(ExponentialKernel(2.0), xi0)
    with pytest.raises(DomainError):
        risk_imspe(ThetaPrior.uniform(1.0, 2.0), xi0, "universal")


PAPER_PRIOR = ThetaPrior.uniform(12.12, 22.12)


@pytest.mark.parametrize("model", ["simple", "ordinary"])
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
@pytest.mark.parametrize("n", [17, 10**5])
def test_risk_report_paper_prior_takes_the_8_and_16_node_rules(criterion, n, model):
    design = equispaced(n)
    report = risk_report(criterion, PAPER_PRIOR, design, model)
    fn = risk_smspe if criterion == "smspe" else risk_imspe
    assert report.value == fn(PAPER_PRIOR, design, model)
    assert report.nodes == 8 + 16
    assert 0.0 <= report.error <= crit.RISK_QUAD_TOL * report.value


@pytest.mark.parametrize("terms, grad", [(False, False), (True, False), (False, True),
                                         (True, True)])
def test_paper_prior_rates_are_one_block_up_to_17_sites(terms, grad, monkeypatch):
    # the optimizer's objective (value, terms, gradient or the terms'
    # Jacobian) takes the first pass's 8 + 16 rates in one block
    real, sizes = kern._interval_terms, []

    def counted(theta, *args, **kwargs):
        sizes.append(np.size(theta))
        return real(theta, *args, **kwargs)
    monkeypatch.setattr(kern, "_interval_terms", counted)
    for n in (8, 17):
        gaps = np.random.default_rng(n).dirichlet(np.ones(n - 1))
        for criterion in ("smspe", "imspe"):
            sizes.clear()
            crit._risk(criterion, PAPER_PRIOR, gaps, "ordinary", terms=terms, grad=grad)
            assert sizes[0] == 8 + 16


# equispaced designs on wide priors, each against its value by mpmath.quad
# at 40 digits with a breakpoint at every decade; a rule linear in theta
# stopped at 24 nodes on [1, 1e6] and [1, 1e5], 1.4e-4 and 2.4e-4 off, and
# raised NumericError after 4096 nodes on [1e-3, 1e8]
@pytest.mark.parametrize("criterion, lo, hi, n, want", [
    ("imspe", 0.01, 1000.0, 17, 0.97055201518734924),
    ("smspe", 1.0, 1e6, 100, 1.0098596453321136),
    ("smspe", 1.0, 1e5, 17, 1.0585729234606962),
    ("imspe", 1e-3, 1e8, 17, 1.0588204794712547),
], ids=["imspe-0.01-1000", "smspe-1-1e6", "smspe-1-1e5", "imspe-0.001-1e8"])
def test_risk_report_wide_priors_match_mpmath(criterion, lo, hi, n, want):
    report = risk_report(criterion, ThetaPrior.uniform(lo, hi), equispaced(n), "ordinary")
    assert report.nodes > 24
    assert report.error <= crit.RISK_QUAD_TOL * report.value
    assert report.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_risk_quadrature_stops_on_the_relative_difference():
    # on this 1000-site design over [30, 300], one piece, the 8- and 16-node
    # rules differ by 8.0e-10, within an absolute 1e-9 but 1.6e-9 relative:
    # the rule must double on
    gaps = np.random.default_rng(5).dirichlet(np.ones(999))
    design = Design(0.0, 1.0, tuple(gaps))
    report = risk_report("smspe", ThetaPrior.uniform(30.0, 300.0), design, "ordinary")
    assert report.nodes > 24
    assert report.error <= crit.RISK_QUAD_TOL * report.value


def test_risk_report_zero_density_segment_stops():
    # a segment whose density is zero averages to exactly 0 at every rule
    prior = ThetaPrior.tabulated([1.0, 5.0, 15.0, 25.0], [0.0, 0.0, 0.1, 0.0])
    report = risk_report("smspe", prior, equispaced(17), "ordinary")
    assert report.nodes == 3 * 24
    assert report.value == risk_smspe(prior, equispaced(17), "ordinary") > 0.0


def test_risk_report_validation(xi0):
    with pytest.raises(DomainError):
        risk_report("risk_smspe", PAPER_PRIOR, xi0)
    with pytest.raises(DomainError):
        risk_report("smspe", ExponentialKernel(2.0), xi0)
    with pytest.raises(DomainError):
        risk_report("imspe", PAPER_PRIOR, xi0, "universal")


# --------------------------------------------------------------------------
# gap transfers toward a wider gap never help
# --------------------------------------------------------------------------

def test_spreading_mass_to_wider_gap_hurts(xi0):
    gaps = xi0.gap_array()
    frm, to = int(np.argmin(gaps)), int(np.argmax(gaps))
    worse = majorization_perturb(xi0, frm, to, 0.01)
    kern = ExponentialKernel(17.12)
    prior = ThetaPrior.uniform(12.84, 21.4)
    for model in ("simple", "ordinary"):
        assert smspe(kern, worse, model).value >= smspe(kern, xi0, model).value - 1e-12
        assert imspe(kern, worse, model).value >= imspe(kern, xi0, model).value - 1e-12
        assert risk_smspe(prior, worse, model) >= risk_smspe(prior, xi0, model) - 1e-12
        assert risk_imspe(prior, worse, model) >= risk_imspe(prior, xi0, model) - 1e-12


# --------------------------------------------------------------------------
# efficiency ratios
# --------------------------------------------------------------------------

def test_relative_efficiency_basics():
    assert relative_efficiency(0.5, 1.0) == pytest.approx(0.5)
    assert relative_efficiency(1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        relative_efficiency(0.0, 1.0)
    with pytest.raises(DomainError):
        relative_efficiency(1.0, -2.0)


# --------------------------------------------------------------------------
# cost of the package itself
# --------------------------------------------------------------------------

def test_import_leaves_scipy_unloaded():
    # the dense solves, the optimizer and the fit each load the part of
    # SciPy they call
    import cokrig

    src = str(Path(cokrig.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, cokrig; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("model", ["simple", "ordinary"])
@pytest.mark.parametrize("criterion", ["smspe", "imspe"])
@pytest.mark.parametrize("lo, hi, top, mixed", [(12.12, 22.12, 1e-4, False),
                                                (2e5, 3e5, 1.0, False),
                                                (12.12, 22.12, 2.0, True)],
                         ids=["series", "closed-forms", "mixed"])
def test_risk_quadrature_memory_does_not_grow_with_sites(lo, hi, top, mixed, criterion, model):
    # a risk's value is one pass per rate over one work array, a row of gaps
    # at n = 1e5 (0.8 MB); per-interval term arrays took 11-23 MB traced on
    # the paper's prior, and holding every (node, gap) term at once about
    # 590 MB.  On the paper's prior every theta * d of the equispaced design
    # is below the series cutoff, and on [2e5, 3e5] above it; the mixed
    # design, one gap of 0.5 and the rest 0.5 / 99998, has both in every row
    n = 10**5
    design = (Design(0.0, 1.0, np.append(np.full(n - 2, 0.5 / (n - 2)), 0.5)) if mixed
              else equispaced(n))
    prior = ThetaPrior.uniform(lo, hi)
    tracemalloc.start()
    try:
        value = risk_report(criterion, prior, design, model).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < value < top
    assert peak < 4e6
