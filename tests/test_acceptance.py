"""Acceptance gate: one test per published acceptance criterion.

Each test prints a PASS/FAIL line per checked quantity (visible with
``pytest -rA`` or on failure), then asserts.  Criterion 1 compares
against a published table computed from the benchmark network before
its gaps were rounded to two decimals; its SMSPE network entries depend
on the design only through the widest gap, so they are checked through
that gap's rounding window (analysis in ``docs/acceptance1.md``).  Do
not loosen the tolerances.
"""

import math
import time

import numpy as np
import pytest

import oracles
from conftest import XI0_GAPS
from cokrig import (
    Design,
    ExponentialCorrelogram,
    ExponentialKernel,
    GeneralizedMarkov,
    Mat05,
    Mat15,
    MatInf,
    Matern15Correlogram,
    NS1,
    NS2,
    NuggetCorrelogram,
    ObservationVector,
    OptimizationProblem,
    Proportional,
    SquaredExponentialCorrelogram,
    ThetaPrior,
    build_joint_covariance,
    equispaced,
    evaluate_criterion,
    fit_mle,
    imspe,
    loglikelihood,
    majorization_perturb,
    mspe_closed_form,
    optimize,
    ordinary_cokrige,
    ordinary_krige,
    risk_imspe,
    risk_smspe,
    simple_cokrige,
    simple_krige,
    simulate_observations,
    smspe,
)
from cokrig.kernel import precision_matrix
from oracles import brute_force_min, imspe_numeric, smspe_numeric

XI0 = Design(0.0, 1.0, XI0_GAPS)
THETA_HAT = 17.12


def report(lines):
    for line in lines:
        print(line)


# --------------------------------------------------------------------------
# 1. published relative-risk table, four priors, +-0.002 per entry
# --------------------------------------------------------------------------

TABLE_PRIORS = ((16.62, 17.62), (16.12, 18.12), (15.12, 19.12), (12.12, 22.12))
TABLE_SMSPE = ((0.489, 0.933, 0.524), (0.489, 0.933, 0.524),
               (0.489, 0.932, 0.525), (0.486, 0.923, 0.527))
TABLE_IMSPE = ((0.332, 0.434, 0.766), (0.332, 0.433, 0.766),
               (0.332, 0.433, 0.766), (0.330, 0.430, 0.768))

# XI0_GAPS is printed to two decimals, so its widest gap (0.20) stands
# for any value in WIDEST_WINDOW.  The simple-model SMSPE risk depends on
# the design only through the widest gap, and the table's SMSPE network
# column was computed before rounding (docs/acceptance1.md).
WIDEST = XI0_GAPS.index(max(XI0_GAPS))
WIDEST_WINDOW = (XI0_GAPS[WIDEST] - 0.005, XI0_GAPS[WIDEST] + 0.005)
# bisection range for the widest gap: wider than the window, narrow
# enough that the gap taking up the difference stays the narrower one
WIDEST_SEARCH = (0.17, 0.23)


def _network_with_widest_gap(d):
    """The benchmark network with its widest gap set to ``d``.

    The difference goes to the neighbouring 0.09 gap.  Any other gap
    would give the same SMSPE values, since only the widest gap enters.
    """
    gaps = list(XI0_GAPS)
    gaps[WIDEST - 1] += gaps[WIDEST] - d
    gaps[WIDEST] = d
    return Design(0.0, 1.0, tuple(gaps))


def _monotone_bracket(f, want, tol, lo, hi, steps=40):
    """Interval of ``x`` in ``[lo, hi]`` with ``|f(x) - want| <= tol``.

    ``f`` must be monotone on ``[lo, hi]``.  Both ends are found by
    bisection and returned on the inside of the set; ``None`` when the
    set is empty.
    """
    sign = 1.0 if f(hi) >= f(lo) else -1.0

    def g(x):
        return sign * (f(x) - want)

    if g(hi) < -tol or g(lo) > tol:
        return None

    def crossing(level):
        a, b = lo, hi
        for _ in range(steps):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if g(mid) < level else (a, mid)
        return a, b

    left = lo if g(lo) >= -tol else crossing(-tol)[1]
    right = hi if g(hi) <= tol else crossing(tol)[0]
    return left, right


def _widest_gap_intervals(risk, tol):
    """Widest gaps that reproduce the SMSPE network and ratio columns.

    ``risk(prior, design)`` stands in for the simple-model SMSPE risk.
    Returns one ``(prior, label, published, interval)`` per entry, with
    ``interval`` as in :func:`_monotone_bracket`, and the intersection
    of all intervals (``None`` if empty).
    """
    eq = equispaced(17)
    entries = []
    for (t1, t2), (_, want_net, want_ratio) in zip(TABLE_PRIORS, TABLE_SMSPE):
        prior = ThetaPrior.uniform(t1, t2)
        r_eq = risk(prior, eq)

        def r_net(d, prior=prior):
            return risk(prior, _network_with_widest_gap(d))

        def ratio(d, r_eq=r_eq, r_net=r_net):
            return r_eq / r_net(d)

        for label, f, want in (("network", r_net, want_net),
                               ("ratio", ratio, want_ratio)):
            span = _monotone_bracket(f, want, tol, *WIDEST_SEARCH)
            entries.append(((t1, t2), label, want, span))
    spans = [span for *_, span in entries]
    if any(span is None for span in spans):
        return entries, None
    lo = max(span[0] for span in spans)
    hi = min(span[1] for span in spans)
    return entries, ((lo, hi) if lo <= hi else None)


def _plugin_risk_smspe(prior, design):
    """SMSPE at the prior's midpoint rate, ignoring the prior's spread."""
    theta = 0.5 * sum(prior.support)
    return prior.e_sigma11 * smspe(ExponentialKernel(theta), design).value


def _fmt_span(span):
    return "empty" if span is None else f"[{span[0]:.4f}, {span[1]:.4f}]"


def test_acceptance_1_published_risk_table():
    start = time.perf_counter()
    eq = equispaced(17)
    lines, failures = [], []

    def check(ok, text):
        line = f"{'PASS' if ok else 'FAIL'} {text}"
        lines.append(line)
        if not ok:
            failures.append(line)

    # as printed: the SMSPE equispaced entries and all IMSPE entries
    for (t1, t2), sm_row, im_row in zip(TABLE_PRIORS, TABLE_SMSPE, TABLE_IMSPE):
        prior = ThetaPrior.uniform(t1, t2)
        r_eq = risk_smspe(prior, eq)
        check(abs(r_eq - sm_row[0]) <= 0.002,
              f"risk.smspe prior=({t1},{t2}) equispaced: "
              f"got {r_eq:.6f}, published {sm_row[0]}")
        r_eq, r_net = risk_imspe(prior, eq), risk_imspe(prior, XI0)
        got = (r_eq, r_net, r_eq / r_net)
        for label, g, want in zip(("equispaced", "network", "ratio"), got, im_row):
            check(abs(g - want) <= 0.002,
                  f"risk.imspe prior=({t1},{t2}) {label}: "
                  f"got {g:.6f}, published {want}")

    # SMSPE network and ratio: through the rounded widest gap
    lo_w, hi_w = WIDEST_WINDOW
    entries, common = _widest_gap_intervals(risk_smspe, 0.002)
    for (t1, t2), label, want, span in entries:
        check(span is not None and span[0] <= hi_w and span[1] >= lo_w,
              f"risk.smspe prior=({t1},{t2}) {label}: published {want} "
              f"within 0.002 for widest gap in {_fmt_span(span)}")
    check(common is not None and lo_w <= common[0] and common[1] <= hi_w,
          f"risk.smspe network/ratio: common widest gap {_fmt_span(common)} "
          f"inside rounding window [{lo_w:.3f}, {hi_w:.3f}]")

    elapsed = time.perf_counter() - start
    lines.append(f"runtime {elapsed:.3f}s (budget 1s)")
    report(lines)
    assert elapsed < 1.0
    assert not failures, (
        f"{len(failures)} acceptance-1 checks failed "
        "(analysis in docs/acceptance1.md):\n" + "\n".join(failures))


def test_acceptance_1_widest_gap_check_rejects_plugin_risk():
    # Negative control: the plug-in gives one value per design for all
    # four priors (they share the midpoint 17.12), but the published
    # network column runs from 0.923 to 0.933, so no single widest gap
    # can reproduce it.  Freeing the widest gap does not let a risk
    # that ignores the prior's spread pass acceptance 1.
    entries, common = _widest_gap_intervals(_plugin_risk_smspe, 0.002)
    lines = [f"plug-in prior=({t1},{t2}) {label}: published {want} within "
             f"0.002 for widest gap in {_fmt_span(span)}"
             for (t1, t2), label, want, span in entries]
    lines.append(f"{'PASS' if common is None else 'FAIL'} plug-in common "
                 f"widest gap: {_fmt_span(common)} (expected empty)")
    report(lines)
    assert common is None


# --------------------------------------------------------------------------
# 2. known-rate efficiency of the benchmark network
# --------------------------------------------------------------------------

def test_acceptance_2_known_rate_efficiency():
    kern = ExponentialKernel(THETA_HAT, sigma11=0.85)
    eq = equispaced(17)
    eff_s = smspe(kern, eq).value / smspe(kern, XI0).value
    eff_i = imspe(kern, eq).value / imspe(kern, XI0).value
    lines = [
        f"{'PASS' if abs(eff_s - 0.524) <= 0.002 else 'FAIL'} "
        f"smspe efficiency: got {eff_s:.6f}, published 0.524",
        f"{'PASS' if abs(eff_i - 0.766) <= 0.002 else 'FAIL'} "
        f"imspe efficiency: got {eff_i:.6f}, table-consistent 0.766",
        "note: the narrative figure 0.797 for the imspe efficiency is "
        "inconsistent with the table's tight-prior limit (0.766) and is "
        "not treated as ground truth",
    ]
    report(lines)
    assert eff_s == pytest.approx(0.524, abs=0.002)
    assert eff_i == pytest.approx(0.766, abs=0.002)


# --------------------------------------------------------------------------
# 3. closed forms vs dense/quadrature oracles, 1000 random instances
# --------------------------------------------------------------------------

def test_acceptance_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240816)
    worst = {"mspe": 0.0, "precision": 0.0, "criteria": 0.0, "risk": 0.0}
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        theta = float(rng.uniform(0.5, 50.0))
        s11 = float(rng.uniform(0.3, 2.0))
        design = Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, n)))
        kern = ExponentialKernel(theta, s11)
        pts = design.points

        for _ in range(2):
            x0 = float(rng.uniform(0.0, 1.0))
            worst["mspe"] = max(
                worst["mspe"],
                abs(mspe_closed_form(kern, design, x0)
                    - oracles.dense_simple_mspe(pts, theta, s11, x0)),
                abs(mspe_closed_form(kern, design, x0, "ordinary")
                    - oracles.dense_ordinary_mspe(pts, theta, s11, x0)))

        worst["precision"] = max(worst["precision"], float(np.max(np.abs(
            precision_matrix(design, theta) - oracles.dense_precision(pts, theta)))))

        for model in ("simple", "ordinary"):
            worst["criteria"] = max(
                worst["criteria"],
                abs(smspe(kern, design, model).value
                    - smspe_numeric(kern, design, model)),
                abs(imspe(kern, design, model).value
                    - imspe_numeric(kern, design, model)))

        lo = float(rng.uniform(0.5, 40.0))
        hi = lo + float(rng.uniform(0.5, 10.0))
        prior = ThetaPrior.uniform(lo, hi, e_sigma11=s11)
        worst["risk"] = max(
            worst["risk"],
            abs(risk_smspe(prior, design) - oracles.quad_risk(
                prior.density, lo, hi,
                lambda th: s11 * smspe(ExponentialKernel(th), design).value)),
            abs(risk_imspe(prior, design) - oracles.quad_risk(
                prior.density, lo, hi,
                lambda th: s11 * imspe(ExponentialKernel(th), design).value)))

    elapsed = time.perf_counter() - start
    bounds = {"mspe": 1e-9, "precision": 1e-9, "criteria": 1e-7, "risk": 1e-7}
    lines = [
        f"{'PASS' if worst[k] <= bounds[k] else 'FAIL'} "
        f"{k}: worst |closed - oracle| = {worst[k]:.3e} (bound {bounds[k]:.0e})"
        for k in bounds
    ]
    lines.append(f"runtime {elapsed:.1f}s over 1000 instances (budget 60s)")
    report(lines)
    for k, bound in bounds.items():
        assert worst[k] <= bound, f"{k}: {worst[k]:.3e} > {bound}"
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 4. proportional cross-covariance: secondary data change nothing;
#    one fixed non-proportional instance shows a real gap
# --------------------------------------------------------------------------

def _random_reducing_model(rng):
    def corr(smooth_ok=True):
        kinds = ["exp", "sqexp", "mat15"] if smooth_ok else ["exp"]
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "exp":
            return ExponentialCorrelogram(float(rng.uniform(0.5, 30.0)))
        base = float(rng.uniform(0.05, 0.6))
        return (SquaredExponentialCorrelogram(base) if kind == "sqexp"
                else Matern15Correlogram(base))

    s11 = float(rng.uniform(0.3, 2.0))
    s22 = float(rng.uniform(0.3, 2.0))
    lam = float(rng.uniform(0.05, 0.95))
    lamc = float(rng.uniform(-0.9, 0.9))
    pick = int(rng.integers(6))
    if pick == 0:
        rho = float(rng.uniform(-0.9, 0.9))
        margin = float(rng.uniform(0.05, 1.0))
        c11 = corr()
        c_r = [NuggetCorrelogram(), corr()][int(rng.integers(2))]
        model = GeneralizedMarkov(s11, rho**2 * s11 + margin, rho, c11, c_r)
        return model, (model.sigma11, model.c11)
    if pick == 1:
        t = float(rng.uniform(-0.9, 0.9))
        base = corr()
        model = Proportional(s11, t * math.sqrt(s11 * s22), s22, base)
        return model, (model.sigma11, model.base)
    if pick == 2:
        model = NS1(s11, s22, lam, lamc)
        return model, (s11, ExponentialCorrelogram.from_base(lam))
    if pick == 3:
        model = Mat05(s11, s22, lam, lamc)
        return model, (s11, ExponentialCorrelogram.from_base(lam))
    if pick == 4:
        model = Mat15(s11, s22, lam, lamc)
        return model, (s11, Matern15Correlogram(lam))
    model = MatInf(s11, s22, lam, lamc)
    return model, (s11, SquaredExponentialCorrelogram(lam))


def test_acceptance_4_reduction_suite():
    rng = np.random.default_rng(20240817)
    worst_val, worst_mspe = 0.0, 0.0
    for _ in range(500):
        model, kern = _random_reducing_model(rng)
        # smooth correlograms need well-separated sites to keep the dense
        # joint system far from singular; the identity itself is exact
        smooth = not isinstance(kern[1], ExponentialCorrelogram)
        n = int(rng.integers(2, 5 if smooth else 8))
        min_gap = 0.1 if smooth else 0.02
        design = Design(0.0, 1.0,
                        tuple(oracles.random_design_gaps(rng, n, min_gap=min_gap)))
        x0 = float(rng.uniform(0.0, 1.0))
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        obs = ObservationVector(z1, z2)
        for co_fn, kr_fn in ((simple_cokrige, simple_krige),
                             (ordinary_cokrige, ordinary_krige)):
            co = co_fn(model, design, obs, x0)
            kr = kr_fn(kern, design, z1, x0)
            worst_val = max(worst_val, abs(co.value - kr.value))
            worst_mspe = max(worst_mspe, abs(co.mspe - kr.mspe))

    # fixed counterexample: fast-decaying cross structure, slower direct
    # one; the secondary variable now carries real extra information
    model = NS2(1.0, 1.0, 0.05, 0.5)
    design = Design(0.0, 1.0, (1.0,))
    obs = ObservationVector(np.array([0.3, -0.8]), np.array([1.1, 0.4]))
    co = simple_cokrige(model, design, obs, 0.5)
    kr = simple_krige((1.0, ExponentialCorrelogram.from_base(0.05)),
                      design, obs.z1, 0.5)
    gap = kr.mspe - co.mspe

    lines = [
        f"{'PASS' if worst_val <= 1e-9 else 'FAIL'} "
        f"values: worst |cokrige - krige| = {worst_val:.3e} (bound 1e-9)",
        f"{'PASS' if worst_mspe <= 1e-9 else 'FAIL'} "
        f"errors: worst |cokrige - krige| = {worst_mspe:.3e} (bound 1e-9)",
        f"{'PASS' if gap > 1e-3 else 'FAIL'} "
        f"non-proportional gap: {gap:.6f} > 1e-3",
    ]
    report(lines)
    assert worst_val <= 1e-9
    assert worst_mspe <= 1e-9
    assert gap > 1e-3


# --------------------------------------------------------------------------
# 5. the optimizer lands on the equispaced design everywhere
# --------------------------------------------------------------------------

def test_acceptance_5_equispaced_optimality():
    start = time.perf_counter()
    worst_dev, worst_gap, runs = 0.0, 0.0, 0
    for criterion in ("smspe", "imspe"):
        for model in ("simple", "ordinary"):
            for theta in (1.0, 5.0, 17.12, 40.0):
                for n in range(3, 9):
                    problem = OptimizationProblem(
                        n, criterion, model, kernel=ExponentialKernel(theta))
                    res = optimize(problem)
                    eq_val = evaluate_criterion(problem, equispaced(n))
                    worst_dev = max(worst_dev, res.gap_deviation)
                    worst_gap = max(worst_gap, abs(res.value - eq_val))
                    runs += 1
    prior = ThetaPrior.uniform(12.12, 22.12)
    for criterion in ("risk_smspe", "risk_imspe"):
        for model in ("simple", "ordinary"):
            for n in range(3, 9):
                problem = OptimizationProblem(n, criterion, model, prior=prior)
                res = optimize(problem)
                eq_val = evaluate_criterion(problem, equispaced(n))
                worst_dev = max(worst_dev, res.gap_deviation)
                worst_gap = max(worst_gap, abs(res.value - eq_val))
                runs += 1

    worst_brute = 0.0
    for criterion in ("smspe", "imspe"):
        for model in ("simple", "ordinary"):
            for n in (3, 4):
                problem = OptimizationProblem(
                    n, criterion, model, kernel=ExponentialKernel(THETA_HAT))
                res = brute_force_min(problem, grid_step=0.005)
                off = float(np.max(np.abs(res.design.gap_array() - 1.0 / (n - 1))))
                worst_brute = max(worst_brute, off)

    elapsed = time.perf_counter() - start
    lines = [
        f"{'PASS' if worst_dev < 1e-4 else 'FAIL'} "
        f"gap deviation over {runs} runs: worst {worst_dev:.3e} (bound 1e-4)",
        f"{'PASS' if worst_gap <= 1e-9 else 'FAIL'} "
        f"value vs equispaced: worst {worst_gap:.3e} (bound 1e-9)",
        f"{'PASS' if worst_brute <= 0.005 + 1e-12 else 'FAIL'} "
        f"brute-force grid: worst offset {worst_brute:.4f} (one step = 0.005)",
        f"runtime {elapsed:.1f}s (budget 300s)",
    ]
    report(lines)
    assert worst_dev < 1e-4
    assert worst_gap <= 1e-9
    assert worst_brute <= 0.005 + 1e-12
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# 6. spreading a design out never helps
# --------------------------------------------------------------------------

def test_acceptance_6_majorization_probes():
    rng = np.random.default_rng(20240818)
    kern = ExponentialKernel(THETA_HAT, sigma11=0.85)
    prior = ThetaPrior.uniform(12.12, 22.12)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        design = Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, n)))
        gaps = design.gap_array()
        frm = int(np.argmin(gaps))
        to = int(np.argmax(gaps))
        eps = float(rng.uniform(0.05, 0.9)) * gaps[frm]
        worse = majorization_perturb(design, frm, to, eps)
        for model in ("simple", "ordinary"):
            for fn in (lambda d, m=model: smspe(kern, d, m).value,
                       lambda d, m=model: imspe(kern, d, m).value,
                       lambda d, m=model: risk_smspe(prior, d, m),
                       lambda d, m=model: risk_imspe(prior, d, m)):
                worst = min(worst, fn(worse) - fn(design))
    line = (f"{'PASS' if worst >= -1e-12 else 'FAIL'} "
            f"worst criterion change under spreading: {worst:.3e} (bound -1e-12)")
    report([line])
    assert worst >= -1e-12


# --------------------------------------------------------------------------
# 7. joint validity collapses exactly when the residual margin does
# --------------------------------------------------------------------------

def test_acceptance_7_validity_boundary():
    rho, s11 = 0.25, 0.85
    margins = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 2e-6, 1e-6, 1e-8, 0.0)
    eigs = []
    for margin in margins:
        model = GeneralizedMarkov(
            s11, rho**2 * s11 + margin, rho,
            ExponentialCorrelogram(THETA_HAT), NuggetCorrelogram())
        cov = build_joint_covariance(model, XI0)
        eigs.append(float(np.linalg.eigvalsh(cov)[0]))
    lines = [f"margin {m:.0e}: min eigenvalue {e:.3e}"
             for m, e in zip(margins, eigs)]
    positive_ok = all(e > 0 for m, e in zip(margins, eigs) if m > 1e-6)
    boundary_ok = eigs[-1] <= 1e-8
    monotone_ok = all(b <= a + 1e-12 for a, b in zip(eigs, eigs[1:]))
    lines += [
        f"{'PASS' if positive_ok else 'FAIL'} strictly positive above 1e-6",
        f"{'PASS' if boundary_ok else 'FAIL'} collapses to <= 1e-8 at zero margin",
        f"{'PASS' if monotone_ok else 'FAIL'} nonincreasing along the sweep",
    ]
    report(lines)
    assert positive_ok
    assert boundary_ok
    assert monotone_ok


# --------------------------------------------------------------------------
# 8. likelihood fit recovers the generator
# --------------------------------------------------------------------------

def test_acceptance_8_mle_recovery():
    start = time.perf_counter()
    truth = dict(theta=THETA_HAT, sigma11=0.85, sigma22=0.94, rho=0.25)
    z1, z2 = simulate_observations(XI0, **truth, replicates=200, seed=20240815)
    fit = fit_mle(XI0, z1, z2, standardize=False)
    assert fit.stderr is not None
    lines = []
    ok_all = True
    for name, hat in (("theta", fit.theta_hat), ("sigma11", fit.sigma11_hat),
                      ("sigma22", fit.sigma22_hat), ("rho", fit.rho_hat)):
        se = fit.stderr[name]
        ok = abs(hat - truth[name]) <= 3.0 * se
        ok_all &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: "
                     f"hat {hat:.4f}, truth {truth[name]}, 3*se {3 * se:.4f}")
    elapsed = time.perf_counter() - start
    lines.append(f"runtime {elapsed:.1f}s (budget 300s)")
    report(lines)
    assert ok_all
    assert fit.loglik >= loglikelihood(XI0, z1, z2, **truth) - 1e-6
    assert elapsed < 300.0
