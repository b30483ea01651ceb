"""The benchmark's own tests: its references, and checks that reject wrong answers.

    python3 -m pytest bench -q

Each negative control hands a check a plausible wrong answer and
expects ``CheckFailed``; the positive tests confirm the references
against a second, slower derivation.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from reference import CheckFailed

mpmath = pytest.importorskip("mpmath")

ROOT = Path(__file__).resolve().parent.parent
NETWORK = np.array([0.04, 0.02, 0.04, 0.09, 0.20, 0.06, 0.12, 0.13,
                    0.04, 0.04, 0.02, 0.05, 0.04, 0.07, 0.02, 0.02])
NETWORK = NETWORK / NETWORK.sum()
THETA = 17.12


def pointwise_mspe(theta, d, a, q0=None):
    """Kriging error at offset ``a`` in a gap ``d`` (unknown mean when ``q0``)."""
    mp = mpmath
    w = 1 - mp.exp(-2 * theta * d)
    v = (1 - mp.exp(-2 * theta * a)) * (1 - mp.exp(-2 * theta * (d - a))) / w
    if q0 is not None:
        t = (mp.exp(-theta * a) + mp.exp(-theta * (d - a))) / (1 + mp.exp(-theta * d))
        v += (1 - t) ** 2 / q0
    return v


# --------------------------------------------------------------------------
# the references agree with slower derivations
# --------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.3, THETA, 200.0])
def test_closed_forms_match_quadrature_of_the_pointwise_error(theta):
    gaps = np.array([0.1, 0.3, 0.6])
    groups = ref.gap_groups(gaps)
    q0 = 1 + sum(mpmath.tanh(theta * mpmath.mpf(d) / 2) for d in gaps)
    for model, q in (("simple", None), ("ordinary", q0)):
        sup = max(pointwise_mspe(theta, mpmath.mpf(d), mpmath.mpf(d) / 2, q) for d in gaps)
        integral = sum(mpmath.quad(lambda a: pointwise_mspe(theta, mpmath.mpf(d), a, q),
                                   [0, d]) for d in gaps)
        assert float(ref.criterion_at("smspe", model, theta, groups)) == pytest.approx(
            float(sup), rel=1e-14)
        assert float(ref.criterion_at("imspe", model, theta, groups)) == pytest.approx(
            float(integral), rel=1e-14)


def test_pointwise_error_matches_dense_kriging():
    rng = np.random.default_rng(3)
    pts = np.concatenate([[0.0], np.cumsum(NETWORK)])
    x0 = rng.uniform(0.0, 1.0, 25)
    _, mspe, _ = ref.krige(pts, THETA, 1.0, np.zeros(pts.size), x0, "ordinary")
    q0 = 1 + sum(math.tanh(THETA * d / 2) for d in NETWORK)
    for j, x in enumerate(x0):
        i = min(np.searchsorted(pts, x, side="right") - 1, pts.size - 2)
        want = pointwise_mspe(THETA, mpmath.mpf(NETWORK[i]), mpmath.mpf(x - pts[i]), q0)
        assert mspe[j] == pytest.approx(float(want), abs=1e-12)


def test_dense_cokriging_of_the_shared_component_model_is_kriging():
    rng = np.random.default_rng(4)
    pts = np.sort(rng.uniform(0.0, 1.0, 30))
    gm = {"theta": THETA, "sigma11": 0.85, "sigma22": 0.94, "rho": 0.25}
    z1, z2 = ref.sample_gm(pts, THETA, 0.85, 0.94, 0.25, 1, rng)
    x0 = rng.uniform(0.0, 1.0, 5)
    for model in ("simple", "ordinary"):
        cv, cm, cw = ref.cokrige("gm", gm, pts, z1[0], z2[0], x0, model)
        kv, km, _ = ref.krige(pts, THETA, 0.85, z1[0], x0, model)
        np.testing.assert_allclose(cv, kv, atol=1e-10)
        np.testing.assert_allclose(cm, km, atol=1e-12)
        np.testing.assert_allclose(cw[pts.size:], 0.0, atol=1e-10)


def test_great_circle_of_one_degree_of_latitude():
    km = ref.great_circle_km(10.0, 20.0, 11.0, 20.0)
    assert km == pytest.approx(ref.EARTH_RADIUS_KM * math.pi / 180.0, rel=1e-12)


def test_dense_loglik_matches_the_factorized_form():
    rng = np.random.default_rng(5)
    pts = np.sort(rng.uniform(0.0, 1.0, 12))
    z1, z2 = ref.sample_gm(pts, THETA, 0.85, 0.94, 0.25, 3, rng)
    cov1 = ref.exp_cov(pts, THETA, 0.85)
    tau = 0.94 - 0.25**2 * 0.85
    want = 0.0
    for a, b in zip(z1, z2):
        want += (-0.5 * (pts.size * math.log(2 * math.pi) + np.linalg.slogdet(cov1)[1]
                         + a @ np.linalg.solve(cov1, a))
                 - 0.5 * (pts.size * math.log(2 * math.pi * tau) + np.sum((b - 0.25 * a) ** 2) / tau))
    assert ref.loglik(pts, z1, z2, THETA, 0.85, 0.94, 0.25) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------------------
# negative controls: every kind of check rejects a wrong answer
# --------------------------------------------------------------------------

def test_criterion_check_rejects_the_cancelling_imspe_form():
    n = 100_000
    gaps = np.full(n - 1, 1.0 / (n - 1))
    want = ref.criterion("imspe", "simple", THETA, gaps)
    u = np.exp(-2.0 * THETA * gaps)
    cancelling = float(np.sum(gaps + 2.0 * gaps * u / (1.0 - u) - 1.0 / THETA))
    x = THETA * gaps
    small = x < 1e-2
    xs = np.where(small, x, 1.0)
    series = x**2 / 3 - x**4 / 45 + 2 * x**6 / 945 - x**8 / 4725
    stable = float(np.sum(np.where(small, series, xs / np.tanh(xs) - 1.0) / THETA))
    with pytest.raises(CheckFailed):
        ref.close(cancelling, want, rtol=ref.CRITERION_RTOL)
    ref.close(stable, want, rtol=ref.CRITERION_RTOL)


def test_risk_check_rejects_a_plugin_midpoint_risk():
    want = ref.risk("imspe", "ordinary", 12.12, 22.12, NETWORK)
    plugin = ref.criterion("imspe", "ordinary", 17.12, NETWORK)
    with pytest.raises(CheckFailed):
        ref.close(plugin, want, rtol=ref.CRITERION_RTOL)


def test_optimum_check_rejects_the_network_design():
    value = ref.criterion("smspe", "ordinary", THETA, NETWORK)
    with pytest.raises(CheckFailed, match="not equispaced"):
        ref.check_optimum(17, NETWORK, value, value)
    equi = np.full(16, 1.0 / 16)
    right = ref.criterion("smspe", "ordinary", THETA, equi)
    ref.check_optimum(17, equi, right, right)
    with pytest.raises(CheckFailed):
        ref.check_optimum(17, equi, right * (1 + 1e-7), right)


def test_prediction_check_rejects_a_perturbed_weight():
    rng = np.random.default_rng(6)
    pts = np.sort(rng.uniform(0.0, 1.0, 40))
    z = rng.standard_normal(pts.size)
    values, mspe, weights = ref.krige(pts, THETA, 0.85, z, [0.37], "ordinary")

    class Result:
        def __init__(self, w):
            self.weights, self.value, self.mspe = w, float(w @ z), float(mspe[0])

    ref.check_prediction(Result(weights[:, 0].copy()), values[0], mspe[0], weights[:, 0], "ok")
    bad = weights[:, 0].copy()
    bad[7] += 1e-6
    with pytest.raises(CheckFailed):
        ref.check_prediction(Result(bad), values[0], mspe[0], weights[:, 0], "perturbed")


def test_site_error_check_rejects_an_error_at_a_site():
    ref.check_site_error_zero([0.0, 1e-17], "exact")
    with pytest.raises(CheckFailed):
        ref.check_site_error_zero([0.0, 1e-6], "inexact")


def test_fit_check_rejects_a_foreign_loglik_and_a_worse_fit():
    rng = np.random.default_rng(7)
    pts = np.concatenate([[0.0], np.cumsum(NETWORK)])
    truth = (THETA, 0.85, 0.94, 0.25)
    z1, z2 = ref.sample_gm(pts, *truth, 50, rng)
    at_truth = ref.loglik(pts, z1, z2, *truth)
    with pytest.raises(CheckFailed, match="loglik"):
        ref.check_fit(at_truth + 1.0, truth, truth, pts, z1, z2, "foreign")
    worse = (3 * THETA, 0.85, 0.94, 0.25)
    with pytest.raises(CheckFailed, match="below the generating"):
        ref.check_fit(ref.loglik(pts, z1, z2, *worse), worse, truth, pts, z1, z2, "worse")


def test_simulation_check_rejects_draws_from_another_decay_rate():
    rng = np.random.default_rng(8)
    pts = np.linspace(0.0, 1.0, 500)
    z1, z2 = ref.sample_gm(pts, THETA, 0.85, 0.94, 0.25, 4, rng)
    ref.check_simulation(pts, z1, z2, THETA, 0.85, 0.94, 0.25, "right")
    w1, w2 = ref.sample_gm(pts, 2 * THETA, 0.85, 0.94, 0.25, 4, rng)
    with pytest.raises(CheckFailed):
        ref.check_simulation(pts, w1, w2, THETA, 0.85, 0.94, 0.25, "wrong rate")


# --------------------------------------------------------------------------
# the benchmark's own bookkeeping
# --------------------------------------------------------------------------

def test_integrate_import_time_counts_nested_modules_once():
    import run

    # -X importtime prints a module after those it imports, one level deeper
    entries = [(3, "scipy.special", 0.30), (2, "scipy.integrate._quadrature", 0.31),
               (3, "scipy.integrate._vode", 0.01), (2, "scipy.integrate._ode", 0.02),
               (2, "scipy.optimize", 0.20), (1, "cokrig.criteria", 0.60), (0, "cokrig", 0.70)]
    assert run.integrate_time(entries) == pytest.approx(0.33)


# --------------------------------------------------------------------------
# BENCHMARK.json names what the benchmark prints
# --------------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, (unit, _) in run.E2E.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, "lower") for name, unit, _ in run.per_layer_table(workloads)]
