"""Kriging and cokriging predictors against dense linear-algebra oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cokrig.kernel
import cokrig.predict
from cokrig import (
    NS1,
    NS2,
    NS3,
    Design,
    DomainError,
    ExponentialCorrelogram,
    ExponentialKernel,
    ExtrapolationError,
    GeneralizedMarkov,
    Mat05,
    Mat15,
    Matern15Correlogram,
    MatInf,
    NuggetCorrelogram,
    ObservationVector,
    Proportional,
    SquaredExponentialCorrelogram,
    ConditioningError,
    ValidationError,
    build_cross_vector,
    build_joint_covariance,
    equispaced,
    mspe_closed_form,
    ordinary_cokrige,
    ordinary_krige,
    reduction_applies,
    simple_cokrige,
    simple_krige,
)
import oracles


def _random_case(rng, n_max=8):
    n = int(rng.integers(2, n_max + 1))
    design = Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, n)))
    theta = float(rng.uniform(0.5, 40.0))
    x0 = float(rng.uniform(0.0, 1.0))
    z1 = rng.normal(size=n)
    return design, theta, x0, z1


# --------------------------------------------------------------------------
# observation container
# --------------------------------------------------------------------------

def test_observation_vector_basic():
    obs = ObservationVector([1.0, 2.0], [3.0, 4.0])
    assert obs.n == 2
    assert np.array_equal(obs.stacked(), [1.0, 2.0, 3.0, 4.0])


def test_observation_vector_validation():
    with pytest.raises(DomainError):
        ObservationVector([1.0, 2.0], [3.0])
    with pytest.raises(DomainError):
        ObservationVector([1.0, math.nan], [3.0, 4.0])
    with pytest.raises(DomainError):
        ObservationVector([], [])


# --------------------------------------------------------------------------
# kriging on the primary process alone
# --------------------------------------------------------------------------

def test_simple_krige_interpolates_design_points():
    design = Design(0.0, 1.0, (0.3, 0.3, 0.4))
    z1 = np.array([1.0, -2.0, 0.5, 3.0])
    kern = ExponentialKernel(theta=4.0, sigma11=2.0)
    for i, x in enumerate(design.points):
        out = simple_krige(kern, design, z1, x)
        assert out.value == pytest.approx(z1[i], abs=1e-9)
        assert out.mspe == pytest.approx(0.0, abs=1e-12)


def test_simple_krige_two_point_solution():
    theta, a = 3.0, 0.3
    design = Design(0.0, 1.0, (1.0,))
    r = math.exp(-theta)
    s = np.array([math.exp(-theta * a), math.exp(-theta * (1 - a))])
    # invert [[1, r], [r, 1]] by hand
    w_expected = np.array([s[0] - r * s[1], s[1] - r * s[0]]) / (1 - r * r)
    out = simple_krige(ExponentialKernel(theta), design, [1.0, 2.0], a)
    assert np.allclose(out.weights, w_expected, rtol=1e-12)
    assert out.value == pytest.approx(w_expected @ [1.0, 2.0], rel=1e-12)
    want = (1 - math.exp(-2 * theta * a)) * (1 - math.exp(-2 * theta * (1 - a)))
    want /= 1 - math.exp(-2 * theta)
    assert out.mspe == pytest.approx(want, rel=1e-12)


def test_krige_matches_dense_oracle(rng):
    for _ in range(50):
        design, theta, x0, z1 = _random_case(rng)
        sigma11 = float(rng.uniform(0.2, 3.0))
        kern = ExponentialKernel(theta, sigma11)
        pts = design.points

        out = simple_krige(kern, design, z1, x0)
        val, mspe = oracles.dense_simple_krige(pts, theta, sigma11, z1, x0)
        assert out.value == pytest.approx(val, abs=1e-9)
        assert out.mspe == pytest.approx(mspe, abs=1e-9)

        out = ordinary_krige(kern, design, z1, x0)
        val, mspe = oracles.dense_ordinary_krige(pts, theta, sigma11, z1, x0)
        assert out.value == pytest.approx(val, abs=1e-9)
        assert out.mspe == pytest.approx(mspe, abs=1e-9)


def _mp_krige_weights(points, theta, targets, mp):
    """Simple and ordinary kriging weights by a dense mpmath solve."""
    pts = [mp.mpf(float(p)) for p in points]
    n = len(pts)
    corr = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            corr[i, j] = mp.exp(-theta * abs(pts[i] - pts[j]))
    inv = mp.inverse(corr)
    u = inv * mp.matrix([1] * n)
    out = []
    for x0 in targets:
        s = inv * mp.matrix([mp.exp(-theta * abs(p - mp.mpf(float(x0)))) for p in pts])
        o = s + u * ((1 - sum(s)) / sum(u))
        out.append(([float(v) for v in s], [float(v) for v in o]))
    return out


def test_krige_weights_match_mpmath(rng):
    # the closed-form weights carry no cancellation at small theta * d,
    # where a solve through the precision matrix loses digits
    mp = pytest.importorskip("mpmath")
    design = Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, 17)))
    pts = design.points
    targets = np.concatenate([rng.uniform(0.0, 1.0, 8), pts])
    worst = 0.0
    with mp.workdps(40):
        for theta in (1e-3, 0.5, 17.12, 300.0):
            kern = ExponentialKernel(theta)
            want = _mp_krige_weights(pts, mp.mpf(theta), targets, mp)
            for x0, (w_simple, w_ordinary) in zip(targets, want):
                got = simple_krige(kern, design, np.zeros(design.n), x0).weights
                worst = max(worst, np.max(np.abs(got - w_simple)))
                got = ordinary_krige(kern, design, np.zeros(design.n), x0).weights
                worst = max(worst, np.max(np.abs(got - w_ordinary)))
    assert worst <= 1e-13


def test_krige_dense_route_agrees_with_closed_route(rng):
    # same model through the generic correlogram path must reproduce the
    # tridiagonal closed path
    for _ in range(20):
        design, theta, x0, z1 = _random_case(rng)
        closed = simple_krige(ExponentialKernel(theta), design, z1, x0)
        dense = simple_krige((1.0, ExponentialCorrelogram(theta)), design, z1, x0)
        assert dense.value == pytest.approx(closed.value, abs=1e-9)
        assert dense.mspe == pytest.approx(closed.mspe, abs=1e-9)

        closed = ordinary_krige(ExponentialKernel(theta), design, z1, x0)
        dense = ordinary_krige((1.0, ExponentialCorrelogram(theta)), design, z1, x0)
        assert dense.value == pytest.approx(closed.value, abs=1e-9)
        assert dense.mspe == pytest.approx(closed.mspe, abs=1e-9)


def test_ordinary_krige_weights_sum_to_one(rng):
    for _ in range(20):
        design, theta, x0, z1 = _random_case(rng)
        out = ordinary_krige(ExponentialKernel(theta), design, z1, x0)
        assert float(out.weights.sum()) == pytest.approx(1.0, abs=1e-9)


def test_ordinary_krige_constant_data_is_exact():
    # weights summing to one reproduce a constant field everywhere
    design = equispaced(5)
    out = ordinary_krige(ExponentialKernel(7.0), design, np.full(5, 4.2), 0.33)
    assert out.value == pytest.approx(4.2, rel=1e-12)


def test_mspe_closed_form_matches_dense(rng):
    for _ in range(50):
        design, theta, x0, _ = _random_case(rng)
        sigma11 = float(rng.uniform(0.2, 3.0))
        kern = ExponentialKernel(theta, sigma11)
        pts = design.points
        assert mspe_closed_form(kern, design, x0, "simple") == pytest.approx(
            oracles.dense_simple_mspe(pts, theta, sigma11, x0), abs=1e-10)
        assert mspe_closed_form(kern, design, x0, "ordinary") == pytest.approx(
            oracles.dense_ordinary_mspe(pts, theta, sigma11, x0), abs=1e-10)


def test_mspe_closed_form_validation():
    design = equispaced(3)
    with pytest.raises(DomainError):
        mspe_closed_form(ExponentialKernel(1.0), design, 0.5, "universal")
    with pytest.raises(DomainError):
        mspe_closed_form((1.0, ExponentialCorrelogram(1.0)), design, 0.5)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.1, 30.0), x0=st.floats(0.0, 1.0))
def test_mspe_ordering_property(theta, x0):
    design = Design(0.0, 1.0, (0.2, 0.5, 0.3))
    kern = ExponentialKernel(theta, sigma11=1.7)
    s = mspe_closed_form(kern, design, x0, "simple")
    o = mspe_closed_form(kern, design, x0, "ordinary")
    assert 0.0 <= s <= o
    assert s <= 1.7 + 1e-12


def test_mspe_midpoint_symmetry():
    design = equispaced(6)
    kern = ExponentialKernel(11.0)
    for x0 in (0.07, 0.33, 0.481):
        for model in ("simple", "ordinary"):
            left = mspe_closed_form(kern, design, x0, model)
            right = mspe_closed_form(kern, design, 1.0 - x0, model)
            assert left == pytest.approx(right, abs=1e-12)


# --------------------------------------------------------------------------
# cokriging with both processes
# --------------------------------------------------------------------------

def _random_nonreducing_model(rng):
    s11 = float(rng.uniform(0.3, 2.0))
    s22 = float(rng.uniform(0.3, 2.0))
    lam = float(rng.uniform(0.1, 0.9))
    if rng.integers(2) == 0:
        lamc, = rng.choice([0.2, 0.5, 0.8], size=1)
        return NS2(s11, s22, lam, float(lamc))
    return NS3(s11, s22, lam, float(rng.uniform(-0.7, 0.7)))


def test_cokrige_matches_dense_oracle(rng):
    for _ in range(40):
        design, _, x0, z1 = _random_case(rng, n_max=6)
        model = _random_nonreducing_model(rng)
        obs = ObservationVector(z1, rng.normal(size=design.n))

        # smooth secondary correlograms can push the joint condition
        # number past 1e9, so values get a relative tolerance
        out = simple_cokrige(model, design, obs, x0)
        val, mspe = oracles.dense_simple_cokrige(
            model, design.points, obs.stacked(), x0)
        assert out.value == pytest.approx(val, rel=1e-6, abs=1e-8)
        assert out.mspe == pytest.approx(mspe, abs=1e-8)

        out = ordinary_cokrige(model, design, obs, x0)
        val, mspe = oracles.dense_ordinary_cokrige(
            model, design.points, obs.stacked(), x0)
        assert out.value == pytest.approx(val, rel=1e-6, abs=1e-8)
        assert out.mspe == pytest.approx(mspe, abs=1e-8)


def test_cokrige_interpolates_design_points():
    model = NS2(1.0, 1.0, 0.4, 0.5)
    design = equispaced(4)
    obs = ObservationVector([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
    for i, x in enumerate(design.points):
        out = simple_cokrige(model, design, obs, x)
        assert out.value == pytest.approx(obs.z1[i], abs=1e-8)
        assert out.mspe == pytest.approx(0.0, abs=1e-10)


def test_ordinary_cokrige_weight_constraints(rng):
    model = NS3(1.0, 2.0, 0.5, 0.4)
    for _ in range(10):
        design, _, x0, z1 = _random_case(rng, n_max=6)
        obs = ObservationVector(z1, rng.normal(size=design.n))
        out = ordinary_cokrige(model, design, obs, x0)
        n = design.n
        assert float(out.weights[:n].sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(out.weights[n:].sum()) == pytest.approx(0.0, abs=1e-9)


def test_ordinary_cokrige_mspe_dominates_simple(rng):
    model = NS2(1.0, 1.0, 0.3, 0.2)
    for _ in range(10):
        design, _, x0, z1 = _random_case(rng, n_max=6)
        obs = ObservationVector(z1, rng.normal(size=design.n))
        s = simple_cokrige(model, design, obs, x0).mspe
        o = ordinary_cokrige(model, design, obs, x0).mspe
        assert o >= s - 1e-12


# --------------------------------------------------------------------------
# proportional cross covariance: secondary data carry nothing
# --------------------------------------------------------------------------

def test_reduction_collapses_to_kriging(rng):
    models = [
        GeneralizedMarkov(0.85, 0.94, 0.25,
                          ExponentialCorrelogram(17.12),
                          ExponentialCorrelogram(3.0)),
        GeneralizedMarkov(1.0, 1.5, -0.6,
                          ExponentialCorrelogram(5.0),
                          NuggetCorrelogram()),
        Mat05(1.0, 2.0, 0.3, 0.5),
    ]
    for model in models:
        applies, _ = reduction_applies(model)
        assert applies
        corr = (ExponentialCorrelogram(model.c11.rate)
                if isinstance(model, GeneralizedMarkov)
                else ExponentialCorrelogram.from_base(model.lam))
        kernel = (model.sigma11, corr)
        for _ in range(5):
            design, _, x0, z1 = _random_case(rng, n_max=6)
            z2 = rng.normal(size=design.n)
            obs = ObservationVector(z1, z2)

            co = simple_cokrige(model, design, obs, x0)
            kr = simple_krige(kernel, design, z1, x0)
            assert co.value == pytest.approx(kr.value, abs=1e-8)
            assert co.mspe == pytest.approx(kr.mspe, abs=1e-9)
            assert np.allclose(co.weights[design.n:], 0.0, atol=1e-8)

            co = ordinary_cokrige(model, design, obs, x0)
            kr = ordinary_krige(kernel, design, z1, x0)
            assert co.value == pytest.approx(kr.value, abs=1e-8)
            assert co.mspe == pytest.approx(kr.mspe, abs=1e-9)


REDUCIBLE_MODELS = [
    GeneralizedMarkov(0.85, 0.94, 0.25, ExponentialCorrelogram(17.12), NuggetCorrelogram()),
    GeneralizedMarkov(1.3, 2.0, -0.8, Matern15Correlogram(0.2), ExponentialCorrelogram(3.0)),
    Proportional(1.0, -0.6, 0.9, SquaredExponentialCorrelogram(1e-4)),
    NS1(0.7, 1.4, 0.3, 0.6),
    Mat05(1.0, 2.0, 0.3, 0.5),
    Mat15(0.5, 1.5, 0.2, -0.4),
    MatInf(1.2, 0.8, 1e-4, 0.7),
]


@pytest.mark.parametrize("model", REDUCIBLE_MODELS, ids=lambda m: m.family)
def test_reducible_cokriging_matches_dense_oracle(rng, model):
    # C12 proportional to C11: both cokrigers answer by kriging the
    # primary, which the full 2n x 2n solve must confirm
    assert reduction_applies(model)[0]
    cases = []
    for _ in range(10):
        n = int(rng.integers(2, 7))
        gaps = oracles.random_design_gaps(rng, n, min_gap=0.1)
        cases.append((Design(0.0, 1.0, tuple(gaps)), float(rng.uniform(0.0, 1.0))))
    for design, x0 in cases:
        n = design.n
        obs = ObservationVector(rng.normal(size=n), rng.normal(size=n))
        for fn, oracle in ((simple_cokrige, oracles.dense_simple_cokrige),
                           (ordinary_cokrige, oracles.dense_ordinary_cokrige)):
            out = fn(model, design, obs, x0)
            val, mspe = oracle(model, design.points, obs.stacked(), x0)
            assert out.value == pytest.approx(val, abs=1e-9)
            assert out.mspe == pytest.approx(mspe, abs=1e-10)
            assert not np.any(out.weights[n:])


@pytest.mark.parametrize("model", [NS2(0.85, 0.94, math.exp(-17.12), 0.5, 0.75),
                                   NS3(1.0, 2.0, 0.5, 0.4)] + REDUCIBLE_MODELS)
def test_joint_covariance_filled_and_factored_in_place_is_bit_identical(rng, model):
    # the stacked-block build and a Cholesky factor of a C-ordered copy are
    # the reference for the blocks written into one array and factored in place
    from scipy import linalg

    for n in (2, 17, 200):
        gaps = rng.uniform(0.5, 1.5, n - 1)
        design = Design(0.0, 1.0, tuple(gaps / gaps.sum()))
        pts = design.points
        h = np.abs(pts[:, None] - pts[None, :])
        k12 = np.asarray(model.cov12(h), dtype=float)
        want = np.block([[np.asarray(model.cov11(h), dtype=float), k12],
                         [k12.T, np.asarray(model.cov22(h), dtype=float)]])
        cov = build_joint_covariance(model, design)
        assert np.array_equal(cov.view(np.int64), want.view(np.int64))
        cov0, var0 = build_cross_vector(model, design, float(rng.uniform(0.0, 1.0)))
        try:
            sol = linalg.cho_solve(linalg.cho_factor(want, lower=True), cov0)
        except linalg.LinAlgError:
            with pytest.raises(ConditioningError):
                cokrig.predict._blup(cov, cov0, var0)
            continue
        weights, mspe = cokrig.predict._blup(cov, cov0, var0)
        assert np.array_equal(weights.view(np.int64), sol.view(np.int64))
        assert mspe == max(float(var0 - cov0 @ sol), 0.0)


def test_markov_prediction_forms_no_dense_matrix(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense algebra on a Markov prediction path")

    monkeypatch.setattr(cokrig.kernel, "precision_matrix", refuse)
    monkeypatch.setattr(cokrig.predict, "build_joint_covariance", refuse)
    monkeypatch.setattr(cokrig.predict, "_blup", refuse)
    n = 10**5
    design = Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, n, min_gap=1e-7)))
    kern = ExponentialKernel(17.12, 0.85)
    pair = (0.85, ExponentialCorrelogram(17.12))
    model = GeneralizedMarkov(0.85, 0.94, 0.25, ExponentialCorrelogram(17.12),
                              NuggetCorrelogram())
    obs = ObservationVector(rng.normal(size=n), rng.normal(size=n))
    for x0 in (0.123456, float(design.points[n // 2])):
        for krige, cokrige, mdl in ((simple_krige, simple_cokrige, "simple"),
                                    (ordinary_krige, ordinary_cokrige, "ordinary")):
            kr = krige(kern, design, obs.z1, x0)
            by_pair = krige(pair, design, obs.z1, x0)
            co = cokrige(model, design, obs, x0)
            assert kr.mspe == mspe_closed_form(kern, design, x0, mdl)
            assert by_pair.value == kr.value and by_pair.mspe == kr.mspe
            assert np.array_equal(by_pair.weights, kr.weights)
            assert co.value == kr.value and co.mspe == kr.mspe
            assert np.array_equal(co.weights, np.concatenate([kr.weights, np.zeros(n)]))
        assert float(kr.weights.sum()) == pytest.approx(1.0, abs=1e-12)


def test_ordinary_markov_target_takes_tanh_once(monkeypatch):
    # the unknown-mean term and the P^{-1} 1 weights share one tanh per gap
    calls = []
    tanh = np.tanh

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return tanh(x, *args, **kwargs)

    monkeypatch.setattr(np, "tanh", counted)
    out = ordinary_krige(ExponentialKernel(17.12), equispaced(17), np.ones(17), 0.37)
    assert calls == [(16,)]
    assert out.value == pytest.approx(1.0, abs=1e-12)


def test_nonproportional_cross_beats_kriging():
    # the slow-decay cross family is the standing counterexample: the
    # secondary process genuinely helps between design points
    model = NS2(1.0, 1.0, math.exp(-1.0), 0.5)
    design = equispaced(3)
    obs = ObservationVector([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    x0 = 0.4
    co = simple_cokrige(model, design, obs, x0).mspe
    kr = simple_krige((1.0, ExponentialCorrelogram(1.0)), design,
                      obs.z1, x0).mspe
    assert co < kr
    assert kr - co > 1e-6


def test_nonproportional_gap_can_be_large():
    # with a fast direct decay the slow cross term carries real signal:
    # the mspe gap clears 1e-3 comfortably
    lam = 0.05
    model = NS2(1.0, 1.0, lam, 0.5)
    design = equispaced(2)
    obs = ObservationVector([0.0, 0.0], [0.0, 0.0])
    co = simple_cokrige(model, design, obs, 0.5).mspe
    kr = simple_krige((1.0, ExponentialCorrelogram(-math.log(lam))),
                      design, obs.z1, 0.5).mspe
    assert kr - co > 1e-3


# --------------------------------------------------------------------------
# input validation
# --------------------------------------------------------------------------

def test_predictors_reject_out_of_range_targets():
    design = equispaced(3)
    kern = ExponentialKernel(2.0)
    model = NS2(1.0, 1.0, 0.5, 0.5)
    obs = ObservationVector([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    for bad in (-0.01, 1.01):
        with pytest.raises(ExtrapolationError):
            simple_krige(kern, design, [1.0, 2.0, 3.0], bad)
        with pytest.raises(ExtrapolationError):
            ordinary_krige(kern, design, [1.0, 2.0, 3.0], bad)
        with pytest.raises(ExtrapolationError):
            simple_cokrige(model, design, obs, bad)
        with pytest.raises(ExtrapolationError):
            ordinary_cokrige(model, design, obs, bad)


def test_predictors_reject_bad_observations():
    design = equispaced(3)
    kern = ExponentialKernel(2.0)
    with pytest.raises(DomainError):
        simple_krige(kern, design, [1.0, 2.0], 0.5)
    with pytest.raises(DomainError):
        ordinary_krige(kern, design, [1.0, math.inf, 2.0], 0.5)
    model = NS2(1.0, 1.0, 0.5, 0.5)
    obs = ObservationVector([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        simple_cokrige(model, design, obs, 0.5)


def test_cokriging_refuses_an_invalid_model():
    # |lamc| = 0.6 exceeds the cross exponent 0.5: the joint model is
    # indefinite, yet its 6x6 system still factors at these sites
    model = NS2(1.0, 1.0, 0.5, 0.6, 0.5)
    design = equispaced(3)
    obs = ObservationVector([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    for fn in (simple_cokrige, ordinary_cokrige):
        with pytest.raises(ValidationError, match="exceeds the cross exponent"):
            fn(model, design, obs, 0.3)


def test_prediction_is_linear_in_observations(rng):
    design, theta, x0, z1 = _random_case(rng)
    kern = ExponentialKernel(theta)
    base = simple_krige(kern, design, z1, x0).value
    scaled = simple_krige(kern, design, 3.0 * z1, x0).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-10)
