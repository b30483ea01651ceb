"""Covariance families: closed-form values, validity, reduction, config."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cokrig import (
    NS1,
    NS2,
    NS3,
    BivariateCovariance,
    Correlogram,
    Design,
    DomainError,
    ExponentialCorrelogram,
    GeneralizedMarkov,
    Mat05,
    Mat15,
    MatInf,
    Matern15Correlogram,
    NuggetCorrelogram,
    ParseError,
    Proportional,
    SquaredExponentialCorrelogram,
    ValidityReport,
    build_cross_vector,
    build_joint_covariance,
    equispaced,
    format_config,
    parse_config,
    reduction_applies,
    validate,
)
from oracles import joint_blocks, random_design_gaps

E = math.e


# --------------------------------------------------------------------------
# correlograms
# --------------------------------------------------------------------------

def test_exponential_correlogram_values():
    c = ExponentialCorrelogram(2.0)
    assert c.value(0.0) == 1.0
    assert c.value(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    # distance is |h|
    assert c.value(-0.5) == pytest.approx(c.value(0.5), rel=1e-15)


def test_exponential_correlogram_from_base_round_trip():
    c = ExponentialCorrelogram.from_base(math.exp(-3.5))
    assert c.rate == pytest.approx(3.5, rel=1e-12)
    assert c.base == pytest.approx(math.exp(-3.5), rel=1e-12)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
def test_exponential_correlogram_rejects_bad_rate(rate):
    with pytest.raises(DomainError):
        ExponentialCorrelogram(rate)


def test_squared_exponential_correlogram():
    lam = 0.3
    c = SquaredExponentialCorrelogram(lam)
    assert c.value(0.0) == 1.0
    assert c.value(2.0) == pytest.approx(lam**4, rel=1e-12)
    with pytest.raises(DomainError):
        SquaredExponentialCorrelogram(1.0)
    with pytest.raises(DomainError):
        SquaredExponentialCorrelogram(0.0)


def test_matern15_correlogram():
    lam = math.exp(-1.0)
    c = Matern15Correlogram(lam)
    assert c.rate == pytest.approx(1.0, rel=1e-12)
    assert c.value(0.0) == 1.0
    assert c.value(1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    h = np.linspace(0.0, 5.0, 40)
    v = c.value(h)
    assert np.all(np.diff(v) < 0)


def test_nugget_correlogram():
    c = NuggetCorrelogram()
    assert c.value(0.0) == 1.0
    assert c.value(1e-9) == 0.0
    out = c.value(np.array([0.0, 0.5, 0.0]))
    assert np.array_equal(out, [1.0, 0.0, 1.0])


def test_correlograms_vectorize():
    h = np.array([0.0, 0.25, 1.0])
    for c in (ExponentialCorrelogram(1.0),
              SquaredExponentialCorrelogram(0.5),
              Matern15Correlogram(0.5)):
        out = c.value(h)
        assert out.shape == h.shape
        assert out[0] == 1.0
        assert np.all(np.abs(out) <= 1.0)


# --------------------------------------------------------------------------
# validity report plumbing
# --------------------------------------------------------------------------

def test_validity_report_semantics():
    ok = ValidityReport()
    assert ok.ok
    bad = ValidityReport(violations=("nope",))
    assert not bad.ok
    warned = ValidityReport(warnings=("careful",))
    assert warned.ok


# --------------------------------------------------------------------------
# pointwise covariance values
# --------------------------------------------------------------------------

def test_mat05_values():
    m = Mat05(sigma11=2.0, sigma22=3.0, lam=1 / E, lamc=0.4)
    assert m.cov11(0.0) == pytest.approx(2.0, rel=1e-15)
    assert m.cov12(1.0) == pytest.approx(math.sqrt(6.0) * 0.4 / E, rel=1e-12)
    assert m.cov22(2.0) == pytest.approx(3.0 / E**2, rel=1e-12)
    assert m.sigma12 == pytest.approx(math.sqrt(6.0) * 0.4, rel=1e-12)


def test_mat15_values():
    m = Mat15(sigma11=1.0, sigma22=1.0, lam=1 / E, lamc=0.3)
    # (1 + r h) e^{-r h} with r = 1
    assert m.cov11(1.0) == pytest.approx(2.0 / E, rel=1e-12)
    assert m.cov12(1.0) == pytest.approx(0.6 / E, rel=1e-12)


def test_matinf_values():
    m = MatInf(sigma11=1.0, sigma22=1.0, lam=1 / E, lamc=0.3)
    assert m.cov11(2.0) == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert m.cov12(0.0) == pytest.approx(0.3, rel=1e-12)


def test_ns1_values():
    m = NS1(sigma11=1.0, sigma22=1.0, lam=0.5, lamc=0.5)
    # lamc^2 lam^h + (1 - lamc^2) lam^{2h} at h = 1
    assert m.cov22(1.0) == pytest.approx(0.25 * 0.5 + 0.75 * 0.25, rel=1e-12)
    assert m.cov22(1.0) == pytest.approx(0.3125, abs=1e-15)
    assert m.cov12(1.0) == pytest.approx(0.25, rel=1e-12)
    assert m.cov11(1.0) == pytest.approx(0.5, rel=1e-12)


def test_ns2_values_and_auto_exponent():
    m = NS2(sigma11=1.0, sigma22=1.0, lam=1 / E, lamc=0.5)
    assert m.alpha == pytest.approx(0.75, abs=1e-12)
    assert m.cov11(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    # cross decays with exponent alpha * h
    assert m.cov12(2.0) == pytest.approx(0.5 * math.exp(-1.5), rel=1e-12)
    assert m.cov22(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_ns3_values():
    m = NS3(sigma11=1.0, sigma22=1.0, lam=1 / E, lamc=0.2)
    assert m.cov12(1.0) == pytest.approx(0.4 / E, rel=1e-12)
    assert m.cov22(1.0) == pytest.approx((7.0 / 3.0) / E, rel=1e-12)
    assert m.cov11(1.0) == pytest.approx(1.0 / E, rel=1e-12)


def test_generalized_markov_values():
    m = GeneralizedMarkov(
        sigma11=0.85, sigma22=0.94, rho=0.25,
        c11=ExponentialCorrelogram(17.12),
        c_r=ExponentialCorrelogram(5.0),
    )
    h = 0.07
    assert m.cov12(h) == pytest.approx(
        0.25 * 0.85 * math.exp(-17.12 * h), rel=1e-12)
    assert m.cov22(0.0) == pytest.approx(0.94, rel=1e-12)
    margin = 0.94 - 0.25**2 * 0.85
    assert m.residual_margin == pytest.approx(margin, rel=1e-12)
    assert m.cov22(h) == pytest.approx(
        0.25**2 * 0.85 * math.exp(-17.12 * h) + margin * math.exp(-5.0 * h),
        rel=1e-12)


def test_covariances_take_arrays_and_are_isotropic():
    m = Mat15(1.0, 2.0, 0.4, 0.3)
    out = m.cov11(np.array([0.1, 0.2]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    # isotropy in one dimension: only |h| matters
    assert m.cov12(-0.8) == m.cov12(0.8)


# --------------------------------------------------------------------------
# construction-time parameter checks
# --------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_pair_families_reject_bad_decay_base(lam):
    with pytest.raises(DomainError):
        Mat05(1.0, 1.0, lam, 0.2)


@pytest.mark.parametrize("s11,s22", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0)])
def test_pair_families_reject_bad_variances(s11, s22):
    with pytest.raises(DomainError):
        NS1(s11, s22, 0.5, 0.2)


LAMBDA_FAMILIES = (NS1, Mat05, Mat15, MatInf, NS2, NS3)


@pytest.mark.parametrize("cls", LAMBDA_FAMILIES, ids=lambda c: c.__name__)
def test_lambda_families_share_parameter_checks(cls):
    with pytest.raises(DomainError, match=r"^sigma22 must be finite and positive, got 0.0$"):
        cls(1.0, 0.0, 0.5, 0.2)
    with pytest.raises(DomainError, match=r"^sigma11 must be finite and positive, got nan$"):
        cls(math.nan, 1.0, 0.5, 0.2)
    with pytest.raises(DomainError, match=r"^lam must lie in \(0, 1\), got 1.5$"):
        cls(1.0, 1.0, 1.5, 0.2)
    with pytest.raises(DomainError, match=r"^lamc must be finite, got inf$"):
        cls(1.0, 1.0, 0.5, math.inf)
    extra = {"alpha": 0.5} if cls is NS2 else {}
    report = validate(cls(1.0, 1.0, 0.5, -1.5, **extra))
    assert report.violations[0] == "cross coefficient must lie in (-1, 1), got -1.5"


def test_ns2_requires_alpha_for_nonstandard_coefficient():
    with pytest.raises(DomainError):
        NS2(1.0, 1.0, 0.5, 0.37)
    m = NS2(1.0, 1.0, 0.5, 0.37, alpha=0.6)
    assert m.alpha == 0.6


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
def test_ns2_rejects_bad_exponent(alpha):
    with pytest.raises(DomainError):
        NS2(1.0, 1.0, 0.5, 0.2, alpha=alpha)


def test_generalized_markov_rejects_nonfinite():
    with pytest.raises(DomainError):
        GeneralizedMarkov(1.0, math.nan, 0.2,
                          ExponentialCorrelogram(1.0), NuggetCorrelogram())
    with pytest.raises(DomainError):
        GeneralizedMarkov(-1.0, 1.0, 0.2,
                          ExponentialCorrelogram(1.0), NuggetCorrelogram())


# --------------------------------------------------------------------------
# joint matrices and cross vectors
# --------------------------------------------------------------------------

def test_joint_matrix_zero_cross_block():
    m = GeneralizedMarkov(1.0, 2.0, 0.0,
                          ExponentialCorrelogram(3.0),
                          ExponentialCorrelogram(1.0))
    d = equispaced(4)
    K = build_joint_covariance(m, d)
    assert K.shape == (8, 8)
    assert np.array_equal(K[:4, 4:], np.zeros((4, 4)))
    assert np.allclose(K, K.T, atol=0.0)


def test_joint_matrix_proportional_blocks():
    base = SquaredExponentialCorrelogram(0.4)
    m = Proportional(1.5, 0.6, 2.0, base)
    d = Design(0.0, 1.0, (0.3, 0.7))
    pts = d.points
    Q = base.value(np.abs(pts[:, None] - pts[None, :]))
    K = build_joint_covariance(m, d)
    assert np.allclose(K[:3, :3], 1.5 * Q, rtol=0.0, atol=1e-15)
    assert np.allclose(K[:3, 3:], 0.6 * Q, rtol=0.0, atol=1e-15)
    assert np.allclose(K[3:, 3:], 2.0 * Q, rtol=0.0, atol=1e-15)


def test_joint_matrix_positive_definite_with_nugget_residual():
    m = GeneralizedMarkov(1.0, 0.75, 0.5,
                          ExponentialCorrelogram(4.0),
                          NuggetCorrelogram())
    assert m.residual_margin == pytest.approx(0.5, rel=1e-12)
    K = build_joint_covariance(m, equispaced(6))
    assert np.linalg.eigvalsh(K).min() > 0.0


def test_invalid_ns2_joint_matrix_is_indefinite():
    # cross coefficient above the decay exponent: flagged invalid, and the
    # joint matrix on a moderate design really does lose definiteness
    m = NS2(1.0, 1.0, 0.05, 0.8, alpha=0.5)
    assert not validate(m).ok
    K = build_joint_covariance(m, equispaced(16))
    assert np.linalg.eigvalsh(K).min() < -0.5


def test_invalid_ns3_joint_matrix_is_indefinite():
    m = NS3(1.0, 1.0, 1 / E, 0.95)
    assert not validate(m).ok
    K = build_joint_covariance(m, equispaced(24))
    assert np.linalg.eigvalsh(K).min() < -0.1


def test_cross_vector_at_design_point():
    m = Mat05(2.0, 1.0, 1 / E, 0.4)
    d = Design(0.0, 1.0, (0.25, 0.75))
    vec, c110 = build_cross_vector(m, d, 0.25)
    assert c110 == pytest.approx(2.0, rel=1e-15)
    assert vec.shape == (6,)
    assert vec[1] == pytest.approx(2.0, rel=1e-15)
    assert vec[4] == pytest.approx(m.sigma12, rel=1e-12)


def test_cross_vector_midpoint_two_points():
    theta = 1.0
    m = Mat05(1.0, 1.0, math.exp(-theta), 0.5)
    d = Design(0.0, 1.0, (1.0,))
    vec, _ = build_cross_vector(m, d, 0.5)
    half = math.exp(-0.5)
    assert np.allclose(vec[:2], half, rtol=1e-12)
    assert np.allclose(vec[2:], 0.5 * half, rtol=1e-12)


def test_cross_vector_ns2_slow_decay():
    m = NS2(1.0, 1.0, 1 / E, 0.5)  # alpha = 0.75
    d = Design(0.0, 1.0, (1.0,))
    vec, _ = build_cross_vector(m, d, 0.0)
    assert vec[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert vec[3] == pytest.approx(0.5 * math.exp(-0.75), rel=1e-12)


# --------------------------------------------------------------------------
# validity checks per family
# --------------------------------------------------------------------------

def test_validate_generalized_markov():
    good = GeneralizedMarkov(1.0, 1.0, 0.5,
                             ExponentialCorrelogram(2.0),
                             ExponentialCorrelogram(1.0))
    rep = validate(good)
    assert rep.ok and not rep.warnings

    # rho^2 sigma11 exceeds sigma22: negative residual variance
    bad = GeneralizedMarkov(4.0, 1.0, 0.6,
                            ExponentialCorrelogram(2.0),
                            ExponentialCorrelogram(1.0))
    rep = validate(bad)
    assert not rep.ok
    assert any("residual" in v for v in rep.violations)


def test_validate_generalized_markov_large_rho():
    # |rho| > 1 with a positive residual variance is a valid shared-
    # component model: the dense joint matrix is positive definite
    m = GeneralizedMarkov(1.0, 10.0, 1.5,
                          ExponentialCorrelogram(2.0),
                          ExponentialCorrelogram(1.0))
    rep = validate(m)
    assert rep.ok
    joint = joint_blocks(m, equispaced(17).points)
    assert np.linalg.eigvalsh(joint).min() > 0
    m = GeneralizedMarkov(1.0, 9.0, 2.5, ExponentialCorrelogram(17.12), NuggetCorrelogram())
    assert validate(m).ok
    assert np.linalg.eigvalsh(joint_blocks(m, equispaced(17).points)).min() > 0.2


def test_validate_nugget_residual_warns_but_passes():
    m = GeneralizedMarkov(1.0, 1.0, 0.3,
                          ExponentialCorrelogram(2.0), NuggetCorrelogram())
    rep = validate(m)
    assert rep.ok
    assert rep.warnings


def test_validate_proportional():
    base = ExponentialCorrelogram(1.0)
    assert validate(Proportional(1.0, 0.9, 1.0, base)).ok
    rep = validate(Proportional(1.0, 1.2, 1.0, base))
    assert not rep.ok
    assert any("determinant" in v for v in rep.violations)


def test_validate_ns2():
    assert validate(NS2(1.0, 1.0, 0.5, 0.5)).ok
    for lamc, alpha in ((0.2, 0.5), (0.5, 0.75), (0.8, 0.9)):
        rep = validate(NS2(1.0, 1.0, 0.3, lamc))
        assert rep.ok and not rep.warnings
        assert alpha == pytest.approx(NS2(1.0, 1.0, 0.3, lamc).alpha)
    rep = validate(NS2(1.0, 1.0, 0.5, 0.8, alpha=0.5))
    assert not rep.ok
    # legal but unpublished pairing: warned, not rejected
    rep = validate(NS2(1.0, 1.0, 0.5, 0.3, alpha=0.6))
    assert rep.ok and rep.warnings


def test_validate_ns3():
    assert validate(NS3(1.0, 1.0, 0.5, 0.5)).ok
    bound = math.sqrt(2.0 / 3.0)
    assert validate(NS3(1.0, 1.0, 0.5, bound - 1e-6)).ok
    assert not validate(NS3(1.0, 1.0, 0.5, bound + 1e-6)).ok


def test_validate_pair_coefficient_bound():
    # |lamc| >= 1 breaks every pair family
    assert not validate(NS1(1.0, 1.0, 0.5, 1.2)).ok
    assert not validate(Mat05(1.0, 1.0, 0.5, -1.0)).ok


# --------------------------------------------------------------------------
# reduction to single-process kriging
# --------------------------------------------------------------------------

def test_reduction_constants():
    gm = GeneralizedMarkov(1.0, 1.0, 0.25,
                           ExponentialCorrelogram(2.0),
                           ExponentialCorrelogram(1.0))
    assert reduction_applies(gm) == (True, 0.25)

    ns1 = NS1(1.0, 4.0, 0.5, 0.3)
    applies, c = reduction_applies(ns1)
    assert applies and c == pytest.approx(0.6, rel=1e-12)

    prop = Proportional(2.0, 0.0, 1.0, ExponentialCorrelogram(1.0))
    assert reduction_applies(prop) == (True, 0.0)

    m05 = Mat05(1.0, 1.0, 0.5, 0.4)
    applies, c = reduction_applies(m05)
    assert applies and c == pytest.approx(0.4, rel=1e-12)

    assert reduction_applies(NS2(1.0, 1.0, 0.5, 0.5)) == (False, None)
    assert reduction_applies(NS3(1.0, 1.0, 0.5, 0.5)) == (False, None)


def test_reduction_constant_matches_cross_vector(rng):
    models = [
        GeneralizedMarkov(0.85, 0.94, 0.25,
                          ExponentialCorrelogram(17.12),
                          ExponentialCorrelogram(3.0)),
        NS1(1.0, 2.0, 0.4, 0.5),
        Mat15(1.5, 0.5, 0.3, -0.2),
        Proportional(1.0, 0.7, 1.0, SquaredExponentialCorrelogram(0.5)),
    ]
    for m in models:
        applies, c = reduction_applies(m)
        assert applies
        d = Design(0.0, 1.0, tuple(random_design_gaps(rng, 5)))
        x0 = float(rng.uniform(0.0, 1.0))
        vec, _ = build_cross_vector(m, d, x0)
        assert np.allclose(vec[5:], c * vec[:5], rtol=0.0, atol=1e-12)


# --------------------------------------------------------------------------
# every valid draw yields a positive semidefinite joint matrix
# --------------------------------------------------------------------------

def _random_correlogram(rng, allow_nugget: bool):
    kinds = ["exponential", "squared-exponential", "matern15"]
    if allow_nugget:
        kinds.append("nugget")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "nugget":
        return NuggetCorrelogram()
    base = float(rng.uniform(0.05, 0.95))
    if kind == "exponential":
        return ExponentialCorrelogram.from_base(base)
    if kind == "squared-exponential":
        return SquaredExponentialCorrelogram(base)
    return Matern15Correlogram(base)


def _random_valid_model(rng) -> BivariateCovariance:
    s11 = float(rng.uniform(0.3, 3.0))
    s22 = float(rng.uniform(0.3, 3.0))
    lam = float(rng.uniform(0.05, 0.95))
    pick = int(rng.integers(7))
    if pick == 0:
        rho = float(rng.uniform(-0.9, 0.9))
        s22 = rho**2 * s11 + float(rng.uniform(0.1, 2.0))
        return GeneralizedMarkov(s11, s22, rho,
                                 _random_correlogram(rng, False),
                                 _random_correlogram(rng, True))
    if pick == 1:
        s12 = float(rng.uniform(-0.95, 0.95)) * math.sqrt(s11 * s22)
        return Proportional(s11, s12, s22, _random_correlogram(rng, False))
    lamc = float(rng.uniform(-0.95, 0.95))
    if pick == 2:
        return NS1(s11, s22, lam, lamc)
    if pick == 3:
        cls = (Mat05, Mat15, MatInf)[int(rng.integers(3))]
        return cls(s11, s22, lam, lamc)
    if pick == 4:
        lamc, alpha = NS2_PAIR_CHOICES[int(rng.integers(len(NS2_PAIR_CHOICES)))]
        return NS2(s11, s22, lam, lamc, alpha)
    if pick == 5:
        alpha = float(rng.uniform(0.3, 0.95))
        return NS2(s11, s22, lam, float(rng.uniform(-0.95, 0.95)) * alpha, alpha)
    return NS3(s11, s22, lam, lamc * math.sqrt(2.0 / 3.0))


NS2_PAIR_CHOICES = ((0.2, None), (0.5, None), (0.8, None))


def test_valid_models_yield_psd_joint_matrices(rng):
    for _ in range(200):
        m = _random_valid_model(rng)
        assert validate(m).ok, (m, validate(m).violations)
        n = int(rng.integers(2, 9))
        d = Design(0.0, 1.0, tuple(random_design_gaps(rng, n)))
        K = build_joint_covariance(m, d)
        scale = max(m.sigma11, float(np.diag(K).max()))
        assert np.linalg.eigvalsh(K).min() > -1e-10 * scale, m


# --------------------------------------------------------------------------
# config parsing and formatting
# --------------------------------------------------------------------------

ROUND_TRIP_MODELS = [
    GeneralizedMarkov(0.85, 0.94, 0.25,
                      ExponentialCorrelogram(17.12),
                      NuggetCorrelogram()),
    GeneralizedMarkov(1.0, 2.0, -0.4,
                      ExponentialCorrelogram(3.0),
                      Matern15Correlogram(0.3)),
    Proportional(1.5, -0.6, 2.0, SquaredExponentialCorrelogram(0.4)),
    NS1(1.0, 2.0, 0.5, 0.3),
    Mat05(1.0, 1.0, 0.37, 0.2),
    Mat15(2.0, 0.5, 0.61, -0.44),
    MatInf(1.0, 1.0, 0.5, 0.8),
    NS2(1.0, 1.0, 0.5, 0.5),
    NS2(1.0, 1.0, 0.5, 0.3, alpha=0.6),
    NS3(1.0, 1.0, 0.37, 0.2),
]


@pytest.mark.parametrize("model", ROUND_TRIP_MODELS,
                         ids=lambda m: type(m).__name__)
def test_config_round_trip(model):
    assert parse_config(format_config(model)) == model


# format_config's text for each of ROUND_TRIP_MODELS, byte for byte
ROUND_TRIP_TEXTS = [
    "family = generalized-markov\nsigma11 = 0.85\nsigma22 = 0.94\nrho = 0.25\n"
    "c11.kind = exponential\nc11.theta = 17.12\ncr.kind = nugget\n",
    "family = generalized-markov\nsigma11 = 1.0\nsigma22 = 2.0\nrho = -0.4\n"
    "c11.kind = exponential\nc11.theta = 3.0\ncr.kind = matern15\ncr.lambda = 0.3\n",
    "family = proportional\nsigma11 = 1.5\nsigma12 = -0.6\nsigma22 = 2.0\n"
    "base.kind = squared-exponential\nbase.lambda = 0.4\n",
    "family = ns1\nsigma11 = 1.0\nsigma22 = 2.0\nlambda = 0.5\nlambdac = 0.3\n",
    "family = mat05\nsigma11 = 1.0\nsigma22 = 1.0\nlambda = 0.37\nlambdac = 0.2\n",
    "family = mat15\nsigma11 = 2.0\nsigma22 = 0.5\nlambda = 0.61\nlambdac = -0.44\n",
    "family = matinf\nsigma11 = 1.0\nsigma22 = 1.0\nlambda = 0.5\nlambdac = 0.8\n",
    "family = ns2\nsigma11 = 1.0\nsigma22 = 1.0\nlambda = 0.5\nlambdac = 0.5\nalpha = 0.75\n",
    "family = ns2\nsigma11 = 1.0\nsigma22 = 1.0\nlambda = 0.5\nlambdac = 0.3\nalpha = 0.6\n",
    "family = ns3\nsigma11 = 1.0\nsigma22 = 1.0\nlambda = 0.37\nlambdac = 0.2\n",
]


@pytest.mark.parametrize("model,text", zip(ROUND_TRIP_MODELS, ROUND_TRIP_TEXTS),
                         ids=[f"{type(m).__name__}-{i}" for i, m in enumerate(ROUND_TRIP_MODELS)])
def test_format_config_text(model, text):
    assert format_config(model) == text


def test_parse_config_comments_and_case():
    text = """
    # primary process setup
    FAMILY = mat05     # family name
    sigma11 = 1.0
    sigma22 = 2.0
    lambda = 0.5
    lambdac = 0.25
    """
    m = parse_config(text)
    assert isinstance(m, Mat05)
    assert m.sigma22 == 2.0
    # a block's kind, like the family, is read in any case
    head = "family = proportional\nsigma11 = 1\nsigma12 = 0\nsigma22 = 1\nbase.theta = 2\n"
    assert parse_config(head + "base.kind = Exponential\n") == parse_config(
        head + "base.kind = exponential\n")


def test_parse_config_exponential_rate_or_base():
    common = ("family = generalized-markov\nsigma11 = 1\nsigma22 = 1\n"
              "rho = 0.5\ncr.kind = nugget\nc11.kind = exponential\n")
    by_rate = parse_config(common + "c11.theta = 2.0\n")
    by_base = parse_config(common + f"c11.lambda = {math.exp(-2.0)!r}\n")
    assert by_rate.c11.rate == pytest.approx(by_base.c11.rate, rel=1e-12)


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("family = mat05\nsigma11 = 1\nsigma11 = 2\n")
    assert err.value.line == 3
    assert "line 3" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_config("family = mat05\nsigma11 = one\nsigma22 = 1\n"
                      "lambda = 0.5\nlambdac = 0.2\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_config("family = mat05\nsigma11 = 1\nsigma22 = 1\n"
                      "lambda = 0.5\nlambdac = 0.2\nbogus = 7\n")
    assert err.value.line == 6
    assert "bogus" in str(err.value)


def test_parse_config_structural_errors():
    with pytest.raises(ParseError, match="key = value"):
        parse_config("family mat05\n")
    with pytest.raises(ParseError, match="missing required key"):
        parse_config("family = mat05\nsigma11 = 1\nsigma22 = 1\nlambda = 0.5\n")
    with pytest.raises(ParseError, match="unknown family"):
        parse_config("family = kitchen-sink\n")
    # missing keys are reported in the order of the family's fields
    with pytest.raises(ParseError, match="missing required key 'sigma11'"):
        parse_config("family = ns2\nlambdac = 0.5\n")
    with pytest.raises(ParseError, match="missing required key 'lambdac'"):
        parse_config("family = ns2\nsigma11 = 1\nsigma22 = 1\nlambda = 0.5\n")
    gm = "family = generalized-markov\nsigma11 = 1\nsigma22 = 1\nrho = 0.5\n"
    with pytest.raises(ParseError, match="missing required key 'c11.kind'"):
        parse_config(gm)
    with pytest.raises(ParseError, match="missing required key 'cr.kind'"):
        parse_config(gm + "c11.kind = nugget\n")


def test_parse_config_correlogram_errors():
    head = "family = proportional\nsigma11 = 1\nsigma12 = 0\nsigma22 = 1\n"
    with pytest.raises(ParseError, match=r"^line 5: unknown correlogram kind 'fractal' in "
                                         r"'base.kind', expected one of \('exponential', "):
        parse_config(head + "base.kind = fractal\n")
    with pytest.raises(ParseError, match=r"^line 6: unknown key\(s\): base.lambda$"):
        parse_config(head + "base.kind = nugget\nbase.lambda = 0.5\n")
    # an exponential block's lambda stands in for its theta, so both are one too many
    with pytest.raises(ParseError, match=r"^line 6: unknown key\(s\): base.theta$"):
        parse_config(head + "base.kind = exponential\n"
                            "base.theta = 1\nbase.lambda = 0.5\n")
    with pytest.raises(ParseError, match=r"^missing required key 'base.lambda'$"):
        parse_config(head + "base.kind = squared-exponential\nbase.theta = 1\n")


def test_parse_config_wraps_domain_errors():
    text = ("family = mat05\nsigma11 = -1\nsigma22 = 1\n"
            "lambda = 0.5\nlambdac = 0.2\n")
    with pytest.raises(ParseError, match="invalid parameters"):
        parse_config(text)


def test_format_config_refuses_an_unregistered_family():
    @dataclass(frozen=True)
    class Custom(NS1):
        family = "custom"

    with pytest.raises(DomainError, match="cannot serialize model"):
        format_config(Custom(1.0, 1.0, 0.5, 0.2))
    for corr in (Correlogram(), "exponential"):
        with pytest.raises(DomainError, match="cannot serialize correlogram"):
            format_config(Proportional(1.0, 0.0, 1.0, corr))


def test_format_config_ends_with_newline():
    text = format_config(NS3(1.0, 1.0, 0.5, 0.2))
    assert text.endswith("\n")
    assert text.count("family = ns3") == 1
