import math

import numpy as np
import pytest

import oracles
from cokrig import kernel as kern
from cokrig import (
    ConditioningError,
    Design,
    DomainError,
    ExponentialCorrelogram,
    ExponentialKernel,
    ExtrapolationError,
    OptimizationProblem,
    ThetaPrior,
    equispaced,
    ones_quadratic_form,
    precision_matrix,
    quad_forms_at,
    rescale,
)


def random_unit_design(rng, n):
    return Design(0.0, 1.0, tuple(oracles.random_design_gaps(rng, n)))


# --------------------------------------------------------------------------
# ExponentialKernel
# --------------------------------------------------------------------------

def test_kernel_parameter_validation():
    with pytest.raises(DomainError):
        ExponentialKernel(0.0)
    with pytest.raises(DomainError):
        ExponentialKernel(-1.0)
    with pytest.raises(DomainError):
        ExponentialKernel(1.0, sigma11=0.0)
    with pytest.raises(DomainError):
        ExponentialKernel(math.nan)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("check", [
    lambda v: ExponentialKernel(v),
    lambda v: ExponentialKernel(1.0, sigma11=v),
    lambda v: ones_quadratic_form(equispaced(3), v),
    lambda v: ExponentialCorrelogram(v),
    lambda v: ThetaPrior.uniform(1.0, 2.0, e_sigma11=v),
    lambda v: OptimizationProblem(3, "smspe", kernel=ExponentialKernel(1.0), tolerance=v),
    lambda v: rescale(equispaced(3, 0.0, 2.0), v),
], ids=["theta", "sigma11", "check_theta", "correlogram", "e_sigma11", "tolerance",
        "rescale"])
def test_rates_and_scales_must_be_finite_and_positive(check, bad):
    with pytest.raises(DomainError, match="must be finite and positive"):
        check(bad)


def test_kernel_corr_and_cov():
    k = ExponentialKernel(2.0, sigma11=3.0)
    assert k.corr(0.0) == 1.0
    assert math.isclose(k.corr(1.0), math.exp(-2.0))
    assert math.isclose(k.cov(0.5), 3.0 * math.exp(-1.0))
    # distance enters through its absolute value
    assert k.corr(-1.0) == k.corr(1.0)


# --------------------------------------------------------------------------
# precision_matrix
# --------------------------------------------------------------------------

def test_precision_two_point_analytic():
    # analytic inverse of [[1, e^-1], [e^-1, 1]]
    m = precision_matrix(Design(0.0, 1.0, (1.0,)), theta=1.0)
    w = 1.0 - math.exp(-2.0)
    np.testing.assert_allclose(
        m, [[1.0 / w, -math.exp(-1.0) / w], [-math.exp(-1.0) / w, 1.0 / w]],
        rtol=1e-14,
    )


def test_precision_single_point():
    assert precision_matrix(Design.single(), theta=1.0).tolist() == [[1.0]]


def test_precision_matches_dense_inverse(rng):
    design = random_unit_design(rng, 6)
    m = precision_matrix(design, theta=17.12)
    dense = oracles.dense_precision(design.points, 17.12)
    assert np.max(np.abs(m - dense)) <= 1e-9


def test_precision_is_tridiagonal(rng):
    design = random_unit_design(rng, 7)
    m = precision_matrix(design, theta=4.0)
    off = np.triu(np.abs(m), 2)
    assert np.max(off) == 0.0


def test_precision_underflow_guard():
    design = Design(0.0, 1.0, (1e-11, 1.0 - 1e-11))
    with pytest.raises(ConditioningError):
        precision_matrix(design, theta=1.0)


def test_corr_pd_and_precision_identity_across_theta_range(rng):
    for _ in range(60):
        n = int(rng.integers(2, 51))
        design = random_unit_design(rng, n)
        theta = rng.uniform(0.1, 50.0)
        p = oracles.dense_corr(design.points, theta)
        np.linalg.cholesky(p)  # PD or raises
        prod = precision_matrix(design, theta) @ p
        assert np.max(np.abs(prod - np.eye(n))) <= 1e-9


# --------------------------------------------------------------------------
# ones_quadratic_form
# --------------------------------------------------------------------------

def test_ones_form_two_points():
    expected = 1.0 + (math.e - 1.0) / (math.e + 1.0)
    got = ones_quadratic_form(Design(0.0, 1.0, (1.0,)), theta=1.0)
    assert math.isclose(got, expected, rel_tol=1e-14)
    # cross-check against the direct 2x2 solve
    dense = oracles.dense_ones_form(np.array([0.0, 1.0]), 1.0)
    assert abs(got - dense) <= 1e-12


def test_ones_form_perfect_correlation_limit():
    got = ones_quadratic_form(equispaced(5), theta=1e-8)
    assert abs(got - 1.0) <= 1e-7


def test_ones_form_matches_dense_oracle():
    got = ones_quadratic_form(equispaced(17), theta=17.12)
    dense = oracles.dense_ones_form(equispaced(17).points, 17.12)
    assert abs(got - dense) <= 1e-9


def test_ones_form_gap_sum_identity(rng):
    # on a unit-sum gap vector, F equals sum of d_i + tanh(theta d_i / 2)
    design = random_unit_design(rng, 6)
    theta = 3.7
    f = ones_quadratic_form(design, theta)
    gaps = design.gap_array()
    omega = gaps + np.tanh(0.5 * theta * gaps)
    assert abs(f - float(np.sum(omega))) <= 1e-12


def test_omega_slope_strictly_decreasing(rng):
    # d + tanh(theta d / 2) has slope 1 + 2 theta e^{theta d}/(e^{theta d}+1)^2,
    # strictly decreasing in d
    for _ in range(50):
        theta = rng.uniform(0.1, 50.0)
        d1, d2 = np.sort(rng.uniform(1e-4, 1.0, size=2))
        if d1 == d2:
            continue

        def slope(d):
            e = math.exp(theta * d)
            return 1.0 + 2.0 * theta * e / (e + 1.0) ** 2

        assert slope(d1) > slope(d2)


# --------------------------------------------------------------------------
# quad_forms_at
# --------------------------------------------------------------------------

def test_quad_forms_at_sampled_point_identities():
    design = equispaced(4)
    for x0 in design.points:
        s_quad, cross = quad_forms_at(design, theta=2.0, x0=float(x0))
        assert abs(s_quad - 1.0) <= 1e-12
        assert abs(cross - 1.0) <= 1e-12


def test_quad_forms_midpoint_against_dense():
    design = Design(0.0, 1.0, (0.2, 0.2, 0.2, 0.2, 0.2))
    x0 = 0.2 + 0.1
    s_quad, cross = quad_forms_at(design, theta=17.12, x0=x0)
    ds, dc = oracles.dense_quad_forms(design.points, 17.12, x0)
    assert abs(s_quad - ds) <= 1e-10
    assert abs(cross - dc) <= 1e-10


def test_quad_forms_equispaced_quarter_point():
    design = equispaced(3)
    s_quad, cross = quad_forms_at(design, theta=1.0, x0=0.25)
    ds, dc = oracles.dense_quad_forms(design.points, 1.0, 0.25)
    assert abs(s_quad - ds) <= 1e-12
    assert abs(cross - dc) <= 1e-12


def test_quad_forms_rejects_extrapolation():
    design = equispaced(3)
    with pytest.raises(ExtrapolationError):
        quad_forms_at(design, theta=1.0, x0=1.25)
    with pytest.raises(ExtrapolationError):
        quad_forms_at(design, theta=1.0, x0=-0.01)


def test_quad_forms_accepts_roundoff_slack():
    design = equispaced(3)
    s_quad, _ = quad_forms_at(design, theta=1.0, x0=1.0 + 5e-13)
    assert abs(s_quad - 1.0) <= 1e-12


def test_quad_forms_random_triples_match_dense(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        design = random_unit_design(rng, n)
        theta = rng.uniform(0.1, 50.0)
        x0 = float(rng.uniform(0.0, 1.0))
        s_quad, cross = quad_forms_at(design, theta, x0)
        ds, dc = oracles.dense_quad_forms(design.points, theta, x0)
        assert abs(s_quad - ds) <= 1e-9
        assert abs(cross - dc) <= 1e-9



# --------------------------------------------------------------------------
# kriging weights at a target
# --------------------------------------------------------------------------

def _concatenated_weights(design, theta, x0, ordinary):
    """The weights as first written: the bracket weights in a zero vector,
    then ``P^{-1} 1 = (t_{j-1} + t_j) / 2``, padded by concatenation, times
    ``cross / q0``."""
    pts = design.points
    i = min(int(np.searchsorted(pts, x0, side="right")) - 1, design.n - 2)
    a, b, d = x0 - pts[i], pts[i + 1] - x0, pts[i + 1] - pts[i]
    ea, eb, ed = np.expm1(-2.0 * theta * a), np.expm1(-2.0 * theta * b), np.expm1(-2.0 * theta * d)
    cross = np.expm1(-theta * a) * np.expm1(-theta * b) / (1.0 + np.exp(-theta * d))
    w = np.zeros(design.n)
    w[i], w[i + 1] = np.exp(-theta * a) * eb / ed, np.exp(-theta * b) * ea / ed
    if ordinary:
        t = np.tanh(0.5 * theta * design.gaps)
        q0 = 1.0 + float(np.sum(t))
        t = np.concatenate(([1.0], t, [1.0]))
        w += 0.5 * (t[:-1] + t[1:]) * (cross / q0)
    return w


@pytest.mark.parametrize("n", [3, 17, 10**3, 10**5])
def test_pointwise_weights_filled_in_place_are_bit_identical(n, rng):
    gaps = rng.uniform(0.5, 1.5, n - 1)
    design = Design(0.0, 1.0, tuple(gaps / gaps.sum()))
    for theta in (1e-3, 0.5, 17.12, 300.0):
        for x0 in [0.0, 1.0, float(design.points[n // 2])] + list(rng.uniform(0.0, 1.0, 3)):
            for ordinary in (False, True):
                w = kern._pointwise(design, theta, x0, ordinary, weights=True)[2]
                want = _concatenated_weights(design, theta, x0, ordinary)
                assert np.array_equal(w.view(np.int64), want.view(np.int64))
