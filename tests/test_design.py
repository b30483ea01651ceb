import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cokrig import Design, DomainError, ExponentialKernel, equispaced, imspe, majorization_perturb, rescale, smspe


def test_points_are_cumulative_gaps():
    d = Design(0.0, 1.0, (0.2, 0.3, 0.5))
    assert d.n == 4
    np.testing.assert_allclose(d.points, [0.0, 0.2, 0.5, 1.0], atol=1e-15)
    assert d.length == 1.0
    assert d.is_unit_interval()


def test_endpoint_is_pinned_exactly():
    gaps = (0.1,) * 10
    d = Design(0.0, 1.0, gaps)
    assert d.points[-1] == 1.0


def test_gaps_and_points_are_read_only_arrays_built_once():
    raw = np.array([0.7, 2.1, 3.0])
    d = Design(1.5, 7.3, raw)
    assert d.points is d.points and d.gaps is d.gap_array()
    report = smspe(ExponentialKernel(3.0), equispaced(5))
    for arr in (d.gaps, d.points, report.per_interval):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    before = (d.gaps.tolist(), d.points.tolist())
    raw[0] = 5.0
    assert (d.gaps.tolist(), d.points.tolist()) == before
    assert d.points[-1] == 7.3
    for given_as in ([0.7, 2.1, 3.0], (0.7, 2.1, 3.0)):
        other = Design(1.5, 7.3, given_as)
        assert other.gaps.tolist() == d.gaps.tolist()
        assert other.points.tolist() == d.points.tolist()


def test_from_points_round_trip():
    d = Design.from_points([1.0, 1.5, 2.25, 4.0])
    assert d.x_start == 1.0 and d.x_end == 4.0
    assert d.gaps.tolist() == [0.5, 0.75, 1.75]


def test_from_points_rejects_non_increasing():
    with pytest.raises(DomainError):
        Design.from_points([0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        Design.from_points([3.0])


def test_gap_positivity_enforced():
    with pytest.raises(DomainError):
        Design(0.0, 1.0, (0.5, 0.0, 0.5))
    with pytest.raises(DomainError):
        Design(0.0, 1.0, (1.2, -0.2))
    with pytest.raises(DomainError):
        Design(0.0, 1.0, (0.5, math.nan, 0.5))


def test_endpoints_must_be_ordered_and_finite():
    with pytest.raises(DomainError):
        Design(1.0, 0.0, (1.0,))
    with pytest.raises(DomainError):
        Design(0.0, math.inf, (1.0,))


def test_small_sum_error_is_renormalized():
    # off by 5e-7: inside the slack, silently corrected to exact sum
    d = Design(0.0, 1.0, (0.5, 0.5 + 5e-7))
    assert abs(sum(d.gaps) - 1.0) <= 1e-12


def test_large_sum_error_is_rejected():
    with pytest.raises(DomainError):
        Design(0.0, 1.0, (0.5, 0.6))


def test_single_site_design():
    d = Design.single(2.5)
    assert d.n == 1
    assert d.points.tolist() == [2.5]
    with pytest.raises(DomainError):
        Design(0.0, 1.0, ())


def test_equispaced_constructions():
    d17 = equispaced(17)
    assert d17.gaps.tolist() == [1.0 / 16.0] * 16
    assert equispaced(2).gaps.tolist() == [1.0]
    assert equispaced(5).gaps.tolist() == [0.25] * 4
    with pytest.raises(DomainError):
        equispaced(1)


def test_rescale_moves_to_unit_interval():
    d = Design(2.0, 4.0, (0.8, 1.2))
    unit, theta = rescale(d, 5.0)
    assert unit.is_unit_interval()
    assert unit.gaps.tolist() == [0.4, 0.6]
    assert theta == 10.0


def test_rescale_of_unit_design_is_identity():
    d = Design(0.0, 1.0, (0.3, 0.7))
    unit, theta = rescale(d, 3.0)
    assert unit.gaps.tolist() == d.gaps.tolist()
    assert theta == 3.0


def test_rescale_round_trip_recovers_gaps():
    d = Design(1.5, 7.5, (1.0, 2.0, 3.0))
    unit, theta = rescale(d, 2.0)
    back = Design(d.x_start, d.x_end, tuple(g * d.length for g in unit.gaps))
    assert all(abs(a - b) <= 1e-15 for a, b in zip(back.gaps, d.gaps))
    assert theta / d.length == 2.0


def test_rescale_preserves_criterion_values():
    d = Design(2.0, 4.0, (0.3, 0.9, 0.8))
    unit, theta = rescale(d, 7.0)
    for crit in (smspe, imspe):
        for model in ("simple", "ordinary"):
            v = crit(ExponentialKernel(theta), unit, model).value
            # same design laid out on [0, 1] directly
            direct = Design(0.0, 1.0, (0.15, 0.45, 0.4))
            w = crit(ExponentialKernel(theta), direct, model).value
            assert abs(v - w) <= 1e-10


def test_majorization_perturb_basic():
    d = Design(0.0, 1.0, (0.5, 0.5))
    p = majorization_perturb(d, 0, 1, 0.1)
    np.testing.assert_allclose(p.gaps, (0.4, 0.6), atol=1e-15)


def test_majorization_perturb_three_gaps():
    d = Design(0.0, 1.0, (0.2, 0.3, 0.5))
    p = majorization_perturb(d, 0, 2, 0.05)
    np.testing.assert_allclose(p.gaps, (0.15, 0.3, 0.55), atol=1e-15)


def test_majorization_perturb_preconditions():
    d = Design(0.0, 1.0, (0.2, 0.3, 0.5))
    with pytest.raises(DomainError):
        majorization_perturb(d, 2, 0, 0.05)  # mass toward the smaller gap
    with pytest.raises(DomainError):
        majorization_perturb(d, 0, 2, 0.2)  # eps not strictly below d[from]
    with pytest.raises(DomainError):
        majorization_perturb(d, 1, 1, 0.05)
    with pytest.raises(DomainError):
        majorization_perturb(d, 0, 5, 0.05)


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12))
def test_any_positive_gaps_normalize_onto_unit_interval(raw):
    total = sum(raw)
    d = Design(0.0, 1.0, tuple(g / total for g in raw))
    assert abs(sum(d.gaps) - 1.0) <= 1e-12
    pts = d.points
    assert np.all(np.diff(pts) > 0)
    assert pts[0] == 0.0 and pts[-1] == 1.0


@given(
    st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=8),
    st.floats(min_value=0.1, max_value=30.0),
)
def test_rescale_round_trip_is_stable(raw, theta):
    d = Design(0.0, sum(raw), tuple(raw))
    unit, theta2 = rescale(d, theta)
    assert unit.is_unit_interval()
    assert math.isclose(theta2, theta * d.length, rel_tol=1e-14)
    np.testing.assert_allclose(
        [g * d.length for g in unit.gaps], d.gaps, rtol=1e-12, atol=0
    )
