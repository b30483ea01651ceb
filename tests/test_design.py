import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cokrig import (NS1, NS2, NS3, Design, DomainError, ExponentialCorrelogram, ExponentialKernel,
                    GeneralizedMarkov, Matern15Correlogram, NuggetCorrelogram, ObservationRecord,
                    ObservationVector, OptimizationProblem, Proportional,
                    SquaredExponentialCorrelogram, StationRecord, ThetaPrior, build_cross_vector,
                    equispaced,
                    format_config, haversine_km, imspe, loglikelihood, ones_quadratic_form,
                    optimize, ordinary_cokrige, ordinary_krige, parse_config, precision_matrix,
                    quad_forms_at, relative_efficiency, rescale, simple_cokrige, simple_krige,
                    simulate_observations, smspe)
from oracles import majorization_perturb


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


def test_a_design_needs_two_sites():
    for x_end in (2.5, 3.0):
        with pytest.raises(DomainError, match="at least two sites"):
            Design(2.5, x_end, ())


def test_equispaced_constructions():
    d17 = equispaced(17)
    assert d17.gaps.tolist() == [1.0 / 16.0] * 16
    assert equispaced(2).gaps.tolist() == [1.0]
    assert equispaced(5).gaps.tolist() == [0.25] * 4
    assert equispaced(np.int64(5)).gaps.tolist() == [0.25] * 4
    with pytest.raises(DomainError):
        equispaced(1)


@pytest.mark.parametrize("count", [8.0, 8.5, "8"])
@pytest.mark.parametrize("call", [
    equispaced,
    lambda v: optimize(OptimizationProblem(v, "imspe", kernel=ExponentialKernel(17.12))),
    lambda v: simulate_observations(equispaced(5), 17.12, 0.85, 0.94, 0.25, replicates=v),
], ids=["equispaced", "optimize", "simulate_observations"])
def test_counts_must_be_integers(call, count):
    with pytest.raises(DomainError, match="must be an integer"):
        call(count)


# Every public constructor or function that takes a real scalar, each
# taking it through ``design._real``.
# Every public taker of a scalar, by taker and, where it takes several, field
SCALAR_TAKERS = {
    "Design.x_start": lambda v: Design(v, 1.0, (1.0,)),
    "Design.x_end": lambda v: Design(0.0, v, (1.0,)),
    "equispaced": lambda v: equispaced(3, 0.0, v),
    "rescale": lambda v: rescale(equispaced(3), v),
    "ExponentialKernel.theta": lambda v: ExponentialKernel(v),
    "ExponentialKernel.sigma11": lambda v: ExponentialKernel(2.0, v),
    "precision_matrix": lambda v: precision_matrix(equispaced(3), v),
    "ExponentialCorrelogram": lambda v: ExponentialCorrelogram(v),
    "ExponentialCorrelogram.from_base": lambda v: ExponentialCorrelogram.from_base(v),
    "SquaredExponentialCorrelogram": lambda v: SquaredExponentialCorrelogram(v),
    "Matern15Correlogram": lambda v: Matern15Correlogram(v),
    "GeneralizedMarkov": lambda v: GeneralizedMarkov(1.0, 1.0, v, ExponentialCorrelogram(1.0),
                                                     NuggetCorrelogram()),
    "Proportional": lambda v: Proportional(1.0, v, 1.0, ExponentialCorrelogram(1.0)),
    "NS1": lambda v: NS1(v, 0.94, 0.5, 0.5),
    "NS2.sigma11": lambda v: NS2(v, 0.94, 0.5, 0.5),
    "NS2.lam": lambda v: NS2(0.85, 0.94, v, 0.5),
    "NS2.lamc": lambda v: NS2(0.85, 0.94, 0.5, v, 0.75),
    "NS2.alpha": lambda v: NS2(0.85, 0.94, 0.5, 0.5, v),
    "NS3": lambda v: NS3(0.85, v, 0.5, 0.5),
    "ThetaPrior.uniform": lambda v: ThetaPrior.uniform(v, 2.0),
    "ThetaPrior.uniform.e_sigma11": lambda v: ThetaPrior.uniform(1.0, 2.0, v),
    "ThetaPrior.tabulated": lambda v: ThetaPrior.tabulated([1.0, 2.0], [1.0, v]),
    "ThetaPrior.e_sigma11": lambda v: ThetaPrior(((1.0, 1.0), (2.0, 1.0)), v),
    "OptimizationProblem.tolerance": lambda v: OptimizationProblem(
        4, "smspe", kernel=ExponentialKernel(1.0), tolerance=v),
    "simple_krige.sigma11": lambda v: simple_krige((v, ExponentialCorrelogram(1.0)),
                                                   equispaced(3), [1.0, 2.0, 3.0], 0.5),
    "loglikelihood.rho": lambda v: loglikelihood(equispaced(3), [1.0, 2.0, 3.0],
                                                 [0.0, 1.0, 0.0], 2.0, 1.0, 1.0, v),
    "ones_quadratic_form": lambda v: ones_quadratic_form(equispaced(3), v),
    "quad_forms_at.theta": lambda v: quad_forms_at(equispaced(3), v, 0.5),
    "quad_forms_at.x0": lambda v: quad_forms_at(equispaced(3), 2.0, v),
    "GeneralizedMarkov.sigma22": lambda v: GeneralizedMarkov(
        1.0, v, 0.5, ExponentialCorrelogram(1.0), NuggetCorrelogram()),
    "Proportional.sigma11": lambda v: Proportional(v, 0.0, 1.0, ExponentialCorrelogram(1.0)),
    "ThetaPrior.uniform.theta2": lambda v: ThetaPrior.uniform(1.0, v),
    "relative_efficiency.reference_value": lambda v: relative_efficiency(v, 1.0),
    "relative_efficiency.candidate_value": lambda v: relative_efficiency(1.0, v),
    "simple_krige.x0": lambda v: simple_krige(ExponentialKernel(1.0), equispaced(3),
                                              [1.0, 2.0, 3.0], v),
    "ordinary_krige.x0": lambda v: ordinary_krige((1.0, Matern15Correlogram(0.5)),
                                                  equispaced(3), [1.0, 2.0, 3.0], v),
    "simple_cokrige.x0": lambda v: simple_cokrige(
        NS2(1.0, 1.0, 0.5, 0.5), equispaced(3),
        ObservationVector([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]), v),
    "ordinary_cokrige.x0": lambda v: ordinary_cokrige(
        GeneralizedMarkov(1.0, 1.0, 0.5, ExponentialCorrelogram(1.0), NuggetCorrelogram()),
        equispaced(3), ObservationVector([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]), v),
    "loglikelihood.theta": lambda v: loglikelihood(equispaced(3), [1.0, 2.0, 3.0],
                                                   [0.0, 1.0, 0.0], v, 1.0, 1.0, 0.5),
    "simulate_observations.sigma22": lambda v: simulate_observations(equispaced(3), 2.0, 1.0,
                                                                     v, 0.5),
    "StationRecord.lat": lambda v: StationRecord("a", v, 2.0, 1),
    "StationRecord.lon": lambda v: StationRecord("a", 1.0, v, 1),
    "StationRecord.order": lambda v: StationRecord("a", 1.0, 2.0, v),
    "ObservationRecord.z1": lambda v: ObservationRecord("a", v, 1.0),
    "ObservationRecord.z2": lambda v: ObservationRecord("a", 1.0, v),
    "haversine_km.lat1": lambda v: haversine_km(v, 0.0, 0.0, 0.0),
    "haversine_km.lon2": lambda v: haversine_km(0.0, 0.0, 0.0, v),
    "build_cross_vector.x0": lambda v: build_cross_vector(NS2(1.0, 1.0, 0.5, 0.5),
                                                          equispaced(3), v),
}


NOT_REAL = {"numeric-string": "1", "string": "x", "None": None, "bool": True,
            "complex": 1 + 0j, "list": [1.0]}


# NS2's alpha=None asks for the standard exponent.
@pytest.mark.parametrize("taker, value", [
    pytest.param(taker, value, id=f"{taker}-{kind}")
    for taker in SCALAR_TAKERS for kind, value in NOT_REAL.items()
    if (taker, kind) != ("NS2.alpha", "None")
])
def test_scalars_must_be_real_numbers(taker, value):
    kind = "an integer" if taker == "StationRecord.order" else "a real number"
    with pytest.raises(DomainError, match=kind):
        SCALAR_TAKERS[taker](value)


# The takers of a scalar that must be finite and positive, inside (0, 1), or
# finite, each with the name of the field its refusal gives
POSITIVE = {
    "rescale": "theta", "ExponentialKernel.theta": "theta",
    "ExponentialKernel.sigma11": "sigma11", "precision_matrix": "theta",
    "ones_quadratic_form": "theta", "quad_forms_at.theta": "theta",
    "ExponentialCorrelogram": "rate", "GeneralizedMarkov.sigma22": "sigma22",
    "Proportional.sigma11": "sigma11", "NS1": "sigma11", "NS2.sigma11": "sigma11",
    "NS3": "sigma22", "ThetaPrior.uniform": "theta1", "ThetaPrior.uniform.theta2": "theta2",
    "ThetaPrior.uniform.e_sigma11": "e_sigma11", "ThetaPrior.e_sigma11": "e_sigma11",
    "OptimizationProblem.tolerance": "tolerance",
    "relative_efficiency.reference_value": "reference_value",
    "relative_efficiency.candidate_value": "candidate_value",
    "simple_krige.sigma11": "sigma11", "loglikelihood.theta": "theta",
    "simulate_observations.sigma22": "sigma22",
}
FRACTION = {
    "ExponentialCorrelogram.from_base": "base", "SquaredExponentialCorrelogram": "base",
    "Matern15Correlogram": "base", "NS2.lam": "lam", "NS2.alpha": "alpha",
}
FINITE = {
    "Design.x_start": "x_start", "Design.x_end": "x_end", "equispaced": "x_end",
    "GeneralizedMarkov": "rho", "Proportional": "sigma12", "NS2.lamc": "lamc",
    "loglikelihood.rho": "rho", "StationRecord.lat": "lat", "StationRecord.lon": "lon",
    "ObservationRecord.z1": "z1", "ObservationRecord.z2": "z2",
    "haversine_km.lat1": "lat1", "haversine_km.lon2": "lon2",
}
OUT_OF_DOMAIN = (
    [(taker, v, f"{name} must be finite and positive") for taker, name in POSITIVE.items()
     for v in (0.0, -1.0, math.nan, math.inf, -math.inf)]
    + [(taker, v, rf"{name} must lie in \(0, 1\)") for taker, name in FRACTION.items()
       for v in (0.0, 1.0, math.nan)]
    + [(taker, v, f"{name} must be finite") for taker, name in FINITE.items()
       for v in (math.nan, math.inf, -math.inf)]
)


@pytest.mark.parametrize("taker, value, message", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in OUT_OF_DOMAIN
])
def test_scalars_outside_their_domain_are_refused_by_name(taker, value, message):
    with pytest.raises(DomainError, match=f"^{message}, got "):
        SCALAR_TAKERS[taker](value)


@pytest.mark.parametrize("gaps", [("x",), (1 + 1j,), ((0.5,), (0.25, 0.25))],
                         ids=["string", "complex", "ragged"])
def test_gaps_numpy_cannot_read_as_floats_are_a_domain_error(gaps):
    # gaps go through NumPy's float conversion, so a numeric string such
    # as '1' still converts: refusing it would cost a type scan per gap
    with pytest.raises(DomainError, match="real numbers"):
        Design(0.0, 1.0, gaps)


def test_real_scalars_of_any_numeric_type_are_stored_as_floats():
    for value in (2, np.int32(2), np.float32(2.0), np.float64(2.0), np.array(2.0)):
        kernel = ExponentialKernel(value, value)
        assert type(kernel.theta) is float and type(kernel.sigma11) is float
        assert kernel == ExponentialKernel(2.0, 2.0)
    assert Design(np.int64(0), np.float32(1.0), (np.float32(0.5), 0.5)).x_end == 1.0
    # a stored NumPy scalar would write 'np.float64(0.85)' into the config
    model = NS2(np.float64(0.85), 0.94, np.float64(0.5), 0.5)
    assert parse_config(format_config(model)) == model


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
