"""Station ingestion: great-circle hops to a normalized unit design."""

import math

import numpy as np
import pytest

from cokrig import (
    EARTH_RADIUS_KM,
    DomainError,
    ObservationRecord,
    ParseError,
    StationRecord,
    align_observations,
    haversine_km,
    ingest_stations,
    read_observations_csv,
    read_stations_csv,
)
from conftest import XI0_GAPS


def equator_stations(lons, prefix="s"):
    return [StationRecord(f"{prefix}{i}", 0.0, lon, i) for i, lon in enumerate(lons)]


# --------------------------------------------------------------------------
# haversine
# --------------------------------------------------------------------------

def test_haversine_known_values():
    # along the equator the arc length is exactly R * delta_lon
    assert haversine_km(0, 0, 0, 1) == pytest.approx(
        EARTH_RADIUS_KM * math.radians(1), rel=1e-12)
    # pole to equator is a quarter circle
    assert haversine_km(90, 0, 0, 0) == pytest.approx(
        EARTH_RADIUS_KM * math.pi / 2, rel=1e-12)
    assert haversine_km(12.5, 40.0, 12.5, 40.0) == 0.0


def test_haversine_symmetry():
    a = (46.2, 6.1)
    b = (47.4, 8.5)
    assert haversine_km(*a, *b) == pytest.approx(haversine_km(*b, *a), rel=1e-15)


# --------------------------------------------------------------------------
# ingestion
# --------------------------------------------------------------------------

def test_three_collinear_stations():
    design, report = ingest_stations(equator_stations([0.0, 0.5, 1.0]))
    assert design.gaps.tolist() == [0.5, 0.5]
    assert design.x_start == 0.0 and design.x_end == 1.0
    assert report.station_ids == ("s0", "s1", "s2")
    assert report.total_km == pytest.approx(sum(report.hop_km), rel=1e-15)


def test_ingest_reproduces_benchmark_gaps(xi0):
    # place stations along the equator with hops proportional to the
    # benchmark network's spacing; the normalized design must come back
    lons = 10.0 * np.concatenate([[0.0], np.cumsum(XI0_GAPS)])
    design, _ = ingest_stations(equator_stations(lons))
    np.testing.assert_allclose(design.gaps, xi0.gaps, atol=1e-12)


def test_gaps_invariant_to_scale():
    lons = [0.0, 0.7, 1.1, 2.0]
    d1, r1 = ingest_stations(equator_stations(lons))
    d2, r2 = ingest_stations(equator_stations([3.0 * v for v in lons]))
    np.testing.assert_allclose(d2.gaps, d1.gaps, atol=1e-12)
    assert r2.total_km > r1.total_km


def test_ingest_errors():
    with pytest.raises(DomainError, match="at least two"):
        ingest_stations(equator_stations([0.0]))
    out_of_order = [StationRecord("a", 0, 0, 2), StationRecord("b", 0, 1, 1)]
    with pytest.raises(DomainError, match="strictly increasing"):
        ingest_stations(out_of_order)
    dup_order = [StationRecord("a", 0, 0, 1), StationRecord("b", 0, 1, 1)]
    with pytest.raises(DomainError, match="strictly increasing"):
        ingest_stations(dup_order)
    same_spot = [StationRecord("a", 5, 5, 1), StationRecord("b", 5, 5, 2)]
    with pytest.raises(DomainError, match="zero"):
        ingest_stations(same_spot)


def test_record_validation():
    with pytest.raises(DomainError):
        StationRecord("", 0, 0, 1)
    with pytest.raises(DomainError):
        StationRecord("a", 91.0, 0, 1)
    with pytest.raises(DomainError):
        StationRecord("a", 0, -180.5, 1)
    with pytest.raises(DomainError):
        ObservationRecord("a", float("nan"), 0.0)
    with pytest.raises(DomainError):
        ObservationRecord("", 1.0, 2.0)


# --------------------------------------------------------------------------
# CSV parsing
# --------------------------------------------------------------------------

STATIONS_CSV = """\
station_id,lat,lon,order
up,46.10,6.20,1
mid,46.15,6.30,2
down,46.22,6.38,3
"""

OBS_CSV = """\
station_id,z1,z2
mid,0.4,1.1
down,0.9,1.3
up,0.2,0.8
"""


def test_read_stations_csv():
    records = read_stations_csv(STATIONS_CSV)
    assert [r.station_id for r in records] == ["up", "mid", "down"]
    assert records[1].lat == 46.15
    assert records[2].order == 3


def test_header_is_case_and_space_insensitive():
    text = " Station_ID , LAT ,lon, ORDER \nx,0,0,1\ny,0,1,2\n"
    assert len(read_stations_csv(text)) == 2


def test_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        read_stations_csv("id,lat,lon,order\nx,0,0,1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        read_stations_csv("station_id,lat,lon,order\nx,0,0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        read_stations_csv("station_id,lat,lon,order\nx,0,0,1\ny,abc,0,2\n")
    assert exc.value.line == 3
    # range violations surface as parse errors at the offending row
    with pytest.raises(ParseError) as exc:
        read_stations_csv("station_id,lat,lon,order\nx,95,0,1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        read_stations_csv("")


def test_read_observations_csv():
    records = read_observations_csv(OBS_CSV)
    assert [r.station_id for r in records] == ["mid", "down", "up"]
    with pytest.raises(ParseError) as exc:
        read_observations_csv("station_id,z1,z2\nx,1.0,oops\n")
    assert exc.value.line == 2


# --------------------------------------------------------------------------
# alignment
# --------------------------------------------------------------------------

def test_align_orders_by_station_rank():
    stations = read_stations_csv(STATIONS_CSV)
    obs = read_observations_csv(OBS_CSV)  # shuffled relative to stations
    z1, z2 = align_observations(stations, obs)
    np.testing.assert_array_equal(z1, [0.2, 0.4, 0.9])
    np.testing.assert_array_equal(z2, [0.8, 1.1, 1.3])


def test_align_mismatches():
    stations = read_stations_csv(STATIONS_CSV)
    obs = read_observations_csv(OBS_CSV)
    with pytest.raises(DomainError, match="duplicate"):
        align_observations(stations, obs + [ObservationRecord("up", 1, 1)])
    with pytest.raises(DomainError, match="missing"):
        align_observations(stations, obs[:2])
    with pytest.raises(DomainError, match="extra"):
        align_observations(stations[:2], obs)
