"""Monitoring-station ingestion: coordinates to a normalized design.

Stations along a watercourse are summarized by their great-circle
distances between consecutive stations; the resulting hop lengths,
normalized by the total, become a unit-interval sampling design.  The
approximation is coarse for a meandering stream, but only the *ratios*
of the hops enter the design criteria.
"""

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .design import Design
from .exceptions import DomainError, ParseError

__all__ = [
    "EARTH_RADIUS_KM",
    "StationRecord",
    "ObservationRecord",
    "IngestReport",
    "haversine_km",
    "ingest_stations",
    "read_stations_csv",
    "read_observations_csv",
    "align_observations",
]

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class StationRecord:
    """One monitoring station: id, position, and upstream-to-downstream rank."""

    station_id: str
    lat: float
    lon: float
    order: int

    def __post_init__(self):
        if not self.station_id:
            raise DomainError("station_id must be nonempty")
        if not (np.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise DomainError(f"latitude {self.lat} outside [-90, 90]")
        if not (np.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise DomainError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True)
class ObservationRecord:
    """Collocated primary/secondary measurements at one station."""

    station_id: str
    z1: float
    z2: float

    def __post_init__(self):
        if not self.station_id:
            raise DomainError("station_id must be nonempty")
        if not (np.isfinite(self.z1) and np.isfinite(self.z2)):
            raise DomainError("observations must be finite")


@dataclass(frozen=True)
class IngestReport:
    """Distances behind an ingested design: per-hop and total kilometers."""

    station_ids: tuple[str, ...]
    hop_km: tuple[float, ...]
    total_km: float


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometers between two lat/lon points."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    s = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(s))


def _duplicate_ids(records) -> list[str]:
    counts = Counter(r.station_id for r in records)
    return sorted(sid for sid, count in counts.items() if count > 1)


def ingest_stations(stations: Sequence[StationRecord]) -> tuple[Design, IngestReport]:
    """Turn an ordered station list into a unit-interval design.

    Requires at least two stations with unique ids and strictly
    increasing, unique ``order`` values as given (sort the input first
    if needed).  Hops are consecutive great-circle distances; a zero hop
    (duplicate coordinates) is refused since designs need distinct sites.
    """
    if len(stations) < 2:
        raise DomainError(f"need at least two stations, got {len(stations)}")
    dupes = _duplicate_ids(stations)
    if dupes:
        raise DomainError(f"duplicate station ids: {dupes}")
    orders = [s.order for s in stations]
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise DomainError(
            "station orders must be strictly increasing and unique; "
            "sort the records by order first"
        )
    hops = []
    for a, b in zip(stations, stations[1:]):
        km = haversine_km(a.lat, a.lon, b.lat, b.lon)
        if km <= 0.0:
            raise DomainError(
                f"stations {a.station_id!r} and {b.station_id!r} share "
                "coordinates; hop length is zero"
            )
        hops.append(km)
    total = float(sum(hops))
    design = Design(0.0, 1.0, np.divide(hops, total))
    report = IngestReport(tuple(s.station_id for s in stations), tuple(hops), total)
    return design, report


def _read_csv(text: str, columns: tuple[str, ...]) -> Iterable[tuple[int, list[str]]]:
    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, 1) if row]
    if not rows:
        raise ParseError("empty CSV input")
    header_line, header = rows[0]
    if [c.strip().lower() for c in header] != list(columns):
        raise ParseError(
            f"expected header {','.join(columns)!r}, got {','.join(header)!r}",
            header_line,
        )
    for lineno, row in rows[1:]:
        if len(row) != len(columns):
            raise ParseError(
                f"expected {len(columns)} fields, got {len(row)}", lineno
            )
        yield lineno, [f.strip() for f in row]


def read_stations_csv(text: str) -> list[StationRecord]:
    """Parse ``station_id,lat,lon,order`` CSV text (header required)."""
    records = []
    for lineno, (sid, lat, lon, order) in _read_csv(
        text, ("station_id", "lat", "lon", "order")
    ):
        try:
            records.append(StationRecord(sid, float(lat), float(lon), int(order)))
        except ValueError:
            raise ParseError(f"malformed station row {sid!r}", lineno) from None
        except DomainError as exc:
            raise ParseError(str(exc), lineno) from None
    return records


def read_observations_csv(text: str) -> list[ObservationRecord]:
    """Parse ``station_id,z1,z2`` CSV text (header required)."""
    records = []
    for lineno, (sid, z1, z2) in _read_csv(text, ("station_id", "z1", "z2")):
        try:
            records.append(ObservationRecord(sid, float(z1), float(z2)))
        except ValueError:
            raise ParseError(f"malformed observation row {sid!r}", lineno) from None
        except DomainError as exc:
            raise ParseError(str(exc), lineno) from None
    return records


def align_observations(
    stations: Sequence[StationRecord], observations: Sequence[ObservationRecord]
) -> tuple[np.ndarray, np.ndarray]:
    """Order observations by station rank; ids must match one-to-one."""
    for kind, records in (("station", stations), ("observation station", observations)):
        dupes = _duplicate_ids(records)
        if dupes:
            raise DomainError(f"duplicate {kind} ids: {dupes}")
    by_id = {o.station_id: o for o in observations}
    missing = [s.station_id for s in stations if s.station_id not in by_id]
    extra = sorted(set(by_id) - {s.station_id for s in stations})
    if missing or extra:
        raise DomainError(
            f"observations do not match stations (missing {missing}, extra {extra})"
        )
    z1 = np.array([by_id[s.station_id].z1 for s in stations])
    z2 = np.array([by_id[s.station_id].z2 for s in stations])
    return z1, z2
