"""Sampling designs on a one-dimensional transect.

A design is two or more distinct sites ``x_1 < x_2 < ... < x_n`` on
an interval, stored here as the interval endpoints plus the vector of
consecutive gaps ``d_i = x_{i+1} - x_i``.  Criterion formulas and the
design optimizer all work on the gap vector, so the gap representation
is primary and the site coordinates are derived.  Both are read-only
float arrays, validated and built once when the design is made.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError

# Raw gap sums within this relative slack of the interval length are
# silently renormalized; anything farther off is rejected as data error.
GAP_SUM_RTOL = 1e-6

# After renormalization the gap sum must match the interval length to
# this accumulation tolerance.
GAP_SUM_ATOL = 1e-12

# Endpoints within this of 0 and 1 make a design one on the unit interval.
UNIT_INTERVAL_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class Design:
    """Immutable sampling design given by interval endpoints and gaps.

    Parameters
    ----------
    x_start, x_end : float
        Interval endpoints, ``x_start < x_end``.  They are themselves
        the first and last site.
    gaps : sequence of float
        Positive consecutive gaps, at least one.  Their sum must equal
        ``x_end - x_start`` up to a relative slack of ``GAP_SUM_RTOL``;
        the stored gaps are rescaled so the sum matches exactly.

    Notes
    -----
    ``gaps`` and ``points`` are read-only float arrays, built once from
    a copy of the input; designs compare by identity.
    """

    x_start: float
    x_end: float
    gaps: np.ndarray
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x0, x1 = _finite(self.x_start, "x_start"), _finite(self.x_end, "x_end")
        # NumPy's float conversion, which also reads numeric strings: telling
        # them apart would cost a type scan of every gap
        try:
            arr = np.array(self.gaps, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"gaps must be real numbers: {exc}") from None
        if arr.ndim != 1:
            raise DomainError("gaps must be a one-dimensional sequence")
        if not arr.size:
            raise DomainError("a design needs at least two sites")
        if not x0 < x1:
            raise DomainError(f"need x_start < x_end, got [{x0}, {x1}]")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise DomainError("gaps must be finite and strictly positive")
        length = x1 - x0
        total = float(arr.sum())
        if abs(total - length) > GAP_SUM_RTOL * max(1.0, length):
            raise DomainError(
                f"gaps sum to {total!r}, interval length is {length!r}; "
                "renormalize or fix the input"
            )
        arr *= length / total
        if abs(float(arr.sum()) - length) > GAP_SUM_ATOL * max(1.0, length):
            raise DomainError("gap renormalization failed to reach tolerance")
        pts = np.full(arr.size + 1, x0)
        np.cumsum(arr, out=pts[1:])
        pts[1:] += x0
        pts[-1] = x1
        arr.flags.writeable = pts.flags.writeable = False
        for name, value in (("x_start", x0), ("x_end", x1), ("gaps", arr), ("points", pts)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        """Number of sites."""
        return self.points.size

    @property
    def length(self) -> float:
        return self.x_end - self.x_start

    def is_unit_interval(self) -> bool:
        """True when the design lives on [0, 1] up to ``UNIT_INTERVAL_ATOL``."""
        return (abs(self.x_start) <= UNIT_INTERVAL_ATOL
                and abs(self.x_end - 1.0) <= UNIT_INTERVAL_ATOL)

    def gap_array(self) -> np.ndarray:
        """The stored ``gaps`` array itself."""
        return self.gaps


def _real(value, name: str) -> float:
    """``float(value)`` for a real number, NumPy's included; a string, a
    bool or anything else is a ``DomainError``."""
    arr = np.asarray(value)
    # NumPy's kinds of real numbers: signed and unsigned integers, floats
    if arr.ndim or arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(arr)


def _finite(value, name: str) -> float:
    """``_real(value, name)`` if it is finite."""
    value = _real(value, name)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _positive(value, name: str) -> float:
    """``_real(value, name)`` if it is finite and positive: a variance, a rate."""
    value = _real(value, name)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return value


def _fraction(value, name: str) -> float:
    """``_real(value, name)`` if it lies strictly inside (0, 1): a decay base."""
    value = _real(value, name)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {value}")
    return value


def _check_fields(obj, check, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as ``check`` of itself."""
    for name in names:
        object.__setattr__(obj, name, check(getattr(obj, name), name))


def _count(value, name: str, least: float) -> int:
    """``operator.index(value)``, which NumPy integers pass and bools do not,
    if at least ``least``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def equispaced(n: int, x_start: float = 0.0, x_end: float = 1.0) -> Design:
    """Design with ``n`` equally spaced sites spanning the interval."""
    n = _count(n, "n", 2)
    gap = (_real(x_end, "x_end") - _real(x_start, "x_start")) / (n - 1)
    return Design(x_start, x_end, np.full(n - 1, gap))


def rescale(design: Design, theta: float) -> tuple[Design, float]:
    """Map a design to [0, 1] and scale the decay rate to compensate.

    The exponential correlation depends on ``theta * |x - y|`` only, so
    shrinking the interval by its length while multiplying ``theta`` by
    the same factor leaves every covariance quantity unchanged.  Returns
    the unit-interval design and the adjusted rate.
    """
    theta = _positive(theta, "theta")
    length = design.length
    unit = Design(0.0, 1.0, design.gaps / length)
    return unit, theta * length
