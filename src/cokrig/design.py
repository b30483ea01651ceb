"""Sampling designs on a one-dimensional transect.

A design is an ordered set of distinct sites ``x_1 < x_2 < ... < x_n``
on an interval, stored here as the interval endpoints plus the vector of
consecutive gaps ``d_i = x_{i+1} - x_i``.  Criterion formulas and the
design optimizer all work on the gap vector, so the gap representation
is primary and the site coordinates are derived.  Both are read-only
float arrays, validated and built once when the design is made.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError

# Raw gap sums within this relative slack of the interval length are
# silently renormalized; anything farther off is rejected as data error.
GAP_SUM_RTOL = 1e-6

# After renormalization the gap sum must match the interval length to
# this accumulation tolerance.
GAP_SUM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class Design:
    """Immutable sampling design given by interval endpoints and gaps.

    Parameters
    ----------
    x_start, x_end : float
        Interval endpoints, ``x_start < x_end``.  They are themselves
        the first and last site.
    gaps : sequence of float
        Positive consecutive gaps.  Their sum must equal
        ``x_end - x_start`` up to a relative slack of ``GAP_SUM_RTOL``;
        the stored gaps are rescaled so the sum matches exactly.

    Notes
    -----
    ``gaps`` and ``points`` are read-only float arrays, built once from
    a copy of the input; designs compare by identity.
    ``Design.single`` builds the degenerate one-site design (no gaps),
    which only the plain covariance-matrix routines accept.
    """

    x_start: float
    x_end: float
    gaps: np.ndarray
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x0, x1 = float(self.x_start), float(self.x_end)
        if not (np.isfinite(x0) and np.isfinite(x1)):
            raise DomainError("design endpoints must be finite")
        arr = np.array(self.gaps, dtype=float)
        if arr.ndim != 1:
            raise DomainError("gaps must be a one-dimensional sequence")
        pts = np.full(arr.size + 1, x0)
        if arr.size:
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
            np.cumsum(arr, out=pts[1:])
            pts[1:] += x0
            pts[-1] = x1
        elif x0 != x1:
            raise DomainError("a design with no gaps must have x_start == x_end")
        arr.flags.writeable = pts.flags.writeable = False
        for name, value in (("x_start", x0), ("x_end", x1), ("gaps", arr), ("points", pts)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_points(cls, points) -> "Design":
        """Build a design from an increasing sequence of site coordinates."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise DomainError("need at least two sites in one dimension")
        diffs = np.diff(pts)
        if np.any(diffs <= 0):
            raise DomainError("site coordinates must be strictly increasing")
        return cls(float(pts[0]), float(pts[-1]), diffs)

    @classmethod
    def single(cls, x: float = 0.0) -> "Design":
        """Degenerate one-site design; only covariance matrices accept it."""
        return cls(float(x), float(x), ())

    @property
    def n(self) -> int:
        """Number of sites."""
        return self.points.size

    @property
    def length(self) -> float:
        return self.x_end - self.x_start

    def is_unit_interval(self, tol: float = 1e-12) -> bool:
        """True when the design lives on [0, 1] up to ``tol``."""
        return abs(self.x_start) <= tol and abs(self.x_end - 1.0) <= tol

    def gap_array(self) -> np.ndarray:
        """The stored ``gaps`` array itself."""
        return self.gaps


def equispaced(n: int, x_start: float = 0.0, x_end: float = 1.0) -> Design:
    """Design with ``n`` equally spaced sites spanning the interval."""
    if n < 2:
        raise DomainError(f"an equispaced design needs n >= 2, got {n}")
    gap = (float(x_end) - float(x_start)) / (n - 1)
    return Design(x_start, x_end, np.full(n - 1, gap))


def rescale(design: Design, theta: float) -> tuple[Design, float]:
    """Map a design to [0, 1] and scale the decay rate to compensate.

    The exponential correlation depends on ``theta * |x - y|`` only, so
    shrinking the interval by its length while multiplying ``theta`` by
    the same factor leaves every covariance quantity unchanged.  Returns
    the unit-interval design and the adjusted rate.
    """
    if design.n < 2:
        raise DomainError("cannot rescale a single-site design")
    if not (np.isfinite(theta) and theta > 0):
        raise DomainError(f"decay rate must be finite and positive, got {theta}")
    length = design.length
    unit = Design(0.0, 1.0, design.gaps / length)
    return unit, theta * length


def majorization_perturb(design: Design, from_idx: int, to_idx: int, eps: float) -> Design:
    """Move gap mass from a smaller gap onto a larger one.

    Subtracts ``eps`` from ``gaps[from_idx]`` and adds it to
    ``gaps[to_idx]``.  Requires ``gaps[to_idx] >= gaps[from_idx]`` and
    ``0 < eps < gaps[from_idx]``, so the new gap vector majorizes the
    old one: the design becomes more uneven while the total length and
    the number of sites stay fixed.  Every design criterion in this
    package is Schur-convex, hence never decreases under this move.
    """
    gaps = design.gaps.copy()
    k = gaps.size
    if not (0 <= from_idx < k and 0 <= to_idx < k):
        raise DomainError(f"gap indices must lie in [0, {k - 1}]")
    if from_idx == to_idx:
        raise DomainError("perturbation needs two distinct gaps")
    if gaps[to_idx] < gaps[from_idx]:
        raise DomainError("mass must move toward the larger gap")
    if not (0 < eps < gaps[from_idx]):
        raise DomainError(f"eps must lie strictly inside (0, {gaps[from_idx]})")
    gaps[from_idx] -= eps
    gaps[to_idx] += eps
    return Design(design.x_start, design.x_end, gaps)
