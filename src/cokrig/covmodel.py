"""Bivariate covariance models for a pair of collocated processes.

The package predicts the primary process ``Z1`` using both its own
observations and those of a secondary process ``Z2`` recorded at the
same sites.  A model here supplies the three stationary covariance
functions ``C11``, ``C12``, ``C22`` of distance.  Eight families are
implemented:

========================  ====================================================
``GeneralizedMarkov``     ``C12`` proportional to ``C11``; ``C22`` adds an
                          independent residual on top of the shared component.
``Proportional``          a single correlogram scaled by a 2x2 coefficient
                          matrix (intrinsic coregionalization).
``NS1``                   exponential direct covariances; ``C22`` mixes two
                          decay ranges.  Representable as GeneralizedMarkov.
``Mat05/Mat15/MatInf``    proportional models with exponential, once-
                          differentiable and Gaussian-shaped correlograms.
``NS2``                   exponential direct covariances with a *slower*
                          decaying cross term; genuinely non-reducible.
``NS3``                   different smoothness for each process (exponential
                          vs. twice-differentiable); non-reducible.
========================  ====================================================

For every family with ``C12 = c * C11`` the secondary observations add
nothing to the best linear predictor of ``Z1``; ``reduction_applies``
reports that constant so callers can drop to plain kriging.

Model constructors check only that parameters are evaluable (finite,
positive variances, decay bases inside (0, 1)).  Whether the *joint*
model is a valid covariance is the job of :func:`validate`, which
returns a report instead of raising so that boundary cases can be
constructed and inspected deliberately.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .design import Design
from .exceptions import DomainError, ParseError, ValidationError

__all__ = [
    "Correlogram",
    "ExponentialCorrelogram",
    "SquaredExponentialCorrelogram",
    "Matern15Correlogram",
    "NuggetCorrelogram",
    "ValidityReport",
    "BivariateCovariance",
    "GeneralizedMarkov",
    "Proportional",
    "NS1",
    "Mat05",
    "Mat15",
    "MatInf",
    "NS2",
    "NS3",
    "build_joint_covariance",
    "build_cross_vector",
    "validate",
    "reduction_applies",
    "parse_config",
    "format_config",
]

# Cross-correlation bound for NS3, from comparing the spectral densities
# of the three half-integer-smoothness correlograms involved: the ratio
# s12(u)^2 / (s11(u) s22(u)) is constant in frequency and equals
# 3/2 * lamc^2, so the joint model is valid iff lamc^2 <= 2/3.
NS3_CROSS_BOUND = math.sqrt(2.0 / 3.0)


# --------------------------------------------------------------------------
# correlograms (unit-variance correlation functions of distance)
# --------------------------------------------------------------------------

def _as_distance(h) -> np.ndarray:
    return np.abs(np.asarray(h, dtype=float))


class Correlogram:
    """Correlation function of distance; subclasses define ``value``."""

    kind = "abstract"

    def value(self, h):
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialCorrelogram(Correlogram):
    """``exp(-rate * h)``, the rough Markovian correlogram."""

    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise DomainError(f"decay rate must be finite and positive, got {self.rate}")

    @classmethod
    def from_base(cls, base: float) -> "ExponentialCorrelogram":
        """Same correlogram parametrized as ``base ** h`` with base in (0, 1)."""
        if not (np.isfinite(base) and 0.0 < base < 1.0):
            raise DomainError(f"base must lie in (0, 1), got {base}")
        return cls(-math.log(base))

    @property
    def base(self) -> float:
        return math.exp(-self.rate)

    def value(self, h):
        return np.exp(-self.rate * _as_distance(h))


@dataclass(frozen=True)
class _BaseCorrelogram(Correlogram):
    """A correlogram given by its decay ``base`` in (0, 1); ``rate = -log(base)``."""

    base: float

    def __post_init__(self):
        if not (np.isfinite(self.base) and 0.0 < self.base < 1.0):
            raise DomainError(f"base must lie in (0, 1), got {self.base}")

    @property
    def rate(self) -> float:
        return -math.log(self.base)


@dataclass(frozen=True)
class SquaredExponentialCorrelogram(_BaseCorrelogram):
    """``base ** (h^2)``: infinitely smooth, Gaussian-shaped."""

    kind = "squared-exponential"

    def value(self, h):
        hh = _as_distance(h)
        return np.exp(-self.rate * hh * hh)


@dataclass(frozen=True)
class Matern15Correlogram(_BaseCorrelogram):
    """``(1 + rate * h) * exp(-rate * h)``: once mean-square differentiable,
    between the exponential and the squared-exponential in smoothness."""

    kind = "matern15"

    def value(self, h):
        hh = _as_distance(h)
        return (1.0 + self.rate * hh) * np.exp(-self.rate * hh)


@dataclass(frozen=True)
class NuggetCorrelogram(Correlogram):
    """1 at distance zero, 0 elsewhere (white-noise residual)."""

    kind = "nugget"

    def value(self, h):
        return np.where(_as_distance(h) == 0.0, 1.0, 0.0)


# --------------------------------------------------------------------------
# validity reporting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    """Outcome of a family validity check.

    ``violations`` are conditions under which the joint model is not a
    valid covariance; ``warnings`` flag legal but delicate choices
    (white-noise residuals, nonstandard parameter pairings).
    """

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------------
# families
# --------------------------------------------------------------------------

class BivariateCovariance:
    """Base class; subclasses provide ``cov12`` and ``cov22`` plus
    ``sigma11`` and ``c11``, the primary's variance and correlogram."""

    family = "abstract"

    def cov11(self, h):
        return self.sigma11 * self.c11.value(h)

    def cov12(self, h):
        raise NotImplementedError

    def cov22(self, h):
        raise NotImplementedError

    def validity(self) -> "ValidityReport":
        raise NotImplementedError

    def reduction_constant(self) -> float | None:
        """Constant ``c`` with ``C12 = c * C11``, or None if there is none."""
        return None


@dataclass(frozen=True)
class GeneralizedMarkov(BivariateCovariance):
    """Shared-component model: ``Z2`` regresses on ``Z1`` plus residual.

    ``C11 = sigma11 * c11(h)``, ``C12 = rho * C11`` and
    ``C22 = rho^2 * C11 + (sigma22 - rho^2 * sigma11) * c_r(h)``.
    Valid whenever the residual variance ``sigma22 - rho^2 * sigma11``
    is positive; ``c11`` and ``c_r`` may be any correlograms.

    Since ``C12`` is proportional to ``C11``, secondary data never
    improve the primary predictor in this family.
    """

    sigma11: float
    sigma22: float
    rho: float
    c11: Correlogram
    c_r: Correlogram

    family = "generalized-markov"

    def __post_init__(self):
        for name in ("sigma11", "sigma22", "rho"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.sigma11 <= 0 or self.sigma22 <= 0:
            raise DomainError("variances must be positive")

    @property
    def residual_margin(self) -> float:
        return self.sigma22 - self.rho**2 * self.sigma11

    def cov12(self, h):
        return self.rho * self.sigma11 * self.c11.value(h)

    def cov22(self, h):
        shared = self.rho**2 * self.sigma11 * self.c11.value(h)
        return shared + self.residual_margin * self.c_r.value(h)

    def validity(self) -> ValidityReport:
        violations: list[str] = []
        warnings: list[str] = []
        if self.residual_margin <= 0:
            violations.append(
                f"residual variance sigma22 - rho^2*sigma11 = "
                f"{self.residual_margin} must be positive"
            )
        if self.c_r.kind == "nugget":
            warnings.append(
                "residual correlogram is a nugget: the secondary residual is "
                "white noise, fine on a finite design but not a continuous field"
            )
        return ValidityReport(tuple(violations), tuple(warnings))

    def reduction_constant(self) -> float | None:
        return self.rho


@dataclass(frozen=True)
class Proportional(BivariateCovariance):
    """One correlogram, all three covariances scaled from it.

    ``Cij = sigma_ij * base(h)``.  Valid iff the coefficient matrix
    ``[[sigma11, sigma12], [sigma12, sigma22]]`` is positive definite.
    """

    sigma11: float
    sigma12: float
    sigma22: float
    base: Correlogram

    family = "proportional"

    def __post_init__(self):
        for name in ("sigma11", "sigma12", "sigma22"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.sigma11 <= 0 or self.sigma22 <= 0:
            raise DomainError("variances must be positive")

    @property
    def c11(self) -> Correlogram:
        return self.base

    def cov12(self, h):
        return self.sigma12 * self.base.value(h)

    def cov22(self, h):
        return self.sigma22 * self.base.value(h)

    def validity(self) -> ValidityReport:
        violations: list[str] = []
        det = self.sigma11 * self.sigma22 - self.sigma12**2
        if det <= 0:
            violations.append(
                f"coefficient matrix determinant {det} must be positive"
            )
        return ValidityReport(tuple(violations))

    def reduction_constant(self) -> float | None:
        return self.sigma12 / self.sigma11


@dataclass(frozen=True)
class _LambdaFamily(BivariateCovariance):
    """The fixed-correlogram families on ``(sigma11, sigma22, lam, lamc)``.

    ``lam`` is the primary's decay base (``C11 = sigma11 * lam^h`` unless
    a family overrides ``c11``) and ``lamc`` the cross coefficient, which
    every such family needs inside (-1, 1).
    """

    sigma11: float
    sigma22: float
    lam: float
    lamc: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma11) and self.sigma11 > 0
                and np.isfinite(self.sigma22) and self.sigma22 > 0):
            raise DomainError("variances must be positive and finite")
        if not (np.isfinite(self.lam) and 0.0 < self.lam < 1.0):
            raise DomainError(f"decay base must lie in (0, 1), got {self.lam}")
        if not np.isfinite(self.lamc):
            raise DomainError("cross coefficient must be finite")

    @property
    def c11(self) -> Correlogram:
        return ExponentialCorrelogram.from_base(self.lam)

    def _violations(self) -> list[str]:
        if abs(self.lamc) < 1.0:
            return []
        return [f"cross coefficient must lie in (-1, 1), got {self.lamc}"]

    def validity(self) -> ValidityReport:
        return ValidityReport(tuple(self._violations()))


@dataclass(frozen=True)
class NS1(_LambdaFamily):
    """Two-range secondary process over a shared exponential component.

    ``C11 = sigma11 * lam^h``, ``C12 = sqrt(sigma11 sigma22) * lamc * lam^h``
    and ``C22 = sigma22 * (lamc^2 * lam^h + (1 - lamc^2) * lam^{2h})``.
    The cross covariance is proportional to ``C11``, so this is a
    GeneralizedMarkov model in disguise with ``rho = lamc *
    sqrt(sigma22/sigma11)`` and an exponential residual of base
    ``lam^2``.
    """

    family = "ns1"

    def cov12(self, h):
        hh = _as_distance(h)
        return math.sqrt(self.sigma11 * self.sigma22) * self.lamc * self.lam**hh

    def cov22(self, h):
        hh = _as_distance(h)
        lc2 = self.lamc**2
        return self.sigma22 * (lc2 * self.lam**hh + (1.0 - lc2) * self.lam ** (2.0 * hh))

    def reduction_constant(self) -> float | None:
        return self.lamc * math.sqrt(self.sigma22 / self.sigma11)


@dataclass(frozen=True)
class _ProportionalPair(_LambdaFamily):
    """Shared plumbing for the proportional fixed-correlogram families."""

    @property
    def sigma12(self) -> float:
        return math.sqrt(self.sigma11 * self.sigma22) * self.lamc

    def cov12(self, h):
        return self.sigma12 * self.c11.value(h)

    def cov22(self, h):
        return self.sigma22 * self.c11.value(h)

    def reduction_constant(self) -> float | None:
        return self.sigma12 / self.sigma11


@dataclass(frozen=True)
class Mat05(_ProportionalPair):
    """Proportional model on the exponential correlogram ``lam^h``."""

    family = "mat05"


@dataclass(frozen=True)
class Mat15(_ProportionalPair):
    """Proportional model on the once-differentiable correlogram
    ``(1 - h log(lam)) * lam^h``."""

    family = "mat15"

    @property
    def c11(self) -> Correlogram:
        return Matern15Correlogram(self.lam)


@dataclass(frozen=True)
class MatInf(_ProportionalPair):
    """Proportional model on the Gaussian-shaped correlogram ``lam^{h^2}``."""

    family = "matinf"

    @property
    def c11(self) -> Correlogram:
        return SquaredExponentialCorrelogram(self.lam)


# Published pairings of cross coefficient and cross decay exponent for
# the slow-cross family; other combinations need an explicit exponent.
NS2_STANDARD_PAIRS = ((0.2, 0.5), (0.5, 0.75), (0.8, 0.9))


def _ns2_standard_alpha(lamc: float) -> float | None:
    for lc, alpha in NS2_STANDARD_PAIRS:
        if abs(lamc - lc) <= 1e-9:
            return alpha
    return None


@dataclass(frozen=True)
class NS2(_LambdaFamily):
    """Exponential margins with a slower-decaying cross covariance.

    ``C11 = sigma11 * lam^h``, ``C22 = sigma22 * lam^h`` and
    ``C12 = sqrt(sigma11 sigma22) * lamc * lam^{alpha h}`` with
    ``0 < alpha < 1``.  The cross term is *not* proportional to
    ``C11``, so secondary observations genuinely improve primary
    prediction.

    ``alpha`` may be omitted for the published coefficient values
    (0.2, 0.5, 0.8), which map to exponents (0.5, 0.75, 0.9).  In
    frequency space the validity requirement is ``|lamc| <= alpha``;
    every published pairing satisfies it.
    """

    alpha: float | None = None

    family = "ns2"

    def __post_init__(self):
        super().__post_init__()
        alpha = self.alpha
        if alpha is None:
            alpha = _ns2_standard_alpha(self.lamc)
            if alpha is None:
                raise DomainError(
                    f"no standard cross exponent for lamc = {self.lamc}; "
                    "pass alpha explicitly"
                )
            object.__setattr__(self, "alpha", alpha)
        elif not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
            raise DomainError(f"cross exponent must lie in (0, 1), got {alpha}")

    def cov12(self, h):
        hh = _as_distance(h)
        root = math.sqrt(self.sigma11 * self.sigma22)
        return root * self.lamc * self.lam ** (self.alpha * hh)

    def cov22(self, h):
        hh = _as_distance(h)
        return self.sigma22 * self.lam**hh

    def _violations(self) -> list[str]:
        violations = super()._violations()
        if abs(self.lamc) > self.alpha * (1.0 + 1e-12):
            violations.append(
                f"|lamc| = {abs(self.lamc)} exceeds the cross exponent "
                f"{self.alpha}: the cross covariance outlives the direct "
                "ones and the joint model is indefinite"
            )
        return violations

    def validity(self) -> ValidityReport:
        warnings: tuple[str, ...] = ()
        std = _ns2_standard_alpha(self.lamc)
        if std is None or abs(std - self.alpha) > 1e-9:
            warnings = (
                f"nonstandard pairing (lamc={self.lamc}, alpha={self.alpha}); "
                "published models use " + repr(NS2_STANDARD_PAIRS),
            )
        return ValidityReport(tuple(self._violations()), warnings)


@dataclass(frozen=True)
class NS3(_LambdaFamily):
    """Rough primary, smooth secondary; intermediate cross smoothness.

    With ``r = -log(lam)``: ``C11 = sigma11 * exp(-r h)``,
    ``C22 = sigma22 * (1 + r h + (r h)^2 / 3) * exp(-r h)`` and
    ``C12 = sqrt(sigma11 sigma22) * lamc * (1 + r h) * exp(-r h)``.
    No proportionality, so secondary observations carry information.
    Valid iff ``|lamc| <= sqrt(2/3)`` (see ``NS3_CROSS_BOUND``).
    """

    family = "ns3"

    @property
    def rate(self) -> float:
        return -math.log(self.lam)

    def cov12(self, h):
        hh = _as_distance(h)
        root = math.sqrt(self.sigma11 * self.sigma22)
        return root * self.lamc * (1.0 + self.rate * hh) * np.exp(-self.rate * hh)

    def cov22(self, h):
        hh = _as_distance(h)
        rh = self.rate * hh
        return self.sigma22 * (1.0 + rh + rh**2 / 3.0) * np.exp(-rh)

    def _violations(self) -> list[str]:
        violations = super()._violations()
        if abs(self.lamc) > NS3_CROSS_BOUND * (1.0 + 1e-12):
            violations.append(
                f"|lamc| = {abs(self.lamc)} exceeds {NS3_CROSS_BOUND:.6f}, the "
                "spectral bound for this smoothness combination"
            )
        return violations


# --------------------------------------------------------------------------
# module-level operations
# --------------------------------------------------------------------------

def build_joint_covariance(model: BivariateCovariance, design: Design) -> np.ndarray:
    """Dense ``2n x 2n`` covariance of the stacked vector ``(Z1, Z2)``.

    Ordering is all primary observations first, then all secondary
    ones, matching the layout used by the cokriging solvers.  The
    lower-left block is the upper-right one transposed, so the matrix is
    exactly symmetric (``predict._blup`` factors its transpose in place).
    """
    pts, n = design.points, design.n
    h = np.subtract.outer(pts, pts)
    np.abs(h, out=h)
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = model.cov11(h)
    out[:n, n:] = model.cov12(h)
    out[n:, :n] = out[:n, n:].T
    out[n:, n:] = model.cov22(h)
    return out


def build_cross_vector(
    model: BivariateCovariance, design: Design, x0: float
) -> tuple[np.ndarray, float]:
    """Covariances between ``Z1(x0)`` and the stacked observations.

    Returns the length-``2n`` vector ``(C11(|x - x0|), C12(|x - x0|))``
    together with the target variance ``C11(0)``.
    """
    h0 = np.abs(design.points - float(x0))
    vec = np.concatenate([
        np.asarray(model.cov11(h0), dtype=float),
        np.asarray(model.cov12(h0), dtype=float),
    ])
    return vec, float(model.cov11(0.0))


def validate(model: BivariateCovariance) -> ValidityReport:
    """Full validity check for the family; see :class:`ValidityReport`."""
    return model.validity()


def _require_valid(model: BivariateCovariance) -> None:
    """Raise ``ValidationError`` naming every violation of the family's rules."""
    violations = model.validity().violations
    if violations:
        raise ValidationError(f"invalid {model.family} model: " + "; ".join(violations))


def reduction_applies(model: BivariateCovariance) -> tuple[bool, float | None]:
    """Whether ``C12 = c * C11`` for some constant, and that constant.

    When true, cokriging the primary process collapses to plain kriging
    on the primary data alone: the candidate solution with zero weight
    on the secondary block already satisfies the cokriging equations.
    """
    c = model.reduction_constant()
    return (c is not None), c


# --------------------------------------------------------------------------
# key = value config serialization
# --------------------------------------------------------------------------

_CORR_KINDS = ("exponential", "squared-exponential", "matern15", "nugget")


def _build_correlogram(prefix: str, kind: str, params: dict[str, float], lineno):
    if kind == "nugget":
        if params:
            raise ParseError(f"{prefix}: nugget takes no parameters", lineno)
        return NuggetCorrelogram()
    if kind == "exponential":
        if set(params) == {"theta"}:
            return ExponentialCorrelogram(params["theta"])
        if set(params) == {"lambda"}:
            return ExponentialCorrelogram.from_base(params["lambda"])
        raise ParseError(
            f"{prefix}: exponential needs exactly one of "
            f"'{prefix}.theta' or '{prefix}.lambda'", lineno)
    if kind == "squared-exponential":
        if set(params) == {"lambda"}:
            return SquaredExponentialCorrelogram(params["lambda"])
        raise ParseError(f"{prefix}: squared-exponential needs '{prefix}.lambda'", lineno)
    if kind == "matern15":
        if set(params) == {"lambda"}:
            return Matern15Correlogram(params["lambda"])
        raise ParseError(f"{prefix}: matern15 needs '{prefix}.lambda'", lineno)
    raise ParseError(f"{prefix}: unknown correlogram kind '{kind}', "
                     f"expected one of {_CORR_KINDS}", lineno)


def _format_correlogram(prefix: str, corr: Correlogram) -> list[str]:
    if isinstance(corr, NuggetCorrelogram):
        return [f"{prefix}.kind = nugget"]
    if isinstance(corr, ExponentialCorrelogram):
        return [f"{prefix}.kind = exponential", f"{prefix}.theta = {corr.rate!r}"]
    if isinstance(corr, SquaredExponentialCorrelogram):
        return [f"{prefix}.kind = squared-exponential", f"{prefix}.lambda = {corr.base!r}"]
    if isinstance(corr, Matern15Correlogram):
        return [f"{prefix}.kind = matern15", f"{prefix}.lambda = {corr.base!r}"]
    raise DomainError(f"cannot serialize correlogram {corr!r}")


class _Entries:
    """Parsed key/value lines with line numbers, consumed key by key."""

    def __init__(self, text: str):
        self.data: dict[str, tuple[int, str]] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if not sep or not key or not value:
                raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
            if key in self.data:
                raise ParseError(f"duplicate key '{key}'", lineno)
            self.data[key] = (lineno, value)

    def take(self, key: str) -> str:
        if key not in self.data:
            raise ParseError(f"missing required key '{key}'")
        return self.data.pop(key)[1]

    def take_float(self, key: str) -> float:
        if key not in self.data:
            raise ParseError(f"missing required key '{key}'")
        lineno, value = self.data.pop(key)
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"'{key}' must be a number, got {value!r}", lineno) from None

    def take_optional_float(self, key: str) -> float | None:
        if key not in self.data:
            return None
        return self.take_float(key)

    def take_correlogram(self, prefix: str):
        kind_key = f"{prefix}.kind"
        lineno = self.data.get(kind_key, (None,))[0]
        kind = self.take(kind_key)
        params = {}
        for pname in ("theta", "lambda"):
            v = self.take_optional_float(f"{prefix}.{pname}")
            if v is not None:
                params[pname] = v
        return _build_correlogram(prefix, kind, params, lineno)

    def finish(self):
        if self.data:
            lineno = min(ln for ln, _ in self.data.values())
            keys = ", ".join(sorted(self.data))
            raise ParseError(f"unknown key(s): {keys}", lineno)


# Every family, by the name its config's ``family`` key gives; a family's
# config keys are its dataclass fields, in order, with these renames.
_FAMILIES = {cls.family: cls for cls in (GeneralizedMarkov, Proportional, NS1, Mat05, Mat15,
                                         MatInf, NS2, NS3)}
_CONFIG_KEYS = {"lam": "lambda", "lamc": "lambdac", "c_r": "cr"}


def parse_config(text: str) -> BivariateCovariance:
    """Build a covariance model from ``key = value`` config text.

    The grammar is one ``key = value`` pair per line with ``#``
    comments.  After ``family``, a family's keys are its fields in
    order, with ``lam``, ``lamc`` and ``c_r`` spelled ``lambda``,
    ``lambdac`` and ``cr``; a correlogram field ``f`` takes ``f.kind``
    and its parameters, and a field that defaults to None may be
    omitted.  The command-line module lists the keys per family.
    Unknown or missing keys raise :class:`ParseError` with the offending
    line number.
    """
    entries = _Entries(text)
    family = entries.take("family").lower()
    if family not in _FAMILIES:
        raise ParseError(f"unknown family '{family}'")
    cls = _FAMILIES[family]
    try:
        values = []
        for f in fields(cls):
            key = _CONFIG_KEYS.get(f.name, f.name)
            if f.type is Correlogram:
                values.append(entries.take_correlogram(key))
            elif f.default is None:
                values.append(entries.take_optional_float(key))
            else:
                values.append(entries.take_float(key))
        model = cls(*values)
    except DomainError as exc:
        raise ParseError(f"invalid parameters for family '{family}': {exc}") from exc
    entries.finish()
    return model


def format_config(model: BivariateCovariance) -> str:
    """Serialize a model to the config text accepted by ``parse_config``."""
    if model.family not in _FAMILIES:
        raise DomainError(f"cannot serialize model {model!r}")
    lines = [f"family = {model.family}"]
    for f in fields(_FAMILIES[model.family]):
        key, value = _CONFIG_KEYS.get(f.name, f.name), getattr(model, f.name)
        if f.type is Correlogram:
            lines += _format_correlogram(key, value)
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"
