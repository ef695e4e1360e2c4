"""Interval arithmetic with outward rounding.

This is the trust kernel: every certified inequality in :mod:`e8magic.certify`
is evaluated with the :class:`Interval` type defined here.  The containment
contract is

    for all x in X and y in Y:  x op y  lies in  X op Y.

Directed rounding is implemented without touching the hardware rounding mode:
each endpoint is computed in round-to-nearest, compared exactly against the
true rational result (floats embed exactly into ``Fraction``), and nudged one
representable step outward when the rounded value landed on the wrong side.
Since round-to-nearest is within half an ulp of the exact value, a single
``math.nextafter`` step always restores containment.

``exp`` is the only transcendental provided.  ``math.exp`` on current
platforms is accurate to well under 1 ulp; we nudge the endpoints two steps
outward, which absorbs any sub-ulp libm error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Interval",
    "ia_exp_poly",
    "enclose_fraction",
    "sqrt_interval",
    "PI",
    "PI_SQ",
    "INV_PI",
    "INV_PI_SQ",
    "TWO_SQRT2_PI",
]

_INF = math.inf


def _down(approx: float, exact: Fraction) -> float:
    """Largest float <= exact, given approx = round-to-nearest(exact)."""
    if approx == -_INF:
        return approx
    if approx == _INF or Fraction(approx) > exact:
        return math.nextafter(approx, -_INF)
    return approx


def _up(approx: float, exact: Fraction) -> float:
    """Smallest float >= exact, given approx = round-to-nearest(exact)."""
    if approx == _INF:
        return approx
    if approx == -_INF or Fraction(approx) < exact:
        return math.nextafter(approx, _INF)
    return approx


def _float_down(exact: Fraction) -> float:
    return _down(float(exact), exact)


def _float_up(exact: Fraction) -> float:
    return _up(float(exact), exact)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of real numbers with float endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(float(x), float(x))

    @staticmethod
    def from_rational(value: Fraction | int) -> "Interval":
        return enclose_fraction(Fraction(value))

    # -- queries -------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float | Fraction) -> bool:
        return Fraction(self.lo) <= Fraction(x) <= Fraction(self.hi)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def mag(self) -> float:
        """sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """inf |x| over the interval."""
        if self.contains_zero():
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        lo = _down(self.lo + other.lo, Fraction(self.lo) + Fraction(other.lo))
        hi = _up(self.hi + other.hi, Fraction(self.hi) + Fraction(other.hi))
        return Interval(lo, hi)

    def __radd__(self, other):
        return _coerce(other) + self

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        products = [
            Fraction(a) * Fraction(b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(_float_down(min(products)), _float_up(max(products)))

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError(
                f"interval division by [{other.lo}, {other.hi}] containing 0"
            )
        quotients = [
            Fraction(a) / Fraction(b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(_float_down(min(quotients)), _float_up(max(quotients)))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def powi(self, p: int) -> "Interval":
        """Integer power, exact case analysis for even p."""
        if p < 0:
            raise ValueError("negative powers unsupported; divide instead")
        if p == 0:
            return Interval(1.0, 1.0)
        values = [Fraction(self.lo) ** p, Fraction(self.hi) ** p]
        lo, hi = min(values), max(values)
        if p % 2 == 0 and self.contains_zero():
            lo = Fraction(0)
        return Interval(_float_down(lo), _float_up(hi))

    def exp(self) -> "Interval":
        return Interval(_exp_down(self.lo), _exp_up(self.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, int):
        return enclose_fraction(Fraction(x))
    if isinstance(x, float):
        return Interval(x, x)
    if isinstance(x, Fraction):
        return enclose_fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Interval")


def _exp_down(x: float) -> float:
    if x == -_INF:
        return 0.0
    try:
        v = math.exp(x)
    except OverflowError:
        return math.nextafter(_INF, 0.0)  # largest finite float <= exp(x)
    for _ in range(2):
        v = math.nextafter(v, -_INF)
    return max(v, 0.0)


def _exp_up(x: float) -> float:
    try:
        v = math.exp(x)
    except OverflowError:
        return _INF
    if v == 0.0:
        # exp underflowed, but exp(x) > 0: round up to the smallest subnormal
        return math.nextafter(0.0, _INF)
    for _ in range(2):
        v = math.nextafter(v, _INF)
    return v


def enclose_fraction(value: Fraction) -> Interval:
    """Tightest float interval containing an exact rational."""
    return Interval(_float_down(value), _float_up(value))


def sqrt_interval(x: Interval | Fraction | int | float) -> Interval:
    """Enclosure of the square root (operand must be >= 0)."""
    x = _coerce(x)
    if x.lo < 0:
        raise ValueError("sqrt of interval with negative lower endpoint")
    rlo = math.sqrt(x.lo)
    rhi = math.sqrt(x.hi)
    # sqrt is correctly rounded (IEEE 754), one step suffices
    if Fraction(rlo) ** 2 > Fraction(x.lo):
        rlo = math.nextafter(rlo, -_INF)
    if Fraction(rhi) ** 2 < Fraction(x.hi):
        rhi = math.nextafter(rhi, _INF)
    return Interval(max(rlo, 0.0), rhi)


def _exp_poly_monotone(c: Interval, p: int, sigma: Interval, lo: float, hi: float) -> Interval:
    """Enclose c * tau^p * exp(-sigma tau) over [lo, hi] assuming tau^p e^{-sigma tau}
    is monotone there for every sigma in the sigma interval."""
    vals = []
    for tau in (lo, hi):
        tpt = Interval.point(tau)
        vals.append(tpt.powi(p) * (-sigma * tpt).exp())
    core = vals[0].hull(vals[1])
    return c * core


def _exp_poly_boxed(c: Interval, p: int, sigma: Interval, lo: float, hi: float) -> Interval:
    t = Interval(lo, hi)
    return c * t.powi(p) * (-sigma * t).exp()


def ia_exp_poly(c: Interval, p: int, sigma: Interval, t: Interval) -> Interval:
    """Enclosure of {c * tau^p * exp(-sigma tau) : tau in t}, t.lo >= 0.

    For sign-definite sigma the factor tau^p e^{-sigma tau} is piecewise
    monotone with a single interior maximum at tau = p/sigma, so the interval
    is split there and each monotone piece is evaluated at its endpoints.
    """
    if p not in (0, 1, 2):
        raise ValueError("polynomial degree must be 0, 1 or 2")
    if t.lo < 0:
        raise ValueError("ia_exp_poly requires t.lo >= 0")
    if p == 0:
        return c * (-sigma * t).exp()
    if sigma.hi <= 0:
        # growing * growing: monotone increasing on t >= 0
        return _exp_poly_monotone(c, p, sigma, t.lo, t.hi)
    if sigma.lo <= 0:
        # sigma straddles zero: fall back to the boxed product
        return _exp_poly_boxed(c, p, sigma, t.lo, t.hi)
    # sigma > 0: increasing for tau < p/sigma.hi, decreasing for tau > p/sigma.lo
    crit = enclose_fraction(Fraction(p)) / sigma
    cuts = sorted({t.lo, t.hi, min(max(crit.lo, t.lo), t.hi), min(max(crit.hi, t.lo), t.hi)})
    result = None
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        if b <= crit.lo or a >= crit.hi:
            piece = _exp_poly_monotone(c, p, sigma, a, b)
        else:
            piece = _exp_poly_boxed(c, p, sigma, a, b)
        result = piece if result is None else result.hull(piece)
    if result is None:  # degenerate t
        result = _exp_poly_monotone(c, p, sigma, t.lo, t.lo)
    return result


def _pi_fraction() -> Fraction:
    # 36 significant digits, far beyond double precision
    return Fraction("3.14159265358979323846264338327950288")


def _enclose_irrational(approx_fr: Fraction) -> Interval:
    """Interval of width one ulp around a rational approximation whose error
    is far below half an ulp of a double."""
    lo = _float_down(approx_fr)
    hi = _float_up(approx_fr)
    if lo == hi:
        # approx landed exactly on a float; widen by one step each way since
        # the true value is irrational
        lo = math.nextafter(lo, -_INF)
        hi = math.nextafter(hi, _INF)
    return Interval(lo, hi)


PI = _enclose_irrational(_pi_fraction())
PI_SQ = PI * PI
INV_PI = Interval(1.0, 1.0) / PI
INV_PI_SQ = Interval(1.0, 1.0) / PI_SQ
SQRT2 = _enclose_irrational(Fraction("1.41421356237309504880168872420969808"))
TWO_SQRT2_PI = 2 * SQRT2 * PI
