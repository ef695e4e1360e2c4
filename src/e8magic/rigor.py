"""Interval arithmetic with outward rounding.

This is the trust kernel: every certified inequality in :mod:`e8magic.certify`
is evaluated with the :class:`Interval` type defined here.  The containment
contract is

    for all x in X and y in Y:  x op y  lies in  X op Y.

Directed rounding is implemented without touching the hardware rounding mode.
Each endpoint of ``+``, ``-``, ``*``, ``/`` and ``powi(2)`` is computed in
round-to-nearest together with a float that has the sign of its exact
rounding error, and it is nudged one ``math.nextafter`` step outward when the
rounded value landed on the wrong side.  Round-to-nearest is within half an
ulp of the exact value, so one step gives the tightest float on the right
side: every endpoint is the directed rounding of the exact rational result.
The errors come from error-free transformations, in floats only:

* sums: Fast2Sum (Dekker, Numer. Math. 18, 1971) on the operands ordered by
  magnitude, exact whenever the sum does not overflow;
* products: Dekker's TwoProduct on Veltkamp's split by 2^27 + 1 (Python has
  no fused multiply-add to lean on);
* quotients: the remainder a - q*b of q = fl(a/b), which is exact (Ogita,
  Rump and Oishi, SIAM J. Sci. Comput. 26, 2005), through TwoProduct.

``sqrt_interval`` reads the sign of r*r - x, for r = fl(sqrt(x)), exactly
from the integer ratios of r and x.

Rounding down and rounding up are monotone, so the min and max of the
directed roundings of the four endpoint products (or quotients) are the
directed roundings of the exact min and max.  Products form only two of them
in the four strict sign cases (both operands positive, both negative, or one
of each), where the exact min and max are known endpoint products (Moore,
Kearfott and Cloud, *Introduction to Interval Analysis*, sec. 2.3); when an
operand touches or contains 0 they take the min and max of all four, and so
do quotients.

TwoProduct is exact only away from overflow and underflow, so products and
quotients take it only for operands and results in [2^-960, 2^995] in
magnitude.  Every other endpoint has one exact fallback: the exact rational
result as a ``Fraction``, rounded to nearest by ``float`` with its error
kept exactly.  ``powi(p)`` for p >= 3 and ``enclose_fraction``, for every
rational but an integer that is a float, take the same path.  A product or
quotient past the float range raises ``OverflowError``; a sum that
overflows rounds to the largest finite float on the inner side and to inf
on the outer one.  An infinite endpoint raises ``OverflowError`` in
``+ - * /``, ``powi`` and ``sqrt_interval``: it has no rational value to
round.

``exp`` is the only transcendental provided.  It nudges the endpoints of
``math.exp`` two steps outward, so it contains the true value only if libm's
``exp`` is within 2 ulp.  That is an assumption, not a proof, and no
``certify.HYPOTHESES`` line states it; glibc's ``exp`` was measured within
about half an ulp on random arguments.

One rule decides where tau^p e^{-sigma tau} (p >= 1, tau >= 0) is monotone:
for sigma <= 0 everywhere, and for sigma > 0 on each side of its maximum
point p/sigma, whose enclosure is ``exp_poly_peak(p, sigma)``.  An interval
wholly on one side of that enclosure, or any interval when sigma <= 0, is
monotone for every sigma in the sigma interval.  ``ia_exp_poly`` encloses
c tau^p e^{-sigma tau} there by the values at the two endpoints, and
elsewhere by the boxed product; the tail argument of ``certify`` asks the
same helper whether a ratio term still increases past x_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Interval",
    "ia_exp_poly",
    "exp_poly_peak",
    "enclose_fraction",
    "sqrt_interval",
    "PI",
    "PI_SQ",
    "INV_PI",
    "INV_PI_SQ",
    "TWO_SQRT2_PI",
]

_INF = math.inf
_HUGE = 2.0**995  # below this, Veltkamp's split does not overflow
_TINY = 2.0**-960  # above this, products have exact Dekker error terms
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a 53-bit double
_EXACT_INT = 2**53  # every integer up to this magnitude is a float


def _finite(op: str, *values: float) -> None:
    if any(map(math.isinf, values)):
        raise OverflowError(f"infinite interval endpoint in {op}: {', '.join(map(repr, values))}")


def _rounded(exact: Fraction) -> tuple[float, Fraction]:
    """(approx, exact - approx) with approx = round-to-nearest(exact); raises
    OverflowError past the float range."""
    approx = float(exact)
    return approx, exact - Fraction(approx)


def _product_error(a: float, b: float, p: float) -> float:
    """a*b - p exactly, for p = fl(a*b) with |a|, |b|, |p| in [_TINY, _HUGE]
    (Dekker's TwoProduct on Veltkamp's split)."""
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sum(a: float, b: float) -> tuple[float, float]:
    """(s, d): s = fl(a + b) and d = a + b - s exactly (Fast2Sum on the
    operands ordered by magnitude)."""
    s = a + b
    if -_INF < s < _INF:
        if abs(a) < abs(b):
            a, b = b, a
        return s, b - (s - a)
    _finite("+", a, b)
    return s, -s  # finite operands whose sum overflows: it lies inside +-inf


def _fallback(exact: Fraction, op: str, a: float, b: float) -> tuple[float, Fraction]:
    """``_rounded(exact)`` for the exact result of a op b; the OverflowError
    past the float range names the operation."""
    try:
        return _rounded(exact)
    except OverflowError:
        raise OverflowError(f"interval {op} overflows the float range: {a!r} {op} {b!r}") from None


def _product(a: float, b: float) -> tuple[float, float | Fraction]:
    """(p, d): p = fl(a*b) and d with the sign of a*b - p."""
    p = a * b
    if _TINY <= abs(p) <= _HUGE and _TINY <= abs(a) <= _HUGE and _TINY <= abs(b) <= _HUGE:
        return p, _product_error(a, b, p)
    _finite("*", a, b)
    if a == 0 or b == 0:
        return 0.0, 0.0
    return _fallback(Fraction(a) * Fraction(b), "*", a, b)


def _quotient(a: float, b: float) -> tuple[float, float | Fraction]:
    """(q, d): q = fl(a/b) and d with the sign of a/b - q, for finite a and
    b != 0.  The remainder a - q*b is exact: a - fl(q*b) by Sterbenz,
    q*b - fl(q*b) by TwoProduct."""
    q = a / b
    if _TINY <= abs(q) <= _HUGE and _TINY <= abs(a) <= _HUGE and _TINY <= abs(b) <= _HUGE:
        p = q * b
        r = (a - p) - _product_error(q, b, p)
        return q, r if b > 0 else -r
    if a == 0:
        return 0.0, 0.0
    return _fallback(Fraction(a) / Fraction(b), "/", a, b)


def _down(approx: float, d: float | Fraction) -> float:
    """Largest float <= approx + d, given approx within one ulp of it."""
    return approx if d >= 0 else math.nextafter(approx, -_INF)


def _up(approx: float, d: float | Fraction) -> float:
    """Smallest float >= approx + d, given approx within one ulp of it."""
    return approx if d <= 0 else math.nextafter(approx, _INF)


def _outward(values: list[tuple[float, float | Fraction]]) -> "Interval":
    """[rounded-down min, rounded-up max] of exact values given as (approx, d)."""
    lo = min([_down(v, d) for v, d in values])
    ups = [_up(v, d) for v, d in values]
    hi = max(ups)
    # an exact 0 rounds up to 0.0, a negative value may round up to -0.0:
    # the exact max is 0 when any 0.0 is there
    if hi == 0.0 and any(math.copysign(1.0, v) > 0 for v in ups):
        hi = 0.0
    return Interval(lo, hi)


@dataclass(frozen=True, init=False)
class Interval:
    """Closed interval [lo, hi] of real numbers with float endpoints."""

    # slots named here, not by dataclass(slots=True): that builds a second
    # class, on which the frozen __setattr__ raises TypeError for other names
    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        if not lo <= hi:  # also false for a NaN endpoint
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        # the slots' own setters: the frozen __setattr__ refuses every assignment
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __reduce__(self):  # copy and pickle through __init__, not the frozen __setattr__
        return Interval, (self.lo, self.hi)

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(float(x), float(x))

    # -- queries -------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float | Fraction) -> bool:
        return Fraction(self.lo) <= Fraction(x) <= Fraction(self.hi)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        lo, d = _sum(self.lo, other.lo)
        hi, e = _sum(self.hi, other.hi)
        # _down and _up inline
        return Interval(lo if d >= 0 else math.nextafter(lo, -_INF), hi if e <= 0 else math.nextafter(hi, _INF))

    def __radd__(self, other):
        return _coerce(other) + self

    def __sub__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        lo, d = _sum(self.lo, -other.hi)
        hi, e = _sum(self.hi, -other.lo)
        return Interval(lo if d >= 0 else math.nextafter(lo, -_INF), hi if e <= 0 else math.nextafter(hi, _INF))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        # strict sign cases: (p, e) is the exact max, (q, f) the exact min; the
        # one larger in magnitude holds any infinite endpoint and is formed
        # first, so that the error names it rather than an overflow
        if a > 0.0 and c > 0.0:
            p, e = _product(b, d)
            q, f = _product(a, c)
        elif b < 0.0 and d < 0.0:
            p, e = _product(a, c)
            q, f = _product(b, d)
        elif a > 0.0 and d < 0.0:
            q, f = _product(b, c)
            p, e = _product(a, d)
        elif b < 0.0 and c > 0.0:
            q, f = _product(a, d)
            p, e = _product(b, c)
        else:  # an operand touches or contains 0; an infinite endpoint is named before any overflow
            _finite("*", a, b, c, d)
            return _outward([_product(a, c), _product(a, d), _product(b, c), _product(b, d)])
        return Interval(q if f >= 0 else math.nextafter(q, -_INF), p if e <= 0 else math.nextafter(p, _INF))

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError(
                f"interval division by [{other.lo}, {other.hi}] containing 0"
            )
        _finite("/", self.lo, self.hi, other.lo, other.hi)
        return _outward([_quotient(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)])

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def powi(self, p: int) -> "Interval":
        """Integer power, exact case analysis for even p."""
        if p < 0:
            raise ValueError("negative powers unsupported; divide instead")
        if p == 0:
            return Interval(1.0, 1.0)
        if p == 1:
            return self + _ZERO  # exact; turns -0.0 into 0.0 like the rational power
        _finite("**", self.lo, self.hi)
        if p == 2:
            result = _outward([_product(self.lo, self.lo), _product(self.hi, self.hi)])
        else:
            result = _outward([_rounded(Fraction(self.lo) ** p), _rounded(Fraction(self.hi) ** p)])
        if p % 2 == 0 and self.contains_zero():
            return Interval(0.0, result.hi)
        return result

    def exp(self) -> "Interval":
        return Interval(_exp_down(self.lo), _exp_up(self.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__
_ZERO = Interval(0.0, 0.0)


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, Fraction)):
        return enclose_fraction(x)
    if isinstance(x, float):
        return Interval(x, x)
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


def enclose_fraction(value: Fraction | int) -> Interval:
    """Tightest float interval containing an exact rational."""
    num = value.numerator
    if value.denominator == 1 and -_EXACT_INT <= num <= _EXACT_INT:  # an integer that is a float
        return Interval(float(num), float(num))
    q, d = _rounded(Fraction(value))
    return Interval(_down(q, d), _up(q, d))


def _square_excess(r: float, x: float) -> int:
    """An integer with the sign of r*r - x, exact from the integer ratios of
    r and x."""
    _finite("sqrt", x)
    (p, q), (s, t) = r.as_integer_ratio(), x.as_integer_ratio()
    return p * p * t - s * q * q


def sqrt_interval(x: Interval | Fraction | int | float) -> Interval:
    """Enclosure of the square root (operand must be >= 0)."""
    x = _coerce(x)
    if x.lo < 0:
        raise ValueError("sqrt of interval with negative lower endpoint")
    rlo = math.sqrt(x.lo)
    rhi = math.sqrt(x.hi)
    # sqrt is correctly rounded (IEEE 754), one step suffices
    if _square_excess(rlo, x.lo) > 0:
        rlo = math.nextafter(rlo, -_INF)
    if _square_excess(rhi, x.hi) < 0:
        rhi = math.nextafter(rhi, _INF)
    return Interval(max(rlo, 0.0), rhi)


def exp_poly_peak(p: int, sigma: Interval) -> Interval:
    """Enclosure of p/sigma, for p >= 1 and sigma > 0: where tau^p e^{-sigma tau}
    on tau >= 0 has its maximum, increasing before it and decreasing after."""
    return enclose_fraction(p) / sigma


def ia_exp_poly(c: Interval, p: int, sigma: Interval, t: Interval) -> Interval:
    """Enclosure of {c * tau^p * exp(-sigma tau) : tau in t}, t.lo >= 0.

    Where the factor tau^p e^{-sigma tau} is monotone on t for every sigma in
    the sigma interval (sigma <= 0, or t wholly on one side of
    ``exp_poly_peak``), it is c times the hull of the factor's values at the
    two endpoints of t; elsewhere it is the boxed product over t.
    """
    if p not in (0, 1, 2):
        raise ValueError("polynomial degree must be 0, 1 or 2")
    if t.lo < 0:
        raise ValueError("ia_exp_poly requires t.lo >= 0")
    if p == 0:
        return c * (-sigma * t).exp()
    if sigma.lo > 0:
        peak = exp_poly_peak(p, sigma)
        monotone = t.hi <= peak.lo or t.lo >= peak.hi
    else:
        monotone = sigma.hi <= 0  # growing times growing on t >= 0
    if not monotone:
        return c * t.powi(p) * (-sigma * t).exp()
    lo, hi = Interval.point(t.lo), Interval.point(t.hi)
    return c * (lo.powi(p) * (-sigma * lo).exp()).hull(hi.powi(p) * (-sigma * hi).exp())


def _pi_fraction() -> Fraction:
    # 36 significant digits, far beyond double precision
    return Fraction("3.14159265358979323846264338327950288")


def _enclose_irrational(approx_fr: Fraction) -> Interval:
    """Interval of width one ulp around a rational approximation whose error
    is far below half an ulp of a double."""
    enc = enclose_fraction(approx_fr)
    if enc.lo < enc.hi:
        return enc
    # approx landed exactly on a float; widen by one step each way since the
    # true value is irrational
    return Interval(math.nextafter(enc.lo, -_INF), math.nextafter(enc.hi, _INF))


PI = _enclose_irrational(_pi_fraction())
PI_SQ = PI * PI
INV_PI = Interval(1.0, 1.0) / PI
INV_PI_SQ = Interval(1.0, 1.0) / PI_SQ
SQRT2 = _enclose_irrational(Fraction("1.41421356237309504880168872420969808"))
TWO_SQRT2_PI = 2 * SQRT2 * PI
