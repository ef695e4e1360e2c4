"""Interval arithmetic with outward rounding.

This is the trust kernel: every certified inequality in :mod:`e8magic.certify`
is evaluated with the :class:`Interval` type defined here.  The containment
contract is

    for all x in X and y in Y:  x op y  lies in  X op Y.

Directed rounding is implemented without touching the hardware rounding mode.
Each endpoint is computed in round-to-nearest together with a number that
has the sign of its exact rounding error, and it is nudged one
``math.nextafter`` step outward when the rounded value landed on the wrong
side.  Round-to-nearest is within half an ulp of the exact value, so one step
gives the tightest float on the right side: every endpoint is the directed
rounding of the exact rational result.  The error's sign rests on three
facts only: IEEE 754 floats and CPython's ``int / int`` round to nearest,
Python integers are exact, and Fast2Sum is exact.

* ``+`` and ``-``: Fast2Sum (Dekker, Numer. Math. 18, 1971) on the operands
  ordered by magnitude, exact whenever the sum does not overflow.
* ``*``, ``/``, ``powi(p)`` for p >= 1 and ``enclose_fraction``: one rule,
  ``_nearest``.  The exact result is a ratio of integers num/den, from the
  operands' ``as_integer_ratio()``; its rounding to nearest v is the
  hardware ``a*b`` or ``a/b``, or ``num / den`` for powers and rationals;
  and num*e - m*den, for v = m/e, has the sign of the error.  It holds over
  the whole float range, subnormals included, and raises ``OverflowError``
  where the result rounds past it.
* ``sqrt_interval`` reads the sign of r*r - x, for r = fl(sqrt(x)), from the
  integer ratios of r and x in the same way.

Rounding down and rounding up are monotone, so the min and max of the
directed roundings of the four endpoint products (or quotients) are the
directed roundings of the exact min and max.  Products and quotients form
only two of them in the four strict sign cases (both operands positive, both
negative, or one of each), where the exact min and max are known endpoint
products or quotients (Moore, Kearfott and Cloud, *Introduction to Interval
Analysis*, sec. 2.3); when an operand (of a quotient, the dividend) touches
or contains 0 they take the min and max of all four.  An exact 0 is +0.0.

A product, quotient, power or rational past the float range raises
``OverflowError`` naming the operation and its operands; a sum that
overflows rounds to the largest finite float on the inner side and to inf
on the outer one.  An infinite endpoint raises ``OverflowError`` in
``+ - * /``, ``powi`` and ``sqrt_interval``: it has no rational value to
round.

``exp`` is the only transcendental provided.  It nudges the endpoints of
``math.exp`` two steps outward, so it contains the true value only if libm's
``exp`` is within 2 ulp.  That is an assumption, not a proof, and no
``certify.HYPOTHESES`` line states it; glibc's ``exp`` was measured within
about half an ulp on random arguments.

One rule, ``exp_poly_window``, decides where tau^p e^{-sigma tau} (tau >= 0)
is monotone: for p = 0 or sigma <= 0 everywhere, and for sigma > 0 on each
side of its maximum point p/sigma, whose enclosure is
``exp_poly_peak(p, sigma)``.  An interval wholly on one side of that
enclosure, or any interval when p = 0 or sigma <= 0, is monotone for every
sigma in the sigma interval.  ``ia_exp_poly`` encloses c tau^p e^{-sigma tau}
there by the values at the two endpoints (``exp_poly_at``), and elsewhere by
the boxed product; the models of ``certify`` take the same rule and the same
endpoint values, and its tail argument asks ``exp_poly_peak`` whether a ratio
term still increases past x_star.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Interval",
    "ia_exp_poly",
    "exp_poly_peak",
    "exp_poly_window",
    "exp_poly_at",
    "enclose_fraction",
    "sqrt_interval",
    "PI",
    "PI_SQ",
    "INV_PI",
    "INV_PI_SQ",
    "TWO_SQRT2_PI",
]

_INF = math.inf


def _finite(op: str, *values: float) -> None:
    if any(map(math.isinf, values)):
        raise OverflowError(f"infinite interval endpoint in {op}: {', '.join(map(repr, values))}")


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


def _nearest(num: int, den: int, op: str, a, b, approx: float | None = None) -> tuple[float, int]:
    """(v, d) for the exact rational num/den (den > 0) of a op b: v is num/den
    rounded to nearest, ``approx`` when given (it must be that), else
    CPython's correctly rounded int / int, and +0.0 for an exact 0; d is an
    integer with the sign of num/den - v.  Past the float range it raises
    OverflowError naming op, a and b, an integer of more than 64 bits by its
    size (CPython refuses to print one of more than 4,300 digits)."""
    if not num:
        return 0.0, 0
    try:
        v = num / den if approx is None else approx
        m, e = v.as_integer_ratio()  # OverflowError for an approx of +-inf
    except OverflowError:
        a, b = (f"<{x.bit_length()}-bit integer>" if isinstance(x, int) and x.bit_length() > 64 else repr(x)
                for x in (a, b))
        raise OverflowError(f"interval {op} overflows the float range: {a} {op} {b}") from None
    return v, num * e - m * den


def _product(a: float, b: float) -> tuple[float, int]:
    """(p, d): p = fl(a*b), +0.0 for an exact 0, and d with the sign of
    a*b - p."""
    p = a * b
    if not -_INF < p < _INF:  # inf or nan: name an infinite operand before an overflow
        _finite("*", a, b)
    (m, e), (n, f) = a.as_integer_ratio(), b.as_integer_ratio()
    return _nearest(m * n, e * f, "*", a, b, p)


def _quotient(a: float, b: float) -> tuple[float, int]:
    """(q, d): q = fl(a/b), +0.0 for an exact 0, and d with the sign of
    a/b - q, for finite a and b != 0."""
    (m, e), (n, f) = a.as_integer_ratio(), b.as_integer_ratio()
    if n < 0:  # a positive denominator
        m, n = -m, -n
    return _nearest(m * f, e * n, "/", a, b, a / b)


def _down(approx: float, d: float | int) -> float:
    """Largest float <= approx + d, given approx within one ulp of it."""
    return approx if d >= 0 else math.nextafter(approx, -_INF)


def _up(approx: float, d: float | int) -> float:
    """Smallest float >= approx + d, given approx within one ulp of it."""
    return approx if d <= 0 else math.nextafter(approx, _INF)


def _outward(values: list[tuple[float, float | int]]) -> "Interval":
    """[rounded-down min, rounded-up max] of exact values given as (approx, d)."""
    lo = min([_down(v, d) for v, d in values])
    ups = [_up(v, d) for v, d in values]
    hi = max(ups)
    # an exact 0 rounds up to 0.0, a negative value may round up to -0.0:
    # the exact max is 0 when any 0.0 is there
    if hi == 0.0 and any(math.copysign(1.0, v) > 0 for v in ups):
        hi = 0.0
    return Interval(lo, hi)


class Interval:
    """Closed interval [lo, hi] of real numbers with float endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not lo <= hi:  # also false for a NaN endpoint
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        # the slots' own setters: __setattr__ refuses every assignment
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return Interval, (self.lo, self.hi)

    def __eq__(self, other):
        return (self.lo, self.hi) == (other.lo, other.hi) if type(other) is Interval else NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

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
        lo, d = _sum(self.lo, other.lo)
        hi, e = _sum(self.hi, other.hi)
        # _down and _up inline
        return Interval(lo if d >= 0 else math.nextafter(lo, -_INF), hi if e <= 0 else math.nextafter(hi, _INF))

    def __sub__(self, other: "Interval") -> "Interval":
        lo, d = _sum(self.lo, -other.hi)
        hi, e = _sum(self.hi, -other.lo)
        return Interval(lo if d >= 0 else math.nextafter(lo, -_INF), hi if e <= 0 else math.nextafter(hi, _INF))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other: "Interval") -> "Interval":
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
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c <= 0.0 <= d:
            raise ZeroDivisionError(f"interval division by [{c}, {d}] containing 0")
        _finite("/", a, b, c, d)
        # strict sign cases, as for products: (q, f) is the exact min, (p, e) the exact max
        if a > 0.0:
            (q, f), (p, e) = (_quotient(a, d), _quotient(b, c)) if c > 0.0 else (_quotient(b, d), _quotient(a, c))
        elif b < 0.0:
            (q, f), (p, e) = (_quotient(a, c), _quotient(b, d)) if c > 0.0 else (_quotient(b, c), _quotient(a, d))
        else:  # the dividend touches or contains 0
            return _outward([_quotient(a, c), _quotient(a, d), _quotient(b, c), _quotient(b, d)])
        return Interval(q if f >= 0 else math.nextafter(q, -_INF), p if e <= 0 else math.nextafter(p, _INF))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def powi(self, p: int) -> "Interval":
        """Integer power, exact case analysis for even p."""
        if p < 0:
            raise ValueError("negative powers unsupported; divide instead")
        if p == 0:
            return Interval(1.0, 1.0)
        _finite("**", self.lo, self.hi)
        (m, e), (n, f) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        result = _outward([_nearest(m**p, e**p, "**", self.lo, p), _nearest(n**p, f**p, "**", self.hi, p)])
        if p % 2 == 0 and self.contains_zero():
            return Interval(0.0, result.hi)
        return result

    def exp(self) -> "Interval":
        return Interval(_exp_down(self.lo), _exp_up(self.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, Fraction)):
        return enclose_fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Interval")


def _exp_down(x: float) -> float:
    try:
        v = math.exp(x)
    except OverflowError:
        return math.nextafter(_INF, 0.0)  # largest finite float <= exp(x)
    return max(math.nextafter(math.nextafter(v, -_INF), -_INF), 0.0)


def _exp_up(x: float) -> float:
    try:
        v = math.exp(x)
    except OverflowError:
        return _INF
    if v == 0.0:
        # exp underflowed, but exp(x) > 0: round up to the smallest subnormal
        return math.nextafter(0.0, _INF)
    return math.nextafter(math.nextafter(v, _INF), _INF)


def enclose_fraction(value: Fraction | int) -> Interval:
    """Tightest float interval containing an exact rational."""
    num, den = value.numerator, value.denominator
    q, d = _nearest(num, den, "/", num, den)
    return Interval(_down(q, d), _up(q, d))


def _square_excess(r: float, x: float) -> int:
    """An integer with the sign of r*r - x, exact from the integer ratios of
    r and x."""
    _finite("sqrt", x)
    (p, q), (s, t) = r.as_integer_ratio(), x.as_integer_ratio()
    return p * p * t - s * q * q


def sqrt_interval(x: Interval | Fraction | int) -> Interval:
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


def exp_poly_window(p: int, sigma: Interval) -> tuple[float, float]:
    """(lo, hi) such that tau^p e^{-sigma tau} is monotone on every t >= 0
    with t.hi <= lo or t.lo >= hi, for every sigma in the sigma interval: the
    ends of ``exp_poly_peak`` for p >= 1 and sigma > 0, (inf, -inf) (monotone
    everywhere) for p = 0 or sigma <= 0, and (-inf, inf) (nowhere) else."""
    if p == 0 or sigma.hi <= 0:
        return _INF, -_INF
    if sigma.lo > 0:
        peak = exp_poly_peak(p, sigma)
        return peak.lo, peak.hi
    return -_INF, _INF


def exp_poly_at(p: int, neg_sigma: Interval, tau: float) -> Interval:
    """Enclosure of tau^p e^{-sigma tau} at the point tau, given -sigma."""
    x = Interval(tau, tau)
    factor = (neg_sigma * x).exp()
    return x.powi(p) * factor if p else factor


def ia_exp_poly(c: Interval, p: int, sigma: Interval, t: Interval) -> Interval:
    """Enclosure of {c * tau^p * exp(-sigma tau) : tau in t}, t.lo >= 0.

    Where the factor tau^p e^{-sigma tau} is monotone on t for every sigma in
    the sigma interval (``exp_poly_window``), it is c times the hull of the
    factor's values at the two endpoints of t; elsewhere it is the boxed
    product over t.
    """
    if p not in (0, 1, 2):
        raise ValueError("polynomial degree must be 0, 1 or 2")
    if t.lo < 0:
        raise ValueError("ia_exp_poly requires t.lo >= 0")
    lo, hi = exp_poly_window(p, sigma)
    neg_sigma = -sigma
    if t.hi <= lo or t.lo >= hi:
        return c * exp_poly_at(p, neg_sigma, t.lo).hull(exp_poly_at(p, neg_sigma, t.hi))
    return c * t.powi(p) * (neg_sigma * t).exp()


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
