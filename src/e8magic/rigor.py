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
  Rump and Oishi, SIAM J. Sci. Comput. 26, 2005), through TwoProduct;
* ``sqrt_interval``: r*r - x for r = fl(sqrt(x)), through TwoProduct.

Rounding down and rounding up are monotone, so the min and max of the
directed roundings of the four endpoint products (or quotients) are the
directed roundings of the exact min and max.

TwoProduct is exact only away from overflow and underflow, so products and
quotients take it directly only for operands and results in [2^-960, 2^995]
in magnitude.  Outside that range, and for square roots, they run on the
mantissas that ``math.frexp`` gives and are scaled back by ``math.ldexp``.
Scaling is exact but for a second rounding into the subnormals, which keeps
the result within one ulp, so the one-step nudge still lands on the directed
rounding.  A product or quotient past the float range raises
``OverflowError``; a sum that overflows rounds to the largest finite float
on the inner side and to inf on the outer one.  An infinite endpoint raises
``OverflowError`` in ``+ - * /``, ``powi`` and ``sqrt_interval``: it has no
rational value to round.  ``Fraction`` is left to rationals that are not the
quotient of two floats (``enclose_fraction``) and to ``powi(p)`` for p >= 3.

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
_HUGE = 2.0**995  # below this, Veltkamp's split does not overflow
_TINY = 2.0**-960  # above this, products have exact Dekker error terms
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a 53-bit double
_EXACT_INT = 2**53  # every integer up to this magnitude is a float


def _finite(op: str, *values: float) -> None:
    if any(math.isinf(v) for v in values):
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


def _scaled(m: float, e: int, op: str, a: float, b: float) -> float:
    """m * 2^e for the result of a op b; OverflowError past the float range."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        raise OverflowError(f"interval {op} overflows the float range: {a!r} {op} {b!r}") from None


def _product(a: float, b: float) -> tuple[float, float]:
    """(p, d): p = fl(a*b), or a float within one ulp of a*b where that is
    subnormal, and d with the sign of a*b - p."""
    p = a * b
    if _TINY <= abs(p) <= _HUGE and _TINY <= abs(a) <= _HUGE and _TINY <= abs(b) <= _HUGE:
        return p, _product_error(a, b, p)
    _finite("*", a, b)
    if a == 0 or b == 0:
        return 0.0, 0.0
    # the same on the mantissas in [1/2, 1), scaled back by 2^e (exact but for
    # a second rounding into the subnormals)
    ma, ea = math.frexp(a)
    mb, eb = math.frexp(b)
    pm = ma * mb
    p = _scaled(pm, ea + eb, "*", a, b)
    return p, (pm - math.ldexp(p, -ea - eb)) + _product_error(ma, mb, pm)


def _quotient(a: float, b: float) -> tuple[float, float]:
    """(q, d): q = fl(a/b), or a float within one ulp of a/b where that is
    subnormal, and d with the sign of a/b - q, for b != 0.  The remainder
    a - q*b is exact: a - fl(q*b) by Sterbenz, q*b - fl(q*b) by TwoProduct."""
    q = a / b
    if _TINY <= abs(q) <= _HUGE and _TINY <= abs(a) <= _HUGE and _TINY <= abs(b) <= _HUGE:
        p = q * b
        r = (a - p) - _product_error(q, b, p)
        return q, r if b > 0 else -r
    _finite("/", a, b)
    if a == 0:
        return 0.0, 0.0
    # the same on the mantissas, as in _product
    ma, ea = math.frexp(a)
    mb, eb = math.frexp(b)
    q = _scaled(ma / mb, ea - eb, "/", a, b)
    qm = math.ldexp(q, eb - ea)
    p = qm * mb
    r = (ma - p) - _product_error(qm, mb, p)
    return q, r if b > 0 else -r


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


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of real numbers with float endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:  # also false for a NaN endpoint
            if math.isnan(self.lo) or math.isnan(self.hi):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

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
        return Interval(_down(lo, d), _up(hi, e))

    def __radd__(self, other):
        return _coerce(other) + self

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        return _outward([_product(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)])

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        if other.contains_zero():
            raise ZeroDivisionError(
                f"interval division by [{other.lo}, {other.hi}] containing 0"
            )
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
        if p == 2:
            result = _outward([_product(self.lo, self.lo), _product(self.hi, self.hi)])
        else:
            _finite("**", self.lo, self.hi)
            result = _outward([_rounded(Fraction(self.lo) ** p), _rounded(Fraction(self.hi) ** p)])
        if p % 2 == 0 and self.contains_zero():
            return Interval(0.0, result.hi)
        return result

    def exp(self) -> "Interval":
        return Interval(_exp_down(self.lo), _exp_up(self.hi))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


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
    num, den = value.numerator, value.denominator
    if -_EXACT_INT <= num <= _EXACT_INT and den <= _EXACT_INT:  # both are floats
        if den == 1:
            return Interval(float(num), float(num))
        q, d = _quotient(float(num), float(den))
    else:
        q, d = _rounded(Fraction(value))
    return Interval(_down(q, d), _up(q, d))


def _square_excess(r: float, x: float) -> float:
    """A number with the sign of r*r - x, for r = fl(sqrt(x)).  With x scaled
    to m = x / 4^k in [1/2, 2) and r to r / 2^k (both exact), the square is
    close to m, so its difference to m is exact (Sterbenz), and so is the
    TwoProduct error."""
    _finite("sqrt", x)
    m, e = math.frexp(x)
    k = e // 2
    m = math.ldexp(m, e - 2 * k)
    r = math.ldexp(r, -k)
    p = r * r
    return (p - m) + _product_error(r, r, p)


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
    crit = enclose_fraction(p) / sigma
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
