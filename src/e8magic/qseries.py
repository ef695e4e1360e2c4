"""Truncated q-expansions with exact rational coefficients.

Series live on the exponent grid (1/8)*Z, fine enough for the theta constant
with half-integer square exponents; everything else (theta fourth powers,
Eisenstein series, the weakly holomorphic forms) embeds in it.  Exponents are
integer counts of 1/8 units.  A series is stored as one positive integer
denominator and a dense tuple of integer numerators on its stride grid, so
every operation is exact integer arithmetic: a product or a power is a
big-integer multiply (Kronecker substitution: Harvey, *J. Symb. Comp.* 2009),
a quotient an integer power-series inverse.  The only approximation anywhere
is the explicit truncation order, which each operation propagates
conservatively.  ``coeffs`` presents the same series as exact ``Fraction``s.

This module is the one place where exact coefficients become floats: each
series keeps float arrays of its terms, built on first use.  Evaluation at one
or many points of the upper half-plane (``eval_at``) and the termwise Laplace
transform along the imaginary axis (``RayPlan``, of several series and
powers in one pass) return one bound that covers both the discarded tail and
the float roundoff of the sum.  The tail is bounded by ``_tail_majorant``
from the coefficient growth bound |c(n)| <= C*e^{4 pi sqrt(n)} with a
caller-supplied C: its terms are summed in floats and enlarged by an a-priori
roundoff factor derived in its docstring, so the module needs no interval
arithmetic and imports nothing from ``rigor``.
numpy is imported by these numeric entry points, not by the module, so the
exact kernel loads without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["QSeries", "EvalResult", "RayPlan", "combine", "EIGHTH", "U"]

# grid units per integer exponent step
EIGHTH = 8
# unit roundoff of IEEE-754 double precision
U = 2.0**-53
# below the smallest normal double, exp and products lose their relative
# accuracy; every such term is off by at most this much times |c(n)|
_TINY = 2.0**-1022
# the smallest subnormal double: a product that underflows is off by at most
# half of it (Higham, *Accuracy and Stability*, sec. 2.1)
_ETA = 2.0**-1074
# leading tail terms the majorant bounds one by one before its geometric part
_MAX_EXPLICIT_TERMS = 100_000
# the majorant's raise of an exp argument, relative to its size: 8u
_RAISE = 2.0**-50
# the largest 4/y whose square the tail majorant forms: (2^511)^2 = 2^1022 is
# finite; far below that height the majorant already needs too many terms
_SPLIT_ROOT_MAX = 2.0**511
# the height at which eval_at bounds the tail of a series evaluated above it:
# the tail majorant's products 2 pi y n stay finite there
_MAJORANT_Y_MAX = 1e300
# values of y per block of a ``RayPlan`` pass (``_blocks``): a constant, so
# that each row's sums fall in the same blocks whatever other rows its plan
# holds (a matrix-vector product rounds the last rows of a block otherwise)
_RAY_BLOCK = 256
# the factor of the argument error that RayPlan's bounds carry, 6 pi u
_SIX_PI_U = 6 * math.pi * U


class TruncationError(ValueError):
    """Raised when an operation would need more series terms than stored."""


@dataclass(frozen=True)
class EvalResult:
    """Value of the stored terms plus a bound on its distance to the full series.

    ``tail_bound`` covers both the discarded tail and the float roundoff of
    ``value``.  For an array of points both fields are arrays.
    """

    value: complex | np.ndarray
    tail_bound: float | np.ndarray


def combine(parts) -> tuple:
    """(value, bound) of the sum of coefficient * value over (coefficient,
    (value, bound)) pairs, bounding each value's error and the roundoff of
    forming each float coefficient, product and sum (a few u each, doubled for
    complex arithmetic), plus the absolute error of the products that
    underflow (a few eta per part: the real and imaginary parts of c * value
    and the scaled bound)."""
    value = scaled = magnitude = 0
    for c, (v, b) in parts:
        value = value + c * v
        scaled = scaled + abs(c) * b
        magnitude = magnitude + abs(c) * abs(v)
    roundoff = 2 * (len(parts) + 8) * U * magnitude + 4 * len(parts) * _ETA
    return value, scaled + roundoff


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the summation error factor."""
    return n * U / (1 - n * U)


def _tail_majorant(lead: int, order: int, stride: int, c: float, y: float) -> float:
    """Rigorous bound on sum C e^{4 pi sqrt(n)} e^{-2 pi n y} over the grid points
    n >= order of a series with this lead and stride, summed in floats.

    The tail splits at n* = max(n0, (4/y)^2 + 1), past which 4 pi sqrt(n) <=
    pi y n: the N grid points n0 <= n < n* are summed term by term, the rest
    as the geometric series C e^{-pi y n_N} / (1 - r), r = e^{-pi y s}, from
    the first grid point n_N >= n*, with s = stride/8.  The grid start and N
    are integers; n, s and n/8 are exact floats.

    Roundoff (Higham, *Accuracy and Stability*, ch. 3-4; u = 2^-53, eta =
    2^-1074, gamma_k = k u / (1 - k u)):

    * Arguments.  p = 4 pi sqrt(n) and q = 2 pi n y are each computed with a
      relative error below gamma_3 (the rounding of pi, the square root and
      two products), so x = p - q carries an error below gamma_4 (p + q),
      which exp would turn into a relative error of about (p + q) u.  Each
      argument is raised by 2^-50 fl(p + q) >= 8u (1 - gamma_4)(p + q) before
      exp; that covers gamma_4 (p + q) and the rounding of the raise itself,
      so every argument lies above the exact one and exp, being increasing,
      gives at least the exact term.  The geometric part's arguments -pi y
      n_N and -pi y s are raised the same way, by the factor 1 - 2^-50.
    * exp.  Under the libm assumption ``rigor`` states, exp is within 2 ulp:
      e^x <= (1 + 5u) fl(e^x) + 3 eta, the eta covering results that fall
      below 2^-1022, where an ulp is eta.
    * Ratio and division.  r <= fl(e^x) (1 + 5u) + 3 eta < fl(e^x) + 2^-50 =
      r_hi after its own rounding; then 1 - r >= fl(1 - r_hi) / (1 + u) =: d
      / (1 + u), and the quotient first / d adds a factor 1 + u and eta / 2.
    * The sum of the N + 1 nonnegative parts in order has a relative error
      below gamma_N (sums are exact when they underflow); N <= 10^5 gives
      gamma_N < 1.12e-11.

    Together the exact tail is below C S (1 + 8u + gamma_N) / (1 - u)^2 +
    C eta (3N + 4/d + 1) for the computed sum S.  The factor 1 + 2^-36 >=
    1 + 1.45e-11 covers the first term with the roundings of C S times it and
    of the final sum, and the floor (C + 1)(4N + 4/d + 4) eta, itself rounded,
    covers the second, so a positive tail never comes back as 0.  A tail that
    needs more than ``_MAX_EXPLICIT_TERMS`` explicit terms, whose split point
    (4/y)^2 passes the float range, or whose r_hi reaches 1, raises
    TruncationError.
    """
    if not 4 / y <= _SPLIT_ROOT_MAX:
        raise TruncationError(
            f"Im z = {y!r} is too small for the tail majorant: its split point "
            "(4 / Im z)^2 passes the float range, so no finite order suffices"
        )
    e0 = lead - (lead - order) // stride * stride  # first grid point >= order, in 1/8 units
    n_star = max(e0 / EIGHTH, (4 / y) ** 2 + 1)
    if n_star * EIGHTH > e0 + _MAX_EXPLICIT_TERMS * stride:
        hint = math.ceil(n_star) * EIGHTH
        raise TruncationError(
            "tail majorant needs too many explicit terms at this point; "
            f"rebuild the series to order >= {hint} grid units (q^{hint // 8})"
        )
    explicit = (math.ceil(n_star * EIGHTH) - e0 + stride - 1) // stride
    total = 0.0
    for e in range(e0, e0 + explicit * stride, stride):
        n = e / EIGHTH
        p, q = 4 * math.pi * math.sqrt(n), 2 * math.pi * n * y
        total += math.exp(p - q + _RAISE * (p + q))
    ratio = math.exp(-math.pi * y * (stride / EIGHTH) * (1 - _RAISE)) + _RAISE
    if ratio >= 1.0:
        raise TruncationError("geometric tail ratio >= 1; Im z too small")
    d = 1.0 - ratio
    total += math.exp(-math.pi * y * ((e0 + explicit * stride) / EIGHTH) * (1 - _RAISE)) / d
    return total * (1 + 2.0**-36) * c + (c + 1) * (4 * explicit + 4 / d + 4) * _ETA


def _bias(width: int, n: int) -> int:
    """Half the base 2^(8 width) in each of n digits: adding it makes signed
    digits of magnitude below half the base nonnegative."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of the product of the integer polynomials a and b.

    Kronecker substitution: each list is packed into one integer in base
    2^(8 width), with digits wide enough for every coefficient of the product,
    so CPython's big-integer multiply does the convolution; the signed digits
    of the product are read back after adding half the base to each.
    """
    a, b = a[:n], b[:n]
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if bound == 0:
        return [0] * n
    width = bound.bit_length() // 8 + 1  # every |digit| <= bound < 2^(8 width - 1)
    half = 1 << (8 * width - 1)

    def pack(xs: Sequence[int]) -> int:
        raw = b"".join((x + half).to_bytes(width, "little") for x in xs)
        return int.from_bytes(raw, "little") - _bias(width, len(xs))

    pa = pack(a)
    product = pa * pa if b is a else pa * pack(b)
    raw = ((product + _bias(width, n)) & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * n, width)]


def _inverse(m: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of 1/m for an integer list m with m[0] = 1, by
    Newton's iteration g <- g - g (m g - 1), which doubles the correct terms."""
    g = [1]
    while len(g) < n:
        h = len(g)
        k = min(2 * h, n)
        err = _convolve(m, g, k)[h:]  # m g - 1 vanishes below x^h
        g += [-x for x in _convolve(g, err, k - h)]
    return g


def _dense(lead: int, order: int, terms: Mapping[int, tuple[int, int]], stride: int):
    """(step, den, nums) holding the nonzero terms {e: (numerator, denominator)},
    which must lie in [lead, order)."""
    for e in terms:
        if not (lead <= e < order):
            raise ValueError(f"exponent {e} outside [{lead}, {order})")
    terms = {int(e): c for e, c in terms.items()}
    den = lcm(*(d for _, d in terms.values()))
    step = gcd(*(e - lead for e in terms)) or stride
    nums = [0] * ((max(terms) - lead) // step + 1 if terms else 0)
    for e, (x, d) in terms.items():
        nums[(e - lead) // step] = x * (den // d)
    return step, den, nums


def _points(origin: int, step: int, order: int, last: int) -> int:
    """Grid points origin + i*step below order and at most last."""
    return max(0, min(-(-(order - origin) // step), (last - origin) // step + 1))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class QSeries:
    """Truncated series  sum_{lead <= e < order} c(e) q^(e/8).

    ``lead`` may be negative (simple poles at the cusp are first-class).
    ``order`` is the exclusive truncation bound; coefficients at exponents
    >= order are unknown, not zero.  ``stride`` records the grid the support
    actually lives on (in 1/8 units); it always divides every populated
    exponent minus ``lead``.  The coefficient at lead + i*stride is
    nums[i] / den, where den > 0 is coprime to the numerators together and
    ``nums`` has no trailing zeros.  A series with no term past its lead keeps
    the stride it was made with (8 unless an operation says otherwise).
    """

    lead: int
    order: int
    stride: int
    den: int
    nums: tuple[int, ...]

    def __init__(self, lead: int, order: int, coeffs: Mapping[int, Fraction] | None = None,
                 stride: int = EIGHTH) -> None:
        terms = {}
        for e, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0:
                terms[e] = (c.numerator, c.denominator)
        self._set(lead, order, *_dense(lead, order, terms, stride), stride)

    def _set(self, lead: int, order: int, step: int, den: int, nums: Sequence[int], stride: int) -> None:
        """Store sum_i nums[i]/den q^((lead + i*step)/8) in normal form; ``stride``
        is kept when no term lies past the lead."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        g = gcd(*(i for i in range(1, end) if nums[i]))
        nums = nums[:end:g or 1]
        content = gcd(den, *nums)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "stride", step * g if g else stride)
        object.__setattr__(self, "den", den // content if nums else 1)
        object.__setattr__(self, "nums", tuple(x // content for x in nums))

    @staticmethod
    def _make(lead: int, order: int, step: int, den: int, nums: Sequence[int],
              stride: int = EIGHTH) -> "QSeries":
        out = object.__new__(QSeries)
        out._set(lead, order, step, den, nums, stride)
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def one(order: int) -> "QSeries":
        return QSeries(0, order, {0: Fraction(1)})

    # -- basic queries ----------------------------------------------------

    def _terms(self):
        """(exponent, numerator) of every nonzero term, by increasing exponent."""
        return ((self.lead + i * self.stride, x) for i, x in enumerate(self.nums) if x)

    @property
    def _step(self) -> int:
        """The grid step of the stored terms, 0 when there is at most one."""
        return self.stride if len(self.nums) > 1 else 0

    @property
    def _last(self) -> int:
        """Exponent of the last stored numerator."""
        return self.lead + (len(self.nums) - 1) * self.stride

    def _on_grid(self, origin: int, step: int, n: int) -> list[int]:
        """Numerators at origin + i*step for i < n; the grid must hold every term."""
        out = [0] * n
        k = self._step // step
        pos = (self.lead - origin) // step
        for x in self.nums:
            if pos >= n:
                break
            if x and pos >= 0:
                out[pos] = x
            pos += k
        return out

    @cached_property
    def coeffs(self) -> Mapping[int, Fraction]:
        """The nonzero coefficients as a read-only {exponent: Fraction} mapping."""
        return MappingProxyType({e: Fraction(x, self.den) for e, x in self._terms()})

    def coeff(self, e: int) -> Fraction:
        """Coefficient of q^(e/8); raises past the truncation order."""
        if e >= self.order:
            raise TruncationError(f"exponent {e} is beyond truncation order {self.order}")
        i, r = divmod(e - self.lead, self.stride)
        if r or not 0 <= i < len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[i], self.den)

    def coeff_q(self, n) -> Fraction:
        """Coefficient of q^n for rational n (n in units of 1, not eighths)."""
        e = Fraction(n) * EIGHTH
        if e.denominator != 1:
            raise ValueError(f"exponent {n} is not on the 1/8 grid")
        return self.coeff(int(e))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        # the stride places the terms past the lead; with none it is not compared
        return (self.lead, self.order, self.den, self.nums) == (
            other.lead, other.order, other.den, other.nums
        ) and (len(self.nums) < 2 or self.stride == other.stride)

    def __hash__(self):
        return hash((self.lead, self.order, self.den, self.nums))

    def is_zero(self) -> bool:
        return not self.nums

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries._make(self.lead, self.order, self.stride, self.den, [-x for x in self.nums])

    def __add__(self, other) -> "QSeries":
        other = self._coerce(other)
        lead = min(self.lead, other.lead)
        order = min(self.order, other.order)
        parts = [s for s in (self, other) if s.nums]
        step = gcd(*(s._step for s in parts), *(s.lead - lead for s in parts)) or EIGHTH
        n = max((_points(lead, step, order, s._last) for s in parts), default=0)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = self._on_grid(lead, step, n), other._on_grid(lead, step, n)
        return QSeries._make(lead, order, step, den, [fa * x + fb * y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return QSeries._make(self.lead, self.order, self.stride, self.den * other.denominator,
                                 [x * other.numerator for x in self.nums])
        other = self._coerce(other)
        order = min(self.order + other.lead, other.order + self.lead)
        lead = self.lead + other.lead
        if not (self.nums and other.nums):
            return QSeries(lead, order)
        step = gcd(self._step, other._step) or EIGHTH
        n = _points(lead, step, order, self._last + other._last)
        a = self._on_grid(self.lead, step, n)
        b = other._on_grid(other.lead, step, n)
        return QSeries._make(lead, order, step, self.den * other.den, _convolve(a, b, n))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative powers: use divide")
        if n == 0:
            return QSeries.one(10**9)
        # the truncation of n successive products: each product after the
        # first moves the order by the lead, as in __mul__
        lead, order = n * self.lead, self.order + (n - 1) * self.lead
        step = self._step or EIGHTH
        k = _points(lead, step, order, n * self._last)
        base, acc, bits = self._on_grid(self.lead, step, k), [1], n
        while True:  # square and multiply, each product truncated to k terms
            if bits & 1:
                acc = _convolve(acc, base, k)
            bits >>= 1
            if not bits:
                break
            base = _convolve(base, base, k)
        return QSeries._make(lead, order, step, self.den**n, acc)

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        den = self._coerce(other)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero series")
        dlead = next(den._terms())[0]
        rel = min(self.order - self.lead, den.order - dlead)
        if rel <= 0:
            raise TruncationError(
                "insufficient truncation overlap for division; "
                f"need order > lead, have relative order {rel}"
            )
        lead = self.lead - dlead
        order = lead + rel
        step = gcd(self._step, den._step) or gcd(self.stride, den.stride)
        k = -(-rel // step)
        num = self._on_grid(self.lead, step, k)
        d = den._on_grid(dlead, step, k)
        # divide the divisor by its content, with the sign that makes it lead with a > 0
        sign, content = (1 if d[0] > 0 else -1), gcd(*d)
        d = [sign * x // content for x in d]
        # q(a x) = num(a x) / (a m(x)) with m_0 = 1 and m_i = d_i a^(i-1), so
        # q_i = r_i / a^(i+1) for the integer series r = num(a x) / m
        a = d[0]
        powers = [a**i for i in range(k + 1)]
        m = [1] + [x * p for x, p in zip(d[1:], powers)]
        r = _convolve([x * p for x, p in zip(num, powers)], _inverse(m, k), k)
        q = [x * p for x, p in zip(r, reversed(powers[:k]))]
        scale = sign * den.den
        return QSeries._make(lead, order, step, self.den * content * a**k, [scale * x for x in q],
                             stride=gcd(self.stride, den.stride))

    def _coerce(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries(0, 10**9, {0: Fraction(other)})
        raise TypeError(f"cannot combine QSeries with {type(other).__name__}")

    # -- the operators the catalog needs ------------------------------------

    def D(self) -> "QSeries":
        """q d/dq: the coefficient of q^n is multiplied by n."""
        return QSeries._make(
            self.lead,
            self.order,
            self.stride,
            self.den * EIGHTH,
            [x * (self.lead + i * self.stride) for i, x in enumerate(self.nums)],
        )

    def translate(self, shift: int) -> "QSeries":
        """Substitute z -> z + shift (shift = +1 or -1).

        The coefficient of q^n picks up e^(2*pi*i*n*shift); on the half-integer
        grid this is a sign.  Finer support would need roots of unity, which
        are out of scope, so it is rejected.
        """
        if shift not in (1, -1):
            raise ValueError("shift must be +1 or -1")
        for e, _ in self._terms():
            if e % 4 != 0:
                raise ValueError(
                    f"translate needs support on the (1/2)Z grid, found exponent {e}/8"
                )
        nums = [x if (self.lead + i * self.stride) % 8 == 0 else -x for i, x in enumerate(self.nums)]
        return QSeries._make(self.lead, self.order, self.stride, self.den, nums)

    # -- numerical evaluation ------------------------------------------------

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents in units of q (exact) and coefficients rounded to nearest."""
        import numpy as np

        terms = list(self._terms())
        return np.array([e / EIGHTH for e, _ in terms]), np.array([x / self.den for _, x in terms])

    @cached_property
    def _reductions(self) -> tuple[np.ndarray, float, float]:
        """What ``eval_at`` reads of the terms beyond ``_floats``: |n|, sum |c|
        and the summation factor 16u + 2 gamma_N."""
        import numpy as np

        n, c = self._floats
        return np.abs(n), float(np.abs(c).sum()), 16 * U + 2 * _gamma(len(n))

    def eval_at(self, z, bound_constant: float) -> EvalResult:
        """Evaluate sum c(n) e^{2*pi*i*n*z} over the stored terms, at one z or an array of z.

        The caller asserts |c(n)| <= bound_constant * e^{4 pi sqrt(n)}
        for every n >= order on the support grid.  ``tail_bound`` then
        majorizes the distance from ``value`` to the full series: the tail,
        bounded once at the smallest Im z (or at ``_MAJORANT_Y_MAX`` if that
        is smaller: the majorant decreases in Im z, and past that height its
        products 2 pi y n would overflow), plus an a-priori roundoff bound at
        each point (Higham, *Accuracy and Stability*, ch. 3-4).  Each term
        carries the rounding of its coefficient, exp and product, and the error
        of a few u in the argument 2 pi n z, which exp turns into a relative
        error of about 2 pi |n z| u; the sum adds gamma_N.  Constants are
        doubled to cover the second-order terms.  A term that may fall below
        the smallest normal double adds 2^-1022 |c(n)|; at a point where every
        term is computed as 0, their true sum bounded in logs replaces these.
        """
        import numpy as np

        z = np.asarray(z, dtype=complex)
        y_min = float(z.imag.min())
        if not y_min > 0:
            raise ValueError("evaluation point must satisfy Im z > 0")
        if bound_constant < 0:
            raise ValueError("the growth-bound constant must be nonnegative")
        tail = _tail_majorant(self.lead, self.order, self.stride, bound_constant, min(y_min, _MAJORANT_Y_MAX))
        n, c = self._floats
        abs_n, abs_c_sum, summation = self._reductions
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            terms = np.exp((2j * math.pi) * np.multiply.outer(z, n)) * c
            value = terms.sum(axis=-1)
            mag = np.abs(terms)
            floor = _TINY * abs_c_sum
            if np.count_nonzero(mag[..., :1]) < mag[..., :1].size:  # the first term is 0 somewhere
                # where every term is 0 the error is below sum |c| e^{-2 pi n_0 Im z}, bounded in
                # logs so that a caller's x^p cannot blow it up; 8u, 2^-40 and 4 eta cover roundoff
                scale = 2 * math.pi * n[0] * (1 - 8 * U if n[0] > 0 else 1 + 8 * U)
                own = np.exp(math.log(abs_c_sum) - scale * z.imag) * (1 + 2.0**-40) + 4 * _ETA
                floor = np.where(np.count_nonzero(mag, axis=-1) == 0, own, floor)
            bound = tail + (summation * mag.sum(axis=-1) + 10 * math.pi * U * np.abs(z) * (mag @ abs_n) + floor)
        if not (np.isfinite(value).all() and np.isfinite(bound).all()):
            raise OverflowError(f"series value overflows a double at Im z = {y_min!r}")
        if z.ndim == 0:
            return EvalResult(value=complex(value), tail_bound=float(bound))
        return EvalResult(value=value, tail_bound=bound)

    # -- persistence -----------------------------------------------------------

    def to_doc(self, name: str = "", weight: int | None = None) -> dict:
        return {
            "name": name,
            "weight": weight,
            "stride": self.stride,
            "lead": self.lead,
            "order": self.order,
            "coefficients": [[e, f"{c.numerator}/{c.denominator}"] for e, c in self.coeffs.items()],
        }

    @staticmethod
    def from_doc(doc: dict) -> "QSeries":
        terms = {}
        for e, s in doc["coefficients"]:
            num, den = s.split("/")
            if int(den) == 0:
                raise ZeroDivisionError(f"coefficient {s} has a zero denominator")
            if int(num) != 0:
                terms[int(e)] = (int(num), int(den))
        lead, order, stride = doc["lead"], doc["order"], doc["stride"]
        return QSeries._make(lead, order, *_dense(lead, order, terms, stride), stride=stride)

    def dumps(self, name: str = "", weight: int | None = None) -> str:
        return json.dumps(self.to_doc(name, weight), indent=None, sort_keys=True)

    @staticmethod
    def loads(text: str) -> "QSeries":
        return QSeries.from_doc(json.loads(text))

    def __repr__(self) -> str:
        terms = list(self._terms())
        body = " + ".join(f"{Fraction(x, self.den)}*q^({e}/8)" for e, x in terms[:6])
        more = " + ..." if len(terms) > 6 else ""
        return f"QSeries({body}{more}; order={self.order}/8)"


class RayPlan:
    """sum_{n>0} c(n) int_1^oo t^p e^{-2 pi n t} e^{-pi y t} dt, termwise in closed
    form, for each of fixed rows (series, p, bound_constant), at one y >= 0 or
    an array of them; callers that evaluate the same rows again keep the plan.

    This is the Laplace transform along the ray z = it, t >= 1, of the terms
    with n > 0.  The closed forms int_1^oo t^p e^{-beta t} dt =
    e^{-beta} sum_{i<=p} (p!/(p-i)!) beta^{-(i+1)} read beta = pi (2n + y).
    The exponent grids of all rows lie in one row of 2n: per block of y, one
    add, multiply, exp and divide give -beta = (-pi)(2n + y), e^{-beta} and
    1/beta = -1/(-beta) over that row (exact rewritings of pi (2n + y) and
    its inverse), and the powers of 1/beta and the closed form m_p of each
    power p are formed once for every row.  Each row sums m_p against its own
    coefficients, and one ``np.matmul`` per grid forms all those sums: a dot
    product per sum at a 0-d y, a matrix-vector product per sum and block of
    an array, the kernels of ``ndarray.dot``.  Each row gives a pair (value,
    bound): Python floats at a 0-d y, arrays of y's shape otherwise.

    The plan holds all that does not depend on y: the row of 2n; the factors
    p!/(p-k)! per power; per grid its span of the row, the number of powers
    its rows read and the stack of the vectors each m_p meets there, c, |c|
    and 2n|c| of each row of power p; the picker of each row's three sums
    among the products; and per row the tail majorant
    times F(beta0), the summation factor and the subnormal term.
    The bound covers truncation and roundoff as in ``eval_at``: a
    discarded term has beta >= beta0 = 2 pi order, so the tail is at most
    F(beta0) e^{-pi y} times the tail majorant at Im z = 1; the computed beta
    has a relative error of a few u, which e^{-beta} turns into one of about
    beta u.
    """

    def __init__(self, rows) -> None:
        import numpy as np

        grids, consts = {}, []
        for i, (series, p, bound_constant) in enumerate(rows):
            if series.order <= 0:
                raise TruncationError("series truncated at or below q^0")
            beta0 = 2 * math.pi * series.order / EIGHTH
            factor = 0.0  # left to right, not by sum(), which CPython >= 3.12 compensates
            for k in range(p + 1):
                factor = factor + math.perm(p, k) * beta0 ** -(k + 1)
            majorant = _tail_majorant(series.lead, series.order, series.stride, bound_constant, 1.0)
            n, c = series._floats
            n, c = n[n > 0], c[n > 0]
            abs_c = np.abs(c)
            # rows with equal exponent grids share their closed forms
            grids.setdefault(n.tobytes(), (2 * n, []))[1].append((i, p, [c, abs_c, 2 * n * abs_c]))
            consts.append((factor * majorant, 48 * U + 2 * _gamma(len(n)), _TINY * abs_c.sum()))
        # per power p, each k = 1 .. p with the factor p!/(p-k)! of beta^-(k+1) in its closed form (None
        # for 1: 1 * x is x); the factors, -pi and -1 are 0-d arrays, which numpy takes faster than floats
        self.factors = [[(k, None if math.perm(p, k) == 1 else np.array(float(math.perm(p, k)))) for k in range(1, p + 1)]
                        for p in range(1 + max(p for _, p, _ in rows))]
        self.neg_pi, self.minus_one = np.array(-math.pi), np.array(-1.0)
        self.grids, keys, start = [], [], 0
        for two_n, members in grids.values():
            # per power p up to the grid's largest, the vectors m_p meets: ((row, j), vector j)
            met = [[] for _ in range(1 + max(p for _, p, _ in members))]
            for i, p, vectors in members:
                met[p] += [((i, j), v) for j, v in enumerate(vectors)]
            stack = np.zeros((max(map(len, met)), len(met), len(two_n), 1))
            for p, vectors in enumerate(met):
                for k, (_, v) in enumerate(vectors):
                    stack[k, p, :, 0] = v
            # np.matmul lays out m_p times vector k of the stack at k * len(met) + p
            keys += [met[p][k][0] if k < len(met[p]) else None for k in range(len(stack)) for p in range(len(met))]
            self.grids.append((slice(start, start + len(two_n)), len(met), stack))
            start += len(two_n)
        self.two_n = np.concatenate([two_n for two_n, _ in grids.values()])
        place = {key: at for at, key in enumerate(keys) if key is not None}
        # each row's value, sum m_p |c| and sum m_p 2n|c|
        self.pick = itemgetter(*(place[i, j] for i in range(len(rows)) for j in range(3)))
        self.consts = consts  # per row: tail factor, summation factor, subnormal term

    def __call__(self, y) -> list[tuple]:
        import numpy as np

        y = np.asarray(y, dtype=float)
        if not (y[()] >= 0 if y.ndim == 0 else (y >= 0).all()):
            raise ValueError("ray Laplace transform needs y >= 0")
        blocks = []
        for yb in _blocks(y, _RAY_BLOCK):
            neg_beta = self.neg_pi * (self.two_n + yb)
            decay = np.exp(neg_beta)
            inv = [self.minus_one / neg_beta]  # beta^-(k+1), each the last one times 1/beta
            for _ in self.factors[1:]:
                inv.append(inv[-1] * inv[0])
            m = np.empty((len(self.factors), *neg_beta.shape))
            for p, factors in enumerate(self.factors):
                acc = inv[0]
                for k, fact in factors:
                    acc = acc + (inv[k] if fact is None else fact * inv[k])
                np.multiply(decay, acc, out=m[p])
            products = []
            for span, grid_powers, stack in self.grids:
                grid = np.matmul(m[:grid_powers, ..., span].reshape(1, grid_powers, -1, stack.shape[2]), stack)
                products += grid.ravel().tolist() if y.ndim == 0 else list(grid.reshape(-1, len(yb)))
            blocks.append(self.pick(products))
        sums = _gather(blocks, y.shape) if y.ndim else blocks[0]  # each row's three sums, floats at one y
        flat = y if y.ndim else float(y)
        decay = np.exp((-math.pi) * flat)  # e^{-pi y}: numpy takes a float faster than a 0-d array
        decay = decay if y.ndim else float(decay)
        return [
            (v, t * decay + (g * b + _SIX_PI_U * (d + flat * b)) + tiny)
            for v, b, d, (t, g, tiny) in zip(sums[0::3], sums[1::3], sums[2::3], self.consts)
        ]


def _blocks(y, size: int) -> list:
    """The blocks of a pass over y: a 0-d y is one block, as a 0-d array
    (numpy takes an array operand faster than a scalar); an array is cut into
    columns of ``size`` values, so the pass's arrays stay small.  ``_gather``
    joins the results of the blocks."""
    if y.ndim == 0:
        return [y[...]]  # a 0-d array, also of a numpy scalar
    flat = y.reshape(-1, 1)
    return [flat[lo:lo + size] for lo in range(0, y.size, size)]


def _gather(blocks, shape: tuple) -> list:
    """The per-block results of a pass over y (per block, one value or array
    per quantity), joined quantity by quantity into arrays of y's shape; at a
    0-d y, the one block's as Python floats."""
    if not shape:
        block, = blocks
        return list(map(float, block))
    import numpy as np

    return [np.concatenate(column).reshape(shape) for column in zip(*blocks)]
