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
transform along the imaginary axis (``ray_laplace``) return one bound that
covers both the discarded tail, derived from a caller-supplied coefficient
growth bound |c(n)| <= C*e^{a*sqrt(n)}, and the float roundoff of the sum.
numpy is imported by these numeric entry points, not by the module, so the
exact kernel loads without it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .rigor import PI, Interval, sqrt_interval

if TYPE_CHECKING:
    import numpy as np

__all__ = ["QSeries", "EvalResult", "combine", "EIGHTH", "U"]

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
# array elements per block of closed forms in ray_laplace
_BLOCK_ELEMS = 1 << 18


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


def combine(parts) -> EvalResult:
    """sum of coefficient * result over (coefficient, EvalResult) pairs, bounding
    each result's error and the roundoff of forming each float coefficient,
    product and sum (a few u each, doubled for complex arithmetic), plus the
    absolute error of the products that underflow (a few eta per part: the
    real and imaginary parts of c * value and the scaled bound)."""
    value = sum(c * r.value for c, r in parts)
    scaled = sum(abs(c) * r.tail_bound for c, r in parts)
    magnitude = sum(abs(c) * abs(r.value) for c, r in parts)
    roundoff = 2 * (len(parts) + 8) * U * magnitude + 4 * len(parts) * _ETA
    return EvalResult(value=value, tail_bound=scaled + roundoff)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the summation error factor."""
    return n * U / (1 - n * U)


def _exp_int(p: int, beta: np.ndarray) -> np.ndarray:
    """int_1^oo t^p e^{-beta t} dt = e^{-beta} sum_{i<=p} (p!/(p-i)!) beta^{-(i+1)}."""
    import numpy as np

    inv = 1.0 / beta
    acc = inv
    fact = 1.0
    term = inv
    for i in range(1, p + 1):
        fact *= p - i + 1
        term = term * inv
        acc = acc + fact * term
    return np.exp(-beta) * acc


def _ray_constants(series: QSeries, p: int, bound_constant: float, bound_exponent: float) -> tuple:
    """The parts of ``QSeries.ray_laplace`` that do not depend on y, for one
    power and growth bound: 2n, c and |c| over the terms with n > 0, 2n|c|,
    the tail majorant times F(beta0), the summation factor and the
    subnormal term."""
    import numpy as np

    if series.order <= 0:
        raise TruncationError("series truncated at or below q^0")
    beta0 = 2 * math.pi * series.order / EIGHTH
    factor = sum(math.perm(p, i) * beta0 ** -(i + 1) for i in range(p + 1))
    majorant = _tail_majorant(series.lead, series.order, series.stride, bound_constant, bound_exponent, 1.0)
    n, c = series._floats
    n, c = n[n > 0], c[n > 0]
    abs_c = np.abs(c)
    return (2 * n, c, abs_c, 2 * n * abs_c, factor * majorant, 48 * U + 2 * _gamma(len(n)),
            _TINY * abs_c.sum())


@lru_cache(maxsize=1024)
def _tail_majorant(lead: int, order: int, stride: int, c: float, a: float, y: float) -> float:
    """Rigorous bound on sum C e^{a sqrt(n)} e^{-2 pi n y} over the grid points
    n >= order of a series with this lead and stride (cached: it depends on
    no coefficient, and ``eval_at`` asks for it at every call's smallest Im z).

    The majorant splits the tail at the index past which e^{a sqrt(n)} is
    beaten by e^{pi*y*n}: finitely many leading tail terms are bounded
    individually in interval arithmetic, the rest by a geometric series
    with ratio exp(-pi*y*stride/8).
    """
    # tail starts at the first grid point >= order
    step = Fraction(stride, EIGHTH)
    n0 = Fraction(order, EIGHTH)
    k0 = math.ceil((n0 - Fraction(lead, EIGHTH)) / step)
    n0 = Fraction(lead, EIGHTH) + k0 * step
    # geometric regime begins once a*sqrt(n) <= pi*y*n  <=>  n >= (a/(pi y))^2
    n_star = Fraction(max(float(n0), (a / (math.pi * y)) ** 2 + 1))
    n_explicit = math.ceil((n_star - n0) / step)
    if n_explicit > _MAX_EXPLICIT_TERMS:
        hint = math.ceil(float(n_star)) * EIGHTH
        raise TruncationError(
            "tail majorant needs too many explicit terms at this point; "
            f"rebuild the series to order >= {hint} grid units (q^{hint // 8})"
        )
    c_iv = Interval.point(c)
    a_iv = Interval.point(a)
    y_iv = Interval.point(y)
    two_pi_y = 2 * PI * y_iv
    tail = Interval.point(0.0)
    n = n0
    for _ in range(n_explicit):
        n_iv = Interval.from_rational(n)
        term = c_iv * (a_iv * sqrt_interval(n_iv) - two_pi_y * n_iv).exp()
        tail = tail + term
        n += step
    # geometric remainder from n onward: each term <= C e^{-pi y n},
    # ratio exp(-pi*y*step)
    n_iv = Interval.from_rational(n)
    step_iv = Interval.from_rational(step)
    ratio = (-PI * y_iv * step_iv).exp()
    if ratio.hi >= 1.0:
        raise TruncationError("geometric tail ratio >= 1; Im z too small")
    first = c_iv * (-PI * y_iv * n_iv).exp()
    return (tail + first / (1 - ratio)).hi


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
        # the truncation of n successive products, starting from one(10**9)
        lead, order = 0, 10**9
        for _ in range(n):
            lead, order = lead + self.lead, min(order + self.lead, self.order + lead)
        if n == 0:
            return QSeries.one(order)
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

    def eval_at(self, z, bound_constant: float, bound_exponent: float) -> EvalResult:
        """Evaluate sum c(n) e^{2*pi*i*n*z} over the stored terms, at one z or an array of z.

        The caller asserts |c(n)| <= bound_constant * e^{bound_exponent*sqrt(n)}
        for every n >= order on the support grid.  ``tail_bound`` then
        majorizes the distance from ``value`` to the full series: the tail,
        bounded once at the smallest Im z, plus an a-priori roundoff bound at
        each point (Higham, *Accuracy and Stability*, ch. 3-4).  Each term
        carries the rounding of its coefficient, exp and product, and the error
        of a few u in the argument 2 pi n z, which exp turns into a relative
        error of about 2 pi |n z| u; the sum adds gamma_N.  Constants are
        doubled to cover the second-order terms.
        """
        import numpy as np

        z = np.asarray(z, dtype=complex)
        y_min = float(np.min(z.imag))
        if not y_min > 0:
            raise ValueError("evaluation point must satisfy Im z > 0")
        if bound_constant < 0 or bound_exponent < 0:
            raise ValueError("growth-bound parameters must be nonnegative")
        tail = _tail_majorant(self.lead, self.order, self.stride, bound_constant, bound_exponent, y_min)
        n, c = self._floats
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            terms = np.exp((2j * math.pi) * np.multiply.outer(z, n)) * c
            value = terms.sum(axis=-1)
            mag = np.abs(terms)
            bound = tail + (
                (16 * U + 2 * _gamma(len(n))) * mag.sum(axis=-1)
                + 10 * math.pi * U * np.abs(z) * (mag @ np.abs(n))
                + _TINY * np.abs(c).sum()
            )
        if not (np.all(np.isfinite(value)) and np.all(np.isfinite(bound))):
            raise OverflowError(f"series value overflows a double at Im z = {y_min!r}")
        if z.ndim == 0:
            return EvalResult(value=complex(value), tail_bound=float(bound))
        return EvalResult(value=value, tail_bound=bound)

    @cached_property
    def _ray_cache(self) -> dict:
        """``_ray_constants`` by (p, bound_constant, bound_exponent)."""
        return {}

    def ray_laplace(self, p: int, y, bound_constant: float, bound_exponent: float) -> EvalResult:
        """sum_{n>0} c(n) int_1^oo t^p e^{-2 pi n t} e^{-pi y t} dt, termwise in closed form.

        This is the Laplace transform along the ray z = it, t >= 1, of the
        terms with n > 0, at one y >= 0 or an array of them.  ``tail_bound``
        covers truncation and roundoff as in ``eval_at``: a discarded term has
        beta = pi (2n + y) >= beta0 = 2 pi order, so the tail is at most
        F(beta0) e^{-pi y} times the tail majorant at Im z = 1; the computed
        beta has a relative error of a few u, which e^{-beta} turns into one
        of about beta u.
        """
        import numpy as np

        y = np.asarray(y, dtype=float)
        if np.count_nonzero(y >= 0) < y.size:
            raise ValueError("ray Laplace transform needs y >= 0")
        key = (p, bound_constant, bound_exponent)
        if key not in self._ray_cache:
            self._ray_cache[key] = _ray_constants(self, *key)
        two_n, c, abs_c, two_n_abs_c, tail_factor, gamma_factor, tiny = self._ray_cache[key]
        tail = tail_factor * np.exp(-math.pi * y)
        flat = y.reshape(-1)
        value, rounding = np.empty_like(flat), np.empty_like(flat)
        rows = max(1, _BLOCK_ELEMS // max(1, len(c)))  # keep each block of closed forms small
        for lo in range(0, len(flat), rows):
            yb = flat[lo:lo + rows]
            m = _exp_int(p, math.pi * (two_n + yb[:, None]))
            mc = m @ abs_c
            value[lo:lo + rows] = m @ c
            rounding[lo:lo + rows] = gamma_factor * mc + 6 * math.pi * U * (m @ two_n_abs_c + yb * mc)
        bound = tail + rounding.reshape(y.shape) + tiny
        if y.ndim == 0:
            return EvalResult(value=float(value[0]), tail_bound=float(bound))
        return EvalResult(value=value.reshape(y.shape), tail_bound=bound)

    # -- persistence -----------------------------------------------------------

    def to_doc(self, name: str = "", weight: int | None = None) -> dict:
        doc = {
            "name": name,
            "weight": weight,
            "stride": self.stride,
            "lead": self.lead,
            "order": self.order,
            "coefficients": [
                [e, f"{x // g}/{self.den // g}"]
                for e, x in self._terms()
                for g in (gcd(x, self.den),)
            ],
        }
        return doc

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
