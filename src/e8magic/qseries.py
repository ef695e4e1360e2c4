"""Truncated q-expansions with exact rational coefficients.

Series live on the exponent grid (1/8)*Z, fine enough for the theta constant
with half-integer square exponents; everything else (theta fourth powers,
Eisenstein series, the weakly holomorphic forms) embeds in it.  Exponents are
integer counts of 1/8 units.  A series is stored as one positive integer
denominator and a dense tuple of integer numerators on its stride grid, so
every operation is exact integer arithmetic: a product is a big-integer
multiply (Kronecker substitution: Harvey, *J. Symb. Comp.* 2009), a power
repeated products, a quotient an integer power-series inverse.  The only
approximation anywhere is the explicit truncation order, which each
operation propagates conservatively.  ``coeffs`` presents the same series as
exact ``Fraction``s.

Evaluation in floats lives in ``qfloat`` (``qfloat.eval_at(series, z, C)``):
this module imports no numpy, so the exact kernel loads without it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

__all__ = ["QSeries", "TruncationError", "EIGHTH", "U"]

# grid units per integer exponent step
EIGHTH = 8
# unit roundoff of IEEE-754 double precision
U = 2.0**-53


class TruncationError(ValueError):
    """Raised when an operation would need more series terms than stored."""


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

    product = pack(a) * pack(b)
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

    def __setattr__(self, name, value=None):  # immutable: ``_set`` stores through object.__setattr__
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

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
        """n successive products from 1, each truncated as ``__mul__`` truncates."""
        if n < 0:
            raise ValueError("negative powers: use divide")
        out = QSeries.one(10**9)
        for _ in range(n):
            out = out * self
        return out

    def __truediv__(self, other) -> "QSeries":
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

    def translate(self) -> "QSeries":
        """Substitute z -> z + 1.

        The coefficient of q^n picks up e^(2*pi*i*n); on the half-integer grid
        this is a sign, the same for z -> z - 1.  Finer support would need
        roots of unity, which are out of scope, so it is rejected.
        """
        for e, _ in self._terms():
            if e % 4 != 0:
                raise ValueError(
                    f"translate needs support on the (1/2)Z grid, found exponent {e}/8"
                )
        nums = [x if (self.lead + i * self.stride) % 8 == 0 else -x for i, x in enumerate(self.nums)]
        return QSeries._make(self.lead, self.order, self.stride, self.den, nums)

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
        """The series of a ``to_doc`` document; each coefficient must read "num/den"."""
        coeffs = {}
        for e, s in doc["coefficients"]:
            num, den = s.split("/")
            coeffs[int(e)] = Fraction(int(num), int(den))  # ZeroDivisionError on a zero den
        return QSeries(doc["lead"], doc["order"], coeffs, doc["stride"])

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
