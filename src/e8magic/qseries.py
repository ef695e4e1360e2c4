"""Truncated q-expansions with exact rational coefficients.

Series live on the exponent grid (1/8)*Z, fine enough for the theta constant
with half-integer square exponents; everything else (theta fourth powers,
Eisenstein series, the weakly holomorphic forms) embeds in it.  Exponents are
stored as integer counts of 1/8 units.  Coefficients are `fractions.Fraction`
and every operation is exact: the only approximation anywhere is the explicit
truncation order, which each operation propagates conservatively.

This module is the one place where exact coefficients become floats: each
series keeps float arrays of its terms, built on first use.  Evaluation at one
or many points of the upper half-plane (``eval_at``) and the termwise Laplace
transform along the imaginary axis (``ray_laplace``) return one bound that
covers both the discarded tail, derived from a caller-supplied coefficient
growth bound |c(n)| <= C*e^{a*sqrt(n)}, and the float roundoff of the sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Mapping

import numpy as np

from .rigor import PI, Interval, sqrt_interval

__all__ = ["QSeries", "EvalResult", "combine", "DEFAULT_ORDER_STEPS", "EIGHTH", "U"]

# grid units per integer exponent step
EIGHTH = 8
# default truncation: 64 integer q-steps past the lead
DEFAULT_ORDER_STEPS = 64
# unit roundoff of IEEE-754 double precision
U = 2.0**-53
# below the smallest normal double, exp and products lose their relative
# accuracy; every such term is off by at most this much times |c(n)|
_TINY = 2.0**-1022
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
    product and sum (a few u each, doubled for complex arithmetic)."""
    value = sum(c * r.value for c, r in parts)
    scaled = sum(abs(c) * r.tail_bound for c, r in parts)
    magnitude = sum(abs(c) * abs(r.value) for c, r in parts)
    return EvalResult(value=value, tail_bound=scaled + 2 * (len(parts) + 8) * U * magnitude)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the summation error factor."""
    return n * U / (1 - n * U)


def _exp_int(p: int, beta: np.ndarray) -> np.ndarray:
    """int_1^oo t^p e^{-beta t} dt = e^{-beta} sum_{i<=p} (p!/(p-i)!) beta^{-(i+1)}."""
    inv = 1.0 / beta
    acc = inv.copy()
    fact = 1.0
    term = inv
    for i in range(1, p + 1):
        fact *= p - i + 1
        term = term * inv
        acc = acc + fact * term
    return np.exp(-beta) * acc


@lru_cache(maxsize=1024)
def _tail_majorant(lead: int, order: int, stride: int, c: float, a: float, y: float) -> float:
    """Rigorous bound on sum C e^{a sqrt(n)} e^{-2 pi n y} over the grid points
    n >= order of a series with this lead and stride (cached: it depends on
    no coefficient, and ``ray_laplace`` asks for it at y = 1 on every call).

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


@dataclass(frozen=True)
class QSeries:
    """Sparse truncated series  sum_{lead <= e < order} c(e) q^(e/8).

    ``lead`` may be negative (simple poles at the cusp are first-class).
    ``order`` is the exclusive truncation bound; coefficients at exponents
    >= order are unknown, not zero.  ``stride`` records the grid the support
    actually lives on (in 1/8 units); it always divides every populated
    exponent minus ``lead``.
    """

    lead: int
    order: int
    coeffs: Mapping[int, Fraction] = field(default_factory=dict)
    stride: int = EIGHTH

    def __post_init__(self) -> None:
        clean = {}
        for e, c in self.coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            if not (self.lead <= e < self.order):
                raise ValueError(f"exponent {e} outside [{self.lead}, {self.order})")
            clean[int(e)] = c
        stride = 0
        for e in clean:
            stride = gcd(stride, e - self.lead)
        if stride == 0:
            stride = self.stride
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "stride", stride)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int = DEFAULT_ORDER_STEPS * EIGHTH) -> "QSeries":
        return QSeries(0, order, {})

    @staticmethod
    def one(order: int = DEFAULT_ORDER_STEPS * EIGHTH) -> "QSeries":
        return QSeries(0, order, {0: Fraction(1)})

    @staticmethod
    def monomial(e: int, c=1, order: int | None = None) -> "QSeries":
        if order is None:
            order = e + DEFAULT_ORDER_STEPS * EIGHTH
        return QSeries(e, order, {e: Fraction(c)})

    # -- basic queries ----------------------------------------------------

    def coeff(self, e: int) -> Fraction:
        """Coefficient of q^(e/8); raises past the truncation order."""
        if e >= self.order:
            raise TruncationError(f"exponent {e} is beyond truncation order {self.order}")
        return self.coeffs.get(e, Fraction(0))

    def coeff_q(self, n) -> Fraction:
        """Coefficient of q^n for rational n (n in units of 1, not eighths)."""
        e = Fraction(n) * EIGHTH
        if e.denominator != 1:
            raise ValueError(f"exponent {n} is not on the 1/8 grid")
        return self.coeff(int(e))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.lead, self.order, self.coeffs) == (other.lead, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.lead, self.order, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries(self.lead, self.order, {e: -c for e, c in self.coeffs.items()})

    def __add__(self, other) -> "QSeries":
        other = self._coerce(other)
        lead = min(self.lead, other.lead)
        order = min(self.order, other.order)
        out: dict[int, Fraction] = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        out = {e: c for e, c in out.items() if e < order}
        return QSeries(lead, order, out)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return QSeries(
                self.lead, self.order, {e: c * other for e, c in self.coeffs.items()}
            )
        other = self._coerce(other)
        order = min(self.order + other.lead, other.order + self.lead)
        lead = self.lead + other.lead
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e < order:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QSeries(lead, order, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("negative powers: use divide")
        result = QSeries.one(10**9)
        for _ in range(n):
            result = result * self
        return result

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        den = self._coerce(other)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero series")
        dlead = min(den.coeffs)
        d0 = den.coeffs[dlead]
        rel = min(self.order - self.lead, den.order - dlead)
        if rel <= 0:
            raise TruncationError(
                "insufficient truncation overlap for division; "
                f"need order > lead, have relative order {rel}"
            )
        lead = self.lead - dlead
        order = lead + rel
        stride = gcd(self.stride, den.stride)
        out: dict[int, Fraction] = {}
        # long division on the common grid
        for e in range(lead, order, stride):
            num_c = self.coeffs.get(e + dlead, Fraction(0))
            acc = num_c
            for e2, c2 in out.items():
                dc = den.coeffs.get(e + dlead - e2, None)
                if dc is not None:
                    acc -= c2 * dc
            if acc != 0:
                out[e] = acc / d0
        return QSeries(lead, order, out, stride=stride)

    def _coerce(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries(0, 10**9, {0: Fraction(other)})
        raise TypeError(f"cannot combine QSeries with {type(other).__name__}")

    # -- the operators the catalog needs ------------------------------------

    def D(self) -> "QSeries":
        """q d/dq: the coefficient of q^n is multiplied by n."""
        return QSeries(
            self.lead,
            self.order,
            {e: c * Fraction(e, EIGHTH) for e, c in self.coeffs.items()},
        )

    def translate(self, shift: int) -> "QSeries":
        """Substitute z -> z + shift (shift = +1 or -1).

        The coefficient of q^n picks up e^(2*pi*i*n*shift); on the half-integer
        grid this is a sign.  Finer support would need roots of unity, which
        are out of scope, so it is rejected.
        """
        if shift not in (1, -1):
            raise ValueError("shift must be +1 or -1")
        out = {}
        for e, c in self.coeffs.items():
            if e % 4 != 0:
                raise ValueError(
                    f"translate needs support on the (1/2)Z grid, found exponent {e}/8"
                )
            out[e] = c if e % 8 == 0 else -c
        return QSeries(self.lead, self.order, out)

    # -- numerical evaluation ------------------------------------------------

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents in units of q (exact) and coefficients rounded to nearest."""
        items = sorted(self.coeffs.items())
        return np.array([e / EIGHTH for e, _ in items]), np.array([float(c) for _, c in items])

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
        y = np.asarray(y, dtype=float)
        if not np.all(y >= 0):
            raise ValueError("ray Laplace transform needs y >= 0")
        if self.order <= 0:
            raise TruncationError("series truncated at or below q^0")
        beta0 = 2 * math.pi * self.order / EIGHTH
        factor = sum(math.perm(p, i) * beta0 ** -(i + 1) for i in range(p + 1))
        majorant = _tail_majorant(self.lead, self.order, self.stride, bound_constant, bound_exponent, 1.0)
        tail = factor * majorant * np.exp(-math.pi * y)
        n, c = self._floats
        n, c = n[n > 0], c[n > 0]
        flat = y.reshape(-1)
        value, rounding = np.empty_like(flat), np.empty_like(flat)
        rows = max(1, _BLOCK_ELEMS // max(1, len(n)))  # keep each block of closed forms small
        for lo in range(0, len(flat), rows):
            yb = flat[lo:lo + rows]
            m = _exp_int(p, math.pi * (2 * n + yb[:, None]))
            mc = m @ np.abs(c)
            value[lo:lo + rows] = m @ c
            rounding[lo:lo + rows] = (48 * U + 2 * _gamma(len(n))) * mc + 6 * math.pi * U * (
                m @ (2 * n * np.abs(c)) + yb * mc
            )
        bound = tail + rounding.reshape(y.shape) + _TINY * np.abs(c).sum()
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
                [e, f"{c.numerator}/{c.denominator}"]
                for e, c in sorted(self.coeffs.items())
            ],
        }
        return doc

    @staticmethod
    def from_doc(doc: dict) -> "QSeries":
        coeffs = {}
        for e, s in doc["coefficients"]:
            num, den = s.split("/")
            coeffs[int(e)] = Fraction(int(num), int(den))
        return QSeries(doc["lead"], doc["order"], coeffs, stride=doc["stride"])

    def dumps(self, name: str = "", weight: int | None = None) -> str:
        return json.dumps(self.to_doc(name, weight), indent=None, sort_keys=True)

    @staticmethod
    def loads(text: str) -> "QSeries":
        return QSeries.from_doc(json.loads(text))

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())[:6]
        body = " + ".join(f"{c}*q^({e}/8)" for e, c in terms)
        more = " + ..." if len(self.coeffs) > 6 else ""
        return f"QSeries({body}{more}; order={self.order}/8)"
