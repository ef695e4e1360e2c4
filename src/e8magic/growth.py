"""Growth of the catalog forms' Fourier coefficients, outside the certificate.

The certificates assume |c(n)| <= C e^{4 pi sqrt(n)} for the constants C of
``modforms.GROWTH_BOUNDS``.  ``coefficient_bound_check`` tests one such bound
on the exact coefficients up to a caller's n_max, and
``rademacher_coefficient`` implements the circle-method expansion of the
Fourier coefficients (Kloosterman-type sums against modified Bessel I) as a
non-rigorous convergence diagnostic.  Neither is part of the certificate
chain: no verb loads this module, and it imports no numpy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .modforms import GROWTH_BOUNDS, WEIGHTS, FormId, build_form
from .qseries import EIGHTH

__all__ = ["kloosterman_sum", "rademacher_coefficient", "coefficient_bound_check"]

FOUR_PI = 4 * math.pi


# ---------------------------------------------------------------------------
# circle-method coefficients

def kloosterman_sum(n, k: int) -> complex:
    """A_k(n) = sum over h mod k, (h,k)=1 of e^{-2 pi i (n h + h')/k}, h h' = -1 mod k."""
    if k < 1:
        raise ValueError("modulus must be positive")
    n = Fraction(n)
    if k == 1:
        return 1.0 + 0j
    total = 0j
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        hp = -pow(h, -1, k) % k
        total += cmath.exp(-2j * math.pi / k * float(n * h + hp))
    return total


_CIRCLE_METHOD_FORMS = (FormId.J, FormId.VPHI_M2, FormId.VPHI_M4)


def _bessel_i(nu: int, x: float) -> float:
    """I_nu(x) for an integer nu >= 0 and x > 0, from its power series
    sum_k (x/2)^(2k+nu) / (k! (k+nu)!) (DLMF 10.25.2), whose terms are all
    positive, summed until they stop changing the sum.  Past x ~ 714 I_nu(x)
    leaves the double range, which raises ValueError."""
    half = x / 2
    term = 1.0
    for j in range(1, nu + 1):  # float products saturate to inf instead of raising
        term *= half / j
    total, k = 0.0, 0
    while total + term > total:
        total += term
        k += 1
        term *= half * half / (k * (k + nu))
    if not math.isfinite(total):
        raise ValueError(f"I_{nu}({x!r}) passes the double range")
    return total


def rademacher_coefficient(kind: FormId, n: int, k_max: int) -> float:
    """Partial sum of the convergent circle-method expansion of c(n).

    Supported for the integer-indexed forms only (j and the two varphi's);
    the Bessel order is 1 - kappa for weight kappa.  Once 4 pi sqrt(n) passes
    about 714, the first Bessel value leaves the double range and this raises
    ValueError, naming that argument.
    """
    if kind not in _CIRCLE_METHOD_FORMS:
        raise ValueError(f"circle-method expansion not catalogued for {kind}")
    if n < 1 or k_max < 1:
        raise ValueError("need n >= 1 and k_max >= 1")
    kappa = WEIGHTS[kind]
    nu = 1 - kappa
    root = math.sqrt(n)
    total = 0.0
    for k in range(1, k_max + 1):
        ak = kloosterman_sum(n, k).real
        total += ak / k * _bessel_i(nu, FOUR_PI * root / k)
    return 2 * math.pi * n ** ((kappa - 1) / 2) * total


# ---------------------------------------------------------------------------
# coefficient bound verification

class BoundReport(NamedTuple):
    form: FormId
    n_max: Fraction
    constant: float
    max_ratio: float
    worst_index: Fraction | None
    violations: tuple
    @property
    def passed(self) -> bool:
        return not self.violations


def coefficient_bound_check(form: FormId, n_max) -> BoundReport:
    """Check |c(n)| <= C e^{4 pi sqrt(n)} for every index in (0, n_max]."""
    n_max = Fraction(n_max)
    # every catalog form leads at q^-1 or later, so this order reaches past n_max
    series = build_form(form, math.floor(n_max) + 2)
    c = GROWTH_BOUNDS[form]
    max_ratio, worst, violations = 0.0, None, []
    for e, coeff in sorted(series.coeffs.items()):
        n = Fraction(e, EIGHTH)
        if n <= 0 or n > n_max:
            continue
        bound = c * math.exp(FOUR_PI * math.sqrt(n))
        ratio = abs(float(coeff)) / bound
        if ratio > max_ratio:
            max_ratio, worst = ratio, n
        if ratio > 1.0:
            violations.append((n, coeff))
    return BoundReport(form, n_max, c, max_ratio, worst, tuple(violations))
