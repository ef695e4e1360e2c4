"""Catalog of the specific modular and quasimodular forms the construction uses.

Everything is generated from first principles as an exact ``QSeries``:
Eisenstein series from divisor sums, theta fourth powers from the lattice
sums of the three theta constants, the weakly holomorphic forms from the
explicit quotients, and the psi family from its closed theta expressions.
The slash action of T (z -> z+1) is available at series level; the S action
(z -> -1/z) has no series realization and is checked numerically through
``verify_transform``, against the bound on truncation and roundoff that
``QSeries.eval_at`` returns.

``rademacher_coefficient`` implements the circle-method expansion of the
Fourier coefficients (Kloosterman-type sums against modified Bessel I); it
is a non-rigorous convergence diagnostic, not part of the certificate chain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .qseries import EIGHTH, EvalResult, QSeries, combine

__all__ = [
    "FormId",
    "KloostermanSum",
    "eisenstein",
    "theta",
    "build_form",
    "verify_transform",
    "kloosterman_sum",
    "rademacher_coefficient",
    "coefficient_bound_check",
    "growth_bound",
    "eval_form",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 64

FOUR_PI = 4 * math.pi


class FormId(Enum):
    E2 = "E2"
    E4 = "E4"
    E6 = "E6"
    J = "j"
    TH00_4 = "theta00^4"
    TH01_4 = "theta01^4"
    TH10_4 = "theta10^4"
    VPHI_M2 = "varphi_-2"
    VPHI_M4 = "varphi_-4"
    PHI_M4 = "phi_-4"
    PHI_M2 = "phi_-2"
    PHI_0 = "phi_0"
    H = "h"
    PSI_I = "psi_I"
    PSI_T = "psi_T"
    PSI_S = "psi_S"


WEIGHTS = {
    FormId.E2: 2,
    FormId.E4: 4,
    FormId.E6: 6,
    FormId.J: 0,
    FormId.TH00_4: 2,
    FormId.TH01_4: 2,
    FormId.TH10_4: 2,
    FormId.VPHI_M2: -2,
    FormId.VPHI_M4: -4,
    FormId.PHI_M4: -4,
    FormId.PHI_M2: -2,
    FormId.PHI_0: 0,
    FormId.H: -2,
    FormId.PSI_I: -2,
    FormId.PSI_T: -2,
    FormId.PSI_S: -2,
}

# coefficient growth hypotheses |c(n)| <= C * e^{a sqrt(n)}; the weakly
# holomorphic bounds are the ones the remainder envelopes assume, the
# holomorphic ones are generous blankets over polynomial growth.  All are
# re-verified on the computed range by coefficient_bound_check.
GROWTH_BOUNDS = {
    FormId.E2: (1.0, FOUR_PI),
    FormId.E4: (1.0, FOUR_PI),
    FormId.E6: (1.0, FOUR_PI),
    FormId.J: (1.0, FOUR_PI),
    FormId.TH00_4: (1.0, FOUR_PI),
    FormId.TH01_4: (1.0, FOUR_PI),
    FormId.TH10_4: (1.0, FOUR_PI),
    FormId.VPHI_M2: (2.0, FOUR_PI),
    FormId.VPHI_M4: (1.0, FOUR_PI),
    FormId.PHI_M4: (1.0, FOUR_PI),
    FormId.PHI_M2: (1.0, FOUR_PI),
    FormId.PHI_0: (2.0, FOUR_PI),
    FormId.H: (1.0, FOUR_PI),
    FormId.PSI_I: (1.0, FOUR_PI),
    FormId.PSI_T: (1.0, FOUR_PI),
    FormId.PSI_S: (2.0, FOUR_PI),
}


def growth_bound(form: FormId) -> tuple[float, float]:
    return GROWTH_BOUNDS[form]


def eisenstein(k: int, order: int = DEFAULT_ORDER) -> QSeries:
    """E_k as an exact q-expansion (k in {2, 4, 6}), with the divisor sums
    sigma_{k-1}(n) for n < order taken from one sieve over the divisors."""
    factors = {2: -24, 4: 240, 6: -504}
    if k not in factors:
        raise ValueError(f"unsupported Eisenstein weight {k}")
    sigma = [0] * order
    for d in range(1, order):
        power = d ** (k - 1)
        for n in range(d, order, d):
            sigma[n] += power
    coeffs = {0: Fraction(1)}
    for n in range(1, order):
        coeffs[n * EIGHTH] = Fraction(factors[k] * sigma[n])
    return QSeries(0, order * EIGHTH, coeffs)


def theta(kind: str, order: int = DEFAULT_ORDER) -> QSeries:
    """One of the three theta constants, by direct lattice sum.

    kind '00': sum q^{n^2/2}; '01': alternating signs; '10': exponents
    (n+1/2)^2/2, which live at odd squares on the 1/8 grid.
    """
    bound = order * EIGHTH  # exclusive, in eighths
    coeffs: dict[int, Fraction] = {}
    if kind in ("00", "01"):
        n = 0
        while 4 * n * n < bound:
            e = 4 * n * n
            mult = 1 if n == 0 else 2
            sign = -1 if (kind == "01" and n % 2 == 1) else 1
            coeffs[e] = coeffs.get(e, Fraction(0)) + mult * sign
            n += 1
        return QSeries(0, bound, coeffs)
    if kind == "10":
        m = 1
        while m * m < bound + 1:
            coeffs[m * m] = Fraction(2)
            m += 2
        return QSeries(1, bound + 1, coeffs)
    raise ValueError(f"unknown theta kind {kind!r}")


# ---------------------------------------------------------------------------
# catalog

_CACHE: dict[tuple[FormId, int], QSeries] = {}


def build_form(form: FormId, order: int = DEFAULT_ORDER) -> QSeries:
    """Exact q-expansion of a catalog form, valid for at least ``order``
    integer q-steps past its lead exponent."""
    key = (form, order)
    if key not in _CACHE:
        _CACHE[key] = _build(form, order)
    return _CACHE[key]


_EISENSTEIN_WEIGHT = {FormId.E2: 2, FormId.E4: 4, FormId.E6: 6}
_THETA_KIND = {FormId.TH00_4: "00", FormId.TH01_4: "01", FormId.TH10_4: "10"}


def _build(form: FormId, order: int) -> QSeries:
    """One catalog form from its ingredients, each read through ``build_form``
    so that every ingredient is built once per order."""
    if form in _EISENSTEIN_WEIGHT:
        return eisenstein(_EISENSTEIN_WEIGHT[form], order + 3)  # margin for the divisions
    if form in _THETA_KIND:
        return theta(_THETA_KIND[form], order + 3) ** 4

    def part(ingredient: FormId) -> QSeries:
        return build_form(ingredient, order)

    if form in (FormId.VPHI_M4, FormId.VPHI_M2):
        # divided by 1728*Delta each: a quotient by E4 or E6, which vanish in
        # the upper half-plane, would carry an exponentially growing inverse
        e4, e6 = part(FormId.E4), part(FormId.E6)
        numerator = e4**2 if form is FormId.VPHI_M4 else -(e4 * e6)
        return 1728 * numerator / (e4**3 - e6**2)
    if form is FormId.PHI_M4:
        return part(FormId.VPHI_M4)
    if form is FormId.J:
        return part(FormId.VPHI_M4) * part(FormId.E4)
    if form is FormId.PHI_M2:
        return part(FormId.VPHI_M4) * part(FormId.E2) + part(FormId.VPHI_M2)
    if form is FormId.PHI_0:
        vphi4, vphi2, e2 = part(FormId.VPHI_M4), part(FormId.VPHI_M2), part(FormId.E2)
        return vphi4 * e2 * e2 + 2 * (vphi2 * e2) + part(FormId.J) - 1728

    t00_4, t01_4, t10_4 = part(FormId.TH00_4), part(FormId.TH01_4), part(FormId.TH10_4)
    if form is FormId.H:
        return 128 * (t00_4 + t01_4) / t10_4**2
    if form is FormId.PSI_I:
        return part(FormId.H) + 128 * (t01_4 - t10_4) / t00_4**2
    if form is FormId.PSI_T:
        return part(FormId.H) + 128 * (t00_4 + t10_4) / t01_4**2
    if form is FormId.PSI_S:
        return -128 * (t00_4 + t10_4) / t01_4**2 - 128 * (t10_4 - t01_4) / t00_4**2
    raise ValueError(f"unknown form {form}")


def eval_form(form: FormId, z, order: int = DEFAULT_ORDER) -> EvalResult:
    """Evaluate a catalog form at one z or an array of z, with its bound on
    truncation and roundoff."""
    c, a = GROWTH_BOUNDS[form]
    return build_form(form, order).eval_at(z, c, a)


# ---------------------------------------------------------------------------
# transformation laws (numerical residuals, series-level where possible)

# S action on theta fourth powers: z^-2 F(-1/z) = -G(z)
_THETA_S_PARTNER = {
    FormId.TH00_4: FormId.TH00_4,
    FormId.TH01_4: FormId.TH10_4,
    FormId.TH10_4: FormId.TH01_4,
}
# T action: F(z+1) = sign * G(z)
_THETA_T_PARTNER = {
    FormId.TH00_4: (FormId.TH01_4, 1),
    FormId.TH01_4: (FormId.TH00_4, 1),
    FormId.TH10_4: (FormId.TH10_4, -1),
}


@dataclass(frozen=True)
class TransformCheck:
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def verify_transform(form: FormId, law: str, z: complex, order: int = DEFAULT_ORDER) -> TransformCheck:
    """Residual of a transformation law at a point of the upper half-plane.

    law 'T' is checked exactly at series level (residual 0 when it holds);
    the others write the law as sum coefficient * value = 0 over numerical
    evaluations and return the residual together with the bound on the
    truncation and roundoff of every evaluation and of their combination.
    """
    if z.imag <= 0:
        raise ValueError("need Im z > 0")
    w = -1 / z

    if law == "T":
        series = build_form(form, order)
        if form in _THETA_T_PARTNER:
            partner, sign = _THETA_T_PARTNER[form]
            target = sign * build_form(partner, order)
        elif form is FormId.PSI_I:
            target = build_form(FormId.PSI_T, order)
        else:
            raise ValueError(f"no catalogued T law for {form}")
        diff = series.translate(+1) - target
        return TransformCheck(residual=0.0 if diff.is_zero() else math.inf, bound=0.0)

    if law == "S" and form in _THETA_S_PARTNER:
        parts = [
            (z ** (-2), eval_form(form, w, order)),
            (1, eval_form(_THETA_S_PARTNER[form], z, order)),
        ]
    elif law == "S" and form is FormId.PSI_I:
        # weight -2 slash: z^2 psi_I(-1/z) = psi_S(z)
        parts = [
            (z**2, eval_form(FormId.PSI_I, w, order)),
            (-1, eval_form(FormId.PSI_S, z, order)),
        ]
    elif law == "E2" or (law == "S" and form is FormId.E2):
        parts = [
            (z ** (-2), eval_form(FormId.E2, w, order)),
            (-1, eval_form(FormId.E2, z, order)),
            ((6j / math.pi) / z, EvalResult(value=1.0, tail_bound=0.0)),
        ]
    elif law == "PHI0" or (law == "S" and form is FormId.PHI_0):
        parts = [
            (1, eval_form(FormId.PHI_0, w, order)),
            (-1, eval_form(FormId.PHI_0, z, order)),
            ((12j / math.pi) * (1 / z), eval_form(FormId.PHI_M2, z, order)),
            ((36 / math.pi**2) * (1 / z**2), eval_form(FormId.PHI_M4, z, order)),
        ]
    else:
        raise ValueError(f"no catalogued law {law!r} for {form}")
    total = combine(parts)
    return TransformCheck(residual=abs(total.value), bound=float(total.tail_bound))


# ---------------------------------------------------------------------------
# circle-method coefficients

@dataclass(frozen=True)
class KloostermanSum:
    k: int
    n: Fraction
    value: complex


def kloosterman_sum(n, k: int) -> KloostermanSum:
    """A_k(n) = sum over h mod k, (h,k)=1 of e^{-2 pi i (n h + h')/k}, h h' = -1 mod k."""
    if k < 1:
        raise ValueError("modulus must be positive")
    n = Fraction(n)
    if k == 1:
        return KloostermanSum(1, n, 1.0 + 0j)
    total = 0j
    for h in range(k):
        if gcd(h, k) != 1:
            continue
        hp = -pow(h, -1, k) % k
        total += cmath.exp(-2j * math.pi / k * float(n * h + hp))
    return KloostermanSum(k, n, total)


_RADEMACHER_KAPPA = {FormId.J: 0, FormId.VPHI_M2: -2, FormId.VPHI_M4: -4}


def rademacher_coefficient(kind: FormId, n: int, k_max: int) -> float:
    """Partial sum of the convergent circle-method expansion of c(n).

    Supported for the integer-indexed forms only (j and the two varphi's);
    the Bessel order is 1 - kappa for weight kappa.
    """
    if kind not in _RADEMACHER_KAPPA:
        raise ValueError(f"circle-method expansion not catalogued for {kind}")
    if n < 1 or k_max < 1:
        raise ValueError("need n >= 1 and k_max >= 1")
    from scipy.special import iv  # lazily: 0.35 s of import time, used only here

    kappa = _RADEMACHER_KAPPA[kind]
    nu = 1 - kappa
    root = math.sqrt(n)
    total = 0.0
    for k in range(1, k_max + 1):
        ak = kloosterman_sum(n, k).value.real
        total += ak / k * float(iv(nu, FOUR_PI * root / k))
    return 2 * math.pi * n ** ((kappa - 1) / 2) * total


# ---------------------------------------------------------------------------
# coefficient bound verification

@dataclass(frozen=True)
class BoundReport:
    form: FormId
    n_max: Fraction
    constant: float
    max_ratio: float
    worst_index: Fraction | None
    violations: tuple
    @property
    def passed(self) -> bool:
        return not self.violations


def coefficient_bound_check(form: FormId, n_max, order: int = DEFAULT_ORDER) -> BoundReport:
    """Check |c(n)| <= C e^{4 pi sqrt(n)} for every stored index in (0, n_max]."""
    n_max = Fraction(n_max)
    series = build_form(form, order)
    if Fraction(series.order, EIGHTH) < n_max:
        raise ValueError(f"form built only to q^{series.order / 8}, need {n_max}")
    c, a = GROWTH_BOUNDS[form]
    max_ratio, worst, violations = 0.0, None, []
    for e, coeff in sorted(series.coeffs.items()):
        n = Fraction(e, EIGHTH)
        if n <= 0 or n > n_max:
            continue
        bound = c * math.exp(a * math.sqrt(n))
        ratio = abs(float(coeff)) / bound
        if ratio > max_ratio:
            max_ratio, worst = ratio, n
        if ratio > 1.0:
            violations.append((n, coeff))
    return BoundReport(form, n_max, c, max_ratio, worst, tuple(violations))
