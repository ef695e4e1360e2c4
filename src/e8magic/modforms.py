"""Catalog of the specific modular and quasimodular forms the construction uses.

Everything is generated from first principles as an exact ``QSeries``:
Eisenstein series from divisor sums, theta fourth powers from the lattice
sums of the three theta constants, the weakly holomorphic forms from the
explicit quotients, and the psi family from its closed theta expressions.
The T-laws (z -> z+1) are checked at series level; the S-laws (z -> -1/z),
stated once in ``S_LAWS``, are checked numerically through
``verify_transform``, against the bound on truncation and roundoff that
``QSeries.eval_at`` returns.  ``chart_terms`` expands the Laplace integrands of
a and b, and the sign targets A and B built from them, through the S-laws in
the chart t or u = 1/t; ``chart_series`` sums those terms into the one exact
expansion that the certificate models, ``certify.numeric_value`` and the
radial principal parts read.

Numeric evaluation reads every form at ``DEFAULT_ORDER`` = q^64: the S-law
routes every series argument on the package's paths to Im z >= 1/2, where the
first omitted term is below C e^{4 pi sqrt(64) - 32 pi}, about C e^{-100}.

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
from functools import lru_cache
from math import gcd

from .qseries import EIGHTH, EvalResult, QSeries, combine

__all__ = [
    "FormId",
    "eisenstein",
    "theta",
    "build_form",
    "verify_transform",
    "chart_terms",
    "chart_series",
    "kloosterman_sum",
    "rademacher_coefficient",
    "coefficient_bound_check",
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

# the constant C of each coefficient growth hypothesis |c(n)| <= C * e^{4 pi sqrt(n)};
# the weakly holomorphic bounds are the ones the remainder envelopes assume, the
# holomorphic ones are generous blankets over polynomial growth.  They are
# hypotheses, not proved here: coefficient_bound_check tests one on the indices
# up to a caller's n_max (the tests go to n = 50).
GROWTH_BOUNDS = {
    FormId.E2: 1.0,
    FormId.E4: 1.0,
    FormId.E6: 1.0,
    FormId.J: 1.0,
    FormId.TH00_4: 1.0,
    FormId.TH01_4: 1.0,
    FormId.TH10_4: 1.0,
    FormId.VPHI_M2: 2.0,
    FormId.VPHI_M4: 1.0,
    FormId.PHI_M4: 1.0,
    FormId.PHI_M2: 1.0,
    FormId.PHI_0: 2.0,
    FormId.H: 1.0,
    FormId.PSI_I: 1.0,
    FormId.PSI_T: 1.0,
    FormId.PSI_S: 2.0,
}


def eisenstein(k: int, order: int) -> QSeries:
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


def theta(kind: str, order: int) -> QSeries:
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


_THETA_KIND = {FormId.TH00_4: "00", FormId.TH01_4: "01", FormId.TH10_4: "10"}


def _build(form: FormId, order: int) -> QSeries:
    """One catalog form from its ingredients, each read through ``build_form``
    so that every ingredient is built once per order."""
    if form in (FormId.E2, FormId.E4, FormId.E6):
        return eisenstein(WEIGHTS[form], order + 3)  # margin for the divisions
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


def eval_form(form: FormId, z) -> EvalResult:
    """Evaluate a catalog form at one z or an array of z, read at
    ``DEFAULT_ORDER``, with its bound on truncation and roundoff."""
    return build_form(form).eval_at(z, GROWTH_BOUNDS[form])


# ---------------------------------------------------------------------------
# transformation laws

# S-laws as terms (G, c, k, j) of F(i/t) = sum c / pi^k * t^j * G(it), G = None
# the constant 1; at a general z, t = -iz.  E2 and the theta fourth powers:
# Zagier, "Elliptic modular forms and their applications" (2008), Mumford,
# *Tata Lectures on Theta I*; phi_0 and psi_I follow by substitution.
S_LAWS = {
    FormId.E2: ((FormId.E2, -1, 0, 2), (None, 6, 1, 1)),
    FormId.TH00_4: ((FormId.TH00_4, 1, 0, 2),),
    FormId.TH01_4: ((FormId.TH10_4, 1, 0, 2),),
    FormId.TH10_4: ((FormId.TH01_4, 1, 0, 2),),
    FormId.PHI_0: ((FormId.PHI_0, 1, 0, 0), (FormId.PHI_M2, -12, 1, -1), (FormId.PHI_M4, 36, 2, -2)),
    FormId.PSI_I: ((FormId.PSI_S, -1, 0, -2),),
}

# T-laws F(z + 1) = sign * G(z), as (G, sign)
T_LAWS = {
    FormId.TH00_4: (FormId.TH01_4, 1),
    FormId.TH01_4: (FormId.TH00_4, 1),
    FormId.TH10_4: (FormId.TH10_4, -1),
    FormId.PSI_I: (FormId.PSI_T, 1),
}

# Laplace integrands of a, t^2 phi_0(i/t), and of b, psi_I(it), as (chart, F, s):
# x^s F(ix) in the chart x = t or x = u = 1/t where each is one series
INTEGRANDS = {"a": ("u", FormId.PHI_0, -2), "b": ("t", FormId.PSI_I, 0)}

# the sign targets A = -I_a - (36/pi^2) I_b and B = -I_a + (36/pi^2) I_b over
# the integrands I_a and I_b, as (integrand, c, k): each adds c / pi^k times it
TARGETS = {
    "A": (("a", -1, 0), ("b", -36, 2)),
    "B": (("a", -1, 0), ("b", 36, 2)),
}


def chart_terms(which: str, chart: str) -> tuple:
    """The integrand of a or b, or the target A or B, in the chart x = t ('t')
    or x = u = 1/t ('u'), as terms (G, c, k, j) of sum c / pi^k * x^j * G(ix);
    the chart other than an integrand's own reads the S-law of F."""
    if chart not in ("t", "u"):
        raise ValueError(f"unknown chart {chart!r}")
    if which in TARGETS:
        return tuple(
            (g, w * c, k + kw, j) for part, w, kw in TARGETS[which] for g, c, k, j in chart_terms(part, chart)
        )
    home, form, s = INTEGRANDS[which]
    if chart == home:
        return ((form, 1, 0, s),)
    return tuple((g, c, k, j - s) for g, c, k, j in S_LAWS[form])


@lru_cache(maxsize=None)
def chart_series(which: str, chart: str, order: int = DEFAULT_ORDER) -> tuple:
    """The chart terms of ``chart_terms`` with one x^p / pi^k summed into one
    exact series: groups (k, p, S, C) of sum x^p / pi^k * S(ix), in the order
    of their first term, with S = sum c G read at ``order`` and
    |c_S(n)| <= C e^{4 pi sqrt(n)} for C = sum |c| C_G.  For B the q^-1 terms
    of phi_-4 and psi_I, whose e^{2 pi t} would cancel in floats, cancel in
    rationals."""
    groups: dict[tuple[int, int], tuple[QSeries, float]] = {}
    for form, c, k, p in chart_terms(which, chart):
        series, bound = c * build_form(form, order), abs(c) * GROWTH_BOUNDS[form]
        if (k, p) in groups:
            series, bound = groups[k, p][0] + series, groups[k, p][1] + bound
        groups[k, p] = series, bound
    return tuple((k, p, series, bound) for (k, p), (series, bound) in groups.items())


def principal_part(which: str) -> tuple:
    """The terms C / pi^k t^p q^n with n <= 0 of the t-chart expansion of a or
    b, as ((k, p, n), C); they do not decay, since q^n = e^{-2 pi n t}."""
    return tuple(((k, p, Fraction(e, EIGHTH)), s.coeff(e)) for k, p, s, _ in chart_series(which, "t")
                 for e in range(s.lead, 1, s.stride) if s.coeff(e))


@dataclass(frozen=True)
class Exact:
    """The real number c pi^k sqrt(2)^j, c rational and j in {0, 1}; zero is Exact(0)."""

    c: Fraction
    k: int = 0
    j: int = 0

    def __mul__(self, other: "Exact") -> "Exact":
        c = self.c * other.c * 2 ** (self.j & other.j)
        return Exact(c, self.k + other.k, self.j ^ other.j) if c else Exact(0)

    def __truediv__(self, other: "Exact") -> "Exact":
        return self * Exact(Fraction(1, other.c * 2**other.j), -other.k, other.j)

    def __add__(self, other: "Exact") -> "Exact":
        if self.c and other.c and (self.k, self.j) != (other.k, other.j):
            raise ArithmeticError(f"{self} + {other} is not one term c pi^k sqrt(2)^j")
        c = self.c + other.c
        return Exact(c, *((self.k, self.j) if self.c else (other.k, other.j))) if c else Exact(0)

    def __float__(self) -> float:
        """Rounded as the typed constants num * pi / den and num / (den * pi) are."""
        num, den = self.c.numerator * math.sqrt(2) ** self.j, self.c.denominator
        return num * math.pi**self.k / den if self.k >= 0 else num / (den * math.pi**-self.k)


def special_values() -> dict[str, Exact]:
    """Exact values at y = r^2 = 0 and 2 from the principal parts.  Im f / 4
    (f = a, b) sums sin^2(pi y/2) C p! / pi^(k+p+1) / (y + 2n)^(p+1) over the
    terms, plus sin^2(pi y/2) times an integral finite at 0 and 2, so
    Im f(0) = C / pi^k from the n = 0, p = 1 terms and d/dy Im f(2) =
    C pi^(1-k) from the n = -1, p = 0 terms.  g(0) = 1 and ghat'(sqrt2) = 0
    fix c_a and c_b in g, ghat = c_a Im a +- c_b Im b; d/dr = 2 sqrt2 d/dy."""
    def surviving(which: str, p: int, n: int, shift: int) -> Exact:
        return sum((Exact(c, shift - k) for (k, *pn), c in principal_part(which) if pn == [p, n]), Exact(0))

    (a0, b0), (a2, b2) = ((surviving(w, 1, 0, 0) for w in "ab"), (surviving(w, 0, -1, 1) for w in "ab"))
    ca = Exact(1) / (a0 + a2 * b0 / b2)
    cb = ca * a2 / b2
    values = {"Im a(0)": a0, "Im b(0)": b0, "d/dy Im a(2)": a2, "d/dy Im b(2)": b2, "c_a": ca, "c_b": cb}
    for name, cs in (("g", cb), ("ghat", Exact(-1) * cb)):
        values[f"{name}(0)"], values[f"{name}'(sqrt2)"] = ca * a0 + cs * b0, Exact(2, 0, 1) * (ca * a2 + cs * b2)
    return values


@dataclass(frozen=True)
class TransformCheck:
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def verify_transform(form: FormId, law: str, z: complex) -> TransformCheck:
    """Residual of a transformation law at a point of the upper half-plane.

    law 'T' is checked exactly at series level (residual 0 when it holds);
    law 'S' writes F(-1/z) - sum c / pi^k (-iz)^j G(z) = 0 over numerical
    evaluations and returns the residual together with the bound on the
    truncation and roundoff of every evaluation and of their combination.
    """
    if z.imag <= 0:
        raise ValueError("need Im z > 0")

    if law == "T":
        if form not in T_LAWS:
            raise ValueError(f"no catalogued T law for {form}")
        partner, sign = T_LAWS[form]
        diff = build_form(form).translate(+1) - sign * build_form(partner)
        return TransformCheck(residual=0.0 if diff.is_zero() else math.inf, bound=0.0)

    if law != "S" or form not in S_LAWS:
        raise ValueError(f"no catalogued law {law!r} for {form}")
    results = [(1, eval_form(form, -1 / z))] + [
        (-c / math.pi**k * (-1j * z) ** j, EvalResult(1.0, 0.0) if g is None else eval_form(g, z))
        for g, c, k, j in S_LAWS[form]
    ]
    value, bound = combine([(c, (r.value, r.tail_bound)) for c, r in results])
    return TransformCheck(residual=abs(value), bound=float(bound))


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
