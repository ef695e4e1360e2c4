"""Certified sign inequalities for the Laplace densities A(t) and B(t).

The radial function g is nonpositive beyond the packing radius and has a
nonnegative Fourier transform because two explicit functions of one variable,

    A(t) = -t^2 phi_0(i/t) - (36/pi^2) psi_I(it)   (must be < 0 on (0, inf)),
    B(t) = -t^2 phi_0(i/t) + (36/pi^2) psi_I(it)   (must be > 0 on (0, inf)),

keep a fixed sign.  Both are approximated by finite exponential-polynomial
models with exact rational-times-pi-power coefficients read off the q-series
catalog, and the discarded tails are dominated by an explicit remainder
envelope built from the coefficient-growth hypotheses.  ``certify_sign``
verifies model sign and envelope domination in interval arithmetic on an
adaptive segmentation of the two charts (u = 1/t in (0, 1], t in [1, inf)),
closing each unbounded end with a dominant-term ratio argument.  The result
is a machine-checkable :class:`Certificate`.

One :class:`Envelope` encodes the remainder envelope; the leaves read it
through ``enclose`` and the tail argument through ``terms``, which split its
sum at c = 1/2 (leaves reach x = 1) and c = 19/20 (the tail starts at x >= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .modforms import FormId, build_form, eval_form
from .qseries import EIGHTH, QSeries, combine
from .rigor import (
    INV_PI,
    INV_PI_SQ,
    PI,
    TWO_SQRT2_PI,
    Interval,
    enclose_fraction,
    ia_exp_poly,
    sqrt_interval,
)

__all__ = [
    "ModelTerm",
    "ExpPolyModel",
    "Certificate",
    "build_model",
    "Envelope",
    "certify_sign",
    "numeric_value",
    "HYPOTHESES",
    "MAX_CUTOFF",
]

NEAR_ZERO = "near_zero"
NEAR_INFINITY = "near_infinity"

HYPOTHESES = (
    "|c_psiI(n)| <= e^(4 pi sqrt(n)) for half-integer n > 0",
    "|c_psiS(n)| <= 2 e^(4 pi sqrt(n)) for half-integer n > 0",
    "|c_phi0(n)| <= 2 e^(4 pi sqrt(n)) for integer n > 0",
    "|c_phi-2(n)| <= e^(4 pi sqrt(n)) for integer n > 0",
    "|c_phi-4(n)| <= e^(4 pi sqrt(n)) for integer n > 0",
)

# the largest cutoff n = m that certify_sign accepts: the tail argument forms
# e^{pi (19/20) n} on its own, which overflows a double from n = 238 on
# (certify takes about 0.5 s at n = 200 on a 2-vCPU VM)
MAX_CUTOFF = 200

_PI_POW_INV = {0: Interval(1.0, 1.0), 1: INV_PI, 2: INV_PI_SQ}


@dataclass(frozen=True)
class ModelTerm:
    """One exponential-polynomial term  (coeff / pi^pi_pow) * x^p * e^(-pi*decay*x)."""

    coeff: Fraction
    pi_pow: int
    p: int
    decay: Fraction  # negative decay means growth (the e^{2 pi t} term)

    def magnitude_interval(self) -> Interval:
        return enclose_fraction(abs(self.coeff)) * _PI_POW_INV[self.pi_pow]

    @cached_property
    def coeff_interval(self) -> Interval:
        return enclose_fraction(self.coeff) * _PI_POW_INV[self.pi_pow]

    @cached_property
    def sigma(self) -> Interval:
        """The exponential rate pi * decay."""
        return PI * enclose_fraction(self.decay)

    def enclose(self, x: Interval) -> Interval:
        return ia_exp_poly(self.coeff_interval, self.p, self.sigma, x)


@dataclass(frozen=True)
class ExpPolyModel:
    """Finite model of A or B in one chart.

    In the near-infinity regime the terms sum to the truncation of the target
    itself, as a function of t.  In the near-zero regime they sum to the
    truncation divided by t^2, as a function of u = 1/t (so the sign of the
    model is the sign of the truncated target).
    """

    target: str
    regime: str
    cutoff: int
    terms: tuple[ModelTerm, ...]

    def enclose(self, x: Interval) -> Interval:
        total = Interval(0.0, 0.0)
        for term in self.terms:
            total = total + term.enclose(x)
        return total

    def term_map(self) -> dict[tuple[int, int, Fraction], Fraction]:
        """(p, pi_pow, decay) -> rational coefficient, for golden-value tests."""
        return {(t.p, t.pi_pow, t.decay): t.coeff for t in self.terms}


def _series_coefficients(form: FormId, max_index: Fraction):
    series = build_form(form, int(max_index) + 4)
    out = {}
    for e, c in series.coeffs.items():
        idx = Fraction(e, EIGHTH)
        if idx <= max_index:
            out[idx] = c
    return out


def build_model(target: str, n: int, regime: str) -> ExpPolyModel:
    """Exact truncation model with cutoff n (error O(t^2 e^{-pi n t}) in its chart).

    Coefficients combine the catalog Fourier coefficients at indices k with
    2k < n, with explicit powers of pi in the denominators.
    """
    if target not in ("A", "B"):
        raise ValueError("target must be 'A' or 'B'")
    if regime not in (NEAR_ZERO, NEAR_INFINITY):
        raise ValueError(f"unknown regime {regime!r}")
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    psi_sign = -1 if target == "A" else 1
    kmax = Fraction(n - 1, 2)  # largest series index entering the model
    merged: dict[tuple[int, int, Fraction], Fraction] = {}

    def add(p: int, pi_pow: int, decay: Fraction, c: Fraction) -> None:
        if c == 0:
            return
        key = (p, pi_pow, decay)
        merged[key] = merged.get(key, Fraction(0)) + c
        if merged[key] == 0:
            del merged[key]

    if regime == NEAR_INFINITY:
        phi0 = _series_coefficients(FormId.PHI_0, kmax)
        phi2 = _series_coefficients(FormId.PHI_M2, kmax)
        phi4 = _series_coefficients(FormId.PHI_M4, kmax)
        psii = _series_coefficients(FormId.PSI_I, kmax)
        for k, c in phi0.items():
            add(2, 0, 2 * k, -c)
        for k, c in phi2.items():
            add(1, 1, 2 * k, 12 * c)
        for k, c in phi4.items():
            add(0, 2, 2 * k, -36 * c)
        for k, c in psii.items():
            add(0, 2, 2 * k, psi_sign * 36 * c)
    else:
        phi0 = _series_coefficients(FormId.PHI_0, kmax)
        psis = _series_coefficients(FormId.PSI_S, kmax)
        for k, c in phi0.items():
            add(0, 0, 2 * k, -c)
        for k, c in psis.items():
            add(0, 2, 2 * k, -psi_sign * 36 * c)

    terms = tuple(
        ModelTerm(coeff=c, pi_pow=key[1], p=key[0], decay=key[2])
        for key, c in sorted(merged.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
    )
    return ExpPolyModel(target=target, regime=regime, cutoff=n, terms=terms)


# ---------------------------------------------------------------------------
# the remainder envelope

# Split constants c of the envelope's geometric rest (see Envelope): 1/2 keeps
# its ratio e^{-pi (x - c)} <= e^{-pi/2} on leaves down to x = 1; 19/20 leaves
# 9 explicit terms, not 32, past x_star >= 2.  Certificate bytes depend on
# both: env_hi and margin on the first, epsilon_bound on the second.
LEAF_SPLIT = Fraction(1, 2)
TAIL_SPLIT = Fraction(19, 20)

# (coefficient, power of x) of the envelope prefactor P in each chart; the
# u-chart model is the target divided by t^2, so there P = (t^2 + 36/pi^2)/t^2
_PREFACTOR = {
    "t": ((Interval(1.0, 1.0), 2), (12 * INV_PI, 1), (36 * INV_PI_SQ, 0)),
    "u": ((Interval(1.0, 1.0), 0), (36 * INV_PI_SQ, 2)),
}


@dataclass(frozen=True)
class Envelope:
    """Remainder envelope  P(x) * sum_{n>=m} 2 e^{2 sqrt2 pi sqrt(n)} e^{-pi n x}
    of the cutoff-m model in one chart (x = t or x = u = 1/t).

    The amplitude 2 and the growth e^{2 sqrt2 pi sqrt(n)} are the hypotheses'
    coefficient bound 2 e^{4 pi sqrt(k)} at q^k = e^{-pi n x}, n = 2k.  From
    n_geo = max(m, ceil(8/c^2)) on, 2 sqrt2 sqrt(n) <= c n, so the rest of
    the sum is geometric with ratio e^{-pi (x - c)}.
    """

    chart: str
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("cutoff must be >= 1")

    def _n_geo(self, c: Fraction) -> int:
        n_geo = max(self.m, math.ceil(Fraction(8) / (c * c)))
        if Fraction(8) > c * c * n_geo:  # exact rational check
            raise AssertionError("geometric threshold miscomputed")
        return n_geo

    @staticmethod
    def _growth(k: int) -> Interval:
        return TWO_SQRT2_PI * sqrt_interval(Interval.from_rational(k))

    @staticmethod
    def _geometric_ratio(x: Interval, c: Interval) -> Interval:
        ratio = (-PI * (x - c)).exp()
        if ratio.hi >= 1.0:
            raise ValueError("geometric tail ratio >= 1 on this segment")
        return ratio

    @cached_property
    def _leaf_constants(self) -> tuple[Interval, Interval, tuple[tuple[Interval, Interval], ...]]:
        """The parts of ``enclose`` that no leaf changes: c, n_geo and, for
        each explicit k, the growth exponent and pi * k."""
        n_geo = self._n_geo(LEAF_SPLIT)
        explicit = tuple(
            (self._growth(k), PI * Interval.from_rational(k)) for k in range(self.m, n_geo)
        )
        return enclose_fraction(LEAF_SPLIT), Interval.from_rational(n_geo), explicit

    def enclose(self, x: Interval) -> Interval:
        """Upper enclosure over the segment x (the leaf bound, split LEAF_SPLIT)."""
        if x.lo < 0.55:
            raise ValueError("remainder envelope needs the chart variable >= 0.55")
        pref = Interval(0.0, 0.0)
        for coeff, p in _PREFACTOR[self.chart]:
            pref = pref + coeff * x.powi(p)
        c, n_geo, explicit = self._leaf_constants
        total = Interval(0.0, 0.0)
        for growth, pi_k in explicit:
            total = total + 2 * (growth - pi_k * x).exp()
        ratio = self._geometric_ratio(x, c)
        head = 2 * (-PI * (x - c) * n_geo).exp()
        return pref * (total + head / (1 - ratio))

    def terms(self, x_star: float) -> list[tuple[Interval, int, Fraction]]:
        """Terms (|C|, p, decay), each |C| x^p e^{-pi decay x}, whose sum bounds
        the envelope for every x >= x_star (the tail argument, split TAIL_SPLIT)."""
        c = enclose_fraction(TAIL_SPLIT)
        n_geo = self._n_geo(TAIL_SPLIT)
        amps = [(2 * self._growth(k).exp(), Fraction(k)) for k in range(self.m, n_geo)]
        ratio = self._geometric_ratio(Interval.point(x_star), c)
        amps.append((2 * (PI * c * Interval.from_rational(n_geo)).exp() / (1 - ratio), Fraction(n_geo)))
        return [(coeff * amp, p, decay) for coeff, p in _PREFACTOR[self.chart] for amp, decay in amps]


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class Segment:
    chart: str
    lo: float
    hi: float
    model_lo: float
    model_hi: float
    env_hi: float
    margin: float


@dataclass(frozen=True)
class TailRecord:
    chart: str
    x_star: float
    dominant: str
    epsilon_hi: float
    certified: bool


@dataclass(frozen=True)
class Certificate:
    target: str
    n: int
    m: int
    t_star: float
    u_star: float
    max_depth: int
    hypotheses: tuple[str, ...]
    segments: tuple[Segment, ...]
    tails: tuple[TailRecord, ...]
    status: str
    failure_location: tuple[str, float, float] | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def min_margin(self) -> float:
        return min((s.margin for s in self.segments), default=math.inf)

    def to_doc(self) -> dict:
        return {
            "target": f"{self.target}_negative" if self.target == "A" else f"{self.target}_positive",
            "parameters": {
                "n": self.n,
                "m": self.m,
                "T_star": self.t_star,
                "U_star": self.u_star,
                "max_depth": self.max_depth,
            },
            "hypotheses": list(self.hypotheses),
            "segments": [
                {
                    "lo": s.lo,
                    "hi": s.hi,
                    "chart": s.chart,
                    "model_lo": s.model_lo,
                    "model_hi": s.model_hi,
                    "env_hi": s.env_hi,
                    "margin": s.margin,
                }
                for s in self.segments
            ],
            "tail": {
                t.chart: {
                    "x_star": t.x_star,
                    "dominant": t.dominant,
                    "epsilon_bound": t.epsilon_hi,
                    "certified": t.certified,
                }
                for t in self.tails
            },
            "status": self.status
            if self.certified
            else f"failed({self.failure_location[0]}-chart "
            f"[{self.failure_location[1]}, {self.failure_location[2]}])",
        }


def _leaf_check(model: ExpPolyModel, envelope: Envelope, x: Interval, sign: int):
    """Returns (ok, model_iv, env_hi, margin).  A model enclosure without the
    sign fails the leaf before the envelope is enclosed; env_hi and margin
    are None then."""
    model_iv = model.enclose(x)
    room = -model_iv.hi if sign < 0 else model_iv.lo  # the model's distance from 0 on its sign's side
    if not room > 0:
        return False, model_iv, None, None
    env_hi = envelope.enclose(x).hi
    return env_hi < room, model_iv, env_hi, room - env_hi


def _bisect_chart(model: ExpPolyModel, envelope: Envelope, x_star: float, max_depth: int, sign: int):
    segments: list[Segment] = []
    stack = [(1.0, x_star, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        ok, model_iv, env_hi, margin = _leaf_check(model, envelope, Interval(lo, hi), sign)
        if ok:
            segments.append(
                Segment(
                    chart=envelope.chart,
                    lo=lo,
                    hi=hi,
                    model_lo=model_iv.lo,
                    model_hi=model_iv.hi,
                    env_hi=env_hi,
                    margin=margin,
                )
            )
            continue
        mid = 0.5 * (lo + hi)
        if depth >= max_depth or not lo < mid < hi:  # float resolution ends the bisection
            return segments, (envelope.chart, lo, hi)
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    segments.sort(key=lambda s: s.lo)
    return segments, None


def _tail_check(model: ExpPolyModel, envelope: Envelope, x_star: float, sign: int) -> TailRecord:
    """Dominant-term argument on [x_star, inf).

    Writes model + envelope <= dominant * (1 - eps(x)) with eps a sum of
    ratio terms C x^k e^{-beta x}; each ratio is checked monotone decreasing
    beyond x_star and eps(x_star) is evaluated in interval arithmetic.
    """
    chart = envelope.chart
    terms = sorted(model.terms, key=lambda t: (t.decay, -t.p))
    dom = terms[0]
    same_key = [t for t in terms if t.decay == dom.decay and t.p == dom.p]
    if len(same_key) != 1:
        raise ValueError("dominant model term is not unique")
    if (dom.coeff > 0) != (sign > 0):
        return TailRecord(chart, x_star, _term_name(dom), math.inf, False)

    x = Interval.point(x_star)
    dom_mag = dom.magnitude_interval()
    competitors = [(t.magnitude_interval(), t.p, t.decay) for t in terms[1:]]
    competitors += envelope.terms(x_star)  # (|C|, p, decay)

    eps = Interval(0.0, 0.0)
    pi_lo = PI.lo
    for mag, p, decay in competitors:
        k = p - dom.p
        beta = decay - dom.decay  # in units of pi
        if beta < 0 or (beta == 0 and k > 0):
            return TailRecord(chart, x_star, _term_name(dom), math.inf, False)
        if beta > 0 and k > 0 and x_star < k / (pi_lo * float(beta)):
            return TailRecord(chart, x_star, _term_name(dom), math.inf, False)
        ratio = mag / dom_mag
        if k > 0:
            ratio = ratio * x.powi(k)
        elif k < 0:
            ratio = ratio / x.powi(-k)
        if beta != 0:
            ratio = ratio * (-PI * enclose_fraction(beta) * x).exp()
        eps = eps + ratio
    return TailRecord(chart, x_star, _term_name(dom), eps.hi, eps.hi < 1.0)


def _term_name(t: ModelTerm) -> str:
    pi_part = {0: "", 1: "/pi", 2: "/pi^2"}[t.pi_pow]
    x_part = {0: "", 1: "*x", 2: "*x^2"}[t.p]
    if t.decay == 0:
        return f"{t.coeff}{pi_part}{x_part}"
    sign = "-" if t.decay > 0 else "+"
    return f"{t.coeff}{pi_part}{x_part}*exp({sign}{abs(t.decay)}*pi*x)"


def certify_sign(
    target: str,
    n: int = 6,
    m: int = 6,
    t_star: float = 4.0,
    max_depth: int = 60,
) -> Certificate:
    """Certify A < 0 (target 'A') or B > 0 (target 'B') on (0, inf), both charts to t_star."""
    if target not in ("A", "B"):
        raise ValueError("target must be 'A' or 'B'")
    if n != m:
        raise ValueError("model and envelope cutoffs must agree")
    if not 1 <= n <= MAX_CUTOFF:
        raise ValueError(f"cutoff n = m must be between 1 and {MAX_CUTOFF}")
    if not 2 <= t_star < math.inf:
        raise ValueError("t_star must be finite and >= 2")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    sign = -1 if target == "A" else 1
    segments: list[Segment] = []
    tails: list[TailRecord] = []
    failure = None
    for chart in ("t", "u"):
        regime = NEAR_INFINITY if chart == "t" else NEAR_ZERO
        model = build_model(target, n, regime)
        envelope = Envelope(chart, m)
        segs, fail = _bisect_chart(model, envelope, t_star, max_depth, sign)
        segments.extend(segs)
        if fail is not None:
            failure = fail
            break
        tail = _tail_check(model, envelope, t_star, sign)
        tails.append(tail)
        if not tail.certified:
            failure = (chart, t_star, math.inf)
            break
    status = "certified" if failure is None else "failed"
    return Certificate(
        target=target,
        n=n,
        m=m,
        t_star=t_star,
        u_star=t_star,
        max_depth=max_depth,
        hypotheses=HYPOTHESES,
        segments=tuple(segments),
        tails=tuple(tails),
        status=status,
        failure_location=failure,
    )


# ---------------------------------------------------------------------------
# plain numerical evaluation (for plots and consistency tests)

@lru_cache(maxsize=None)
def _psi_phi4(target: str) -> QSeries:
    """phi_-4 -/+ psi_I for A / B in exact arithmetic, so that for B the q^-1
    terms, whose e^{2 pi t} would cancel in floats, cancel in rationals.
    |c(n)| <= 2 e^{4 pi sqrt(n)} follows from the two hypotheses."""
    psi_sign = -1 if target == "A" else 1
    return build_form(FormId.PHI_M4) - psi_sign * build_form(FormId.PSI_I)


def numeric_value(target: str, t: float) -> tuple[float, float]:
    """Float value of A(t) or B(t) with a bound on its truncation and roundoff.

    Uses the near-zero representation for t <= 1 and the near-infinity one
    for t >= 1, so every series argument has imaginary part >= 1.
    """
    if target not in ("A", "B"):
        raise ValueError("target must be 'A' or 'B'")
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("t must be positive and finite")
    psi_sign = -1 if target == "A" else 1
    if t <= 1.0:
        w = 1j / t
        total = combine([
            (-(t**2), eval_form(FormId.PHI_0, w)),
            (-psi_sign * (36 / math.pi**2) * t**2, eval_form(FormId.PSI_S, w)),
        ])
    else:
        w = 1j * t
        total = combine([
            (-(t**2), eval_form(FormId.PHI_0, w)),
            ((12 / math.pi) * t, eval_form(FormId.PHI_M2, w)),
            (-36 / math.pi**2, _psi_phi4(target).eval_at(w, 2.0, 4 * math.pi)),
        ])
    return total.value.real, float(total.tail_bound) + abs(total.value.imag)
