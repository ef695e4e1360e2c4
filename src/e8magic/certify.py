"""Certified sign inequalities for the Laplace densities A(t) and B(t).

The radial function g is nonpositive beyond the packing radius and has a
nonnegative Fourier transform because two explicit functions of one variable,

    A(t) = -t^2 phi_0(i/t) - (36/pi^2) psi_I(it)   (must be < 0 on (0, inf)),
    B(t) = -t^2 phi_0(i/t) + (36/pi^2) psi_I(it)   (must be > 0 on (0, inf)),

keep a fixed sign.  Both are approximated by finite exponential-polynomial
models with exact rational-times-pi-power coefficients read off
``modforms.chart_series``, the one exact expansion of each target in each
chart, and the discarded tails are dominated by an explicit remainder envelope
built from the coefficient-growth hypotheses.  ``certify_sign``
verifies model sign and envelope domination in interval arithmetic on an
adaptive segmentation of the two charts t >= 1 and u = 1/t >= 1 ("t" and
"u"), closing each unbounded end with a dominant-term ratio argument.  The
result is a machine-checkable :class:`Certificate`.

One :class:`Envelope` encodes the remainder envelope; the leaves read it
through ``enclose`` and the tail argument through ``terms``, which split its
sum at c = 1/2 (leaves reach x = 1) and c = 19/20 (the tail starts at x >= 2).
A leaf's model and envelope enclosures are formed from parts evaluated at its
two ends, each end once per chart of a ``certify_sign`` call (a memo that the
chart's bisection owns), and equal those formed over the whole leaf bit for
bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .modforms import _float_layer, chart_series
from .qseries import EIGHTH
from .rigor import (
    INV_PI,
    INV_PI_SQ,
    PI,
    TWO_SQRT2_PI,
    Interval,
    enclose_fraction,
    exp_poly_at,
    exp_poly_peak,
    exp_poly_window,
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

# the two charts, t >= 1 and u = 1/t >= 1, under the names callers pass
NEAR_INFINITY = "t"
NEAR_ZERO = "u"

HYPOTHESES = (
    "|c_psiI(n)| <= e^(4 pi sqrt(n)) for half-integer n > 0",
    "|c_psiS(n)| <= 2 e^(4 pi sqrt(n)) for half-integer n > 0",
    "|c_phi0(n)| <= 2 e^(4 pi sqrt(n)) for integer n > 0",
    "|c_phi-2(n)| <= e^(4 pi sqrt(n)) for integer n > 0",
    "|c_phi-4(n)| <= e^(4 pi sqrt(n)) for integer n > 0",
)

# the largest cutoff n = m that certify_sign accepts: the tail argument forms
# e^{pi (19/20) n} on its own, which overflows a double from n = 238 on
# (a whole `certify --target A --n 200` process takes about 0.25 s on a 2-vCPU VM)
MAX_CUTOFF = 200

_PI_POW_INV = {0: Interval(1.0, 1.0), 1: INV_PI, 2: INV_PI_SQ}


class ModelTerm:
    """One exponential-polynomial term  (coeff / pi^pi_pow) * x^p * e^(-pi*decay*x),
    with the enclosures every leaf reads formed once: the coefficient, -sigma
    for the rate sigma = pi * decay, and ``rigor.exp_poly_window``."""

    __slots__ = ("coeff", "pi_pow", "p", "decay", "coeff_interval", "neg_sigma", "window")

    def __init__(self, coeff: Fraction, pi_pow: int, p: int, decay: Fraction) -> None:
        # negative decay means growth (the e^{2 pi t} term)
        self.coeff, self.pi_pow, self.p, self.decay = coeff, pi_pow, p, decay
        self.coeff_interval = enclose_fraction(coeff) * _PI_POW_INV[pi_pow]
        sigma = PI * enclose_fraction(decay)
        self.neg_sigma = -sigma
        self.window = exp_poly_window(p, sigma)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is ModelTerm else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "ModelTerm(coeff={!r}, pi_pow={!r}, p={!r}, decay={!r})".format(*self._key())

    def _key(self) -> tuple:
        return self.coeff, self.pi_pow, self.p, self.decay


def _memo(memo: dict, tau: float, at):
    """at(tau), evaluated once per memo."""
    parts = memo.get(tau)
    if parts is None:
        parts = memo[tau] = at(tau)
    return parts


class ExpPolyModel(NamedTuple):
    """Finite model of A or B in one chart.

    In the t chart the terms sum to the truncation of the target itself, as a
    function of t.  In the u chart they sum to the truncation divided by t^2,
    as a function of u = 1/t (so the sign of the model is the sign of the
    truncated target).
    """

    terms: tuple[ModelTerm, ...]

    def enclose(self, x: Interval) -> Interval:
        """The sum of ``rigor.ia_exp_poly`` over the terms, bit for bit."""
        return self._enclose(x, {})

    def _at(self, tau: float) -> list[Interval]:
        """Every term's tau^p e^{-sigma tau} at the point tau."""
        return [exp_poly_at(t.p, t.neg_sigma, tau) for t in self.terms]

    def _enclose(self, x: Interval, memo: dict) -> Interval:
        """``enclose``, with the endpoint values of the monotone terms read
        from memo (endpoint -> ``_at``)."""
        if x.lo < 0:
            raise ValueError("a model needs x.lo >= 0")
        total = Interval(0.0, 0.0)
        for term, at_lo, at_hi in zip(self.terms, _memo(memo, x.lo, self._at), _memo(memo, x.hi, self._at)):
            lo, hi = term.window
            if x.hi <= lo or x.lo >= hi:
                total = total + term.coeff_interval * at_lo.hull(at_hi)
            else:
                total = total + term.coeff_interval * x.powi(term.p) * (term.neg_sigma * x).exp()
        return total

    def term_map(self) -> dict[tuple[int, int, Fraction], Fraction]:
        """(p, pi_pow, decay) -> rational coefficient, for golden-value tests."""
        return {(t.p, t.pi_pow, t.decay): t.coeff for t in self.terms}


def build_model(target: str, n: int, chart: str) -> ExpPolyModel:
    """Exact truncation model with cutoff n (error O(t^2 e^{-pi n t}) in its chart).

    The terms are the coefficients of ``chart_series(target, chart)`` at
    indices k with 2k < n, with explicit powers of pi in the denominators;
    ``chart_series`` refuses a chart other than "t" and "u".
    """
    if target not in ("A", "B"):
        raise ValueError("target must be 'A' or 'B'")
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    kmax = Fraction(n - 1, 2)  # largest series index entering the model
    shift = 2 if chart == "u" else 0  # the u-chart model is the target times u^2
    terms = sorted(
        (
            ModelTerm(coeff=c, pi_pow=k, p=p + shift, decay=2 * Fraction(e, EIGHTH))
            for k, p, series, _ in chart_series(target, chart, int(kmax) + 4)
            for e, c in series.coeffs.items()
            if e <= kmax * EIGHTH
        ),
        key=lambda t: (t.decay, t.p, t.pi_pow),
    )
    return ExpPolyModel(tuple(terms))


# ---------------------------------------------------------------------------
# the remainder envelope

# Split constants c of the envelope's geometric rest (see Envelope): 1/2 keeps
# its ratio e^{-pi (x - c)} <= e^{-pi/2} on leaves down to x = 1; 19/20 leaves
# 9 explicit terms, not 32, past x_star >= 2.  Certificate bytes depend on
# both: env_hi and margin on the first, epsilon_bound on the second.
LEAF_SPLIT = Fraction(1, 2)
TAIL_SPLIT = Fraction(19, 20)

# the envelope's amplitude: at least every constant C of HYPOTHESES
ENVELOPE_AMPLITUDE = 2
# the same as an Interval, built once: ``enclose`` takes it about 26 times a leaf
_AMPLITUDE = enclose_fraction(ENVELOPE_AMPLITUDE)

# (coefficient, power of x) of the envelope prefactor P in each chart; the
# u-chart model is the target divided by t^2, so there P = (t^2 + 36/pi^2)/t^2
_PREFACTOR = {
    "t": ((Interval(1.0, 1.0), 2), (12 * INV_PI, 1), (36 * INV_PI_SQ, 0)),
    "u": ((Interval(1.0, 1.0), 0), (36 * INV_PI_SQ, 2)),
}


class Envelope:
    """Remainder envelope  P(x) * sum_{n>=m} 2 e^{2 sqrt2 pi sqrt(n)} e^{-pi n x}
    of the cutoff-m model in one chart (x = t or x = u = 1/t).

    The amplitude 2 (``ENVELOPE_AMPLITUDE``) and the growth
    e^{2 sqrt2 pi sqrt(n)} are the hypotheses' largest coefficient bound
    2 e^{4 pi sqrt(k)} at q^k = e^{-pi n x}, n = 2k.  From
    n_geo = max(m, ceil(8/c^2)) on, 2 sqrt2 sqrt(n) <= c n, so the rest of
    the sum is geometric with ratio e^{-pi (x - c)}.
    """

    __slots__ = ("chart", "m", "_leaf_constants")

    def __init__(self, chart: str, m: int) -> None:
        if chart not in _PREFACTOR:
            raise ValueError(f"unknown chart {chart!r}")
        if m < 1:
            raise ValueError("cutoff must be >= 1")
        self.chart, self.m = chart, m
        # the parts of ``enclose`` that no leaf changes: c, n_geo and, for
        # each explicit k, the growth exponent and pi * k
        n_geo = self._n_geo(LEAF_SPLIT)
        explicit = tuple((self._growth(k), PI * enclose_fraction(k)) for k in range(m, n_geo))
        self._leaf_constants = enclose_fraction(LEAF_SPLIT), enclose_fraction(n_geo), explicit

    def _n_geo(self, c: Fraction) -> int:
        n_geo = max(self.m, math.ceil(Fraction(8) / (c * c)))
        if Fraction(8) > c * c * n_geo:  # exact rational check
            raise AssertionError("geometric threshold miscomputed")
        return n_geo

    @staticmethod
    def _growth(k: int) -> Interval:
        return TWO_SQRT2_PI * sqrt_interval(enclose_fraction(k))

    @staticmethod
    def _geometric_ratio(x: Interval, c: Interval) -> Interval:
        ratio = (-PI * (x - c)).exp()
        if ratio.hi >= 1.0:
            raise ValueError("geometric tail ratio >= 1 on this segment")
        return ratio

    def enclose(self, x: Interval) -> Interval:
        """Upper enclosure over the segment x (the leaf bound, split LEAF_SPLIT)."""
        return self._enclose(x, {})

    def _at(self, tau: float) -> tuple[Interval, Interval]:
        """The prefactor P and the decaying sum S at the point tau."""
        x = Interval(tau, tau)
        pref = Interval(0.0, 0.0)
        for coeff, p in _PREFACTOR[self.chart]:
            pref = pref + coeff * x.powi(p)
        c, n_geo, explicit = self._leaf_constants
        total = Interval(0.0, 0.0)
        for growth, pi_k in explicit:
            total = total + (growth - pi_k * x).exp()
        ratio = self._geometric_ratio(x, c)
        head = _AMPLITUDE * (-PI * (x - c) * n_geo).exp()
        # doubling is exact: the amplitude times the sum is the sum of the
        # amplitude times each term, bit for bit
        return pref, _AMPLITUDE * total + head / (1 - ratio)

    def _enclose(self, x: Interval, memo: dict) -> Interval:
        """P * S over x, from the endpoint parts in memo (endpoint -> ``_at``).
        For x >= 0.55 every operand of P and S has one sign, so P.lo and S.hi
        read only x.lo, and P.hi and S.lo only x.hi: the product of the two
        endpoints' parts is that over x, bit for bit."""
        if x.lo < 0.55:
            raise ValueError("remainder envelope needs the chart variable >= 0.55")
        pref_lo, sum_lo = _memo(memo, x.lo, self._at)
        pref_hi, sum_hi = _memo(memo, x.hi, self._at)
        return Interval((pref_lo * sum_hi).lo, (pref_hi * sum_lo).hi)

    def terms(self, x_star: float) -> list[tuple[Interval, int, Fraction]]:
        """Terms (|C|, p, decay), each |C| x^p e^{-pi decay x}, whose sum bounds
        the envelope for every x >= x_star (the tail argument, split TAIL_SPLIT)."""
        c = enclose_fraction(TAIL_SPLIT)
        n_geo = self._n_geo(TAIL_SPLIT)
        amps = [(ENVELOPE_AMPLITUDE * self._growth(k).exp(), Fraction(k)) for k in range(self.m, n_geo)]
        ratio = self._geometric_ratio(Interval.point(x_star), c)
        amp = ENVELOPE_AMPLITUDE * (PI * c * enclose_fraction(n_geo)).exp()
        amps.append((amp / (1 - ratio), Fraction(n_geo)))
        return [(coeff * amp, p, decay) for coeff, p in _PREFACTOR[self.chart] for amp, decay in amps]


# ---------------------------------------------------------------------------
# certificates

class Segment(NamedTuple):
    chart: str
    lo: float
    hi: float
    model_lo: float
    model_hi: float
    env_hi: float
    margin: float


class TailRecord(NamedTuple):
    chart: str
    x_star: float
    dominant: str
    epsilon_hi: float
    certified: bool


class Certificate(NamedTuple):
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

    @property
    def worst_ratio(self) -> tuple[float, Segment] | None:
        """The largest envelope/room ratio env_hi / (env_hi + margin) over the
        segments, where the proof is nearest to failing, and its segment;
        None without segments."""
        return max(((s.env_hi / (s.env_hi + s.margin), s) for s in self.segments), key=lambda p: p[0], default=None)

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
            "segments": [s._asdict() for s in self.segments],
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


def _leaf_check(model: ExpPolyModel, envelope: Envelope, x: Interval, sign: int, model_memo: dict,
                env_memo: dict):
    """Returns (ok, model_iv, env_hi, margin).  A model enclosure without the
    sign fails the leaf before the envelope is enclosed; env_hi and margin
    are None then.  The memos keep each endpoint's parts for the chart."""
    model_iv = model._enclose(x, model_memo)
    room = -model_iv.hi if sign < 0 else model_iv.lo  # the model's distance from 0 on its sign's side
    if not room > 0:
        return False, model_iv, None, None
    env_hi = envelope._enclose(x, env_memo).hi
    return env_hi < room, model_iv, env_hi, room - env_hi


def _bisect_chart(model: ExpPolyModel, envelope: Envelope, x_star: float, max_depth: int, sign: int):
    segments: list[Segment] = []
    model_memo: dict = {}  # one chart's endpoints, each evaluated once
    env_memo: dict = {}
    stack = [(1.0, x_star, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        ok, model_iv, env_hi, margin = _leaf_check(model, envelope, Interval(lo, hi), sign, model_memo, env_memo)
        if ok:
            segments.append(Segment(envelope.chart, lo, hi, model_iv.lo, model_iv.hi, env_hi, margin))
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
    ratio terms C x^k e^{-beta x}; each ratio is checked nonincreasing on
    [x_star, inf), for k > 0 against the enclosure ``exp_poly_peak`` of its
    maximum point, and eps(x_star) is evaluated in interval arithmetic.
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
    # |coeff| / pi^k: directed rounding is symmetric under negation, so the
    # coefficient's own enclosure, negated where it is negative, encloses it
    dom_mag, *mags = (-t.coeff_interval if t.coeff < 0 else t.coeff_interval for t in terms)
    competitors = [(mag, t.p, t.decay) for mag, t in zip(mags, terms[1:])]
    competitors += envelope.terms(x_star)  # (|C|, p, decay)

    eps = Interval(0.0, 0.0)
    for mag, p, decay in competitors:
        k = p - dom.p
        beta = decay - dom.decay  # in units of pi
        sigma = PI * enclose_fraction(beta)
        # refused unless x^k e^{-sigma x} is nonincreasing on [x_star, inf) for every sigma
        if beta < 0 or (k > 0 and (beta == 0 or x_star < exp_poly_peak(k, sigma).hi)):
            return TailRecord(chart, x_star, _term_name(dom), math.inf, False)
        ratio = mag / dom_mag
        if k > 0:
            ratio = ratio * x.powi(k)
        elif k < 0:
            ratio = ratio / x.powi(-k)
        if beta != 0:
            ratio = ratio * (-sigma * x).exp()
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
    m: int | None = None,
    t_star: float = 4.0,
    max_depth: int = 60,
) -> Certificate:
    """Certify A < 0 (target 'A') or B > 0 (target 'B') on (0, inf), both charts to t_star.

    The envelope cutoff m must equal the model cutoff n, its default;
    ``build_model`` refuses a target other than 'A' and 'B'.
    """
    m = n if m is None else m
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
        model = build_model(target, n, chart)
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

def numeric_value(target: str, t: float) -> tuple[float, float]:
    """Float value of A(t) or B(t) with a bound on its truncation and roundoff.

    Uses the u = 1/t chart for t <= 1 and the t chart for t > 1, so every
    series argument has imaginary part >= 1.  Each group's value and bound
    take the factors of x^p one at a time: x^p alone overflows from
    x = 1.34e154 on, where B is still a double.
    """
    if target not in ("A", "B"):
        raise ValueError("target must be 'A' or 'B'")
    if not (t > 0 and math.isfinite(t)):
        raise ValueError("t must be positive and finite")
    chart, x = ("u", 1 / t) if t <= 1.0 else ("t", t)
    if math.isinf(x):
        raise ValueError("t must be at least 5.56268464626801e-309, where 1/t overflows a double")
    qfloat = _float_layer()
    parts = []
    for k, p, series, bound in chart_series(target, chart):
        value, err = qfloat.eval_at(series, 1j * x, bound)
        for _ in range(abs(p)):
            value, err = (value * x, err * x) if p > 0 else (value / x, err / x)
        parts.append((1 / math.pi**k, (value, err)))
    value, bound = qfloat.combine(parts)
    err = float(bound) + abs(value.imag)
    if not math.isfinite(err):
        raise ArithmeticError(f"the bound on {target}({t!r}) overflows a double")
    return value.real, err
