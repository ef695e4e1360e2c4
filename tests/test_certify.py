"""Truncation models, remainder envelopes, and the sign certificates."""

import gc
import hashlib
import json
import math
import random
import re
import types
import weakref
from fractions import Fraction

import mpmath
import pytest

from e8magic.certify import (
    _PREFACTOR,
    ENVELOPE_AMPLITUDE,
    HYPOTHESES,
    LEAF_SPLIT,
    MAX_CUTOFF,
    NEAR_INFINITY,
    NEAR_ZERO,
    Envelope,
    ExpPolyModel,
    ModelTerm,
    _tail_check,
    build_model,
    certify_sign,
    numeric_value,
)
from e8magic.cli import EXIT_CERT_FAILURE, main
from e8magic.modforms import GROWTH_BOUNDS, TARGETS, FormId, build_form, chart_terms, eval_form
from e8magic.qseries import EIGHTH
from e8magic.rigor import (
    INV_PI,
    INV_PI_SQ,
    PI,
    TWO_SQRT2_PI,
    Interval,
    enclose_fraction,
    exp_poly_peak,
    ia_exp_poly,
    sqrt_interval,
)

mpmath.mp.dps = 50

# ---------------------------------------------------------------------------
# model golden values: (p, pi_pow, decay) -> rational coefficient, where a
# term is coeff / pi^pi_pow * x^p * e^{-pi decay x}.  Near-zero models are
# stored scaled by t^2 in the variable u = 1/t.

A_INF_1 = {(0, 2, -2): -72, (1, 1, 0): 8640, (0, 2, 0): -23328}
B_INF_1 = {(1, 1, 0): 8640, (0, 2, 0): -12960}
A_ZERO_2 = {(0, 2, 1): -368640}
B_ZERO_2 = {(0, 2, 1): 368640}

A_INF_6 = {
    (0, 2, -2): -72,
    (0, 2, 0): -23328,
    (0, 2, 1): 184320,
    (0, 2, 2): -5194368,
    (0, 2, 3): 22560768,
    (0, 2, 4): -250583040,
    (0, 2, 5): 869916672,
    (1, 1, 0): 8640,
    (1, 1, 2): 2436480,
    (1, 1, 4): 113011200,
    (2, 0, 2): -518400,
    (2, 0, 4): -31104000,
}
B_INF_6 = {
    (0, 2, 0): -12960,
    (0, 2, 1): -184320,
    (0, 2, 2): -116640,
    (0, 2, 3): -22560768,
    (0, 2, 4): 56540160,
    (0, 2, 5): -869916672,
    (1, 1, 0): 8640,
    (1, 1, 2): 2436480,
    (1, 1, 4): 113011200,
    (2, 0, 2): -518400,
    (2, 0, 4): -31104000,
}
A_ZERO_6 = {
    (0, 2, 1): -368640,
    (0, 0, 2): -518400,
    (0, 2, 3): -45121536,
    (0, 0, 4): -31104000,
    (0, 2, 5): -1739833344,
}
B_ZERO_6 = {
    (0, 2, 1): 368640,
    (0, 0, 2): -518400,
    (0, 2, 3): 45121536,
    (0, 0, 4): -31104000,
    (0, 2, 5): 1739833344,
}


@pytest.mark.parametrize(
    "target,n,regime,expected",
    [
        pytest.param("A", 1, NEAR_INFINITY, A_INF_1, id="A-1-near_infinity-expected0"),
        pytest.param("B", 1, NEAR_INFINITY, B_INF_1, id="B-1-near_infinity-expected1"),
        pytest.param("A", 2, NEAR_ZERO, A_ZERO_2, id="A-2-near_zero-expected2"),
        pytest.param("B", 2, NEAR_ZERO, B_ZERO_2, id="B-2-near_zero-expected3"),
        pytest.param("A", 6, NEAR_INFINITY, A_INF_6, id="A-6-near_infinity-expected4"),
        pytest.param("B", 6, NEAR_INFINITY, B_INF_6, id="B-6-near_infinity-expected5"),
        pytest.param("A", 6, NEAR_ZERO, A_ZERO_6, id="A-6-near_zero-expected6"),
        pytest.param("B", 6, NEAR_ZERO, B_ZERO_6, id="B-6-near_zero-expected7"),
    ],
)
def test_model_goldens(target, n, regime, expected):
    model = build_model(target, n, regime)
    got = {k: v for k, v in model.term_map().items()}
    assert got == {k: Fraction(v) for k, v in expected.items()}


@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize("n", [1, 6])
def test_chart_names_are_the_charts(target, n):
    """NEAR_INFINITY and NEAR_ZERO name the charts t and u themselves."""
    assert build_model(target, n, NEAR_INFINITY).terms == build_model(target, n, "t").terms
    assert build_model(target, n, NEAR_ZERO).terms == build_model(target, n, "u").terms


def test_build_model_refuses_an_unknown_chart():
    with pytest.raises(ValueError, match="near_infinity"):
        build_model("A", 6, "near_infinity")


# ---------------------------------------------------------------------------
# remainder envelopes

def test_envelope_monotone_in_cutoff():
    t = Interval.point(1.5)
    values = [Envelope("t", m).enclose(t).hi for m in range(1, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))
    u = 1 / Interval.point(0.8)
    values = [Envelope("u", m).enclose(u).hi for m in range(1, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_envelope_prefactor_relation_at_t1():
    """At t = u = 1 both charts share the tail sum; the envelopes differ by the
    ratio of prefactors (t^2 + 12t/pi + 36/pi^2) vs (t^2 + 36/pi^2)."""
    one = Interval.point(1.0)
    env_inf = Envelope("t", 6).enclose(one)
    env_zero = Envelope("u", 6).enclose(one)
    ratio = (1 + 12 / math.pi + 36 / math.pi**2) / (1 + 36 / math.pi**2)
    assert env_inf.lo / env_zero.hi <= ratio <= env_inf.hi / env_zero.lo


def test_envelope_domain_checks():
    with pytest.raises(ValueError):
        Envelope("t", 6).enclose(Interval(0.5, 0.9))
    with pytest.raises(ValueError):
        Envelope("u", 6).enclose(Interval(0.5, 0.9))
    with pytest.raises(ValueError):
        Envelope("t", 0)
    with pytest.raises(ValueError, match="unknown chart 'x'"):
        Envelope("x", 6)
    with pytest.raises(ValueError, match="geometric tail ratio >= 1"):
        Envelope("t", 6).terms(0.9)  # below TAIL_SPLIT = 19/20 the rest does not contract


def test_a_model_refuses_a_cutoff_below_one():
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        build_model("A", 0, "t")


def test_numeric_value_refuses_an_unknown_target():
    with pytest.raises(ValueError, match="target must be 'A' or 'B'"):
        numeric_value("C", 1.0)


def _mp_envelope(chart, m, x):
    """50-digit value of P(x) * sum_{n>=m} 2 e^{2 sqrt2 pi sqrt(n)} e^{-pi n x};
    the terms past n = 600 are below 1e-300 of the first for x >= 1."""
    x = mpmath.mpf(x)
    pi = mpmath.pi
    pref = x**2 + 12 / pi * x + 36 / pi**2 if chart == "t" else 1 + 36 / pi**2 * x**2
    total = mpmath.fsum(
        2 * mpmath.exp(2 * mpmath.sqrt(2) * pi * mpmath.sqrt(n) - pi * n * x) for n in range(m, 600)
    )
    return pref * total


@pytest.mark.parametrize("chart", ["t", "u"])
@pytest.mark.parametrize("m", [1, 6, 10])
def test_envelope_evaluators_bound_the_exact_sum(chart, m):
    """The leaf enclosure at x and the tail terms for x >= x_star are both at
    least the envelope summed to 50 digits."""
    env = Envelope(chart, m)
    for x in (1.0, 1.7, 2.0, 4.0, 9.0):
        exact = _mp_envelope(chart, m, x)
        assert env.enclose(Interval.point(x)).hi >= exact, x
        for x_star in (2.0, 4.0):
            if x < x_star:
                continue
            terms = env.terms(x_star)
            tail = mpmath.fsum(
                mpmath.mpf(c.hi) * mpmath.mpf(x) ** p * mpmath.exp(-mpmath.pi * decay * x)
                for c, p, decay in terms
            )
            assert tail >= exact, (x, x_star)


# ---------------------------------------------------------------------------
# cross-regime consistency

def _chart_box(target, chart, t):
    """Enclosure of target(t) from the n = 6 model and envelope of one chart."""
    t_iv = Interval.point(t)
    if chart == "t":
        model = build_model(target, 6, NEAR_INFINITY).enclose(t_iv)
        env = Envelope("t", 6).enclose(t_iv).hi
        return Interval(model.lo - env, model.hi + env)
    u_iv = 1 / t_iv
    model = build_model(target, 6, NEAR_ZERO).enclose(u_iv)
    env = Envelope("u", 6).enclose(u_iv).hi
    return t_iv.powi(2) * Interval(model.lo - env, model.hi + env)


@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize("t", [0.9, 0.95, 1.0, 1.05, 1.1])
def test_cross_regime_overlap(target, t):
    inf_box, zero_box = _chart_box(target, "t", t), _chart_box(target, "u", t)
    assert max(inf_box.lo, zero_box.lo) <= min(inf_box.hi, zero_box.hi), (inf_box, zero_box)


@pytest.mark.parametrize("t", [0.9, 1.0, 1.3, 2.0, 3.0])
def test_sum_rule(t):
    """B(t) - A(t) = (72/pi^2) psi_I(it), within the combined envelopes.

    (A and B differ only in the sign of the single psi_I term.)
    """
    t_iv = Interval.point(t)
    a = build_model("A", 6, NEAR_INFINITY).enclose(t_iv)
    b = build_model("B", 6, NEAR_INFINITY).enclose(t_iv)
    env = 2 * Envelope("t", 6).enclose(t_iv).hi
    psi = eval_form(FormId.PSI_I, complex(0.0, t))
    rhs = 72 / math.pi**2 * psi.value.real
    rhs_err = 72 / math.pi**2 * psi.tail_bound
    diff = b - a
    assert diff.lo - env - rhs_err - 1e-9 <= rhs <= diff.hi + env + rhs_err + 1e-9


# ---------------------------------------------------------------------------
# certificates

@pytest.fixture(scope="module")
def cert_a():
    return certify_sign("A")


@pytest.fixture(scope="module")
def cert_b():
    return certify_sign("B")


@pytest.mark.parametrize("name", ["cert_a", "cert_b"])
def test_certified(name, request):
    cert = request.getfixturevalue(name)
    assert cert.status == "certified"
    assert cert.certified
    assert cert.min_margin > 0
    assert all(tail.certified and tail.epsilon_hi < 1 for tail in cert.tails)


@pytest.mark.parametrize("name", ["cert_a", "cert_b"])
def test_margins_dominate_rounding(name, request):
    """Every leaf margin exceeds 10x the accumulated interval width of model
    and envelope at the leaf's midpoint."""
    cert = request.getfixturevalue(name)
    for seg in cert.segments:
        regime = NEAR_INFINITY if seg.chart == "t" else NEAR_ZERO
        mid = Interval.point(0.5 * (seg.lo + seg.hi))
        width = (
            build_model(cert.target, cert.n, regime).enclose(mid).width
            + Envelope(seg.chart, cert.m).enclose(mid).width
        )
        assert seg.margin > 10 * width, seg


@pytest.mark.parametrize("target", ["A", "B"])
def test_the_n8_certificates_keep_slack_to_spare(target):
    """At n = 8 both certificates hold with their worst envelope/room ratio at
    most 0.25 (0.187 for A, 0.0875 for B): a change that thins the envelope's
    room, such as a doubled ENVELOPE_AMPLITUDE (A then reads 0.373), fails
    here even where the certificate still passes."""
    cert = certify_sign(target, n=8)
    assert cert.certified
    ratio, seg = cert.worst_ratio
    assert ratio <= 0.25, (ratio, seg)


def test_control_run_fails_near_one():
    cert = certify_sign("A", n=1, m=1)
    assert cert.status.startswith("failed")
    chart, lo, hi = cert.failure_location
    assert abs(0.5 * (lo + hi) - 1.0) < 0.2, cert.failure_location


def test_bisection_stops_at_float_resolution():
    """The failing leaf is the last one bisection can split, one float wide,
    never the degenerate [x, x], however large max_depth is."""
    for max_depth in (60, 10**9):
        chart, lo, hi = certify_sign("A", n=1, m=1, max_depth=max_depth).failure_location
        assert lo < hi == math.nextafter(lo, math.inf), (max_depth, lo, hi)


def test_certificates_deterministic():
    doc1 = json.dumps(certify_sign("A").to_doc(), sort_keys=True)
    doc2 = json.dumps(certify_sign("A").to_doc(), sort_keys=True)
    assert doc1 == doc2


# sha256 of json.dumps(certify_sign(target, n, t_star=t_star).to_doc(),
# sort_keys=True), recorded before the sign-case interval products: any change
# to the arithmetic of the trust kernel must leave every certificate byte as is
CERTIFICATE_SHA256 = {
    ("A", 6, 4): "c680fcf54010028e37d1e03e38c995d84eec477cc7aa35f7a24e9dd2cfd9be6a",
    ("A", 6, 6.5): "dde0f7920a9e1a52ea3e9cb2b3e4e5d062357f61c7fab53f2843ad04017ec0b2",
    ("A", 6, 9): "b5bf2757ab3ccafabba9b3d020c1f9d15c93cf3412cfc1c6b155aa0395fb1ec2",
    ("A", 6, 12): "f91c06dc8f2281c5c49e04af6090a20d0f8bcf43a8054e52150897813722d955",
    ("A", 8, 4): "742922180b8b3f77a7bc9dfbac6e2bd4f07c910d51e1a8deedc58d55c9148adb",
    ("A", 8, 6.5): "72311a22437622b95bf2a664f70f11e3dabe6243812e872334b654bc269cd78d",
    ("A", 8, 9): "d228ce6d34b30fe91c5bccaeeedf5b7d4fcb8cdc022ae577b656a691bf23b41f",
    ("A", 8, 12): "a045479a3a2043ca2909c4f8137585c14ca50b7a94986a9af9b49b706488c490",
    ("A", 10, 4): "7a73d62c5ee083ede704d19e5bb7734658579963e0b64d60b7bdcc38142822ac",
    ("A", 10, 6.5): "064706f8932e5963ca51a387169a06fabda982202c9dbbe909c5f77742646bba",
    ("A", 10, 9): "5529ca04a966103588398cdce57fd11035323e6d93720d01e3f964e58d83bbf6",
    ("A", 10, 12): "fce88f50379338810b312148147d5039fa0b81bbd385252af8bef12b22bcb1c4",
    ("B", 6, 4): "4c2e6037a1796c6cc1e4e644bd41d45f04e8b72ab4a7109d827d6fb0b52ee65a",
    ("B", 6, 6.5): "8fab2713b6576a294cd343ce496b73359e067ff247bb8b0d2424dc92a6a044ee",
    ("B", 6, 9): "8917332fc2535996e0a3ec180856abeb7a315cd8e165a0692391a839937eb5cc",
    ("B", 6, 12): "8be66646cd869eeaacbae2c7279e8b32601483febf48023786dbe7f0d0492f66",
    ("B", 8, 4): "70d27de4a7700bc80ae4ed70b8912275ec46d4fe77eaf99865abc86d45e27c12",
    ("B", 8, 6.5): "d2ab840c76fcd5ff3b9e64cbc5e1c69096124f727670346806d61d2f9d6d8972",
    ("B", 8, 9): "6d479342f9baf9a1768d0cd33b196d66b3b284886027dd3373a95105b862b048",
    ("B", 8, 12): "4d1f0cb000e9172b6f20145b356edf5f4fb59fb1747dbcf4d99111c53562aabe",
    ("B", 10, 4): "5c7e9fc9887fadf2a9ae86dbd3f0cee122eeb48e299a4cda337f3c6cfeded53d",
    ("B", 10, 6.5): "9cc1c36b8345b0e6fec074592f787e0508d9ea1b7c4857bd9c083575a1a27c42",
    ("B", 10, 9): "abc9304bb16cadb500ee31fee2b0e2f4be0776879e487e2b4c23f3b1ad2073f6",
    ("B", 10, 12): "733a92262339fe977baa92703d9b45d6fc015c32d2e7cb0c0d23d24d9e8d0fb2",
}


@pytest.mark.parametrize("target,n,t_star", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned(target, n, t_star):
    doc = json.dumps(certify_sign(target, n, t_star=t_star).to_doc(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CERTIFICATE_SHA256[target, n, t_star]


@pytest.mark.parametrize("target", ["A", "B"])
def test_control_failure_is_pinned(target):
    cert = certify_sign(target, n=1)
    assert cert.status == "failed"
    assert cert.failure_location == ("t", 1.0, 1.0000000000000002)


@pytest.mark.parametrize("name,target", [("cert_a", "A"), ("cert_b", "B")])
def test_certificate_schema(name, target, request):
    doc = request.getfixturevalue(name).to_doc()
    assert doc["target"] == ("A_negative" if target == "A" else "B_positive")
    assert doc["parameters"]["n"] == 6 and doc["parameters"]["m"] == 6
    assert doc["parameters"]["T_star"] == 4.0
    assert doc["status"] == "certified"
    assert set(doc["tail"]) == {"t", "u"}
    for chart in ("t", "u"):
        tail = doc["tail"][chart]
        assert tail["certified"] and tail["epsilon_bound"] < 1
    assert doc["hypotheses"]
    for seg in doc["segments"]:
        assert seg["margin"] > 0


def test_segments_cover_charts(cert_a):
    for chart in ("t", "u"):
        segs = sorted((s.lo, s.hi) for s in cert_a.segments if s.chart == chart)
        assert segs[0][0] == 1.0 and segs[-1][1] == 4.0
        for (lo1, hi1), (lo2, hi2) in zip(segs, segs[1:]):
            assert hi1 == lo2  # contiguous, no gaps


@pytest.mark.parametrize("name", ["cert_a", "cert_b"])
def test_segments_carry_the_chart_names(name, request):
    assert {s.chart for s in request.getfixturevalue(name).segments} == {NEAR_INFINITY, NEAR_ZERO}


def test_envelope_cutoff_defaults_to_the_model_cutoff():
    cert = certify_sign("A", n=8)
    assert cert.certified and cert.m == 8
    assert cert.to_doc() == certify_sign("A", n=8, m=8).to_doc()
    with pytest.raises(ValueError, match="cutoffs must agree"):
        certify_sign("A", n=8, m=7)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        certify_sign("C")
    with pytest.raises(ValueError):
        certify_sign("A", n=6, m=5)
    with pytest.raises(ValueError):
        certify_sign("A", t_star=1.5)
    with pytest.raises(ValueError):
        certify_sign("A", t_star=math.inf)
    with pytest.raises(ValueError):
        certify_sign("A", max_depth=-1)
    with pytest.raises(ValueError, match=str(MAX_CUTOFF)):
        certify_sign("A", n=240, m=240)  # the tail argument's e^{0.95 pi n} would overflow


# ---------------------------------------------------------------------------
# the endpoint memo: a leaf check reads each endpoint's parts once per chart

_PI_POW = {0: Interval(1.0, 1.0), 1: INV_PI, 2: INV_PI_SQ}


def _direct_model(terms, x):
    """The model over x as the sum of ia_exp_poly over its (c, p, sigma)."""
    total = Interval(0.0, 0.0)
    for c, p, sigma in terms:
        total = total + ia_exp_poly(c, p, sigma, x)
    return total


def _direct_envelope(chart, m, x):
    """The envelope over x with every term enclosed on x itself: P(x) times
    the explicit terms, each of amplitude 2, and the geometric rest."""
    two, c = enclose_fraction(ENVELOPE_AMPLITUDE), enclose_fraction(LEAF_SPLIT)
    n_geo = max(m, math.ceil(8 / LEAF_SPLIT**2))
    pref = Interval(0.0, 0.0)
    for coeff, p in _PREFACTOR[chart]:
        pref = pref + coeff * x.powi(p)
    total = Interval(0.0, 0.0)
    for k in range(m, n_geo):
        growth = TWO_SQRT2_PI * sqrt_interval(enclose_fraction(k))
        total = total + two * (growth - PI * enclose_fraction(k) * x).exp()
    ratio = (-PI * (x - c)).exp()
    head = two * (-PI * (x - c) * enclose_fraction(n_geo)).exp()
    return pref * (total + head / (1 - ratio))


def _bits(iv):
    return iv.lo.hex(), iv.hi.hex()


@pytest.mark.parametrize("n", [1, 6, 8, 10])
@pytest.mark.parametrize("chart", ["t", "u"])
def test_memoized_enclosures_equal_the_direct_formulas(chart, n):
    """2,000 seeded leaves per chart and cutoff, whose ends come from a pool so
    that one memo per model and envelope serves many leaves: every model
    enclosure equals the sum of ia_exp_poly over its terms and every envelope
    enclosure (x.lo >= 0.55) P(x) * S(x) formed over x, both endpoints bit for
    bit.  The pool holds 0.55, the ends of every term's peak enclosure and
    floats next to them, so that leaves straddle a peak (the boxed path)."""
    rng = random.Random(3100 + n)
    models = {target: build_model(target, n, chart) for target in "AB"}
    direct = {target: [(enclose_fraction(t.coeff) * _PI_POW[t.pi_pow], t.p, PI * enclose_fraction(t.decay))
                       for t in model.terms] for target, model in models.items()}
    envelope = Envelope(chart, n)
    pool = [0.0, 0.55, 1.0, 12.0] + [rng.uniform(0.0, 0.55) for _ in range(20)]
    pool += [rng.uniform(0.55, 12.0) for _ in range(100)]
    for lo, hi in {t.window for model in models.values() for t in model.terms if math.isfinite(t.window[0])}:
        pool += [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), lo - 0.01, hi + 0.01]
    memos = {target: {} for target in "AB"}
    env_memo = {}
    straddling = 0
    for i in range(2000):
        lo, hi = sorted((0.55 if i % 10 == 0 else rng.choice(pool), rng.choice(pool)))
        x = Interval(lo, hi)
        target = "AB"[i % 2]
        got = models[target]._enclose(x, memos[target])
        assert _bits(got) == _bits(_direct_model(direct[target], x)), (target, x)
        if i % 50 == 0:
            assert _bits(models[target].enclose(x)) == _bits(got)
        straddling += any(hi > t.window[0] and lo < t.window[1] for t in models[target].terms)
        if lo >= 0.55:
            got = envelope._enclose(x, env_memo)
            assert _bits(got) == _bits(_direct_envelope(chart, n, x)), x
            if i % 50 == 0:
                assert _bits(envelope.enclose(x)) == _bits(got)
    assert straddling > 0 or not any(math.isfinite(t.window[0]) for t in models["A"].terms)
    assert 0.55 in env_memo and len(env_memo) < 2000


class _Held(list):
    """An evaluator's result, which a weak reference can follow."""


def _count_endpoints(monkeypatch):
    """Patches both endpoint evaluators: each call is logged as (evaluator,
    its model or envelope, the endpoint), and its result is a _Held whose
    weak reference is kept."""
    calls, refs = [], []

    def patch(cls, name):
        at = cls._at

        def counted(self, tau):
            calls.append((name, self, tau))
            held = _Held(at(self, tau))
            refs.append(weakref.ref(held))
            return held
        monkeypatch.setattr(cls, "_at", counted)

    patch(ExpPolyModel, "model")
    patch(Envelope, "envelope")
    return calls, refs


@pytest.mark.parametrize("target,n,t_star", [("A", 6, 4.0), ("B", 8, 7.3), ("A", 10, 11.9)])
def test_each_endpoint_is_evaluated_once_per_chart(monkeypatch, target, n, t_star):
    """One certify_sign evaluates the model at each end of its chart's
    segments exactly once, the envelope at most once, and nothing else; the
    t and u charts keep their own memos, so each chart evaluates its own."""
    calls, _ = _count_endpoints(monkeypatch)
    cert = certify_sign(target, n=n, t_star=t_star)
    assert cert.certified
    for name in ("model", "envelope"):
        owners = list(dict.fromkeys(owner for kind, owner, _ in calls if kind == name))
        assert len(owners) == 2, name  # one model and one envelope per chart
        for chart, owner in zip("tu", owners):
            taus = [tau for kind, who, tau in calls if who is owner]
            ends = {x for s in cert.segments if s.chart == chart for x in (s.lo, s.hi)}
            assert len(taus) == len(set(taus)), (name, chart)
            assert set(taus) == ends if name == "model" else set(taus) <= ends, (name, chart)


def test_no_endpoint_outlives_its_certify_sign(monkeypatch):
    """After 20 calls no endpoint value is held anywhere (by a model, an
    envelope or a module global), so memory does not grow with the calls."""
    calls, refs = _count_endpoints(monkeypatch)
    for i in range(20):
        certify_sign("AB"[i % 2], n=(6, 8)[i // 2 % 2], t_star=4.0 + i / 4)
        calls.clear()
    gc.collect()
    assert len(refs) > 100 and not [ref for ref in refs if ref() is not None]


# ---------------------------------------------------------------------------
# the tail argument's refusals: each is certified False with an infinite epsilon

# a competitor x^2 e^{-pi x / 100} of the dominant constant -1, increasing up
# to its peak 2 / (pi / 100), about 63.7
_SLOW = (ModelTerm(Fraction(-1), 0, 0, Fraction(0)), ModelTerm(Fraction(1, 10**9), 0, 2, Fraction(1, 100)))
_SLOW_PEAK = exp_poly_peak(2, PI * enclose_fraction(Fraction(1, 100)))


@pytest.mark.parametrize(
    "terms,m,x_star,sign",
    [
        pytest.param(build_model("A", 6, "t").terms, 6, 4.0, 1, id="dominant-of-the-wrong-sign"),
        pytest.param((ModelTerm(Fraction(-1), 0, 0, Fraction(10)),), 6, 4.0, -1, id="beta-below-0"),
        pytest.param((ModelTerm(Fraction(-1), 0, 0, Fraction(6)),), 6, 4.0, -1, id="beta-0-with-k-above-0"),
        pytest.param(_SLOW, 6, _SLOW_PEAK.lo, -1, id="increasing-at-the-peak-lower-end"),
        pytest.param(_SLOW, 6, math.nextafter(_SLOW_PEAK.hi, 0.0), -1, id="increasing-one-ulp-below-the-peak-upper-end"),
    ],
)
def test_tail_refusals(terms, m, x_star, sign):
    tail = _tail_check(ExpPolyModel(tuple(terms)), Envelope("t", m), x_star, sign)
    assert not tail.certified and tail.epsilon_hi == math.inf


def test_tail_is_accepted_from_the_peak_upper_end_on():
    """From the upper end of the peak's enclosure on, x^2 e^{-sigma x}
    decreases for every sigma in the rate's enclosure."""
    assert _SLOW_PEAK.lo < math.nextafter(_SLOW_PEAK.hi, 0.0)  # the two refusals above differ
    tail = _tail_check(ExpPolyModel(_SLOW), Envelope("t", 6), _SLOW_PEAK.hi, -1)
    assert tail.certified and tail.epsilon_hi < 1e-3


def test_a_failing_tail_fails_the_certificate(monkeypatch, capsys):
    """An envelope term that outweighs the dominant term at T* fails the
    t-chart tail: the failure spans [T*, inf), and the CLI exits 3."""
    huge = [(Interval(1e300, 1e300), 0, Fraction(6))]
    monkeypatch.setattr(Envelope, "terms", lambda self, x_star: huge)
    cert = certify_sign("A")
    assert cert.failure_location == ("t", 4.0, math.inf)
    assert [t.chart for t in cert.tails] == ["t"] and not cert.tails[0].certified
    assert math.isfinite(cert.tails[0].epsilon_hi)
    assert cert.to_doc()["status"] == "failed(t-chart [4.0, inf])"
    assert main(["certify", "--target", "A"]) == EXIT_CERT_FAILURE
    assert json.loads(capsys.readouterr().out)["status"] == "failed(t-chart [4.0, inf])"


# ---------------------------------------------------------------------------
# model vs plain numerics

@pytest.mark.parametrize("target", ["A", "B"])
@pytest.mark.parametrize("t", [1.0, 1.5, 2.5, 0.4, 0.7, 0.9])
def test_models_match_numeric_value(target, t):
    """t-chart model +/- envelope for t >= 1, t^2 (model +/- envelope) at
    u = 1/t for t < 1."""
    value, err = numeric_value(target, t)
    box = _chart_box(target, "t" if t >= 1 else "u", t)
    # numeric_value works in plain doubles; allow its roundoff on top of the
    # reported truncation error
    tol = err + 1e-12 * (1 + abs(value))
    assert box.lo - tol <= value <= box.hi + tol


def _mp_series(form, t):
    """50-digit value of the order-64 series of a catalog form at z = it."""
    return sum(
        mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(-2 * mpmath.pi * mpmath.mpf(e) / 8 * t)
        for e, c in build_form(form, 64).coeffs.items()
    )


@pytest.mark.parametrize("t", [6.6, 9.0, 10.0])
def test_numeric_value_b_keeps_its_digits(t):
    """Past t = 6.5 the e^{2 pi t} terms of phi_-4 and psi_I cancel; B stays
    positive and within its bound of a 50-digit evaluation of the series."""
    value, err = numeric_value("B", t)
    tt = mpmath.mpf(t)
    ref = (
        -(tt**2) * _mp_series(FormId.PHI_0, tt)
        + 12 / mpmath.pi * tt * _mp_series(FormId.PHI_M2, tt)
        - 36 / mpmath.pi**2 * (_mp_series(FormId.PHI_M4, tt) - _mp_series(FormId.PSI_I, tt))
    )
    assert value - err > 0
    assert abs(value - ref) <= err


def test_numeric_value_bound_survives_underflow():
    """At t = 1e-300 every product underflows to 0; the bound must still be
    positive, since A(t) itself is not zero."""
    value, err = numeric_value("A", 1e-300)
    assert value == 0.0 and err > 0


@pytest.mark.parametrize("t", [1e155, 1e200, 1e270, 1e287, 1e300])
def test_numeric_value_b_at_huge_t(t):
    """Past t = 1.34e154, t^2 alone overflows a double, yet
    B(t) = 8640 t/pi - 12960/pi^2 + O(e^{-pi t}) is still one.  The t^2
    group's terms all underflow there; each is bounded by its own size, so
    t^2 does not blow their bound up."""
    value, err = numeric_value("B", t)
    ref = 8640 * mpmath.mpf(t) / mpmath.pi - 12960 / mpmath.pi**2
    assert abs(value - ref) <= err <= 1e-13 * value


def test_numeric_value_just_above_its_lower_limit():
    """From t = 5.57e-309 up to 1.2e-306, Im z = 1/t passes the height where
    the tail majorant's products 2 pi y n overflow; the tail is bounded at
    that height instead, and A and B are 0 within their bound."""
    for target in ("A", "B"):
        for i in range(400):
            t = 5.57e-309 * (1.2e-306 / 5.57e-309) ** (i / 399)
            value, err = numeric_value(target, t)
            assert abs(value) <= err <= 1e-300, (target, t)


def test_numeric_value_names_its_limits():
    with pytest.raises(ArithmeticError, match=re.escape("B(1e+306)")):
        numeric_value("B", 1e306)  # B(t) ~ 2750 t passes the double range
    with pytest.raises(ValueError, match="5.56268464626801e-309"):
        numeric_value("A", 1e-320)  # 1/t overflows


_HYPOTHESIS = re.compile(r"\|c_(\S+)\(n\)\| <= (?:(\d+) )?e\^\(4 pi sqrt\(n\)\) for (integer|half-integer) n > 0")


def test_hypotheses_match_the_forms_the_targets_read():
    """Every form in the expansions of A and B has exactly one HYPOTHESES line;
    its constant is the form's GROWTH_BOUNDS entry and its grid the form's
    stride, and the envelope's amplitude is at least every such constant."""
    lines = {}
    for line in HYPOTHESES:
        name, constant, grid = _HYPOTHESIS.fullmatch(line).groups()
        assert name not in lines, line
        lines[name] = (float(constant or 1), grid)
    forms = {g for target in TARGETS for chart in ("t", "u") for g, *_ in chart_terms(target, chart)}
    assert set(lines) == {form.value.replace("_", "") for form in forms}
    grids = {EIGHTH: "integer", EIGHTH // 2: "half-integer"}
    for form in forms:
        constant, grid = lines[form.value.replace("_", "")]
        assert constant == GROWTH_BOUNDS[form], form
        assert grid == grids[build_form(form).stride], form
    assert ENVELOPE_AMPLITUDE >= max(GROWTH_BOUNDS[form] for form in forms)
    assert lines == {"psiI": (1.0, "half-integer"), "psiS": (2.0, "half-integer"), "phi0": (2.0, "integer"),
                     "phi-2": (1.0, "integer"), "phi-4": (1.0, "integer")}


# ---------------------------------------------------------------------------
# error paths and soundness guards

def test_a_model_refuses_a_negative_chart_variable():
    with pytest.raises(ValueError, match=re.escape("a model needs x.lo >= 0")):
        build_model("A", 6, "t").enclose(Interval(-1.0, 1.0))


def test_the_tail_argument_needs_one_dominant_term():
    """Two terms with the same decay and power (here of different powers of
    pi) leave no single dominant term to divide by."""
    model = ExpPolyModel((ModelTerm(Fraction(-1), 0, 0, Fraction(1)), ModelTerm(Fraction(-2), 1, 0, Fraction(1))))
    with pytest.raises(ValueError, match="dominant model term is not unique"):
        _tail_check(model, Envelope("t", 6), 4.0, -1)


def test_the_geometric_threshold_guard_fires_below_8_over_c2(monkeypatch):
    """White box: no input reaches this guard, since the ceiling of the exact
    8/c^2 is exact, so n_geo >= 8/c^2 for every c and m.  It stands against
    a rewrite that forms n_geo in floats: one less than the ceiling trips it."""
    from e8magic import certify

    monkeypatch.setattr(certify, "math", types.SimpleNamespace(ceil=lambda x: math.ceil(x) - 1))
    with pytest.raises(AssertionError, match="geometric threshold miscomputed"):
        Envelope("t", 1)
