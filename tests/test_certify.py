"""Truncation models, remainder envelopes, and the sign certificates."""

import json
import math
import re
from fractions import Fraction

import mpmath
import pytest

from e8magic.certify import (
    ENVELOPE_AMPLITUDE,
    HYPOTHESES,
    MAX_CUTOFF,
    NEAR_INFINITY,
    NEAR_ZERO,
    Envelope,
    build_model,
    certify_sign,
    numeric_value,
)
from e8magic.modforms import GROWTH_BOUNDS, TARGETS, FormId, build_form, chart_terms, eval_form
from e8magic.qseries import EIGHTH
from e8magic.rigor import Interval

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


@pytest.mark.parametrize("t", [1e155, 1e200])
def test_numeric_value_b_at_huge_t(t):
    """Past t = 1.34e154, t^2 alone overflows a double, yet
    B(t) = 8640 t/pi - 12960/pi^2 + O(e^{-pi t}) is still one."""
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
    with pytest.raises(ArithmeticError, match=re.escape("B(1e+300)")):
        numeric_value("B", 1e300)  # the t^2 group's bound times t^2 overflows
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
