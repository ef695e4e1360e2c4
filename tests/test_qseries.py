"""Ring laws, operators, evaluation bounds, and persistence of QSeries."""

import builtins
import cmath
import hashlib
import itertools
import json
import math
import re
import types
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from e8magic import qfloat
from e8magic.qfloat import _MAJORANT_Y_MAX, _RAISE, RayPlan, _falling_sums, _floats, _tail_majorant, combine, eval_at
from e8magic.qseries import EIGHTH, QSeries, TruncationError, U
from e8magic.modforms import GROWTH_BOUNDS, FormId, build_form, eisenstein, eval_form, theta

mpmath.mp.dps = 50

ORDER = 24 * EIGHTH  # generous shared truncation for the random-series laws

coeff_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=64
)


@st.composite
def small_series(draw):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    lead = draw(st.integers(min_value=-8, max_value=8))
    coeffs = {}
    for _ in range(n_terms):
        e = draw(st.integers(min_value=lead, max_value=ORDER - 1))
        coeffs[e] = draw(coeff_st)
    return QSeries(lead, ORDER, coeffs)


def _common_range(*series):
    lo = max(s.lead for s in series)
    hi = min(s.order for s in series)
    return range(lo, hi)


@given(small_series(), small_series(), small_series())
@settings(max_examples=150, deadline=None)
def test_distributivity(f, g, h):
    lhs = (f + g) * h
    rhs = f * h + g * h
    for e in _common_range(lhs, rhs):
        assert lhs.coeff(e) == rhs.coeff(e)


@given(small_series(), small_series())
@settings(max_examples=150, deadline=None)
def test_leibniz_rule(f, g):
    lhs = (f * g).D()
    rhs = f.D() * g + f * g.D()
    for e in _common_range(lhs, rhs):
        assert lhs.coeff(e) == rhs.coeff(e)


@given(small_series(), small_series())
@settings(max_examples=150, deadline=None)
def test_division_two_sided_inverse(f, den):
    if den.is_zero():
        return
    q = f / den
    back = den * q
    for e in _common_range(back, f):
        assert back.coeff(e) == f.coeff(e)


@given(small_series())
@settings(max_examples=150, deadline=None)
def test_serialization_round_trip(f):
    text = f.dumps(name="x", weight=0)
    g = QSeries.loads(text)
    assert g.coeffs == f.coeffs
    assert g.lead == f.lead and g.order == f.order and g.stride == f.stride
    assert g.dumps(name="x", weight=0) == text


def test_doc_schema():
    doc = build_form(FormId.PSI_I, 8).to_doc(name="psi_I", weight=-2)
    assert set(doc) == {"name", "weight", "stride", "lead", "order", "coefficients"}
    assert doc["stride"] == 4  # half-integer grid in eighths
    assert all(isinstance(e, int) and "/" in s for e, s in doc["coefficients"])


def test_eval_at_matches_high_precision_sum():
    """Explicit-term part of eval_at agrees with a 50-digit resummation."""
    series = eisenstein(4, 32)
    z = complex(0.31, 1.07)
    got = eval_at(series, z, 1.0)
    oracle = mpmath.mpc(0)
    for e, c in sorted(series.coeffs.items()):
        oracle += mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(
            2j * mpmath.pi * mpmath.mpf(e) / 8 * mpmath.mpc(z)
        )
    assert abs(got.value - complex(oracle)) < 1e-12 * (1 + abs(oracle))


def test_eval_monotone_in_truncation():
    """A longer truncation moves the value by at most the shorter tail bound.

    ``tail_bound`` also covers roundoff, which grows with the number of terms
    and here exceeds the truncation tail by 1e18, so the decrease with the
    order is asserted on the truncation majorant alone.
    """
    z = complex(0.2, 0.9)
    for form in (FormId.E4, FormId.J, FormId.PSI_I):
        short = eval_at(build_form(form, 24), z, 2.0)
        long = eval_at(build_form(form, 48), z, 2.0)
        assert abs(short.value - long.value) <= short.tail_bound + 1e-15
        tails = [
            _tail_majorant(s.lead, s.order, s.stride, 2.0, z.imag)
            for s in (build_form(form, 24), build_form(form, 48))
        ]
        assert tails[1] < tails[0]


@lru_cache(maxsize=None)
def _mp_terms(form, order):
    return [
        (mpmath.mpf(e) / 8, mpmath.mpf(c.numerator) / c.denominator)
        for e, c in build_form(form, order).coeffs.items()
    ]


@given(
    st.sampled_from(list(FormId)),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=120, deadline=None)
def test_eval_bound_covers_truncation_and_roundoff(form, x, y):
    """The order-64 value lies within its bound of a 50-digit sum of the
    order-128 series, and the bound is not vacuous."""
    z = complex(x, y)
    got = eval_form(form, z)
    q = 2j * mpmath.pi * mpmath.mpc(z)
    oracle = sum(c * mpmath.exp(q * n) for n, c in _mp_terms(form, 128))
    assert abs(mpmath.mpc(got.value) - oracle) <= got.tail_bound
    magnitude = sum(abs(c * mpmath.exp(q * n)) for n, c in _mp_terms(form, 64))
    assert got.tail_bound <= 1e-10 * (1 + magnitude)


@pytest.mark.parametrize(
    "lead,order,stride,c,y",
    [(-8, 512, 8, 2.0, 0.5), (-8, 512, 4, 1.0, 0.5), (0, 64, 8, 1.0, 1.0), (-8, 200, 4, 2.0, 0.8)],
)
def test_tail_majorant_bounds_the_tail_sum(lead, order, stride, c, y):
    """The majorant is at least the 40-digit sum of C e^{4 pi sqrt(n) - 2 pi n y}
    over the tail grid (every n >= order / 8 on lead / 8 + stride / 8 Z), and
    within 1.5 times it, so a majorant scaled down or given a smaller growth
    exponent fails here."""
    majorant = _tail_majorant(lead, order, stride, c, y)
    with mpmath.workdps(40):
        step = Fraction(stride, EIGHTH)
        n = Fraction(lead, EIGHTH)
        while n < Fraction(order, EIGHTH):
            n += step
        pi, terms = mpmath.pi, []
        while not terms or terms[-1] > terms[0] * mpmath.mpf(10) ** -45:
            x = mpmath.mpf(n.numerator) / n.denominator
            terms.append(c * mpmath.exp(4 * pi * mpmath.sqrt(x) - 2 * pi * x * y))
            n += step
        exact = mpmath.fsum(terms)
        assert exact <= majorant <= 1.5 * exact, (majorant, exact)



@lru_cache(maxsize=None)
def _mp_growth(e):
    """e^{4 pi sqrt(n)} at n = e/8, to 60 digits."""
    with mpmath.workdps(60):
        return mpmath.exp(4 * mpmath.pi * mpmath.sqrt(mpmath.mpf(e) / EIGHTH))


def _mp_tail_above(lead, order, stride, y):
    """An upper end, within 1e-30 of it, of the 60-digit sum of e^{4 pi sqrt(n)
    - 2 pi n y} over the tail grid: every n >= order / 8 on lead / 8 + stride / 8 Z.
    The sum runs term by term until a term is below 1e-32 of it and the terms
    decrease (looked at every 8th term); the rest from n on is at most its first term over
    1 - e^{(2 pi / sqrt(n) - 2 pi y) s}, since sqrt(n + k s) <= sqrt(n) + k s / (2 sqrt(n))."""
    with mpmath.workdps(60):
        e = lead
        while e < order:
            e += stride
        s, two_pi_y = mpmath.mpf(stride) / EIGHTH, 2 * mpmath.pi * mpmath.mpf(y)
        decay, step = mpmath.exp(-two_pi_y * e / EIGHTH), mpmath.exp(-two_pi_y * s)
        total, cut = mpmath.mpf(0), mpmath.mpf(10) ** -32
        for k in itertools.count():
            term = _mp_growth(e) * decay
            if k % 8 == 7 and term <= total * cut:
                slope = (2 * mpmath.pi / mpmath.sqrt(mpmath.mpf(e) / EIGHTH) - two_pi_y) * s
                if slope < 0:
                    return total + term / (1 - mpmath.exp(slope))
            total += term
            e += stride
            decay *= step


def test_tail_majorant_bounds_seeded_tails_at_60_digits():
    """Over 10^4 seeded (lead, order, stride, c, y) draws the float majorant is at
    least the 60-digit tail sum and, where that sum is above 1e-290, at most
    10^3 times it.  A quarter of the draws take y within 1e-3 of 1/sqrt(n0),
    for the grid start n0: at and below that edge the geometric ratio of the
    majorant reaches 1 and it raises TruncationError, which it may also do
    within 2^-40 above the edge, where the raised ratio rounds to 1.  Just
    above the edge the geometric series counts about 1 / (2 pi s (y -
    1/sqrt(n0))) terms while the tail's terms fall off as a Gaussian, so
    there the ratio is held to 1 / (y sqrt(n0) - 1) instead.  y =
    _MAJORANT_Y_MAX, 1 ulp below 1/sqrt(n0) and 1 ulp above it are drawn too."""
    rng = np.random.default_rng(2026)
    wrong, loose = [], []
    for i in range(10_000):
        stride = int(rng.choice([1, 2, 4, 8]))
        lead = int(rng.integers(-8, 9))
        order = int(rng.integers(max(lead, 0) + 1, 600))
        c = float(rng.uniform(0.25, 4.0))
        e0 = lead + -(-(order - lead) // stride) * stride
        edge = 1 / math.sqrt(e0 / EIGHTH)
        y = [
            float(rng.uniform(0.4, 3.0)),
            edge * float(rng.uniform(1 - 1e-3, 1 + 1e-3)),
            float(10 ** rng.uniform(0.5, 3.0)),
            [_MAJORANT_Y_MAX, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 0.5][i // 4 % 4],
        ][i % 4]
        with mpmath.workdps(60):
            above = mpmath.mpf(y) * mpmath.sqrt(mpmath.mpf(e0) / EIGHTH) - 1  # y sqrt(n0) - 1
            try:
                majorant = _tail_majorant(lead, order, stride, c, y)
            except TruncationError:
                if above > 2.0**-40:
                    wrong.append((lead, order, stride, c, y, "refused"))
                continue
            exact = c * _mp_tail_above(lead, order, stride, y)
            if not (above > 0 and exact <= majorant):
                wrong.append((lead, order, stride, c, y, majorant, exact))
            elif exact > mpmath.mpf("1e-290") and majorant > exact * max(10**3, 1 / above):
                loose.append((lead, order, stride, c, y, majorant / exact))
    assert not wrong, wrong[:5]
    assert not loose, loose[:5]


@lru_cache(maxsize=None)
def _mp_growth_exponent(e):
    """4 pi sqrt(n) at n = e/8, to 60 digits."""
    with mpmath.workdps(60):
        return 4 * mpmath.pi * mpmath.sqrt(mpmath.mpf(e) / EIGHTH)


def test_tail_majorant_rounds_each_of_its_parts_up(monkeypatch):
    """White box, over 2,000 seeded draws, from the two exp calls of the
    majorant: against 60 digits, the head's argument is at least 4 pi
    sqrt(n0) - 2 pi n0 y and the ratio's at least -2 pi s (y - 1/sqrt(n0)),
    so that each exp gives at least the exact head and ratio, and the
    majorant is at least C head / d (1 + 8u), in Fractions, for the float
    parts it formed.  The 60-digit check of the result alone misses either
    roundoff cover dropped by itself, since each absorbs what the other
    covers: here the argument checks fail without the raised arguments or
    the outward step on 1/sqrt(n0), the last without the factor 1 + 2^-36.
    A third of the draws take y within 1e-3 above 1/sqrt(n0), where the
    rounding of 1/sqrt(n0) is large against y - 1/sqrt(n0)."""
    calls = []

    def exp(x):
        calls.append((x, math.exp(x)))
        return calls[-1][1]

    monkeypatch.setattr(qfloat, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
    rng = np.random.default_rng(34)
    low_args, low_sums = [], []
    for i in range(2_000):
        stride = int(rng.choice([1, 2, 4, 8]))
        lead = int(rng.integers(-8, 9))
        order = int(rng.integers(max(lead, 0) + 1, 600))
        c = float(rng.uniform(0.25, 4.0))
        e0 = lead + -(-(order - lead) // stride) * stride
        y = [
            float(rng.uniform(0.4, 3.0)),
            1 / math.sqrt(e0 / EIGHTH) * float(rng.uniform(1 + 1e-12, 1 + 1e-3)),
            float(10 ** rng.uniform(0.5, 3.0)),
        ][i % 3]
        calls.clear()
        try:
            majorant = _tail_majorant(lead, order, stride, c, y)
        except TruncationError:
            continue
        (ratio_arg, ratio), (head_arg, head) = calls
        with mpmath.workdps(60):
            n0, s = mpmath.mpf(e0) / EIGHTH, mpmath.mpf(stride) / EIGHTH
            if not mpmath.mpf(head_arg) >= _mp_growth_exponent(e0) - 2 * mpmath.pi * mpmath.mpf(y) * n0:
                low_args.append(("head", lead, order, stride, y, head_arg))
            if not mpmath.mpf(ratio_arg) >= -2 * mpmath.pi * s * (mpmath.mpf(y) - 1 / mpmath.sqrt(n0)):
                low_args.append(("ratio", lead, order, stride, y, ratio_arg))
        d = 1.0 - (ratio + _RAISE)
        if not Fraction(majorant) >= Fraction(c) * Fraction(head) / Fraction(d) * (1 + 8 * Fraction(U)):
            low_sums.append((lead, order, stride, c, y, majorant))
    assert not low_args, low_args[:5]
    assert not low_sums, low_sums[:5]


def _parts(draw_float):
    return st.lists(
        st.tuples(
            st.one_of(draw_float, st.builds(complex, draw_float, draw_float)),
            st.builds(complex, draw_float, draw_float),
        ),
        min_size=1,
        max_size=6,
    )


# floats from 2^-560 to 2^500 in magnitude: products reach the subnormal
# range and underflow, sums of the largest stay finite
_wide_float = st.builds(
    lambda m, e: m * 2.0**e, st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-560, max_value=500)
)


def _exact(x):
    x = complex(x)
    return Fraction(x.real), Fraction(x.imag)


@given(_parts(_wide_float))
@example([(1e-170, 1e-170 + 3e-171j), (-2e-160 + 1e-165j, 5e-170j)])
@example([(3.0, 1e16 + 0j), (-3.0, 1e16 + 1j), (1.0, 0.1 + 0j)])
@settings(max_examples=300, deadline=None)
def test_combine_bound_covers_its_roundoff(parts):
    """With exact inputs (zero tail bounds) the bound of combine is at least
    the distance of its value from the exact sum of the same floats,
    products that underflow included."""
    value, bound = combine([(c, (v, 0.0)) for c, v in parts])
    re, im = Fraction(0), Fraction(0)
    for c, v in parts:
        (a, b), (x, y) = _exact(c), _exact(v)
        re, im = re + a * x - b * y, im + a * y + b * x
    got_re, got_im = _exact(value)
    assert (got_re - re) ** 2 + (got_im - im) ** 2 <= Fraction(bound) ** 2, (value, bound, re, im)


_RAY_FORMS = (FormId.PHI_0, FormId.PHI_M2, FormId.PHI_M4, FormId.PSI_I)


def test_ray_laplace_rows_match_one_row_calls_bit_for_bit():
    """Rows sharing an exponent grid share their closed forms; over y that
    span several blocks each row keeps every bit of its own one-row call."""
    import numpy as np

    y = np.linspace(0.0, 40.0, 9001)
    rows = [(build_form(form), p, GROWTH_BOUNDS[form]) for form in _RAY_FORMS for p in range(4)]
    for row, (value, bound) in zip(rows, RayPlan(rows[::-1])(y)[::-1]):
        (alone, alone_bound), = RayPlan((row,))(y)
        assert value.tobytes() == alone.tobytes()
        assert bound.tobytes() == alone_bound.tobytes()


def test_ray_laplace_bounds_read_each_row_s_own_sum_of_m_abs_c():
    """At one y each row's value and bound keep the bits of its closed form
    recomputed here, with sum m |c| from its own dot product with |c|;
    psi_I's row has both signs, and a bound that read |sum m c| for it would
    be too small."""
    rows = [(build_form(form), p, GROWTH_BOUNDS[form]) for form in _RAY_FORMS for p in range(4)]
    signs = {form: set(np.sign(c[n > 0]).tolist()) for form in _RAY_FORMS for n, c, *_ in [_floats(build_form(form))]}
    assert signs[FormId.PSI_I] == {-1.0, 1.0} and signs[FormId.PHI_0] == {1.0}
    plan = RayPlan(rows)
    for y in (0.0, 0.3, 2.0, 9.5):
        for (series, p, _), got, (tail, gamma, tiny) in zip(rows, plan(y), plan.consts):
            n, c = _floats(series)[:2]
            n, c = n[n > 0], c[n > 0]
            neg_beta = -math.pi * (2 * n + y)
            inv = [-1.0 / neg_beta]
            for _ in range(p):
                inv.append(inv[-1] * inv[0])
            acc = inv[0]
            for k in range(1, p + 1):
                acc = acc + math.perm(p, k) * inv[k]
            m = np.exp(neg_beta) * acc
            m_abs_c, m_2n_abs_c = m.dot(np.abs(c)), m.dot(2 * n * np.abs(c))
            bound = tail * np.exp(-math.pi * y) + (gamma * m_abs_c + 6 * math.pi * U * (m_2n_abs_c + y * m_abs_c)) + tiny
            assert got == (m.dot(c), bound), (series, p, y)


def test_falling_sums_give_the_ray_moments_to_50_digits():
    """e^{-beta} S_p, formed as ``RayPlan`` forms it from an array of 1/beta,
    is int_1^oo t^p e^{-beta t} dt = Gamma(p + 1, beta) / beta^(p + 1) within
    2e-15 relative for p <= 4, at 400 beta log-uniform on [1e-8, 700]."""
    beta = 10 ** np.random.default_rng(43).uniform(-8, math.log10(700), 400)
    sums = _falling_sums(1.0 / beta, 4)
    with mpmath.workdps(50):
        for p, s_p in enumerate(sums):
            for b, value in zip(beta, np.exp(-beta) * s_p):
                ref = mpmath.gammainc(p + 1, mpmath.mpf(b)) / mpmath.mpf(b) ** (p + 1)
                assert abs(value - ref) <= 2e-15 * ref, (p, b, value, ref)


def _compensated_sum(values, start=0):
    """builtin ``sum`` as CPython >= 3.12 has it: Neumaier's compensated sum
    where every term is a float, the plain sum otherwise."""
    values = list(values)
    if not all(isinstance(x, float) for x in values):
        return builtins.sum(values, start)
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_float_sums_keep_their_bits_under_a_compensated_sum(monkeypatch):
    """The goldens hold on every supported Python: with builtin ``sum`` made
    compensated in ``e8`` and ``qseries``, as CPython >= 3.12 makes it, the
    Poisson checks and the constants of a ray plan over the whole catalog
    keep every bit."""
    from e8magic import e8, qseries

    rows = [(build_form(form), p, GROWTH_BOUNDS[form]) for form in FormId for p in range(4)]
    alphas = [0.5 + k / 100 for k in range(0, 200, 7)]
    consts, checks = RayPlan(rows).consts, [e8.poisson_check(alpha) for alpha in alphas]
    for module in (e8, qseries):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert RayPlan(rows).consts == consts
    assert [e8.poisson_check(alpha) for alpha in alphas] == checks


@pytest.mark.parametrize("form", _RAY_FORMS)
@pytest.mark.parametrize("p", [0, 3])
def test_ray_laplace_bound_covers_the_stored_terms(form, p):
    """Against 50-digit upper incomplete gammas: sum over the stored terms
    with n > 0 of c(n) Gamma(p + 1, beta) / beta^(p + 1), beta = pi (2n + y)."""
    series = build_form(form)
    ys = [0.0, 0.3, 2.0, 9.5]
    (values, bounds), = RayPlan([(series, p, GROWTH_BOUNDS[form])])(ys)
    for y, value, bound in zip(ys, values, bounds):
        ref = mpmath.mpf(0)
        for e, c in series.coeffs.items():
            if e > 0:
                beta = mpmath.pi * (mpmath.mpf(2 * e) / EIGHTH + y)
                ref += mpmath.mpf(c.numerator) / c.denominator * mpmath.gammainc(p + 1, beta) / beta ** (p + 1)
        assert abs(value - ref) <= bound, (y, value, ref, bound)


@pytest.mark.parametrize("form", _RAY_FORMS)
@pytest.mark.parametrize("p", [0, 3])
def test_ray_laplace_bound_covers_stored_terms_that_all_underflow(form, p):
    """At y = 240 every e^{-beta} of the stored terms underflows to 0, so the
    value is 0; its bound still covers the 50-digit sum of those terms, which
    only the subnormal term of the bound does."""
    series = build_form(form)
    y = 240.0
    (value, bound), = RayPlan([(series, p, GROWTH_BOUNDS[form])])(y)
    ref = mpmath.mpf(0)
    for e, c in series.coeffs.items():
        if e > 0:
            beta = mpmath.pi * (mpmath.mpf(2 * e) / EIGHTH + y)
            ref += mpmath.mpf(c.numerator) / c.denominator * mpmath.gammainc(p + 1, beta) / beta ** (p + 1)
    assert value == 0.0 and ref != 0
    assert abs(value - ref) <= bound, (value, ref, bound)


@pytest.mark.parametrize("p", range(4))
def test_ray_laplace_bound_covers_a_tail_at_the_growth_bound(p):
    """A series truncated at q^2 whose coefficients are floor(e^{4 pi sqrt(n)}),
    the growth bound with C = 1: at y = 0, where the bound is within 1.15
    times the tail, and above it, the distance from the value to the
    50-digit transform of the whole series (the stored term and the tail to
    n = 60) is within the bound.  The tail dominates the bound here, so a
    tail factor that drops the falling factorials p!/(p-k)! of its closed
    form is too small at p = 3."""
    with mpmath.workdps(50):
        coeffs = {n: int(mpmath.floor(mpmath.exp(4 * mpmath.pi * mpmath.sqrt(n)))) for n in range(1, 61)}

        def transform(n, y):  # int_1^oo t^p e^{-beta t} dt, beta = pi (2n + y)
            beta = mpmath.pi * (2 * n + mpmath.mpf(y))
            return coeffs[n] * mpmath.gammainc(p + 1, beta) / beta ** (p + 1)

        ys = [0.0, 0.5, 2.0]
        (values, bounds), = RayPlan([(QSeries(8, 16, {8: coeffs[1]}), p, 1.0)])(ys)
        for y, value, bound in zip(ys, values, bounds):
            tail = mpmath.fsum(transform(n, y) for n in range(2, 61))
            assert abs(value - transform(1, y) - tail) <= bound, (y, value, tail, bound)
            assert bound <= 1.15 * tail or y > 0


def test_ray_laplace_pairs_at_one_y_are_python_floats():
    """At one y, a float or a numpy scalar, each row's value and bound are
    Python floats, as ``RayPlan`` states.  np.float64 subclasses float, so
    only the exact type tells them apart."""
    rows = [(build_form(form), p, GROWTH_BOUNDS[form]) for form in _RAY_FORMS for p in range(4)]
    plan = RayPlan(rows)
    for y in (0.3, np.float64(0.3), 240.0, np.float64(240.0)):
        for value, bound in plan(y):
            assert type(value) is float and type(bound) is float, (y, type(value), type(bound))


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
def test_both_tail_majorant_callers_refuse_a_growth_constant_that_is_not_finite_and_nonnegative(c):
    """``eval_at`` and ``RayPlan`` refuse a growth constant C that is NaN,
    infinite or negative with a ValueError naming it, rather than a NaN bound
    or an overflow of the series value."""
    e4 = build_form(FormId.E4)
    with pytest.raises(ValueError, match="growth-bound constant"):
        eval_at(e4, 1j, c)
    with pytest.raises(ValueError, match="growth-bound constant"):
        RayPlan([(e4, 0, c)])(1.0)


@pytest.mark.parametrize("form", list(FormId))
def test_eval_at_a_scalar_keeps_the_bits_of_its_one_point_array(form):
    """eval_at at one z returns the value and bound bits of eval_at at the
    one-point array [z], at seeded z with Im z in [0.5, 3] and, for a series
    with no term at or below q^0, at a height where every term underflows,
    so that the bound of the terms there is the floor in logs."""
    series, bound = build_form(form), GROWTH_BOUNDS[form]
    rng = np.random.default_rng(43)
    zs = [complex(x, y) for x, y in zip(rng.uniform(-0.5, 0.5, 8), rng.uniform(0.5, 3.0, 8))]
    if series.lead > 0:
        zs.append(complex(0.3, 2000.0))
        assert not np.count_nonzero(np.exp(-2 * math.pi * _floats(series)[0] * 2000.0))
    for z in zs:
        one, grid = eval_at(series, z, bound), eval_at(series, np.array([z]), bound)
        assert [one.value.real.hex(), one.value.imag.hex(), one.tail_bound.hex()] == [
            float(grid.value[0].real).hex(), float(grid.value[0].imag).hex(), float(grid.tail_bound[0]).hex()], z


def test_eq_and_hash_use_the_same_fields():
    a = QSeries(0, 16, {0: 1})
    b = QSeries(-8, 24, {0: 1})
    assert a != b and len({a, b}) == 2
    c = QSeries(0, 16, {0: Fraction(2, 2)})
    assert a == c and hash(a) == hash(c) and len({a, c}) == 1


def test_theta00_limit_is_one():
    series = theta("00", 32) ** 4
    res = eval_at(series, complex(0.0, 40.0), 1.0)
    assert abs(res.value - 1.0) <= res.tail_bound + 1e-15


def test_translate_is_half_grid_sign_flip():
    psi_i = build_form(FormId.PSI_I, 16)
    t = psi_i.translate()
    for e, c in psi_i.coeffs.items():
        assert t.coeff(e) == (c if e % 8 == 0 else -c)
    with pytest.raises(ValueError):
        theta("10", 16).translate()  # support on the 1/8 grid, not 1/2


def test_coeff_beyond_order_raises():
    f = QSeries(0, 8, {0: 1})
    with pytest.raises(TruncationError):
        f.coeff(8)


def test_negative_lead_division():
    """q^{-1} leads are first-class through the arithmetic."""
    j = build_form(FormId.J, 16)
    assert j.lead == -EIGHTH
    assert j.coeff_q(-1) == 1
    inv = QSeries.one(16 * EIGHTH) / j
    assert inv.lead == EIGHTH
    back = inv * j
    for e in range(back.lead, back.order):
        assert back.coeff(e) == (1 if e == 0 else 0)


def test_eval_requires_upper_half_plane():
    with pytest.raises(ValueError):
        eval_at(QSeries.one(8), complex(1.0, 0.0), 1.0)


def test_pow_matches_repeated_mul():
    f = theta("10", 16)
    assert (f**3).coeffs == (f * f * f).coeffs


# ---------------------------------------------------------------------------
# the integer kernel against a naive Fraction reference
#
# A reference series is (lead, order, {exponent: Fraction}, stride), normalised
# the way QSeries documents it: zero coefficients dropped, stride the gcd of
# every populated exponent minus the lead, or the given stride when there is
# no term past the lead.  Products are the double loop, quotients long
# division on the common grid, powers repeated products from one(10**9).


def _ref(lead, order, coeffs, stride=EIGHTH):
    clean = {e: Fraction(c) for e, c in coeffs.items() if c != 0}
    step = 0
    for e in clean:
        step = gcd(step, e - lead)
    return lead, order, clean, step or stride


def _ref_mul(f, g):
    flead, forder, fc, _ = f
    glead, gorder, gc, _ = g
    order = min(forder + glead, gorder + flead)
    out = {}
    for e1, c1 in fc.items():
        for e2, c2 in gc.items():
            if e1 + e2 < order:
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return _ref(flead + glead, order, out)


def _ref_pow(f, n):
    out = _ref(0, 10**9, {0: 1})
    for _ in range(n):
        out = _ref_mul(out, f)
    return out


def _ref_div(f, d):
    flead, forder, fc, fstride = f
    _, dorder, dc, dstride = d
    if not dc:
        raise ZeroDivisionError
    dlead = min(dc)
    rel = min(forder - flead, dorder - dlead)
    if rel <= 0:
        raise TruncationError
    lead = flead - dlead
    stride = gcd(fstride, dstride)
    out = {}
    for e in range(lead, lead + rel, stride):
        acc = fc.get(e + dlead, Fraction(0))
        for e2, c2 in out.items():
            acc -= c2 * dc.get(e + dlead - e2, 0)
        if acc:
            out[e] = acc / dc[dlead]
    return _ref(lead, lead + rel, out, stride)


def _assert_matches(series, ref):
    lead, order, coeffs, stride = ref
    assert (series.lead, series.order, series.stride) == (lead, order, stride)
    assert series.coeffs == coeffs
    assert series == QSeries(lead, order, coeffs, stride=stride)


@st.composite
def grid_terms(draw, content=None, lead_coeff=None):
    """(lead, order, coeffs, stride): terms on a random grid from a possibly
    negative lead, possibly none; with ``content`` the lead term is
    content * lead_coeff and every other coefficient a multiple of content."""
    lead = draw(st.integers(min_value=-16, max_value=16))
    grid = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 16]))
    order = lead + grid * draw(st.integers(min_value=1, max_value=14))
    stride = draw(st.sampled_from([1, 2, 4, 8]))
    if content is None:
        values = coeff_st
    else:
        values = st.integers(min_value=-20, max_value=20).map(lambda k: k * content)
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        e = lead + grid * draw(st.integers(min_value=0, max_value=(order - lead - 1) // grid))
        coeffs[e] = draw(values)
    if content is not None:
        coeffs[lead] = content * lead_coeff
    series = QSeries(lead, order, coeffs, stride=stride)
    ref = _ref(lead, order, coeffs, stride)
    _assert_matches(series, ref)
    return series, ref


@st.composite
def divisors(draw):
    """Nonzero series whose integer numerators have a content other than 1
    and whose lead coefficient is not +-1 after dividing by it."""
    content = draw(st.sampled_from([1, 2, -3, 12, Fraction(5, 4)]))
    lead_coeff = draw(st.sampled_from([1, -1, 2, -3, 7]))
    return draw(grid_terms(content=content, lead_coeff=lead_coeff))


@given(grid_terms(), grid_terms())
@settings(max_examples=300, deadline=None)
def test_mul_matches_fraction_reference(f, g):
    _assert_matches(f[0] * g[0], _ref_mul(f[1], g[1]))


@given(grid_terms(), st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_pow_matches_fraction_reference(f, n):
    _assert_matches(f[0] ** n, _ref_pow(f[1], n))


@given(grid_terms(), st.one_of(divisors(), grid_terms()))
@settings(max_examples=300, deadline=None)
def test_div_matches_fraction_reference(f, d):
    try:
        ref = _ref_div(f[1], d[1])
    except (ZeroDivisionError, TruncationError) as exc:
        with pytest.raises(type(exc)):
            f[0] / d[0]
        return
    _assert_matches(f[0] / d[0], ref)


def test_kernel_edge_cases_match_fraction_reference():
    """The empty series, a divisor with content 6 led by 4, and a numerator
    with one term past a zero lead coefficient."""
    empty = (QSeries(-8, 40, {}, stride=4), _ref(-8, 40, {}, 4))
    den = (QSeries(8, 64, {8: 24, 16: -6, 20: 12}), _ref(8, 64, {8: 24, 16: -6, 20: 12}))
    num = (QSeries(0, 48, {12: Fraction(3, 7)}), _ref(0, 48, {12: Fraction(3, 7)}))
    for f, g in ((empty, empty), (empty, den), (num, den), (den, num)):
        _assert_matches(f[0] * g[0], _ref_mul(f[1], g[1]))
    for f in (empty, den, num):
        for n in range(4):
            _assert_matches(f[0] ** n, _ref_pow(f[1], n))
    for f in (empty, num, den):
        _assert_matches(f[0] / den[0], _ref_div(f[1], den[1]))
    with pytest.raises(ZeroDivisionError):
        num[0] / empty[0]


# ---------------------------------------------------------------------------
# every catalog form, byte for byte

_GOLDENS = json.loads((Path(__file__).parent / "series_goldens.json").read_text())


@pytest.mark.parametrize("order", [16, 64])
@pytest.mark.parametrize("form", list(FormId), ids=lambda f: f.value)
def test_series_json_matches_golden(form, order):
    """sha256 of build_form(form, order).dumps(form.value), recorded from the
    Fraction-dict kernel this one replaced."""
    text = build_form(form, order).dumps(form.value)
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDENS[str(order)][form.value]


# ---------------------------------------------------------------------------
# error paths and the mixed-type operations

def test_fields_refuse_assignment():
    """README promises an immutable series: no field can be set or deleted."""
    s = QSeries(0, 16, {0: 1, 8: 2})
    for name in ("lead", "order", "stride", "den", "nums", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(s, name, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'lead'"):
        del s.lead
    assert (s.lead, s.nums) == (0, (1, 2))


def test_coeff_q_refuses_an_exponent_off_the_grid():
    s = theta("00", 4)
    assert s.coeff_q(Fraction(1, 2)) == 2
    with pytest.raises(ValueError, match="exponent 1/16 is not on the 1/8 grid"):
        s.coeff_q(Fraction(1, 16))


def test_negative_powers_are_refused():
    with pytest.raises(ValueError, match="negative powers: use divide"):
        QSeries.one(8) ** -1


@pytest.mark.parametrize("lead,order", [(0, 0), (8, 0)])
def test_division_without_truncation_overlap_is_refused(lead, order):
    """A dividend with no known term past its lead leaves no relative order."""
    with pytest.raises(TruncationError, match=f"insufficient truncation overlap .* relative order {order - lead}"):
        QSeries(lead, order) / QSeries.one(16)


def test_mixed_type_operations_are_those_readme_lists():
    """An int or Fraction on either side of + and *, and on the right of -
    and /; a scalar divisor divides exactly, to the normal form of the product
    by its inverse.  Anything else is a TypeError, and equality with a
    non-series is NotImplemented."""
    s = eisenstein(4, 6) + theta("10", 4)
    assert 1 + s == s + 1 and Fraction(1, 3) * s == s * Fraction(1, 3)
    assert s - 2 == s + (-2)
    for c in (3, Fraction(-2, 5), -1):
        quotient = s / c
        assert quotient == s * (1 / Fraction(c)) and quotient.dumps() == (s * (1 / Fraction(c))).dumps()
    with pytest.raises(ZeroDivisionError, match="division by the zero series"):
        s / 0
    with pytest.raises(TypeError):
        1 - s
    with pytest.raises(TypeError):
        1 / s
    for other, name in (("x", "str"), (1.5, "float")):
        with pytest.raises(TypeError, match=f"cannot combine QSeries with {name}"):
            s + other
        with pytest.raises(TypeError, match=f"cannot combine QSeries with {name}"):
            s / other
    assert s.__eq__(1) is NotImplemented and s != 1 and not s == "x"


def test_an_evaluation_that_overflows_is_refused():
    """q^-1 at Im z = 200 is e^{400 pi}, past the double range."""
    with pytest.raises(OverflowError, match="series value overflows a double at Im z = 200.0"):
        eval_at(QSeries(-8, 64, {-8: 1}), 200j, 1.0)


def test_a_tail_ratio_that_rounds_to_one_is_refused():
    """Truncated at q^(2^137), no term is summed one by one at Im z = 1e-17,
    and the geometric ratio e^{-pi y / 1}, plus its raise, rounds to 1."""
    with pytest.raises(TruncationError, match="geometric tail ratio >= 1; Im z too small"):
        eval_at(QSeries(0, 2**140, {0: 1}), 1e-17j, 1.0)


def test_a_tail_head_past_the_double_range_is_an_overflow_naming_its_bound():
    """Truncated at q^20000 and read at Im z = 1.01/sqrt(20000), just above the
    edge of its geometric tail, the head e^{4 pi sqrt(n0) - 2 pi n0 y} is
    about e^880: the majorant and ``eval_at`` raise an OverflowError (an
    ArithmeticError, exit 4 at the CLI) that names the tail bound, Im z and
    the first omitted grid point, not a bare math range error."""
    y = 1.01 / math.sqrt(20000)
    message = re.escape(f"the tail bound overflows at Im z = {y!r}, first omitted grid point n = 20000.0")
    with pytest.raises(OverflowError, match=message):
        _tail_majorant(0, 8 * 20000, 8, 1.0, y)
    with pytest.raises(OverflowError, match=message):
        eval_at(QSeries(0, 8 * 20000, {0: 1}), 1j * y, 1.0)


def test_ray_plan_refuses_a_row_at_or_below_q0_and_a_negative_y():
    with pytest.raises(TruncationError, match="series truncated at or below q\\^0"):
        RayPlan([(QSeries(-8, 0, {-8: 1}), 0, 1.0)])
    # eval_at too: the growth bound of the tail is stated for n > 0 only
    for series in (QSeries(-16, -8, {-16: 1}), QSeries(-8, 0, {-8: 1})):
        with pytest.raises(TruncationError, match="series truncated at or below q\\^0"):
            eval_at(series, 1j, 1.0)
    plan = RayPlan([(build_form(FormId.PSI_S, 16), 0, 2.0)])
    for y in (-1.0, np.array([1.0, -0.5])):
        with pytest.raises(ValueError, match="ray Laplace transform needs y >= 0"):
            plan(y)
