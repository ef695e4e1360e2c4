"""Containment and width properties of the interval arithmetic layer."""

import copy
import dataclasses
import itertools
import math
import operator
import pickle
import random
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8magic.rigor import (
    Interval,
    _outward,
    _product,
    enclose_fraction,
    ia_exp_poly,
    sqrt_interval,
)

mpmath.mp.dps = 50


def _frac_interval(lo: float, hi: float) -> Interval:
    return Interval(min(lo, hi), max(lo, hi))


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(finite_floats, finite_floats, finite_floats, finite_floats)
@settings(max_examples=300, deadline=None)
def test_arith_containment_hypothesis(a, b, c, d):
    """Exact rational arithmetic on interior points stays inside the result."""
    x = _frac_interval(a, b)
    y = _frac_interval(c, d)
    px = Fraction(x.lo) + (Fraction(x.hi) - Fraction(x.lo)) / 3
    py = Fraction(y.lo) + (Fraction(y.hi) - Fraction(y.lo)) / 2
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
    ):
        assert op(x, y).contains(op(px, py))
    if not y.contains_zero() and min(abs(y.lo), abs(y.hi)) > 1e-150:
        assert (x / y).contains(px / py)


def test_arith_containment_randomized():
    """Bulk differential test against exact Fraction arithmetic."""
    rng = random.Random(20260823)
    for _ in range(20_000):
        a, b = sorted(rng.uniform(-1e3, 1e3) for _ in range(2))
        c, d = sorted(rng.uniform(-1e3, 1e3) for _ in range(2))
        x, y = Interval(a, b), Interval(c, d)
        px = Fraction(rng.uniform(a, b)) if a < b else Fraction(a)
        py = Fraction(rng.uniform(c, d)) if c < d else Fraction(c)
        px = min(max(px, Fraction(a)), Fraction(b))
        py = min(max(py, Fraction(c)), Fraction(d))
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert (x * y).contains(px * py)
        if not y.contains_zero():
            assert (x / y).contains(px / py)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_exp_enclosure_oracle(x):
    """A 50-digit oracle of e^x lies inside the exp-poly enclosure.

    For x >= 0 use c * t^p * e^{-sigma t} with c=1, p=0, sigma=-1, t=[x,x];
    negative arguments go through the reciprocal of the enclosure of e^{-x}.
    """
    one = Interval(1.0, 1.0)
    oracle = mpmath.exp(mpmath.mpf(x))
    if x >= 0:
        enc = ia_exp_poly(one, 0, Interval(-1.0, -1.0), Interval(x, x))
    else:
        enc = 1 / ia_exp_poly(one, 0, Interval(-1.0, -1.0), Interval(-x, -x))
    assert mpmath.mpf(enc.lo) <= oracle <= mpmath.mpf(enc.hi)


def test_exp_poly_spec_points():
    one = Interval(1.0, 1.0)
    # e^{2 pi} ~ 535.49
    two_pi = 2 * math.pi
    enc = ia_exp_poly(one, 0, Interval(-two_pi, -two_pi), Interval(1.0, 1.0))
    assert enc.contains(Fraction(mpmath.nstr(mpmath.exp(2 * mpmath.pi), 30)))
    # t e^{-pi t} is decreasing on [1, 2]: enclosure within the outward hull
    enc = ia_exp_poly(one, 1, Interval(math.pi, math.pi), Interval(1.0, 2.0))
    lo_ref = 2 * math.exp(-2 * math.pi)
    hi_ref = math.exp(-math.pi)
    assert lo_ref * (1 - 1e-12) <= enc.lo
    assert enc.hi <= hi_ref * (1 + 1e-12)


def test_exp_poly_interior_max():
    """t e^{-pi t} has its maximum at t = 1/pi; the enclosure must cover it."""
    one = Interval(1.0, 1.0)
    enc = ia_exp_poly(one, 1, Interval(math.pi, math.pi), Interval(0.1, 1.0))
    peak = Fraction(1, 1) / Fraction(math.pi) * Fraction(math.exp(-1.0))
    assert enc.hi >= float(peak) * (1 - 1e-12)
    assert enc.lo <= 0.1 * math.exp(-0.1 * math.pi) * (1 + 1e-12)


def _exp_poly_cases(rng: random.Random):
    """Seeded (c, p, sigma, t) for every side of ia_exp_poly's monotonicity
    rule: sigma > 0 with t below, straddling and past the peak p/sigma,
    sigma <= 0, sigma straddling 0, and point t."""
    for case in range(900):
        p = case % 3
        kind = case // 3 % 6
        c = Interval(*sorted(rng.uniform(-5.0, 5.0) for _ in range(2)))
        if kind == 4:
            lo, hi = sorted(-rng.uniform(0.0, 4.0) for _ in range(2))
            sigma = Interval(lo, hi if case % 2 else 0.0)  # <= 0, touching 0 in every other case
            yield c, p, sigma, Interval(*sorted(rng.uniform(0.0, 8.0) for _ in range(2)))
            continue
        if kind == 5:
            sigma = Interval(-rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))  # straddles 0
            yield c, p, sigma, Interval(*sorted(rng.uniform(0.0, 8.0) for _ in range(2)))
            continue
        s = rng.uniform(0.2, 6.0)
        sigma = Interval(s, s * rng.choice((1.0, 1.0 + rng.uniform(0.0, 0.5))))
        # the peak's ends (for p = 0, whose factor is monotone, those of p = 1)
        near, far = max(p, 1) / sigma.hi, max(p, 1) / sigma.lo
        if kind == 0:  # below the peak
            t = sorted(rng.uniform(0.0, near) for _ in range(2))
        elif kind == 1:  # straddling the peak, or a part of its enclosure
            t = [rng.uniform(0.0, far), rng.uniform(near, 3 * far)]
        elif kind == 2:  # past the peak
            t = sorted(rng.uniform(far, 4 * far) for _ in range(2))
        else:  # a point, anywhere
            t = [rng.uniform(0.0, 3 * far)] * 2
        yield c, p, sigma, Interval(min(t), max(t))


def test_exp_poly_contains_40_digit_values():
    """The enclosure holds c tau^p e^{-sigma tau} at 40 digits for c and sigma
    at their ends and middle, and tau at the ends of t, inside it, and at the
    peak p/sigma where that lies in t."""
    rng = random.Random(20261019)
    with mpmath.workdps(40):
        for c, p, sigma, t in _exp_poly_cases(rng):
            enc = ia_exp_poly(c, p, sigma, t)
            lo, hi = mpmath.mpf(enc.lo), mpmath.mpf(enc.hi)
            for s in (sigma.lo, sigma.hi, (sigma.lo + sigma.hi) / 2):
                s = mpmath.mpf(s)
                taus = [t.lo, t.hi] + [rng.uniform(t.lo, t.hi) for _ in range(3)]
                taus = [mpmath.mpf(tau) for tau in taus]
                if p > 0 and s > 0 and t.lo <= p / s <= t.hi:
                    taus.append(p / s)
                for cc in (c.lo, c.hi, (c.lo + c.hi) / 2):
                    for tau in taus:
                        value = mpmath.mpf(cc) * tau**p * mpmath.exp(-s * tau)
                        assert lo <= value <= hi, (c, p, sigma, t, cc, s, tau)


def test_exp_overflow_and_underflow():
    big = Interval(800.0, 800.0).exp()
    assert math.isinf(big.hi) and big.lo > 0
    tiny = Interval(-800.0, -800.0).exp()
    assert tiny.lo >= 0.0 and tiny.hi > 0.0


def test_enclose_fraction_outward():
    v = Fraction(1, 3)
    enc = enclose_fraction(v)
    assert enc.contains(v) and enc.lo < enc.hi


def test_sqrt_interval_containment():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = sorted(rng.uniform(0, 1e4) for _ in range(2))
        enc = sqrt_interval(Interval(a, b))
        mid = Fraction(a) / 2 + Fraction(b) / 2
        assert enc.contains(Fraction(mpmath.nstr(mpmath.sqrt(mpmath.mpf(float(mid))), 30)))


def test_width_growth_linear():
    """Relative width stays tiny through certification-sized expressions."""
    x = Interval.point(1.5)
    acc = Interval(0.0, 0.0)
    widths = []
    for k in range(1, 40):
        c = enclose_fraction(Fraction(2 * k + 1, k))
        acc = acc + c * ia_exp_poly(Interval(1.0, 1.0), 2, Interval(float(k), float(k)), x)
        widths.append(acc.width)
    # width after n ops bounded by n * (max single-op width growth)
    per_op = max(w2 - w1 for w1, w2 in zip(widths, widths[1:]))
    assert widths[-1] <= len(widths) * max(per_op, 1e-18)
    assert widths[-1] / max(abs(acc.lo), abs(acc.hi)) < 1e-12


def test_division_by_zero_interval_rejected():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# every endpoint is the directed rounding of the exact result

_MAX = sys.float_info.max


def _ref_down(x: Fraction) -> float:
    """Largest float <= x: MAX above the float range, -inf below it."""
    try:
        f = float(x)
    except OverflowError:
        return _MAX if x > 0 else -math.inf
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _ref_up(x: Fraction) -> float:
    return -_ref_down(-x)


def _ref_outward(values: list[Fraction]) -> tuple[float, float]:
    for v in values:
        float(v)  # raises OverflowError past the float range, like the kernel
    return _ref_down(min(values)), _ref_up(max(values))


def _ref_sqrt_down(x: Fraction) -> float:
    r = math.sqrt(float(x))
    while Fraction(r) ** 2 > x:
        r = math.nextafter(r, -math.inf)
    while Fraction(math.nextafter(r, math.inf)) ** 2 <= x:
        r = math.nextafter(r, math.inf)
    return r


def _ref_sqrt_up(x: Fraction) -> float:
    r = _ref_sqrt_down(x)
    return r if Fraction(r) ** 2 == x else math.nextafter(r, math.inf)


def _check(kernel, reference) -> None:
    """The kernel's endpoints equal the reference's, or both overflow."""
    try:
        expected = reference()
    except OverflowError:
        with pytest.raises(OverflowError):
            kernel()
        return
    got = kernel()
    assert (got.lo, got.hi) == expected


def _neighbours(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# the kernel's edges: 0, the subnormals and the smallest normal, and the
# bounds 2^-960 and 2^995 of the direct TwoProduct path (2^960 squares to
# 2^1920 / 2^-960 ... to 2^-1920, past both ends of the float range)
_EDGES = sorted({
    0.0, *_neighbours(2.0**-1074), *_neighbours(2.0**-1022), 2.0**-1060,
    *_neighbours(2.0**-960), *_neighbours(2.0**960), *_neighbours(2.0**995),
})

# magnitudes from the smallest subnormal to 1e308: any float, any binade with
# a full or a short mantissa (exact products and quotients), 0 and the edges
_magnitudes = st.one_of(
    st.floats(min_value=0.0, max_value=1e308),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023)),
    st.builds(math.ldexp, st.integers(1, 2**12), st.integers(-1086, 1010)),
    st.sampled_from(_EDGES),
)
_endpoints = st.builds(lambda sign, m: sign * m, st.sampled_from((1.0, -1.0)), _magnitudes)
_intervals = st.builds(lambda a, b: Interval(min(a, b), max(a, b)), _endpoints, _endpoints)


@given(_intervals, _intervals)
@settings(max_examples=1000, deadline=None)
def test_endpoints_equal_the_fraction_reference(x, y):
    """+ - * /, powi(0..3) and sqrt_interval against exact rationals, from
    subnormal to huge operands: both the float transforms and the scaled
    edge paths, with OverflowError exactly where a product leaves the range."""
    xl, xh, yl, yh = (Fraction(v) for v in (x.lo, x.hi, y.lo, y.hi))
    _check(lambda: x + y, lambda: (_ref_down(xl + yl), _ref_up(xh + yh)))
    _check(lambda: x - y, lambda: (_ref_down(xl - yh), _ref_up(xh - yl)))
    _check(lambda: x * y, lambda: _ref_outward([a * b for a in (xl, xh) for b in (yl, yh)]))
    if not y.contains_zero():
        _check(lambda: x / y, lambda: _ref_outward([a / b for a in (xl, xh) for b in (yl, yh)]))
    for p in range(4):
        def reference(p=p):
            lo, hi = _ref_outward([xl**p, xh**p])
            return (0.0 if p % 2 == 0 and p > 0 and x.contains_zero() else lo), hi
        _check(lambda: x.powi(p), reference)
    root = Interval(*sorted((abs(x.lo), abs(x.hi))))
    lo, hi = Fraction(root.lo), Fraction(root.hi)
    _check(lambda: sqrt_interval(root), lambda: (_ref_sqrt_down(lo), _ref_sqrt_up(hi)))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_infinite_endpoint_raises_overflow_naming_it(op):
    """exp can round up to inf; arithmetic on it raises OverflowError (an
    ArithmeticError, which the CLI turns into exit 4) instead of rounding."""
    for x, y in ((Interval(0.0, math.inf), Interval(1.0, 1.0)),
                 (Interval(1.0, 2.0), Interval(-math.inf, -1.0))):
        with pytest.raises(OverflowError, match="infinite interval endpoint"):
            op(x, y)
    with pytest.raises(OverflowError, match="infinite interval endpoint"):
        Interval(1.0, math.inf).powi(2)
    with pytest.raises(OverflowError, match="infinite interval endpoint"):
        sqrt_interval(Interval(1.0, math.inf))


@pytest.mark.parametrize("compute", [
    lambda: Interval(-1e300, math.inf) * Interval(1e300, 2e300),
    lambda: Interval(1e300, math.inf) / Interval(1e-300, 1e-300),
    lambda: Interval(1e300, math.inf).powi(2),
], ids=["four-products", "quotient", "square"])
def test_infinite_endpoint_is_named_before_a_finite_overflow(compute):
    """Where a product or quotient of finite endpoints would overflow too, the
    error names the infinite endpoint, not the overflow."""
    with pytest.raises(OverflowError, match="infinite interval endpoint"):
        compute()


@pytest.mark.parametrize("op, symbol, divisor", [
    (operator.mul, "*", 1e10),
    (operator.truediv, "/", 1e-10),
], ids=["product", "quotient"])
def test_finite_overflow_names_the_operation_and_its_operands(op, symbol, divisor):
    """A product or quotient of finite endpoints past the float range raises
    OverflowError naming the operation and the endpoints it read; the CLI
    prints that message and exits 4."""
    message = f"interval {symbol} overflows the float range: 1e+300 {symbol} {divisor!r}"
    with pytest.raises(OverflowError, match=re.escape(message)):
        op(Interval(1e300, 1e300), Interval(divisor, divisor))


def _outcome(compute):
    """Both endpoints by .hex(), so that -0.0 and 0.0 differ, or the type of
    the exception raised."""
    try:
        iv = compute()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return iv.lo.hex(), iv.hi.hex()


_endpoints_or_inf = st.one_of(_endpoints, st.sampled_from((math.inf, -math.inf)))


@given(_intervals | st.builds(lambda a, b: Interval(min(a, b), max(a, b)), _endpoints_or_inf, _endpoints),
       _intervals)
@settings(max_examples=1500, deadline=None)
def test_product_equals_the_four_product_rule(x, y):
    """x * y, with its two-product sign cases, gives the same floats, signed
    zeros included, as _outward over all four endpoint products, and raises
    the same exception type where either side raises."""
    four = lambda: _outward([_product(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)])
    assert _outcome(lambda: x * y) == _outcome(four)
    assert _outcome(lambda: y * x) == _outcome(four)


def test_product_sign_cases_keep_signed_zeros_and_range_edges():
    """Every sign case on the edge values, against the four-product rule."""
    magnitudes = (0.0, 2.0**-1074, math.nextafter(2.0**-1022, 0.0), 2.0**-960,
                  math.nextafter(2.0**-960, 0.0), 1.0, 3.0, 2.0**960, 2.0**995,
                  math.nextafter(2.0**995, math.inf))
    values = [v for m in magnitudes for v in (m, -m)]
    intervals = [Interval(a, b) for a, b in itertools.product(values, repeat=2) if a <= b]
    for x, y in itertools.product(intervals, repeat=2):
        four = lambda: _outward([_product(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)])
        assert _outcome(lambda: x * y) == _outcome(four), (x, y)


def test_interval_is_immutable_and_round_trips():
    iv = Interval(-0.5, 2.0**-1074)
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.lo = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        iv.width = 1.0
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            Interval(lo, hi)
    with pytest.raises(ValueError, match="invalid interval"):
        Interval(1.0, 0.5)
    assert repr(iv) == "Interval(lo=-0.5, hi=5e-324)"
    for copy_ in (copy.deepcopy(iv), copy.copy(iv), pickle.loads(pickle.dumps(iv))):
        assert copy_ == iv and hash(copy_) == hash(iv) and copy_ is not iv
        assert (copy_.lo, copy_.hi) == (-0.5, 2.0**-1074)
    assert iv == Interval(-0.5, 2.0**-1074) and iv != Interval(-0.5, 1.0)
    assert len({iv, Interval(-0.5, 2.0**-1074)}) == 1
