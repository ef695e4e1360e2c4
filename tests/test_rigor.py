"""Containment and width properties of the interval arithmetic layer."""

import math
import operator
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8magic.rigor import (
    Interval,
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


# magnitudes from the smallest subnormal to 1e308: any float, any binade with
# a full or a short mantissa (exact products and quotients), and 0
_magnitudes = st.one_of(
    st.floats(min_value=0.0, max_value=1e308),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 1023)),
    st.builds(math.ldexp, st.integers(1, 2**12), st.integers(-1086, 1010)),
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
