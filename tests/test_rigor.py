"""Containment and width properties of the interval arithmetic layer."""

import math
import random
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
    if not y.contains_zero() and y.mig() > 1e-150:
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
