"""Special values, zero ladder, sign conditions, and the two independent
oracles (contour and Hankel) for the radial functions a, b, g, ghat."""

import hashlib
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from e8magic import qseries, radial
from e8magic.radial import (
    _adaptive_gl,
    _unit_moment,
    contour_eval,
    eval_a,
    eval_b,
    eval_g,
    eval_g_deriv,
    hankel_fourier_oracle,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# special values

def test_a_at_zero():
    res = eval_a(0.0)
    expected = -8640.0 / math.pi
    assert abs(res.value - expected) <= 1e-8 * abs(expected) + res.err


def test_b_at_zero_and_sqrt2():
    assert abs(eval_b(0.0).value) <= 1e-9
    assert abs(eval_b(SQRT2).value) <= 1e-9


def test_g_normalization():
    assert abs(eval_g(0.0, "g").value - 1.0) <= 1e-9
    assert abs(eval_g(0.0, "ghat").value - 1.0) <= 1e-9


def test_g_deriv_at_sqrt2():
    assert abs(eval_g_deriv(SQRT2, "g").value + SQRT2 / 60) <= 1e-8
    assert abs(eval_g_deriv(SQRT2, "ghat").value) <= 1e-8


def test_g_coefficients_keep_the_bits_of_the_typed_constants():
    """c_a and c_b, solved exactly, round as -pi/8640 and -1/(240 pi) did."""
    assert radial._G_COEFF_A.hex() == (-math.pi / 8640).hex()
    assert radial._G_COEFF_B.hex() == (-1 / (240 * math.pi)).hex()


# Values recorded while the radial series were read at q^200, before the one
# catalog order q^64: (function, r, which, value.hex(), err.hex(), residual.hex())
RADIAL_GOLDENS = json.loads((Path(__file__).parent / "radial_goldens.json").read_text())


@pytest.mark.parametrize("call,r,which,value,err,residual", RADIAL_GOLDENS)
def test_radial_values_match_goldens(call, r, which, value, err, residual):
    """g, ghat, a, b, g', ghat' and both contours keep every bit of their
    value, and no error bound grows."""
    fn = getattr(radial, call)
    rv = fn(r) if call in ("eval_a", "eval_b") else fn(r, which)
    assert (rv.value.hex(), rv.residual.hex()) == (value, residual)
    assert rv.err <= float.fromhex(err)


# ---------------------------------------------------------------------------
# zero ladder and sign conditions

@pytest.mark.parametrize("n", range(1, 7))
def test_zero_ladder(n):
    r = math.sqrt(2 * n)
    assert abs(eval_g(r, "g").value) < 1e-8
    assert abs(eval_g(r, "ghat").value) < 1e-8


@pytest.mark.parametrize("n", range(2, 7))
def test_double_zeros_of_g(n):
    r = math.sqrt(2 * n)
    res = eval_g_deriv(r, "g")
    assert abs(res.value) <= res.err + 1e-8


def test_g_nonpositive_beyond_sqrt2():
    for r in np.linspace(SQRT2, 8.0, 50):
        assert eval_g(float(r), "g").value <= 1e-8, r


def test_ghat_nonnegative():
    for r in np.linspace(0.16, 8.0, 50):
        assert eval_g(float(r), "ghat").value >= -1e-8, r


def test_strict_nonvanishing_off_even_norms():
    """g and ghat vanish only on the ladder: at r^2 not in 2Z both are
    bounded away from zero, well beyond the evaluation error."""
    rng = np.random.default_rng(8)
    count = 0
    # past r ~ 2.2 the functions themselves drop below 1e-6 (Schwartz decay),
    # so "bounded away from zero" is sampled on moderate radii
    while count < 20:
        r = float(rng.uniform(0.3, 1.95))
        if abs(r * r / 2 - round(r * r / 2)) < 0.08:
            continue
        count += 1
        for which in ("g", "ghat"):
            res = eval_g(r, which)
            assert abs(res.value) > 1e-6, (r, which)
            assert abs(res.value) > 10 * res.err, (r, which)


# ---------------------------------------------------------------------------
# derivative consistency

@pytest.mark.parametrize("r", [0.7, 1.9, 2.6])
@pytest.mark.parametrize("which", ["g", "ghat"])
def test_deriv_matches_finite_differences(r, which):
    h = 1e-5
    fd = (eval_g(r + h, which).value - eval_g(r - h, which).value) / (2 * h)
    got = eval_g_deriv(r, which).value
    assert abs(got - fd) < 1e-6 * (1 + abs(fd))


# ---------------------------------------------------------------------------
# contour oracle

CONTOUR_RADII = [0.0, 0.35, 0.8, 1.1, SQRT2, 1.7, 2.0, 2.3, 2.7, 3.1]


@pytest.mark.parametrize("r", CONTOUR_RADII)
@pytest.mark.parametrize("which", ["a", "b"])
def test_contour_agrees_with_single_integral(r, which):
    direct = (eval_a if which == "a" else eval_b)(r)
    oracle = contour_eval(r, which)
    tol = direct.err + oracle.err + 1e-8
    assert abs(direct.value - oracle.value) <= tol, (r, which)
    # a and b take purely imaginary values: the contour real part is noise
    assert abs(oracle.residual) <= oracle.err + 1e-10, (r, which)


# ---------------------------------------------------------------------------
# Hankel transform oracle (a is a +1 eigenfunction, b a -1 eigenfunction)

HANKEL_POINTS = [0.6, 0.9, 1.3, 1.8, 2.4]


@pytest.mark.parametrize("s", HANKEL_POINTS)
def test_hankel_a_eigenfunction(s):
    got = hankel_fourier_oracle("a", s)
    ref = eval_a(s)
    assert abs(got.value - ref.value) <= got.err + ref.err + 1e-6, s


@pytest.mark.parametrize("s", HANKEL_POINTS)
def test_hankel_b_antieigenfunction(s):
    got = hankel_fourier_oracle("b", s)
    ref = eval_b(s)
    assert abs(got.value + ref.value) <= got.err + ref.err + 1e-6, s


# sha256 of each Hankel table's grid then values (little-endian doubles),
# recorded before the scalar evaluators stopped redoing their y-independent work
HANKEL_TABLE_SHA256 = {
    "a": "339f3f3dda035437c19124f82ee7d2132c9ee59b87d89c0b45dc041b78f45dc8",
    "b": "c4d447b65109a7988f9d3abf38a3f30cba6e81eca287767ba35877edf8452c77",
    "g": "eab0c86fe89aa183cf9359e5645eb416f6bc86c9c0519b1bedb7f24bebca632c",
    "ghat": "6f187e3768768439d564ef742e0116714e87c2de9a4250ab6d044ffac77dbe30",
}


@pytest.mark.parametrize("which", sorted(HANKEL_TABLE_SHA256))
def test_hankel_tables_match_goldens(which):
    """The 12001-point tables run the vectorized path of every evaluator
    (both branches of the singular ratios and of the unit moments) and keep
    every bit."""
    digest = hashlib.sha256()
    for arr in radial._hankel_table(which):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == HANKEL_TABLE_SHA256[which]


# arguments at, next to and 1e-9 either side of the ends of J_3's Miller range [2, 25)
J3_EDGES = [edge + d for edge in (2.0, 25.0) for d in (-1e-9, 0.0, 1e-9)] + [
    float(np.nextafter(edge, to)) for edge in (2.0, 25.0) for to in (0.0, 30.0)
]


@pytest.mark.parametrize("s", [0.01, 0.5, 1.0, SQRT2, 2.5, 3.0, 10.0])
def test_bessel_j3_recurrence_matches_jv(s):
    """J_3 by power series, Miller's backward recurrence and the Hankel
    expansion, each on its range of x, against scipy's J_nu at nu = 3 on the
    arguments 2 pi r s the oracle reads and on both sides of each range's
    end; J_3(0) is exactly 0."""
    from scipy.special import jv

    x = np.concatenate((2 * math.pi * radial._hankel_grid()[0] * s, J3_EDGES))
    j3 = radial._bessel_j3(x)
    assert j3[0] == 0.0
    assert np.max(np.abs(j3 - jv(3, x))) <= 1e-14


@pytest.mark.parametrize("s", [0.5, 1.0, SQRT2, 2.5])
@pytest.mark.parametrize("which", ["a", "b", "g", "ghat"])
def test_hankel_oracle_matches_a_jv_transform(which, s):
    """The oracle against Simpson's rule on the same table with scipy's J_3."""
    from scipy.special import jv

    grid, vals = radial._hankel_table(which)
    weights = np.ones(len(grid))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    step = grid[1] - grid[0]
    ref = 2 * math.pi * s**-3 * step / 3 * float(np.dot(weights, vals * jv(3, 2 * math.pi * grid * s) * grid**4))
    got = hankel_fourier_oracle(which, s).value
    assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


@pytest.mark.parametrize("s", [1e-3, 0.02, 5.0, 50.0])
def test_hankel_oracle_is_finite_at_the_ends_of_its_range(s):
    """From s = 1e-3, where every argument takes the power series, to s = 50,
    where almost all take the Hankel expansion: finite values and no
    RuntimeWarning (an error under this suite's settings)."""
    for which in ("a", "b", "g", "ghat"):
        assert math.isfinite(hankel_fourier_oracle(which, s).value)


@pytest.mark.parametrize("s", [math.nan, math.inf, -1.0, 0.0, 1e300, 1e-300])
def test_hankel_oracle_refuses_s_outside_its_range_before_any_work(monkeypatch, s):
    """No table is read and no RuntimeWarning (an error here) is raised."""
    monkeypatch.setattr(radial, "_hankel_table", lambda which: pytest.fail("tabulated before checking s"))
    with pytest.raises(ValueError, match=r"s must lie in \["):
        hankel_fourier_oracle("a", s)


def test_hankel_oracle_is_finite_at_the_ends_of_the_double_range():
    for s in (radial._HANKEL_S_MIN, math.nextafter(radial._HANKEL_S_MAX, 0.0)):
        assert math.isfinite(hankel_fourier_oracle("a", s).value)


def test_hankel_g_zero_at_sqrt2():
    got = hankel_fourier_oracle("g", SQRT2)
    assert abs(got.value) <= got.err + 1e-6


def test_warm_evaluations_reuse_the_rule_and_the_ray_constants(monkeypatch):
    """Once warm, eval_g, eval_g_deriv and contour_eval compute no
    Gauss-Legendre rule and no y-independent ray-Laplace constants."""
    for which in ("g", "ghat"):
        eval_g(1.3, which)
        eval_g_deriv(1.3, which)
    for which in ("a", "b"):
        contour_eval(1.3, which)
    calls = {"rule": 0, "ray": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting("rule", np.polynomial.legendre.leggauss))
    monkeypatch.setattr(qseries, "_ray_constants", counting("ray", qseries._ray_constants))
    for r in np.linspace(0.2, 5.0, 10):
        eval_g(float(r), "g")
        eval_g_deriv(float(r), "ghat")
    for which in ("a", "b"):
        contour_eval(2.2, which)
    assert calls == {"rule": 0, "ray": 0}


@pytest.mark.parametrize("r", [1e78, 1e100, 5e153])
def test_huge_radii_are_zero_within_their_bound(r):
    """Past r ~ 1e77 the powers of y in the prefactors and of pi y in the unit
    moments pass the double range; their quotients saturate to 0, so each
    function is 0 within its bound instead of a numerical failure (until pi y
    itself overflows, near r = 7.6e153)."""
    for rv in (eval_g(r, "g"), eval_g(r, "ghat"), eval_a(r), eval_b(r), eval_g_deriv(r, "g")):
        assert abs(rv.value) <= rv.err


def test_invalid_inputs():
    with pytest.raises(ValueError):
        eval_g(-1.0, "g")
    with pytest.raises(ValueError):
        eval_g(1.0, "gh")


def test_quadrature_bisects_to_a_peak_and_keeps_the_nodes_in_order():
    c = 1e-3
    nodes, weights, values, bounds, err = _adaptive_gl(
        lambda x: (1 / (c + (x - 0.7) ** 2), np.full_like(x, 1e-20)), 0.0, 2.0, 1e-12
    )
    exact = (math.atan(1.3 / math.sqrt(c)) + math.atan(0.7 / math.sqrt(c))) / math.sqrt(c)
    assert len(nodes) > 80  # the peak forced bisection
    assert np.all(np.diff(nodes) > 0)
    assert abs(np.dot(weights, values) - exact) < 1e-12 + err
    assert abs(np.dot(weights, bounds) - 2e-20) < 1e-30


def test_quadrature_refuses_a_jump_it_cannot_resolve():
    """A jump at a point no bisection reaches (1/3 is not dyadic) never
    converges; the quadrature raises instead of accepting the last panels."""
    with pytest.raises(ArithmeticError, match="failed to converge"):
        _adaptive_gl(lambda x: (np.where(x < 1 / 3, 1.0, 0.0), np.zeros_like(x)), 0.0, 1.0, 1e-12)


def test_unit_moment_taylor_branch_keeps_the_bits_of_26_terms():
    """The Taylor branch stops once the terms cannot move the sum; every value
    keeps the bits of the 26-term loop it replaced, which is kept here."""
    rng = np.random.default_rng(7)
    edge = float(np.nextafter(0.5, 0.0))
    beta = np.concatenate((rng.uniform(-0.5, 0.5, 20000), [-edge, -0.25, -1e-300, -0.0, 0.0, 1e-300, 0.125, edge]))
    for p in range(4):
        taylor, term = np.zeros_like(beta), np.ones_like(beta)
        for k in range(26):
            taylor = taylor + term / (k + p + 1)
            term = term * (-beta) / (k + 1)
        assert np.array_equal(_unit_moment(p, beta), taylor), p


def test_unit_moment_matches_quadrature_on_both_branches():
    """int_0^1 t^p e^{-beta t} dt from one array whose beta straddle +-1/2, so
    the closed form (|beta| >= 1/2) and the Taylor branch run in one call.
    The closed form cancels near |beta| = 1/2: 4e-14 relative for p = 3."""
    beta = np.array([-40.0, -3.0, -0.5, -0.4999, -0.2, 0.0, 1e-9, 0.3, 0.4999, 0.5, 0.5001, 2.0, 60.0])
    with mpmath.workdps(30):
        for p in range(4):
            for b, value in zip(beta, _unit_moment(p, beta)):
                ref = mpmath.quad(lambda t: t**p * mpmath.exp(-mpmath.mpf(float(b)) * t), [0, 1])
                assert abs(value - ref) <= 1e-12 * ref, (p, b)
