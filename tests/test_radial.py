"""Special values, zero ladder, sign conditions, and the two independent
oracles (contour and Hankel) for the radial functions a, b, g, ghat."""

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from e8magic import qfloat, radial
from e8magic.cli import EXIT_NUMERICAL_FAILURE, main
from e8magic.modforms import TARGETS, Exact, special_values
from e8magic.radial import (
    _adaptive_gl,
    _ratio,
    _sines,
    contour_eval,
    eval_a,
    eval_b,
    eval_g,
    eval_g_deriv,
    hankel_fourier_oracle,
)

SQRT2 = math.sqrt(2.0)
_SING = radial._SING_BAND


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


def test_g_coefficients_are_the_target_weights_times_minus_c_a():
    """c_a and c_b, solved exactly, round as -pi/8640 and -1/(240 pi) did; and
    (c_a, c_b) and (c_a, -c_b) are -c_a times the a and b weights c / pi^k of
    the targets A and B, so g = c_a Im a + c_b Im b = -c_a A and
    ghat = c_a Im a - c_b Im b = -c_a B, the scale of their passes."""
    values = special_values()
    c_a, c_b = values["c_a"], values["c_b"]
    assert float(c_a).hex() == (-math.pi / 8640).hex()
    assert float(c_b).hex() == (-1 / (240 * math.pi)).hex()
    for target, b_part in (("A", c_b), ("B", Exact(Fraction(-1)) * c_b)):
        weights = [Exact(Fraction(c), -k) for _, c, k in TARGETS[target]]
        assert [Exact(Fraction(-1)) * c_a * w for w in weights] == [c_a, b_part], target


# (function, r, which, value.hex(), err.hex(), residual.hex()), kept by
# tools/record_goldens.py --write, which last rewrote the rows whose values
# moved or errs grew on the child of 13cd2fd (the near range on 4 fixed panels
# of the 40-point rule with recomputed weights)
RADIAL_GOLDENS = json.loads((Path(__file__).parent / "radial_goldens.json").read_text())


@pytest.mark.parametrize("call,r,which,value,err,residual", RADIAL_GOLDENS)
def test_radial_values_match_goldens(call, r, which, value, err, residual):
    """g, ghat, a, b, g', ghat' and both contours keep every bit of their
    value, and no error bound grows."""
    fn = getattr(radial, call)
    rv = fn(r) if call in ("eval_a", "eval_b") else fn(r, which)
    assert (rv.value.hex(), rv.residual.hex()) == (value, residual)
    assert rv.err <= float.fromhex(err)


def _seeded_radii() -> list[float]:
    """The radii of ``radial_seeded_goldens.json``: one draw in each of 200
    strata of width 0.03 over [0, 6], 12 in each band |r^2 - 2n| < 1e-3 for
    n = 1, 2, 3, and 14 with pi r^2 < 0.5 (the band of a Taylor branch the
    pass no longer has, kept as data)."""
    rng = np.random.default_rng(1603)
    strata = [(i + rng.uniform()) * 0.03 for i in range(200)]
    bands = [math.sqrt(2 * n + rng.uniform(-1e-3, 1e-3)) for n in (1, 2, 3) for _ in range(12)]
    taylor = [math.sqrt(rng.uniform(0, 0.5 / math.pi)) for _ in range(14)]
    return [float(r) for r in strata + bands + taylor]


# Rows (function, r, which, value.hex(), err.hex(), residual.hex()): g, ghat,
# g', ghat', a and b at every seeded radius, and both contours at 8 of the
# strata radii in [0.7, 3.1]; kept by tools/record_goldens.py --write, which
# last rewrote the rows whose values moved or errs grew on the child of
# 13cd2fd (the near range on 4 fixed panels of the 40-point rule with
# recomputed weights)
SEEDED_GOLDENS = json.loads((Path(__file__).parent / "radial_seeded_goldens.json").read_text())


def test_seeded_goldens_cover_the_seeded_radii():
    radii = _seeded_radii()
    assert [row[1] for row in SEEDED_GOLDENS if row[0] == "eval_a"] == radii
    contour = [r for r in radii[:200] if 0.7 <= r <= 3.1][::10][:8]
    assert [row[1] for row in SEEDED_GOLDENS if row[0] == "contour_eval"] == [r for r in contour for _ in "ab"]


@pytest.mark.parametrize("call", ["eval_g", "eval_g_deriv", "eval_a", "eval_b", "contour_eval"])
def test_seeded_radial_values_keep_their_bits(call):
    """Every seeded value and residual keeps its bits, and no error bound grows."""
    fn = getattr(radial, call)
    changed = []
    for _, r, which, value, err, residual in (row for row in SEEDED_GOLDENS if row[0] == call):
        rv = fn(r) if call in ("eval_a", "eval_b") else fn(r, which)
        if (rv.value.hex(), rv.residual.hex()) != (value, residual) or rv.err > float.fromhex(err):
            changed.append((r, which, rv.value.hex(), value, rv.err.hex(), err))
    assert not changed


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


def test_g_and_ghat_keep_their_signs_where_they_are_tiny():
    """g <= 0 and ghat >= 0 exactly, not within a tolerance, at 4,001 radii
    on [1.42, 12], where both fall below 1e-40: no cancellation floor may
    hide their sign."""
    radii = np.linspace(1.42, 12.0, 4001)
    assert [r for r in radii if eval_g(float(r), "g").value > 0] == []
    assert [r for r in radii if eval_g(float(r), "ghat").value < 0] == []


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


# the 12,001-point grid r = 0, 0.001, ..., 12 the oracle tabulated on before
# it took Gauss-Legendre panels, and Simpson's weights on it times r^4
DENSE_GRID = np.arange(0.0, 12.0 + 0.5e-3, 1e-3)
SIMPSON_WEIGHTS = np.where(np.arange(len(DENSE_GRID)) % 2, 4.0, 2.0)
SIMPSON_WEIGHTS[[0, -1]] = 1.0
SIMPSON_WEIGHTS = 1e-3 / 3 * SIMPSON_WEIGHTS * DENSE_GRID**4


@lru_cache(maxsize=None)
def dense_table(which):
    """a, b, g or ghat on the dense grid, by the vectorized evaluator, as the
    oracle's tables are."""
    return radial._g(DENSE_GRID**2, which, False)[0]


# sha256 of each dense table's grid then values (little-endian doubles),
# written by tools/record_goldens.py --write on the child of 13cd2fd (the
# near range on 4 fixed panels of the 40-point rule with recomputed weights)
HANKEL_TABLE_SHA256 = json.loads((Path(__file__).parent / "hankel_table_goldens.json").read_text())


@pytest.mark.parametrize("which", sorted(HANKEL_TABLE_SHA256))
def test_hankel_tables_match_goldens(which):
    """The 12001-point tables run the vectorized path of every evaluator
    (both branches of the singular ratios) and keep every bit."""
    digest = hashlib.sha256()
    for arr in (DENSE_GRID, dense_table(which)):
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
    arguments 2 pi r s of the dense grid and on both sides of each range's
    end; J_3(0) is exactly 0."""
    from scipy.special import jv

    x = np.concatenate((2 * math.pi * DENSE_GRID * s, J3_EDGES))
    j3 = radial._bessel_j3(x)
    assert j3[0] == 0.0
    assert np.max(np.abs(j3 - jv(3, x))) <= 1e-14


@pytest.mark.parametrize("s", [0.5, 1.0, SQRT2, 2.5])
@pytest.mark.parametrize("which", ["a", "b", "g", "ghat"])
def test_hankel_oracle_matches_a_jv_transform(which, s):
    """The oracle against its own rule on the same table with scipy's J_3."""
    from scipy.special import jv

    grid, vals = radial._hankel_table(which)
    ref = 2 * math.pi * s**-3 * float(np.dot(radial._hankel_grid()[1], vals * jv(3, 2 * math.pi * grid * s)))
    got = hankel_fourier_oracle(which, s).value
    assert abs(got - ref) <= 1e-12 * (1 + abs(ref))


@pytest.mark.parametrize("which", ["a", "b", "g", "ghat"])
def test_hankel_panels_agree_with_simpson_on_the_dense_grid(which):
    """The oracle's 1,280 panel nodes lose nothing against Simpson's rule on
    the 12,001-point table, with the same J_3 (worst 2.0e-13 relative)."""
    for s in (0.5, 0.6, 0.9, 1.0, 1.3, SQRT2, 1.8, 2.4, 2.5, 3.0):
        ref = 2 * math.pi * s**-3 * float(np.dot(SIMPSON_WEIGHTS, dense_table(which) * radial._bessel_j3(
            2 * math.pi * DENSE_GRID * s)))
        got = hankel_fourier_oracle(which, s).value
        assert abs(got - ref) <= 1e-12 * (1 + abs(ref)), (s, got, ref)


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_hankel_rule_maps_the_gaussian_to_itself(s):
    """e^{-pi r^2} is its own Fourier transform on R^8: the oracle's nodes,
    weights, J_3 and scale give e^{-pi s^2} to 1e-15 (measured 1.2e-17)."""
    grid, weights = radial._hankel_grid()
    got = 2 * math.pi * s**-3 * float(np.dot(weights, np.exp(-math.pi * grid**2) * radial._bessel_j3(
        2 * math.pi * grid * s)))
    assert abs(got - math.exp(-math.pi * s * s)) <= 1e-15


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


def _gaussian_moment(which: str, t: float) -> float:
    """M_f(t) = int_0^oo f(r) e^{-pi t r^2} r^7 dr by the Hankel oracle's
    panel rule over its table of f."""
    grid, values = radial._hankel_table(which)
    return float(np.dot(radial._hankel_grid()[1] * grid**3, values * np.exp(-math.pi * t * grid**2)))


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7, 0.9, 1.3, 2.0, 3.0])
@pytest.mark.parametrize("f,partner,sign,tol", [("g", "ghat", 1, 1e-13), ("a", "a", 1, 1e-13), ("b", "b", -1, 1e-12)],
                         ids=["g", "a", "b"])
def test_g_and_ghat_pair_with_gaussians_as_fourier_partners(f, partner, sign, tol, t):
    """ghat is g's Fourier transform on R^8, a its own and b minus its own,
    and t^-4 e^{-pi |x|^2/t} is that of e^{-pi t |x|^2}, so
    M_g(t) = t^-4 M_ghat(1/t), M_a(t) = t^-4 M_a(1/t) and
    M_b(t) = -t^-4 M_b(1/t), with no Bessel function.  g and ghat integrate
    different targets (A and B), and a's and b's relations tie their near
    ranges to their far ranges, so none holds by construction.  The
    tolerances are typed, not derived from the tables' bounds (measured worst
    7.4e-16 for g, 1.9e-16 for a and 7.2e-14 for b)."""
    own, other = _gaussian_moment(f, t), sign * t**-4 * _gaussian_moment(partner, 1 / t)
    assert abs(own - other) <= tol * (abs(own) + abs(other)), (own, other)


def test_hankel_g_zero_at_sqrt2():
    got = hankel_fourier_oracle("g", SQRT2)
    assert abs(got.value) <= got.err + 1e-6


def test_warm_evaluations_reuse_the_rule_and_the_ray_constants(monkeypatch):
    """Once warm, eval_g, eval_g_deriv and contour_eval compute no
    Gauss-Legendre rule and build no ray-Laplace plan, the one place the
    y-independent ray-Laplace constants are computed; contour_eval at a radius
    it has seen evaluates no series, and the panel memo stays within its bound."""
    for which in ("g", "ghat"):
        eval_g(1.3, which)
        eval_g_deriv(1.3, which)
    for which in ("a", "b"):
        contour_eval(2.2, which)
    calls = {"rule": 0, "plan": 0, "series": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting("rule", np.polynomial.legendre.leggauss))
    monkeypatch.setattr(qfloat.RayPlan, "__init__", counting("plan", qfloat.RayPlan.__init__))
    monkeypatch.setattr(qfloat, "eval_at", counting("series", qfloat.eval_at))
    for r in np.linspace(0.2, 5.0, 10):
        eval_g(float(r), "g")
        eval_g_deriv(float(r), "ghat")
    for which in ("a", "b"):
        contour_eval(2.2, which)
    assert calls == {"rule": 0, "plan": 0, "series": 0}
    for i, r in enumerate(np.random.default_rng(17).uniform(0.0, 3.1, 40)):
        contour_eval(float(r), "ab"[i % 2])
    assert 0 < radial._panel_series.cache_info().currsize <= radial._PANEL_MEMO_SIZE
    assert calls["rule"] == calls["plan"] == 0



def test_a_warm_radius_builds_one_radial_value_and_no_eval_result(monkeypatch):
    """Once warm, eval_g and eval_g_deriv at one radius build their one
    RadialValue and nothing else of the result types: the ray rows and their
    combination are (value, bound) pairs of Python floats."""
    for fn in (eval_g, eval_g_deriv):
        fn(1.3)
    built = {}

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built[cls.__name__] = built.get(cls.__name__, 0) + 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapped)

    counting(radial.RadialValue)
    counting(qfloat.EvalResult)
    for fn in (eval_g, eval_g_deriv):
        for r in (0.1, 1.3, SQRT2 + 1e-4, 5.0):
            built.clear()
            fn(r)
            assert built == {"RadialValue": 1}, (fn.__name__, r, built)


@pytest.mark.parametrize("deriv", [False, True])
def test_a_warm_pass_enters_one_errstate(monkeypatch, deriv):
    """One warm eval_g or eval_g_deriv sets numpy's error state once, for its
    whole pass, not once per principal row or ray row."""
    evaluate = eval_g_deriv if deriv else eval_g
    evaluate(1.3)
    calls = []
    errstate = np.errstate

    def counting(**kwargs):
        calls.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    for r in (0.1, 1.3, SQRT2 + 1e-4, 5.0):
        calls.clear()
        evaluate(r)
        assert len(calls) == 1, (r, calls)

# the five scalar evaluators with each of their functions: (evaluator, which)
SCALAR_CALLS = [
    (eval_a, ()), (eval_b, ()), (eval_g, ("g",)), (eval_g, ("ghat",)), (eval_g_deriv, ("g",)),
    (eval_g_deriv, ("ghat",)), (contour_eval, ("a",)), (contour_eval, ("b",)),
]


@pytest.mark.parametrize("r", [1e78, 1e100, 5e153, 7.6e153, 1e154])
def test_huge_radii_are_zero_within_their_bound(r):
    """Past r ~ 1e77 the powers of y - center in the principal rows pass the
    double range; their quotients saturate to 0, so each function is 0 within
    its bound instead of a numerical failure, until pi y itself overflows,
    near r = 7.6e153: there every evaluator raises ArithmeticError instead of
    running on with inf and NaN."""
    for fn, which in SCALAR_CALLS:
        if math.pi * r * r > np.finfo(float).max:
            with pytest.raises(ArithmeticError, match="overflows a radial kernel"):
                fn(r, *which)
        else:
            rv = fn(r, *which)
            assert abs(rv.value) <= rv.err, (fn.__name__, which)


@pytest.mark.parametrize("r", [-0.0, 5e-324])
def test_radii_that_square_to_zero_give_the_value_at_zero(r):
    """-0 and the smallest subnormal square to y = 0, so each evaluator
    returns its value at r = 0; g' and ghat', refused at r = 0, refuse -0 too
    and are 0 within their bound at 5e-324."""
    for fn, which in SCALAR_CALLS:
        if fn is not eval_g_deriv:
            assert fn(r, *which) == fn(0.0, *which), (fn.__name__, which)
        elif r == 0:
            with pytest.raises(ValueError):
                fn(r, *which)
        else:
            rv = fn(r, *which)
            assert abs(rv.value) <= rv.err


def test_invalid_inputs():
    with pytest.raises(ValueError):
        eval_g(1.0, "gh")
    with pytest.raises(ValueError, match="which must be 'a' or 'b'"):
        contour_eval(1.0, "g")
    # ``_g``'s name check is the only one the Hankel oracle has
    with pytest.raises(ValueError, match="which must be one of 'a', 'b', 'g', 'ghat'"):
        hankel_fourier_oracle("c", 1.0)
    for fn, which in SCALAR_CALLS:
        for r in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                fn(r, *which)


@pytest.mark.parametrize("fields", [(math.nan, 0.0), (1.0, math.inf)])
def test_a_value_that_is_not_finite_is_refused(fields):
    with pytest.raises(ArithmeticError, match="is not finite"):
        radial.RadialValue(*fields)


def test_an_invalid_operation_in_the_pass_is_a_numerical_failure(monkeypatch):
    """Only an invalid operation reaches the handler (overflows saturate), and
    the message names it; ArithmeticError is the CLI's exit 4."""
    monkeypatch.setattr(radial, "_ratio", lambda y, *_: np.float64(y) * 0.0 * np.inf)
    message = "invalid operation in a radial kernel at y = r^2 up to 1.69: invalid value encountered in scalar multiply"
    with pytest.raises(ArithmeticError) as caught:
        eval_g(1.3)
    assert str(caught.value) == message
    assert main(["eval", "--function", "g", "--r", "1.3"]) == EXIT_NUMERICAL_FAILURE


def test_fields_are_python_floats():
    """Every field of every scalar evaluator's value is a Python float, not
    a numpy scalar (whose repr prints as np.float64(...))."""
    for fn, which in SCALAR_CALLS:
        rv = fn(1.3, *which)
        assert [type(x) for x in (rv.value, rv.err, rv.residual)] == [float] * 3, (fn.__name__, which)


def _branch_edge_radii() -> list[float]:
    """Radii one ulp either side of the edges where the pass picks a branch
    by a test on y: the singular band |y - 2n| = _SING_BAND (n = 1, 2, 3),
    and the radii 1e78 and 1e100, where powers of y saturate; and, kept as
    data, the six radii one ulp either side of |pi (y - m)| = 1/2 (m = 0, 2),
    the edges of a Taylor branch the pass no longer has."""
    edges = [2 * n + side * _SING for n in (1, 2, 3) for side in (-1, 1)]
    edges += [0.5 / math.pi, 2 + 0.5 / math.pi, 2 - 0.5 / math.pi]
    return [math.nextafter(math.sqrt(y), to) for y in edges for to in (0.0, math.inf)] + [1e78, 1e100]


@pytest.mark.parametrize("which", ["a", "b", "g", "ghat"])
@pytest.mark.parametrize("deriv", [False, True])
def test_a_radius_runs_as_its_one_point_grid_bit_for_bit(which, deriv):
    """The pass at one radius (y a numpy scalar, its glue on Python floats)
    keeps every bit of value and bound of the pass over the one-point array
    [y], at 0, the seeded radii and the branch edges, where a scalar test and
    a grid's mask could pick different branches.  (A longer grid may differ
    in the last bit: its quadrature is one matrix-vector product, not a dot
    product per point.)"""
    changed = []
    for r in [0.0] + _seeded_radii() + _branch_edge_radii():
        y = r * r
        scalar, grid = radial._g(np.float64(y), which, deriv), radial._g(np.array([y]), which, deriv)
        if [type(x) for x in scalar] != [np.float64] * 2 or [x.hex() for x in scalar] != [x[0].hex() for x in grid]:
            changed.append((r, scalar, grid))
    assert not changed


def test_quadrature_bisects_to_a_peak_and_sums_the_integral_and_its_bound():
    c = 1e-3
    panels = []

    def f(x):
        panels.append(x)
        return 1 / (c + (x - 0.7) ** 2), np.full_like(x, 1e-20)

    integral, bound, err = _adaptive_gl(f, 0.0, 2.0, 1e-12)
    exact = (math.atan(1.3 / math.sqrt(c)) + math.atan(0.7 / math.sqrt(c))) / math.sqrt(c)
    assert len(panels) > 3  # the peak forced bisection
    assert abs(integral - exact) < 1e-12 + err
    assert abs(bound - 2e-20) < 1e-30


def test_gauss_legendre_weights_match_a_40_digit_rule():
    """Each weight is within 1e-13 relative of 2 / ((1 - x^2) P_40'(x)^2) at
    the node refined to 40 digits by Newton's method (measured 5.2e-14;
    numpy's leggauss weights are off by 7.0e-13)."""
    import mpmath

    x, w = radial._gauss_legendre_40()
    with mpmath.workdps(40):
        def p40_prime(z):
            return 40 * (z * mpmath.legendre(40, z) - mpmath.legendre(39, z)) / (z * z - 1)

        for node, weight in zip(x, w):
            z = mpmath.mpf(float(node))
            for _ in range(4):
                z -= mpmath.legendre(40, z) / p40_prime(z)
            exact = 2 / ((1 - z * z) * p40_prime(z) ** 2)
            assert abs(weight / exact - 1) <= 1e-13, (node, weight, exact)


@pytest.mark.parametrize("which", ["a", "b", "A", "B"])
def test_four_near_panels_agree_with_sixteen(monkeypatch, which):
    """The near rule has no runtime convergence check: its integrands are
    catalog constants, not input, so this test is its check.  The integral
    over u in [1, 14] on the rule's 4 panels equals the one on 16 within
    1e-14 relative at y = 0, 1 and 4 (measured 3.3e-15; 1 panel is 1.6e-10
    off for a at y = 0)."""
    def near(y, rule):
        neg_pi_u, weights, _ = rule
        return float(np.dot(weights, np.exp(y * neg_pi_u)))

    four = radial._near_quadrature(which)
    monkeypatch.setattr(radial, "_NEAR_PANELS", 16)
    sixteen = radial._near_quadrature.__wrapped__(which)
    for y in (0.0, 1.0, 4.0):
        assert abs(near(y, four) / near(y, sixteen) - 1) <= 1e-14, y


def test_the_near_rule_and_the_hankel_grid_share_one_panel_rule():
    """a, b, A and B integrate over the same 160 nodes, those of the panel
    rule that also lays out the Hankel oracle's 1,280 nodes."""
    u, grid = radial._panel_rule(1.0, 14.0, 4)[0], radial._panel_rule(0.0, 12.0, 32)[0]
    for which in ("a", "b", "A", "B"):
        assert radial._near_quadrature(which)[0].tobytes() == (-math.pi / u).tobytes(), which
    assert radial._hankel_grid()[0].tobytes() == grid.tobytes()
    assert (len(u), len(grid)) == (160, 1280)
    assert np.all(np.diff(u) > 0) and np.all(np.diff(grid) > 0)


def test_quadrature_refuses_a_jump_it_cannot_resolve():
    """A jump at a point no bisection reaches (1/3 is not dyadic) never
    converges; the quadrature raises instead of accepting the last panels."""
    with pytest.raises(ArithmeticError, match="failed to converge"):
        _adaptive_gl(lambda x: (np.where(x < 1 / 3, 1.0, 0.0), np.zeros_like(x)), 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("center", [0.0, 2.0])
@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("deriv", [False, True])
def test_ratio_band_branch_keeps_its_bits_whole_and_masked(center, power, deriv):
    """The series branch of ``_ratio`` gives the same bits on a grid wholly in
    the band, on a mixed grid split by a mask and on each point as a numpy
    scalar, with |y - center| = 1e-3 and 1 ulp either side of it in the grid."""
    rng = np.random.default_rng(31)
    edge = [math.nextafter(_SING, 0.0), _SING, math.nextafter(_SING, 1.0)]
    x = np.concatenate((rng.uniform(-2e-3, 2e-3, 2000), edge, [-e for e in edge]))
    y = np.abs(center + x)  # y >= 0; at center 0 the band is 0 <= y < 1e-3
    mixed = _ratio(y, _sines(y), center, power, deriv)
    inside = np.abs(y - center) < _SING
    assert 0 < np.count_nonzero(inside) < y.size
    whole = _ratio(y[inside], _sines(y[inside]), center, power, deriv)
    scalar = np.array([_ratio(v, _sines(v), center, power, deriv) for v in y])
    assert mixed[inside].tobytes() == whole.tobytes()
    assert mixed.tobytes() == scalar.tobytes()

# ---------------------------------------------------------------------------
# error paths and soundness guards

def test_radial_values_compare_by_fields_and_do_not_hash():
    rv = radial.RadialValue(1.0, 0.5)
    assert rv == radial.RadialValue(1.0, 0.5, 0.0) and rv != radial.RadialValue(1.0, 0.25)
    assert rv.__eq__(1.0) is NotImplemented and rv != (1.0, 0.5, 0.0)
    with pytest.raises(TypeError, match="unhashable"):
        hash(rv)
