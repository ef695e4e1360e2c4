"""Golden expansions, structural identities, transformation laws, and the
circle-method diagnostics for the modular-form catalog."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from e8magic import growth, modforms
from e8magic.growth import coefficient_bound_check, kloosterman_sum, rademacher_coefficient
from e8magic.modforms import (
    GROWTH_BOUNDS,
    S_LAWS,
    T_LAWS,
    WEIGHTS,
    Exact,
    FormId,
    build_form,
    chart_series,
    chart_terms,
    eisenstein,
    eval_form,
    principal_part,
    special_values,
    theta,
    verify_transform,
)
from e8magic.qfloat import combine
from e8magic.qseries import TruncationError

ORDER = 64

# exact leading Fourier coefficients, indexed by exponent n (units of q^n)
GOLDEN = {
    FormId.J: {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970, 4: 20245856256},
    FormId.PHI_M4: {-1: 1, 0: 504, 1: 73764, 2: 2695040, 3: 54755730},
    FormId.PHI_M2: {0: 720, 1: 203040, 2: 9417600, 3: 223473600, 4: 3566782080},
    FormId.PHI_0: {0: 0, 1: 518400, 2: 31104000, 3: 870912000, 4: 15697152000},
    FormId.H: {-1: 1, 0: 16, 1: -132, 2: 640, 3: -2550},
    FormId.PSI_I: {-1: 1, 0: 144, "1/2": -5120, 1: 70524, "3/2": -626688, 2: 4265600},
    FormId.PSI_T: {-1: 1, 0: 144, "1/2": 5120, 1: 70524, "3/2": 626688, 2: 4265600},
    FormId.PSI_S: {"1/2": -10240, "3/2": -1253376, "5/2": -48328704, "7/2": -1059078144},
}


def _coeff(form, n):
    from fractions import Fraction

    return build_form(form, ORDER).coeff_q(Fraction(str(n)))


@pytest.mark.parametrize("form", list(GOLDEN))
def test_golden_expansions(form):
    for n, expected in GOLDEN[form].items():
        assert _coeff(form, n) == expected, (form, n)


def test_jacobi_identity_exact():
    t00 = build_form(FormId.TH00_4, ORDER)
    t01 = build_form(FormId.TH01_4, ORDER)
    t10 = build_form(FormId.TH10_4, ORDER)
    assert (t01 + t10 - t00).is_zero()


def test_psi_sum_rule_exact():
    psi_i = build_form(FormId.PSI_I, ORDER)
    psi_t = build_form(FormId.PSI_T, ORDER)
    psi_s = build_form(FormId.PSI_S, ORDER)
    assert (psi_t + psi_s - psi_i).is_zero()


def test_psi_t_is_translate_of_psi_i():
    psi_i = build_form(FormId.PSI_I, ORDER)
    psi_t = build_form(FormId.PSI_T, ORDER)
    assert (psi_i.translate() - psi_t).is_zero()
    check = verify_transform(FormId.PSI_I, "T", complex(0, 1))
    assert check.passed and check.residual == 0.0


def test_d_operator_identities():
    """phi_{-2} and phi_0 from the D-derivatives of the varphi pair and j."""
    vphi4 = build_form(FormId.VPHI_M4, ORDER)
    vphi2 = build_form(FormId.VPHI_M2, ORDER)
    j = build_form(FormId.J, ORDER)
    phi2 = build_form(FormId.PHI_M2, ORDER)
    phi0 = build_form(FormId.PHI_0, ORDER)
    lhs2 = -3 * vphi4.D() + 3 * vphi2
    diff2 = lhs2 - phi2
    assert diff2.is_zero(), diff2
    lhs0 = 12 * vphi4.D().D() - 36 * vphi2.D() + 24 * j - 17856
    diff0 = lhs0 - phi0
    assert diff0.is_zero(), diff0


def test_each_ingredient_built_once(monkeypatch):
    """Building the whole catalog at a fresh order builds E2, E4, E6 and the
    three theta constants once each: every form reads them from the catalog."""
    order = next(k for k in range(101, 200) if all((f, k) not in modforms._CACHE for f in FormId))
    calls = []

    def counting(name, inner):
        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        return wrapper

    for name in ("eisenstein", "theta"):
        monkeypatch.setattr(modforms, name, counting(name, getattr(modforms, name)))
    for form in FormId:
        build_form(form, order)
    assert sorted(calls) == ["eisenstein"] * 3 + ["theta"] * 3


_POLICY_PROBE = """
from e8magic import certify, modforms, radial
from e8magic.modforms import FormId
radial.eval_g(1.0)
radial.contour_eval(2.9, "b")
modforms.eval_form(FormId.E2, 0.3 + 1.1j)
modforms.verify_transform(FormId.PHI_0, "S", 0.2 + 1.2j)
certify.numeric_value("A", 0.5)
certify.numeric_value("B", 3.0)
print(sorted({order for _, order in modforms._CACHE}))
"""


def test_numeric_paths_read_one_catalog_order():
    """eval_g, contour_eval, eval_form, verify_transform and numeric_value
    build the catalog at DEFAULT_ORDER and at no other order (a fresh process,
    so no other test's builds are in the cache)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _POLICY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([modforms.DEFAULT_ORDER])


def _sigma_by_trial_division(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("k,factor", [(2, -24), (4, 240), (6, -504)])
def test_eisenstein_matches_trial_division(k, factor):
    series = eisenstein(k, 300)
    assert series.coeff_q(0) == 1
    for n in range(1, 300):
        assert series.coeff_q(n) == factor * _sigma_by_trial_division(n, k - 1), (k, n)


def test_discriminant_lead():
    e4 = eisenstein(4, ORDER)
    e6 = eisenstein(6, ORDER)
    disc = e4**3 - e6**2
    assert disc.coeff_q(0) == 0
    assert disc.coeff_q(1) == 1728


def test_theta_t_laws_exact():
    for form in (FormId.TH00_4, FormId.TH01_4, FormId.TH10_4):
        check = verify_transform(form, "T", complex(0.1, 1.0))
        assert check.passed and check.residual == 0.0


SAMPLE_POINTS = [complex(0.0, 1.1), complex(0.3, 0.9), complex(-0.2, 1.4)]


@pytest.mark.parametrize("z", SAMPLE_POINTS)
@pytest.mark.parametrize("form", list(S_LAWS))
def test_theta_s_laws(form, z):
    """Every catalogued S-law, the theta fourth powers' and the others."""
    check = verify_transform(form, "S", z)
    assert check.passed, (form, z, check)


def test_laws_outside_the_tables_are_refused():
    """A form without a T-law, a form without an S-law, a law name that is
    neither 'S' nor 'T' and an unknown chart raise ValueError."""
    with pytest.raises(ValueError, match="unknown chart"):
        chart_terms("a", "v")
    with pytest.raises(ValueError, match="no catalogued T law"):
        verify_transform(FormId.E4, "T", complex(0, 1))
    with pytest.raises(ValueError, match="no catalogued law"):
        verify_transform(FormId.J, "S", complex(0, 1))
    for law in ("E2", "PHI0"):
        with pytest.raises(ValueError, match="no catalogued law"):
            verify_transform(FormId.E2, law, complex(0, 1))


# the catalog's (name, weight, C) rows, typed a second time so that a slip in
# either copy fails; C is the constant of |c(n)| <= C e^{4 pi sqrt(n)}
ROWS = [
    ("E2", 2, 1.0), ("E4", 4, 1.0), ("E6", 6, 1.0), ("j", 0, 1.0),
    ("theta00^4", 2, 1.0), ("theta01^4", 2, 1.0), ("theta10^4", 2, 1.0),
    ("varphi_-2", -2, 2.0), ("varphi_-4", -4, 1.0), ("phi_-4", -4, 1.0), ("phi_-2", -2, 1.0),
    ("phi_0", 0, 2.0), ("h", -2, 1.0), ("psi_I", -2, 1.0), ("psi_T", -2, 1.0), ("psi_S", -2, 2.0),
]


def test_the_catalog_rows_are_pinned():
    """Each form's name, weight (an int) and growth constant (a float) read
    back through FormId, WEIGHTS and GROWTH_BOUNDS as the rows above, in
    catalog order; this reaches what the law checks below cannot: h's
    weight and every constant."""
    got = [(form.value, WEIGHTS[form], GROWTH_BOUNDS[form]) for form in (FormId(name) for name, _, _ in ROWS)]
    assert got == ROWS
    assert [form.value for form in FormId] == [name for name, _, _ in ROWS]
    assert all(type(w) is int and type(c) is float for _, w, c in got)


def test_the_weights_agree_with_the_laws():
    """Each S-law term c / pi^k t^j G(it) of F(i/t) has k = (w_F - w_G)/2 and
    j = (w_F + w_G)/2 (G = None, E2's 6/(pi i z) term, has weight 0), and
    each T-law partner has F's weight."""
    for form, terms in S_LAWS.items():
        for g, _, k, j in terms:
            w_g = 0 if g is None else WEIGHTS[g]
            assert (2 * k, 2 * j) == (WEIGHTS[form] - w_g, WEIGHTS[form] + w_g), (form, g)
    for form, (partner, _) in T_LAWS.items():
        assert WEIGHTS[partner] == WEIGHTS[form], (form, partner)


@pytest.mark.parametrize("t", [0.8, 1.25, 2.0])
@pytest.mark.parametrize(
    "form", [FormId.E4, FormId.E6, FormId.J, FormId.VPHI_M2, FormId.VPHI_M4, FormId.PHI_M4],
)
def test_the_modular_rows_transform_with_their_weight(form, t):
    """F(i/t) = i^w t^w F(it) for the forms modular under SL2(Z), within the
    bound on both evaluations and their combination."""
    value, bound = combine([(1, eval_form(form, 1j / t)), (-(1j * t) ** WEIGHTS[form], eval_form(form, 1j * t))])
    assert abs(value) <= bound, (form, t, value, bound)


def _chart_sum(which, chart, x):
    """sum c / pi^k * x^j * G(ix) over the chart terms, with its bound."""
    terms = [(c / math.pi**k * x**j, eval_form(g, complex(0, x))) for g, c, k, j in chart_terms(which, chart)]
    return combine([(c, (r.value, r.tail_bound)) for c, r in terms])


@pytest.mark.parametrize("t", [0.8, 1.0, 1.25])
@pytest.mark.parametrize("which", ["a", "b", "A", "B"])
def test_charts_agree(which, t):
    """The t-chart terms at t and the u-chart terms at u = 1/t are one
    integrand: their sums agree within the summed bounds."""
    (in_t, t_bound), (in_u, u_bound) = _chart_sum(which, "t", t), _chart_sum(which, "u", 1 / t)
    assert abs(in_t - in_u) <= t_bound + u_bound, (in_t, t_bound, in_u, u_bound)


@pytest.mark.parametrize("chart", ["t", "u"])
@pytest.mark.parametrize("which", ["a", "b", "A", "B"])
def test_chart_series_sums_the_chart_terms(which, chart):
    """One group (k, p, S, C) per x^p / pi^k of the chart terms, in the order
    of its first term, with S = sum c G exactly to the first order any G
    leaves unknown, and C = sum |c| C_G."""
    terms = chart_terms(which, chart)
    groups = chart_series(which, chart)
    assert [(k, p) for k, p, _, _ in groups] == list(dict.fromkeys((k, p) for _, _, k, p in terms))
    for k, p, series, bound in groups:
        members = [(g, c) for g, c, k_g, p_g in terms if (k_g, p_g) == (k, p)]
        expected = {}
        for g, c in members:
            for e, coeff in build_form(g).coeffs.items():
                expected[e] = expected.get(e, 0) + c * coeff
        assert series.order == min(build_form(g).order for g, _ in members)
        assert dict(series.coeffs) == {e: c for e, c in expected.items() if c and e < series.order}
        assert bound == sum(abs(c) * GROWTH_BOUNDS[g] for g, c in members)


def _replace_coefficient(form, index, c):
    terms = list(S_LAWS[form])
    g, _, k, j = terms[index]
    terms[index] = (g, c, k, j)
    return {**S_LAWS, form: tuple(terms)}


@pytest.mark.parametrize(
    "form,index,c",
    [(FormId.PHI_0, 2, 35), (FormId.PHI_0, 1, -11), (FormId.E2, 1, -6)],
    ids=["phi0-36-to-35", "phi0-12-to-11", "e2-6-to-minus-6"],
)
def test_a_wrong_s_law_fails_verification(monkeypatch, form, index, c):
    """verify_transform reads S_LAWS: a changed coefficient fails its check."""
    monkeypatch.setattr(modforms, "S_LAWS", _replace_coefficient(form, index, c))
    assert not verify_transform(form, "S", SAMPLE_POINTS[0]).passed


def test_principal_parts_are_the_non_decaying_terms():
    """a: (36/pi^2) q^-1 - (8640/pi) t + 18144/pi^2; b: q^-1 + 144."""
    assert dict(principal_part("a")) == {(2, 0, -1): 36, (1, 1, 0): -8640, (2, 0, 0): 18144}
    assert dict(principal_part("b")) == {(0, 0, -1): 1, (0, 0, 0): 144}


# the values that close the proof, each c pi^k sqrt(2)^j as Exact(c, k, j)
SPECIAL_VALUES = {
    "Im a(0)": Exact(-8640, -1),
    "Im b(0)": Exact(0),
    "d/dy Im a(2)": Exact(36, -1),
    "d/dy Im b(2)": Exact(1, 1),
    "c_a": Exact(Fraction(-1, 8640), 1),
    "c_b": Exact(Fraction(-1, 240), -1),
    "g(0)": Exact(1),
    "ghat(0)": Exact(1),
    "g'(sqrt2)": Exact(Fraction(-1, 60), 0, 1),
    "ghat'(sqrt2)": Exact(0),
}


def _special_values_hold() -> bool:
    try:
        return special_values() == SPECIAL_VALUES
    except ArithmeticError:  # a normalisation with no solution divides by zero
        return False


def test_special_values_are_exact():
    assert special_values() == SPECIAL_VALUES


@pytest.mark.parametrize(
    "which,mutate",
    [
        ("a", lambda terms: {**terms, (1, 1, 0): terms[1, 1, 0] - 1}),
        ("a", lambda terms: {(k, p, -1 - n): c for (k, p, n), c in terms.items()}),
        ("b", lambda terms: {**terms, (0, 0, -1): -terms[0, 0, -1]}),
    ],
    ids=["a-8640-to-8641", "a-q^-1-and-q^0-swapped", "b-q^-1-sign-flipped"],
)
def test_a_wrong_principal_part_fails_the_exact_values(monkeypatch, which, mutate):
    original = modforms.principal_part

    def mutated(name: str) -> tuple:
        return tuple(mutate(dict(original(name))).items()) if name == which else original(name)

    monkeypatch.setattr(modforms, "principal_part", mutated)
    assert not _special_values_hold()


def test_exact_arithmetic():
    root2 = Exact(1, 0, 1)
    assert root2 * root2 == Exact(2)
    assert Exact(1) / root2 == Exact(Fraction(1, 2), 0, 1)
    assert Exact(3, 1) + Exact(-3, 1) == Exact(0) == Exact(0) * root2
    assert float(Exact(Fraction(-1, 60), 0, 1)) == -math.sqrt(2) / 60
    with pytest.raises(ArithmeticError):
        Exact(1, 1) + Exact(1)


@pytest.mark.parametrize("z", [complex(0, 2.0), complex(0, 0.5), complex(0.25, 1.3)])
def test_e2_quasimodularity(z):
    check = verify_transform(FormId.E2, "S", z)
    assert check.passed, (z, check)


@pytest.mark.parametrize("z", SAMPLE_POINTS)
def test_phi0_transformation(z):
    check = verify_transform(FormId.PHI_0, "S", z)
    assert check.passed, (z, check)


def test_j_at_i_is_1728():
    res = eval_form(FormId.J, complex(0, 1))
    assert abs(res.value - 1728) <= res.tail_bound + 1e-6


def test_e6_vanishes_at_i():
    res = eval_form(FormId.E6, complex(0, 1))
    assert abs(res.value) <= res.tail_bound + 1e-8


@pytest.mark.parametrize("form", list(FormId))
@pytest.mark.parametrize("z", [1e-200j, 0.3 + 1e-160j, 5e-324j, 1e-3j])
def test_eval_form_near_the_real_axis_raises_truncation(form, z):
    """Too close to the real axis for the stored order: a TruncationError,
    never an OverflowError from the tail majorant's order hint (2/Im z)^2;
    past the float range it says no finite order suffices."""
    with pytest.raises(TruncationError) as info:
        eval_form(form, z)
    if z.imag < 1e-150:
        assert "no finite order suffices" in str(info.value)
    else:
        assert "rebuild the series to order" in str(info.value)


@pytest.mark.parametrize("form", list(FormId))
def test_eval_form_refuses_just_below_the_tail_majorant_s_edge(form):
    """At 1/sqrt(n0), for the first omitted grid point n0 of the stored order,
    the majorant's geometric ratio reaches 1: 1e-3 below it eval_form refuses
    with the rebuild hint, and 1e-3 above it returns a finite bound."""
    series = build_form(form)
    n0 = -(-(series.order - series.lead) // series.stride) * series.stride + series.lead
    edge = 1 / math.sqrt(n0 / 8)
    with pytest.raises(TruncationError, match="rebuild the series to order"):
        eval_form(form, 0.1 + edge * (1 - 1e-3) * 1j)
    assert math.isfinite(eval_form(form, 0.1 + edge * (1 + 1e-3) * 1j).tail_bound)


def test_kloosterman_basics():
    assert kloosterman_sum(1, 1) == 1.0 + 0j
    # A_k(n) is real for integer n (h -> -h' pairing)
    for k in (2, 3, 5, 7):
        assert abs(kloosterman_sum(1, k).imag) < 1e-9


@pytest.mark.parametrize(
    "kind,n,exact",
    [(FormId.J, 1, 196884), (FormId.VPHI_M4, 1, 73764), (FormId.VPHI_M2, 1, 141444)],
)
def test_rademacher_convergence(kind, n, exact):
    partials = [rademacher_coefficient(kind, n, k) for k in (10, 25, 50)]
    errs = [abs(p - exact) / exact for p in partials]
    assert errs[-1] < 1e-6, partials
    # Cauchy in k_max: successive partial sums approach the integer
    assert errs[2] <= errs[0] + 1e-9


def test_rademacher_rejects_half_integer_kinds():
    with pytest.raises(ValueError):
        rademacher_coefficient(FormId.PSI_I, 1, 10)


@pytest.mark.parametrize("nu", [1, 3, 5])
def test_bessel_i_matches_scipy(nu):
    """The power series against scipy's I_nu at every argument 4 pi sqrt(n)/k
    the Rademacher sums above read."""
    from scipy.special import iv

    for n in (1, 2, 5):
        for k in range(1, 51):
            x = 4 * math.pi * math.sqrt(n) / k
            ref = float(iv(nu, x))
            assert abs(growth._bessel_i(nu, x) - ref) <= 1e-13 * ref, (n, k)


def test_rademacher_refuses_a_bessel_value_past_the_double_range():
    """I_1(x) ~ e^x / sqrt(2 pi x) leaves the double range near x = 714;
    4 pi sqrt(4000) is about 794.8, so the k = 1 term cannot be a double."""
    assert math.isfinite(growth._bessel_i(1, 713.0))
    with pytest.raises(ValueError, match=r"I_1\(794\.76"):
        rademacher_coefficient(FormId.J, 4000, 3)
    with pytest.raises(ValueError, match=r"I_5\(1e\+300\)"):
        growth._bessel_i(5, 1e300)


@pytest.mark.parametrize("form", list(FormId))
def test_coefficient_bounds_to_50(form):
    report = coefficient_bound_check(form, 50)
    assert report.passed, (form, report.worst_index, report.max_ratio)


def test_coefficient_bound_check_builds_the_order_n_max_needs():
    """n_max past the numeric order q^64, integer and half-integer."""
    for form, n_max in ((FormId.PHI_0, 150), (FormId.PSI_S, "301/2")):
        report = coefficient_bound_check(form, n_max)
        assert report.passed and report.n_max == Fraction(n_max), report


def test_bound_spot_values():
    """The two bound comparisons quoted alongside the envelope hypotheses."""
    assert 5120 <= math.exp(4 * math.pi * math.sqrt(0.5))
    assert 518400 <= 2 * math.exp(4 * math.pi)


# ---------------------------------------------------------------------------
# error paths

def test_catalog_builders_refuse_what_they_do_not_hold():
    with pytest.raises(ValueError, match="unsupported Eisenstein weight 3"):
        eisenstein(3, 8)
    with pytest.raises(ValueError, match="unknown theta kind '11'"):
        theta("11", 8)
    with pytest.raises(ValueError, match="unknown form psi_X"):
        build_form("psi_X", 4)
    assert ("psi_X", 4) not in modforms._CACHE


@pytest.mark.parametrize("z", [1.0 + 0j, -1j])
def test_verify_transform_needs_the_upper_half_plane(z):
    for law in ("S", "T"):
        with pytest.raises(ValueError, match=re.escape("need Im z > 0")):
            verify_transform(FormId.TH00_4, law, z)


def test_the_growth_diagnostics_refuse_bad_indices():
    with pytest.raises(ValueError, match="modulus must be positive"):
        kloosterman_sum(1, 0)
    for n, k_max in ((0, 5), (1, 0)):
        with pytest.raises(ValueError, match="need n >= 1 and k_max >= 1"):
            rademacher_coefficient(FormId.J, n, k_max)


def test_a_growth_bound_that_fails_is_reported(monkeypatch):
    """phi_0's c(1) = 518400 is 0.904 of 2 e^{4 pi}: a constant of 1.8 instead
    of 2 fails there, and the report names it."""
    monkeypatch.setattr(growth, "GROWTH_BOUNDS", {**growth.GROWTH_BOUNDS, FormId.PHI_0: 1.8})
    report = coefficient_bound_check(FormId.PHI_0, 3)
    assert not report.passed
    assert report.violations[0] == (Fraction(1), Fraction(518400))
    assert report.worst_index == 1
    assert report.max_ratio == pytest.approx(518400 / (1.8 * math.exp(4 * math.pi)), rel=1e-12)
    assert 1 < report.max_ratio < 1.01
