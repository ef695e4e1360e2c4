"""Golden expansions, structural identities, transformation laws, and the
circle-method diagnostics for the modular-form catalog."""

import math

import pytest

from e8magic import modforms
from e8magic.modforms import (
    FormId,
    build_form,
    coefficient_bound_check,
    eisenstein,
    eval_form,
    kloosterman_sum,
    rademacher_coefficient,
    verify_transform,
)

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
    assert (psi_i.translate(+1) - psi_t).is_zero()
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
@pytest.mark.parametrize("form", [FormId.TH00_4, FormId.TH01_4, FormId.TH10_4])
def test_theta_s_laws(form, z):
    check = verify_transform(form, "S", z)
    assert check.passed, (form, z, check)


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


def test_kloosterman_basics():
    assert kloosterman_sum(1, 1).value == 1.0 + 0j
    # A_k(n) is real for integer n (h -> -h' pairing)
    for k in (2, 3, 5, 7):
        assert abs(kloosterman_sum(1, k).value.imag) < 1e-9


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


@pytest.mark.parametrize("form", list(FormId))
def test_coefficient_bounds_to_50(form):
    report = coefficient_bound_check(form, 50)
    assert report.passed, (form, report.worst_index, report.max_ratio)


def test_bound_spot_values():
    """The two bound comparisons quoted alongside the envelope hypotheses."""
    assert 5120 <= math.exp(4 * math.pi * math.sqrt(0.5))
    assert 518400 <= 2 * math.exp(4 * math.pi)
