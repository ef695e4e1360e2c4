"""Acceptance gate: the ten end-to-end criteria, one verdict line each.

Run with ``pytest -v`` (one PASSED/FAILED line per criterion) or ``-s`` to
also see the explicit verdict lines.
"""

import math
import time
from fractions import Fraction

import numpy as np

from e8magic.certify import NEAR_INFINITY, NEAR_ZERO, build_model, certify_sign
from e8magic.e8 import density_bound, enumerate_shells, poisson_check
from e8magic.modforms import (
    FormId,
    build_form,
    rademacher_coefficient,
    verify_transform,
)
from e8magic.radial import (
    contour_eval,
    eval_a,
    eval_b,
    eval_g,
    eval_g_deriv,
    hankel_fourier_oracle,
)

SQRT2 = math.sqrt(2.0)


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} ({desc}) {detail}"


# -- 1 ----------------------------------------------------------------------

GOLDEN_EXPANSIONS = {
    FormId.J: {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970, 4: 20245856256},
    FormId.PHI_M4: {-1: 1, 0: 504, 1: 73764, 2: 2695040, 3: 54755730},
    FormId.PHI_M2: {0: 720, 1: 203040, 2: 9417600, 3: 223473600, 4: 3566782080},
    FormId.PHI_0: {1: 518400, 2: 31104000, 3: 870912000, 4: 15697152000},
    FormId.H: {-1: 1, 0: 16, 1: -132, 2: 640, 3: -2550},
    FormId.PSI_I: {-1: 1, 0: 144, "1/2": -5120, 1: 70524, "3/2": -626688, 2: 4265600},
    FormId.PSI_T: {-1: 1, 0: 144, "1/2": 5120, 1: 70524, "3/2": 626688, 2: 4265600},
    FormId.PSI_S: {"1/2": -10240, "3/2": -1253376, "5/2": -48328704, "7/2": -1059078144},
}


def test_criterion_01_golden_expansions():
    bad = []
    for form, expected in GOLDEN_EXPANSIONS.items():
        series = build_form(form, 64)
        for n, want in expected.items():
            got = series.coeff_q(Fraction(str(n)))
            if got != want:
                bad.append((form.value, n, got, want))
    _verdict(1, "golden q-expansions, zero tolerance", not bad, repr(bad))


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_structural_identities():
    order = 64
    t00 = build_form(FormId.TH00_4, order)
    t01 = build_form(FormId.TH01_4, order)
    t10 = build_form(FormId.TH10_4, order)
    psi_i = build_form(FormId.PSI_I, order)
    psi_t = build_form(FormId.PSI_T, order)
    psi_s = build_form(FormId.PSI_S, order)
    vphi4 = build_form(FormId.VPHI_M4, order)
    vphi2 = build_form(FormId.VPHI_M2, order)
    j = build_form(FormId.J, order)
    checks = {
        "jacobi": (t01 + t10 - t00).is_zero(),
        "psi_sum": (psi_t + psi_s - psi_i).is_zero(),
        "psi_translate": (psi_i.translate(+1) - psi_t).is_zero(),
        "phi_m2_from_D": (
            -3 * vphi4.D() + 3 * vphi2 - build_form(FormId.PHI_M2, order)
        ).is_zero(),
        "phi_0_from_D": (
            12 * vphi4.D().D() - 36 * vphi2.D() + 24 * j - 17856
            - build_form(FormId.PHI_0, order)
        ).is_zero(),
    }
    bad = [k for k, ok in checks.items() if not ok]
    _verdict(2, "structural identities exact at order 64", not bad, repr(bad))


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_transformation_residuals():
    points = [complex(0.0, 1.1), complex(0.3, 0.9), complex(-0.2, 1.4)]
    bad = []
    for z in points:
        for form, law in (
            (FormId.E2, "S"),
            (FormId.TH00_4, "S"),
            (FormId.TH01_4, "S"),
            (FormId.TH10_4, "S"),
            (FormId.TH00_4, "T"),
            (FormId.TH01_4, "T"),
            (FormId.TH10_4, "T"),
            (FormId.PHI_0, "S"),
        ):
            check = verify_transform(form, law, z)
            if not check.passed:
                bad.append((form.value, law, z, check.residual, check.bound))
    _verdict(3, "transformation residuals within their truncation and roundoff bounds", not bad, repr(bad))


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_certification():
    start = time.monotonic()
    cert_a = certify_sign("A", n=6, m=6, t_star=4.0, max_depth=60)
    cert_b = certify_sign("B", n=6, m=6, t_star=4.0, max_depth=60)
    control = certify_sign("A", n=1, m=1, t_star=4.0, max_depth=60)
    elapsed = time.monotonic() - start
    ok = (
        cert_a.status == "certified"
        and cert_b.status == "certified"
        and cert_a.min_margin > 0
        and cert_b.min_margin > 0
        and control.status.startswith("failed")
        and elapsed < 120.0
    )
    _verdict(
        4,
        "A<0 and B>0 certified (n=m=6, T*=4), n=m=1 control fails, under 2 min",
        ok,
        f"A={cert_a.status} B={cert_b.status} control={control.status} {elapsed:.1f}s",
    )


# -- 5 ----------------------------------------------------------------------

MODEL_GOLDENS = [
    ("A", 1, NEAR_INFINITY, {(0, 2, -2): -72, (1, 1, 0): 8640, (0, 2, 0): -23328}),
    # the printed B caption repeats A's constant; the value consistent with
    # the definitions (and with the order-6 display) is -12960/pi^2
    ("B", 1, NEAR_INFINITY, {(1, 1, 0): 8640, (0, 2, 0): -12960}),
    ("A", 2, NEAR_ZERO, {(0, 2, 1): -368640}),
    ("B", 2, NEAR_ZERO, {(0, 2, 1): 368640}),
    ("A", 6, NEAR_INFINITY, {
        (0, 2, -2): -72, (0, 2, 0): -23328, (0, 2, 1): 184320, (0, 2, 2): -5194368,
        (0, 2, 3): 22560768, (0, 2, 4): -250583040, (0, 2, 5): 869916672,
        (1, 1, 0): 8640, (1, 1, 2): 2436480, (1, 1, 4): 113011200,
        (2, 0, 2): -518400, (2, 0, 4): -31104000,
    }),
    ("B", 6, NEAR_INFINITY, {
        (0, 2, 0): -12960, (0, 2, 1): -184320, (0, 2, 2): -116640,
        (0, 2, 3): -22560768, (0, 2, 4): 56540160, (0, 2, 5): -869916672,
        (1, 1, 0): 8640, (1, 1, 2): 2436480, (1, 1, 4): 113011200,
        (2, 0, 2): -518400, (2, 0, 4): -31104000,
    }),
    ("A", 6, NEAR_ZERO, {
        (0, 2, 1): -368640, (0, 0, 2): -518400, (0, 2, 3): -45121536,
        (0, 0, 4): -31104000, (0, 2, 5): -1739833344,
    }),
    ("B", 6, NEAR_ZERO, {
        (0, 2, 1): 368640, (0, 0, 2): -518400, (0, 2, 3): 45121536,
        (0, 0, 4): -31104000, (0, 2, 5): 1739833344,
    }),
]


def test_criterion_05_model_goldens():
    bad = []
    for target, n, regime, expected in MODEL_GOLDENS:
        got = build_model(target, n, regime).term_map()
        want = {k: Fraction(v) for k, v in expected.items()}
        if got != want:
            bad.append((target, n, regime))
    _verdict(5, "truncation-model coefficients match the printed displays", not bad, repr(bad))


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_special_values():
    a0 = eval_a(0.0)
    checks = {
        "a(0)": abs(a0.value + 8640 / math.pi) <= 1e-8 * (8640 / math.pi),
        "b(0)": abs(eval_b(0.0).value) <= 1e-9,
        "b(sqrt2)": abs(eval_b(SQRT2).value) <= 1e-9,
        "g(0)": abs(eval_g(0.0, "g").value - 1) <= 1e-9,
        "ghat(0)": abs(eval_g(0.0, "ghat").value - 1) <= 1e-9,
        "g'(sqrt2)": abs(eval_g_deriv(SQRT2, "g").value + SQRT2 / 60) <= 1e-8,
        "ghat'(sqrt2)": abs(eval_g_deriv(SQRT2, "ghat").value) <= 1e-8,
    }
    bad = [k for k, ok in checks.items() if not ok]
    _verdict(6, "special values of a, b, g, ghat", not bad, repr(bad))


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_zero_ladder_and_signs():
    bad = []
    for n in range(1, 7):
        r = math.sqrt(2 * n)
        if abs(eval_g(r, "g").value) >= 1e-8 or abs(eval_g(r, "ghat").value) >= 1e-8:
            bad.append(("ladder", n))
    for r in np.linspace(SQRT2, 8.0, 50):
        if eval_g(float(r), "g").value > 1e-8:
            bad.append(("g_sign", float(r)))
    for r in np.linspace(0.16, 8.0, 50):
        if eval_g(float(r), "ghat").value < -1e-8:
            bad.append(("ghat_sign", float(r)))
    rng = np.random.default_rng(8)
    count = 0
    while count < 20:
        r = float(rng.uniform(0.3, 1.95))
        if abs(r * r / 2 - round(r * r / 2)) < 0.08:
            continue
        count += 1
        if abs(eval_g(r, "g").value) <= 1e-6 or abs(eval_g(r, "ghat").value) <= 1e-6:
            bad.append(("nonvanishing", r))
    _verdict(7, "zero ladder, sign conditions, strict nonvanishing", not bad, repr(bad))


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_oracle_equivalences():
    bad = []
    radii = [0.0, 0.35, 0.8, 1.1, SQRT2, 1.7, 2.0, 2.3, 2.7, 3.1]
    for r in radii:  # 10 radii x 2 functions = 20 oracle comparisons
        for which, direct in (("a", eval_a), ("b", eval_b)):
            o = contour_eval(r, which)
            d = direct(r)
            if abs(o.value - d.value) > 1e-8 * (1 + abs(d.value)):
                bad.append(("contour", which, r, abs(o.value - d.value)))
    for s in (0.6, 0.9, 1.3, 1.8, 2.4):
        ha = hankel_fourier_oracle("a", s)
        hb = hankel_fourier_oracle("b", s)
        if abs(ha.value - eval_a(s).value) > 1e-6 * (1 + abs(ha.value)):
            bad.append(("hankel_a", s))
        if abs(hb.value + eval_b(s).value) > 1e-6 * (1 + abs(hb.value)):
            bad.append(("hankel_b", s))
    _verdict(8, "contour and Hankel oracles agree with the evaluators", not bad, repr(bad))


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_lattice_and_bound(walk_shell_counts):
    shells = enumerate_shells(40)
    walk = walk_shell_counts(40)
    e4 = build_form(FormId.E4, 24)
    counts_ok = shells.entries == walk and all(walk[2 * n] == e4.coeff_q(n) for n in range(1, 21))
    poisson = poisson_check(2.0, max_norm=40)
    rep = density_bound()
    ok = (
        counts_ok
        and shells.count(2) == 240
        and shells.count(4) == 2160
        and shells.count(6) == 6720
        and poisson.discrepancy < 1e-10
        and abs(rep.bound - math.pi**4 / 384) < 1e-8
        and f"{rep.bound:.8f}".startswith("0.2536695")
    )
    _verdict(
        9,
        "walked shell counts = E4 coefficients, Poisson at alpha=2, bound = pi^4/384",
        ok,
        f"poisson={poisson.discrepancy:.2e} bound={rep.bound!r}",
    )


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_rademacher():
    cj = rademacher_coefficient(FormId.J, 1, 50)
    cphi = rademacher_coefficient(FormId.VPHI_M4, 1, 50)
    ok = abs(cj - 196884) / 196884 < 1e-6 and abs(cphi - 73764) / 73764 < 1e-6
    _verdict(10, "circle-method partial sums converge (k_max=50, rel err < 1e-6)",
             ok, f"c_j(1)={cj!r} c_phi-4(1)={cphi!r}")
