"""Shell enumeration, Poisson summation, and the density bound."""

import math
import random
import tracemalloc

import pytest

from e8magic.e8 import (
    LatticePoint,
    density_bound,
    enumerate_shells,
    is_lattice_point,
    magic_poisson_check,
    poisson_check,
    shell_vectors,
    _gaussian_tail,
)
from e8magic.modforms import FormId, build_form


def _sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


@pytest.fixture(scope="module")
def shells():
    return enumerate_shells(40)


def test_counts_match_240_sigma3(shells):
    assert shells.count(0) == 1
    for n in range(1, 21):
        assert shells.count(2 * n) == 240 * _sigma3(n), n


def test_counts_match_e4_expansion(walk_shell_counts):
    """Theta series of E8 = E4: the coordinate walk counts E4's coefficients."""
    e4 = build_form(FormId.E4, 24)
    assert walk_shell_counts(40) == {2 * n: e4.coeff_q(n) for n in range(21)}


def test_walk_matches_enumerate_shells_to_norm_100(walk_shell_counts):
    assert walk_shell_counts(100) == enumerate_shells(100).entries


def test_counts_obey_the_gaussian_tail_bound():
    """N(2n) <= 289 n^3, which _gaussian_tail assumes: sigma_3(n) / n^3 is below
    zeta(3), and 240 zeta(3) = 288.49.  Up to norm 400 the largest ratio is
    286.65, at n = 120."""
    table = enumerate_shells(400)
    ratios = [table.count(2 * n) / n**3 for n in range(1, 201)]
    assert max(ratios) <= 289, max(ratios)


def test_first_shells():
    assert [enumerate_shells(8).count(k) for k in (2, 4, 6, 8)] == [
        240,
        2160,
        6720,
        17520,
    ]


def test_shell_vectors_roots(shells):
    roots = shell_vectors(2)
    assert len(roots) == 240
    assert all(p.norm2 == 2 for p in roots)


def test_shells_refuse_norms_they_do_not_hold(shells):
    """A count past the enumerated range names it; an odd or negative norm
    has no vectors to list."""
    assert shells.count(40) == 240 * _sigma3(20)
    with pytest.raises(KeyError, match="shell 42 beyond enumerated range 40"):
        shells.count(42)
    for norm2 in (3, -2):
        with pytest.raises(ValueError, match="even and nonnegative"):
            shell_vectors(norm2)


def test_closure_under_addition():
    roots = shell_vectors(2)
    rng = random.Random(11)
    for _ in range(50):
        p, q = rng.choice(roots), rng.choice(roots)
        s = p + q
        assert is_lattice_point(s.coords)
        assert s.norm2 in (0, 2, 4, 6, 8)
    assert is_lattice_point((-roots[0]).coords)


def test_lattice_point_validation():
    with pytest.raises(ValueError):
        LatticePoint((1, 0, 0, 0, 0, 0, 0, 0))  # mixed parity (1/2 with 0s)
    with pytest.raises(ValueError):
        LatticePoint((2, 0, 0, 0, 0, 0, 0, 0))  # odd coordinate sum
    with pytest.raises(ValueError):
        LatticePoint((1, 1, 1, 1))  # wrong dimension
    LatticePoint((1,) * 8)  # the all-halves vector, norm 2
    LatticePoint((2, 2, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 2.0, 2.5])
def test_poisson_identity(alpha):
    report = poisson_check(alpha)
    assert report.passed, report
    assert report.discrepancy < 1e-9
    # self-duality at alpha = 1: both sides are literally the same sum
    if alpha == 1.0:
        assert report.lhs == report.rhs


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_poisson_discrepancy_monotone(alpha):
    discrepancies = [
        poisson_check(alpha, max_norm=m).scaled_discrepancy for m in (16, 24, 32, 40)
    ]
    for d1, d2 in zip(discrepancies, discrepancies[1:]):
        assert d2 <= d1 + 1e-15, discrepancies


@pytest.mark.parametrize("alpha,conclusive", [(0.05, False), (0.4, True), (6.0, True), (30.0, False)])
def test_poisson_check_fails_where_its_bound_rivals_the_sums(alpha, conclusive):
    """At max_norm 40 the tail bound is 40 times the smallest sum at alpha =
    0.05 and about equal to it at 30: no discrepancy could fail there, so the
    check does not pass.  At 0.4 and 6 the bound is below 1e-6 of the sums."""
    report = poisson_check(alpha, max_norm=40)
    assert report.conclusive == conclusive
    assert report.passed == conclusive


def test_poisson_alpha2_tight():
    report = poisson_check(2.0, max_norm=40)
    assert report.discrepancy < 1e-10


def test_magic_poisson():
    lhs, rhs, err = magic_poisson_check()
    assert abs(lhs - 1.0) <= err + 1e-9
    assert abs(rhs - 1.0) <= err + 1e-9


def test_density_bound():
    """2^4 g(0)/ghat(0) from the exact special values, and pi^4/384 exactly."""
    report = density_bound()
    assert report.ratio == 16.0
    assert report.ball_volume == math.pi**4 / 6144
    assert report.bound == report.reference == math.pi**4 / 384
    assert report.matches_reference
    assert f"{report.bound:.9f}" == "0.253669508"


def test_enumerate_shells_validation():
    with pytest.raises(ValueError):
        enumerate_shells(0)
    with pytest.raises(ValueError):
        enumerate_shells(7)


def test_shell_search_keeps_nothing_after_the_call():
    """Shell counting caches nothing: after enumerate_shells(100) returns,
    under 1 MB is still held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = enumerate_shells(100)
        assert table.count(100) == 240 * _sigma3(50)
        del table
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, held


@pytest.mark.parametrize(
    "decay,n_max",
    [(math.pi, 20), (0.4 * math.pi, 20), (4 * math.pi, 20), (math.pi / 2, 200)],
)
def test_gaussian_tail_bounds_the_exact_tail(decay, n_max):
    """_gaussian_tail(decay, n_max) is at least the exact tail
    sum_{n > n_max} 240 sigma_3(n) e^{-decay n}, summed to 30 digits until the
    terms fall below 1e-40 of the first, and within 1.5 times it."""
    import mpmath

    with mpmath.workdps(30):
        sigma = [0] * (n_max + 401)
        for d in range(1, len(sigma)):
            for n in range(d, len(sigma), d):
                sigma[n] += d**3
        terms = [240 * sigma[n] * mpmath.exp(-mpmath.mpf(decay) * n) for n in range(n_max + 1, len(sigma))]
        assert terms[-1] < terms[0] * mpmath.mpf(10) ** -40
        exact = mpmath.fsum(terms)
        bound = _gaussian_tail(decay, n_max)
        assert exact <= bound <= 1.5 * exact, (bound, exact)
