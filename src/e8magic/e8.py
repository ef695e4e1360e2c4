"""The E8 lattice: shell counts, Poisson summation, and the density bound.

Lambda_8 = { x in Z^8 union (Z+1/2)^8 : sum x_i even }.  Its theta series is
E4, so the shell counts are E4's coefficients, N(2n) = 240 sigma_3(n) (Serre,
*A Course in Arithmetic*, VII.6.6).  ``shell_vectors`` lists the vectors of a
shell by a coordinate walk in half-unit coordinates (stored integers equal to
twice the coordinates), where both cosets become parity classes.  The counts
feed a Poisson-summation self-check with Gaussians and the final Cohn-Elkies
arithmetic: the exact g(0) = ghat(0) = 1 give f(0)/fhat(0) = 2^4, hence the
packing density bound 2^4 * Vol B_8(0, 1/2) = pi^4/384.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .modforms import Exact, eisenstein, special_values
from .qseries import U

__all__ = [
    "LatticePoint",
    "ShellTable",
    "PoissonReport",
    "DensityBoundReport",
    "enumerate_shells",
    "shell_vectors",
    "poisson_check",
    "magic_poisson_check",
    "density_bound",
]


class LatticePoint:
    """A point of Lambda_8 in half-unit coordinates (coordinate = stored/2)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, int, int, int, int, int, int, int]) -> None:
        if not is_lattice_point(coords):
            raise ValueError("need eight coordinates, all integers or all half-integers, "
                             "with an even sum")
        self.coords = coords

    def __eq__(self, other) -> bool:
        return self.coords == other.coords if type(other) is LatticePoint else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"LatticePoint(coords={self.coords!r})"

    @property
    def norm2(self) -> int:
        """Squared Euclidean norm (always an even integer)."""
        q, rem = divmod(sum(c * c for c in self.coords), 4)
        assert rem == 0
        return q

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticePoint":
        return LatticePoint(tuple(-c for c in self.coords))


def is_lattice_point(coords: tuple[int, ...]) -> bool:
    """Membership test in half-unit coordinates, straight off the congruences."""
    return len(coords) == 8 and len({c & 1 for c in coords}) == 1 and sum(coords) % 4 == 0


class ShellTable:
    """Vector counts N(2n) for the shells of Lambda_8 up to max_norm."""

    __slots__ = ("max_norm", "entries")

    def __init__(self, max_norm: int, entries: dict[int, int] | None = None) -> None:
        self.max_norm, self.entries = max_norm, {} if entries is None else entries

    def count(self, norm2: int) -> int:
        if norm2 > self.max_norm:
            raise KeyError(f"shell {norm2} beyond enumerated range {self.max_norm}")
        return self.entries.get(norm2, 0)


def _coordinates(budget: int, odd: bool):
    """The stored values c, -c of one coordinate of the given parity with
    c * c <= budget, by increasing c (0 once)."""
    c = 1 if odd else 0
    while c * c <= budget:
        yield from ((c,) if c == 0 else (c, -c))
        c += 2


def enumerate_shells(max_norm: int) -> ShellTable:
    """Exact N(2n) for all even 2n <= max_norm: N(0) = 1 and N(2n) is the
    coefficient of q^n in E4."""
    if max_norm < 2 or max_norm % 2 != 0:
        raise ValueError("max_norm must be an even integer >= 2")
    e4 = eisenstein(4, max_norm // 2 + 1)
    return ShellTable(max_norm=max_norm,
                      entries={2 * n: int(e4.coeff_q(n)) for n in range(max_norm // 2 + 1)})


def shell_vectors(norm2: int) -> list[LatticePoint]:
    """All lattice vectors of a given squared norm (intended for small shells)."""
    if norm2 < 0 or norm2 % 2 != 0:
        raise ValueError("squared norms in Lambda_8 are even and nonnegative")
    results: list[LatticePoint] = []
    for odd in (False, True):
        # (prefix, stored norm still to place, coordinate sum mod 4)
        prefixes = [((), 4 * norm2, 0)]
        for _ in range(8):
            prefixes = [(prefix + (value,), rest - value * value, (parity_sum + value) % 4)
                        for prefix, rest, parity_sum in prefixes
                        for value in _coordinates(rest, odd)]
        results += [LatticePoint(prefix) for prefix, rest, parity_sum in prefixes
                    if rest == 0 and parity_sum == 0]
    return results


# ---------------------------------------------------------------------------
# Poisson summation

# the largest tail bound, relative to the smallest shell sum, at which the
# Poisson check can still tell a wrong sum from a right one
POISSON_MAX_REL_BOUND = 1e-6


class PoissonReport(NamedTuple):
    """Both sides of the two Poisson identities; ``tail_bound`` bounds the
    truncation of every shell sum and the float roundoff of computing them."""

    alpha: float
    max_norm: int
    lhs: float
    rhs: float
    discrepancy: float
    tail_bound: float
    scaled_lhs: float
    scaled_rhs: float
    scaled_discrepancy: float

    @property
    def conclusive(self) -> bool:
        """The bound is at most ``POISSON_MAX_REL_BOUND`` times the smallest of
        the four sums; a bound as large as the sums would let any sum pass."""
        return self.tail_bound <= POISSON_MAX_REL_BOUND * min(self.lhs, self.rhs, self.scaled_lhs, self.scaled_rhs)

    @property
    def passed(self) -> bool:
        return (self.conclusive and self.discrepancy <= self.tail_bound
                and self.scaled_discrepancy <= self.tail_bound)


def _shell_sum(table: ShellTable, decay: float, n_max: int, scale: float) -> tuple[float, float]:
    """scale * sum_n N(2n) e^{-decay * n} including the origin, and a bound on
    its distance to scale times the full lattice sum: the truncation tail past
    n_max plus an a-priori roundoff bound (Higham, *Accuracy and Stability*,
    ch. 3-4).  exp turns the error of a few u in decay * n into a relative
    error of about decay * n * u; exp, the products, the sum (gamma_K) and the
    caller's difference add a few u each.  Constants are doubled.
    """
    # left to right, not by sum(), which CPython >= 3.12 compensates: one rounding on every Python
    total = roundoff = 0.0
    for norm2, cnt in table.entries.items():
        x = decay * (norm2 // 2)
        t = cnt * math.exp(-x)
        total = total + t
        roundoff = roundoff + t * (len(table.entries) + 4 + 4 * x)
    total = scale * total
    return total, scale * (_gaussian_tail(decay, n_max) + 2 * U * roundoff) + 8 * U * abs(total)


def _gaussian_tail(decay: float, n_max: int) -> float:
    """Bound on sum_{n > n_max} N(2n) e^{-decay n}, using N(2n) <= 289 n^3:
    N(2n) = 240 sigma_3(n) and sigma_3(n) <= zeta(3) n^3, with 240 zeta(3) = 288.49."""
    x = math.exp(-decay)
    first = 289.0 * (n_max + 1) ** 3 * x ** (n_max + 1)
    ratio = (1.0 + 1.0 / (n_max + 1)) ** 3 * x
    if ratio >= 1.0:
        raise ValueError("Gaussian tail does not contract")
    return first / (1.0 - ratio)


def poisson_check(alpha: float, max_norm: int = 40) -> PoissonReport:
    """Verify Poisson summation over Lambda_8 with f(x) = e^{-pi alpha |x|^2}.

    Self-dual identity: sum_L f = alpha^{-4} sum_L e^{-pi |x|^2 / alpha};
    scaled identity: sum over (1/sqrt2) Lambda_8 of f equals 2^4 times the sum
    over sqrt2 Lambda_8 of fhat.  The reported bound covers the truncation of
    both sides at max_norm and the roundoff of every sum and difference.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    table = enumerate_shells(max_norm)
    sums = []
    # scale = factor * alpha^power, formed after the sums before it: alpha^-4
    # overflows below about 1e-77, where the first sum's tail bound fails first
    for name, decay, factor, power in (
        ("e^(-pi alpha |x|^2) over Lambda_8", 2 * math.pi * alpha, 1.0, 0),
        ("e^(-pi |x|^2 / alpha) over Lambda_8", 2 * math.pi / alpha, 1.0, -4),
        ("e^(-pi alpha |x|^2) over Lambda_8 / sqrt2", math.pi * alpha, 1.0, 0),
        ("e^(-pi |x|^2 / alpha) over sqrt2 Lambda_8", 4 * math.pi / alpha, 16.0, -4),
    ):
        try:
            sums.append(_shell_sum(table, decay, max_norm // 2, factor * alpha**power))
        except ValueError:
            raise ValueError(f"alpha = {alpha!r}: the tail bound of the sum of {name} does not contract "
                             f"past norm^2 {max_norm}; take alpha nearer 1") from None
    (lhs, e1), (rhs, e2), (scaled_lhs, e3), (scaled_rhs, e4) = sums
    return PoissonReport(
        alpha=alpha,
        max_norm=max_norm,
        lhs=lhs,
        rhs=rhs,
        discrepancy=abs(lhs - rhs),
        tail_bound=e1 + e2 + e3 + e4,
        scaled_lhs=scaled_lhs,
        scaled_rhs=scaled_rhs,
        scaled_discrepancy=abs(scaled_lhs - scaled_rhs),
    )


def magic_poisson_check(max_norm: int = 16) -> tuple[float, float, float]:
    """Both sides of the scaled Poisson identity with f(x) = g(sqrt2 x).

    The left side sums g over Lambda_8 (all nonzero shells are zeros of g) and
    the right side sums ghat; both should equal 1 within the accumulated
    evaluation errors.  Returns (lhs, rhs, err_sum).
    """
    from .radial import eval_g  # lazily: radial loads numpy; the lattice does not need it

    table = enumerate_shells(max_norm)
    lhs = rhs = err = 0.0
    for norm2, cnt in table.entries.items():
        r = math.sqrt(norm2)
        gv = eval_g(r, "g")
        hv = eval_g(r, "ghat")
        lhs += cnt * gv.value
        rhs += cnt * hv.value
        err += cnt * (gv.err + hv.err)
    return lhs, rhs, err


# ---------------------------------------------------------------------------
# the density bound

class DensityBoundReport(NamedTuple):
    ratio: float  # f(0) / fhat(0), exactly 2^4
    ball_volume: float  # Vol B_8(0, 1/2) = pi^4 / 6144
    bound: float  # ratio * ball_volume
    reference: float  # pi^4 / 384

    @property
    def matches_reference(self) -> bool:
        """Exact: 16 (pi^4/6144) and pi^4/384 round alike, as 6144 = 16 * 384."""
        return self.bound == self.reference


def density_bound() -> DensityBoundReport:
    """The Cohn-Elkies bound made tight by the magic function.

    With f(x) = g(sqrt2 x) the scaling law gives fhat(y) = 2^{-4} ghat(y/sqrt2),
    so f(0)/fhat(0) = 2^4 g(0)/ghat(0), exact from ``modforms.special_values``;
    times Vol B_8(0, 1/2) = pi^4/6144 this is pi^4/384.
    """
    values = special_values()
    ratio = float(Exact(16) * values["g(0)"] / values["ghat(0)"])
    ball = math.pi**4 / 6144.0
    return DensityBoundReport(ratio=ratio, ball_volume=ball, bound=ratio * ball, reference=math.pi**4 / 384.0)
