"""From lattice shells to the sphere packing bound pi^4/384.

Reads the shell counts of the E8 lattice off its theta series E4, cross-checks
them against 240 sigma_3(n) and, for the first four shells, against the
vectors a coordinate walk lists, verifies Poisson summation with
a Gaussian, evaluates the magic function over the shells (Poisson summation
collapses to 1 = 1 because every nonzero shell sits on a zero of g), and
prints the exact special values of g and the resulting density bound.
"""

import math

from e8magic import (
    density_bound,
    enumerate_shells,
    magic_poisson_check,
    poisson_check,
    shell_vectors,
)
from e8magic.modforms import special_values


def exact_text(value) -> str:
    """An exact record c pi^k sqrt(2)^j as text."""
    return " * ".join([str(value.c)] + [f"pi^{value.k}"] * (value.k != 0) + ["sqrt2"] * value.j)


def sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def main() -> None:
    print("== shells of the E8 lattice ==")
    table = enumerate_shells(20)
    print(" 2n   N(2n)      240 sigma_3(n)   vectors listed")
    for n in range(1, 11):
        row = f"{2 * n:3d}   {table.count(2 * n):8d}   {240 * sigma3(n):8d}"
        if n <= 4:  # the walk is quick only for the first shells
            listed = len(shell_vectors(2 * n))
            assert listed == table.count(2 * n), (2 * n, listed)
            row += f"         {listed:8d}"
        print(row)
    roots = shell_vectors(2)
    print(f"\nkissing number: {len(roots)} minimal vectors of norm sqrt2")
    print(f"example root (half-unit coords): {roots[0].coords}")

    print("\n== Poisson summation with a Gaussian, alpha = 2 ==")
    rep = poisson_check(2.0)
    print(f"sum f over L      = {rep.lhs!r}")
    print(f"alpha^-4 dual sum = {rep.rhs!r}")
    print(f"discrepancy = {rep.discrepancy:.3e}  (tail bound {rep.tail_bound:.3e})")

    print("\n== Poisson summation with the magic function ==")
    lhs, rhs, err = magic_poisson_check()
    print(f"sum over (1/sqrt2) E8 of g(sqrt2 x) = {lhs!r}")
    print(f"dual sum of ghat                    = {rhs!r}")
    print(f"(both collapse to the origin term: every shell is a zero; err ~ {err:.1e})")

    print("\n== exact special values, from the principal parts of a and b ==")
    for name, value in special_values().items():
        print(f"{name:<13} = {exact_text(value)}")

    print("\n== the density bound ==")
    rep = density_bound()
    print(f"f(0)/fhat(0)   = {rep.ratio!r}  (2^4 g(0)/ghat(0) by the scaling law, exact)")
    print(f"Vol B_8(0,1/2) = {rep.ball_volume!r}  (pi^4/6144)")
    print(f"bound          = {rep.bound!r}  (equal to pi^4/384 in floats: {rep.matches_reference})")
    print(f"pi^4/384       = {math.pi**4 / 384!r}")
    print(f"Delta_8       <= {rep.bound:.9f}  -- attained by E8, so equality holds.")


if __name__ == "__main__":
    main()
