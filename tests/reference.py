"""High-precision references for the radial functions (test-only, mpmath).

For r > sqrt 2 (y = r^2 > 2) the Laplace representation of a and b needs no
principal part subtracted:

    Im f(r) = 4 sin^2(pi y/2) int_0^oo F(t) e^{-pi y t} dt,   f = a, b,

with F the integrand of ``modforms.chart_terms``, sum c/pi^k t^j G(it) over
its t-chart terms.  The integral is split at t = 1, and each part reads the
exact order-64 series of its chart (``build_form``), so that every series is
evaluated at Im >= 1:

- the far range [1, oo) termwise, every exponent n of G, those with n <= 0
  too: c(n) int_1^oo t^j e^{-(2 pi n + pi y) t} dt = c(n) E_{-j}(2 pi n + pi y),
  by ``mpmath.expint``;
- the near range [0, 1] in the chart u = 1/t, where F dt is the u-chart
  integrand times u^-2 du: ``mpmath.quad`` of sum c/pi^k u^(j-2) G(iu)
  e^{-pi y/u} over u in [1, 20], past which the integrand is below 1e-27.

The coefficients past q^64 are left out: at t, u >= 1 a term c(n) q^n
with n > 64 is below e^{4 pi sqrt(n) - 2 pi n} < 1e-130 times its growth
constant.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath

from e8magic.modforms import build_form, chart_terms, special_values
from e8magic.qseries import EIGHTH

# the near range's cut in u, and its breakpoints for mpmath.quad
_NEAR_BREAKS = (1, 2, 4, 8, 20)


def _terms(form) -> tuple:
    """The exact order-64 series of a catalog form as (e, c(e)), e in units of q^(1/8)."""
    return tuple((e, mpmath.mpf(c.numerator) / c.denominator) for e, c in build_form(form).coeffs.items())


@lru_cache(maxsize=None)
def _series(form, u: mpmath.mpf) -> mpmath.mpf:
    """G(iu) from the exact order-64 series at 40 digits, kept per node:
    mpmath.quad reads the same nodes at every radius."""
    q = mpmath.exp(-2 * mpmath.pi * u / EIGHTH)
    return mpmath.fsum(c * q**e for e, c in _terms(form))


def im_radial(which: str, r: float) -> mpmath.mpf:
    """Im a(r) or Im b(r) (``which`` 'a' or 'b') for r > sqrt 2, at 40 digits."""
    with mpmath.workdps(40):
        y = mpmath.mpf(r) ** 2
        if not y > 2:
            raise ValueError("the unsubtracted representation needs r > sqrt 2")
        far = mpmath.fsum(mpmath.mpf(c) / mpmath.pi**k * coeff * mpmath.expint(-j, mpmath.pi * (2 * e / EIGHTH + y))
                          for form, c, k, j in chart_terms(which, "t") for e, coeff in _terms(form))

        def near(u):
            series = mpmath.fsum(mpmath.mpf(c) / mpmath.pi**k * u ** (j - 2) * _series(form, u)
                                 for form, c, k, j in chart_terms(which, "u"))
            return series * mpmath.exp(-mpmath.pi * y / u)

        return 4 * mpmath.sinpi(y / 2) ** 2 * (far + mpmath.quad(near, _NEAR_BREAKS))


def g_coefficients() -> tuple[mpmath.mpf, mpmath.mpf]:
    """(c_a, c_b) of g = c_a Im a + c_b Im b from the exact
    ``modforms.special_values``, at the working precision."""
    values = special_values()
    return tuple(mpmath.mpf(x.c.numerator) / x.c.denominator * mpmath.pi**x.k * mpmath.sqrt(2) ** x.j
                 for x in (values["c_a"], values["c_b"]))
