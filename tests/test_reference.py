"""The radial values and the principal part's closed form against
high-precision mpmath references (``reference.py``)."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import reference
from e8magic import radial
from e8magic.radial import eval_a, eval_b, eval_g

U = 2.0**-53


@pytest.mark.parametrize("r", [1.5, 3.0, 4.5, 5.5])
def test_radial_values_match_the_40_digit_reference(r):
    """Im a, Im b, g and ghat agree with the 40-digit unsubtracted Laplace
    integrals of the exact order-64 series to 1e-8 relative, where |a| falls
    to 1e-18 and |g| to 2e-17 (measured worst 2.8e-10, Im b, g and ghat
    at r = 5.5).  g and ghat are formed from a and b, c_a Im a +- c_b Im b, so
    the reference does not share the evaluator's path through A and B."""
    a, b = (reference.im_radial(which, r) for which in "ab")
    with mpmath.workdps(40):
        c_a, c_b = reference.g_coefficients()
        g, ghat = c_a * a + c_b * b, c_a * a - c_b * b
    for name, got, ref in (("a", eval_a(r), a), ("b", eval_b(r), b), ("g", eval_g(r), g),
                           ("ghat", eval_g(r, "ghat"), ghat)):
        assert abs(got.value - ref) <= 1e-8 * abs(ref), (name, got.value, ref)


def _band_and_grid(center: float) -> list[float]:
    """y on (0, 40]: either side of and inside the bands |y| < _SING_BAND and
    |y - 2| < _SING_BAND, one ulp either side of each edge, and a grid;
    y = center, where the closed form is a limit, left out."""
    band = radial._SING_BAND
    ys = [math.nextafter(e, to) for c in (0.0, 2.0) for e in (c - band, c + band) for to in (0.0, 40.0) if e > 0]
    ys += [c + d for c in (0.0, 2.0) for d in (-5e-4, -1e-7, 1e-7, 5e-4, 2e-3) if c + d > 0]
    ys += [float(y) for y in np.linspace(0.0, 40.0, 401)[1:]]
    return [y for y in ys if y != center]


def _magnitude(p: int, beta: mpmath.mpf) -> mpmath.mpf:
    """e^{-beta} sum_j p!/(p-j)! |beta|^-(j+1): the closed form's terms in magnitude."""
    return mpmath.exp(-beta) * mpmath.fsum(mpmath.factorial(p) / mpmath.factorial(p - j) / abs(beta) ** (j + 1)
                                           for j in range(p + 1))


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("deriv", [False, True])
def test_principal_closed_form_matches_50_digits(p, n, deriv):
    """One principal term t^p q^n over [1, oo), continued in y, as the pass
    forms it (``_principal_part``'s prefactors, each a ``_principal`` row)
    against 50-digit sin^2(pi y/2) E_{-p}(pi x), x = y + 2n, and its d/dy
    (pi/2) sin(pi y) E_{-p}(pi x) - pi sin^2(pi y/2) E_{-p-1}(pi x).  The
    error is within 6u (1 + pi |x|) of the terms' magnitude, e^{-pi x} read
    with a relative error of about pi |x| u (measured worst 3.4)."""
    center = -2.0 * n
    terms = radial._principal_part((((0, p, Fraction(n)), Fraction(1)),))
    with mpmath.workdps(50):
        for y in _band_and_grid(center):
            sines, decay = radial._sines(y), math.exp(-math.pi * (y - center))
            got = sum(c * radial._principal(y, sines, decay, center, power, deriv) for c, _, power in terms)
            yy = mpmath.mpf(y)
            beta, s2 = mpmath.pi * (yy + 2 * n), mpmath.sinpi(yy / 2) ** 2
            if deriv:
                ref = mpmath.pi / 2 * mpmath.sinpi(yy) * mpmath.expint(-p, beta) - mpmath.pi * s2 * mpmath.expint(
                    -p - 1, beta)
                scale = mpmath.pi / 2 * abs(mpmath.sinpi(yy)) * _magnitude(p, beta) + mpmath.pi * s2 * _magnitude(
                    p + 1, beta)
            else:
                ref, scale = s2 * mpmath.expint(-p, beta), s2 * _magnitude(p, beta)
            assert abs(got - ref) <= 6 * U * (1 + math.pi * abs(y - center)) * scale, (y, got, ref)
