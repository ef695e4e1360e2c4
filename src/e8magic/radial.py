"""Numerical evaluation of the radial eigenfunctions a, b and the magic function g.

The +1 eigenfunction a and the -1 eigenfunction b of the 8-dimensional Fourier
transform are evaluated through their single-integral representations

    a(r) = 4i sin(pi r^2/2)^2 ( 36/(pi^3(r^2-2)) - 8640/(pi^3 r^4)
            + 18144/(pi^3 r^2)
            + int_0^oo (t^2 phi_0(i/t) - (36/pi^2)e^{2pi t}
                        + (8640/pi)t - 18144/pi^2) e^{-pi r^2 t} dt ),
    b(r) = 4i sin(pi r^2/2)^2 ( 144/(pi r^2) + 1/(pi(r^2-2))
            + int_0^oo (psi_I(it) - 144 - e^{2pi t}) e^{-pi r^2 t} dt ),

with the Laplace integrals split at t = 1.  The near range [0, 1] is the whole
integrand: it substitutes u = 1/t and integrates over u in [1, 14] by the
40-point Gauss-Legendre rule on 4 equal panels (``_panel_rule``), the same
160 nodes for every integrand.
The far range [1, oo) integrates the q-expansions termwise in closed form:
the terms with n > 0 by ``qfloat.RayPlan``, and the principal part (the
terms with n <= 0, ``modforms.principal_part``, whence the constants above)
by int_1^oo t^p e^{-pi (y + 2n) t} dt = e^{-pi (y + 2n)} times a sum of powers
of 1/(pi (y + 2n)), continued in y to every y != -2n, which is the constants
above minus their own integral over [0, 1]; so nothing is subtracted, and
nothing cancels.  Both ranges read ``modforms.chart_terms``, from
``modforms.chart_series``, the one exact expansion of each integrand.  The
removable singularities at r = 0 and r^2 = 2 are handled by series branches,
and derivatives are obtained by differentiating the representations
analytically.  Two independent oracles are provided: ``contour_eval``
integrates the defining contours directly, and ``hankel_fourier_oracle``
checks the Fourier eigenfunction relations through a numerical Hankel
transform of order 3, by the same panel rule on 32 equal panels of [0, 12].

One pass over y = r^2 evaluates one integrand, each y-dependent operation
once, by a plan compiled on the first call (``_layout``): a and b their own,
and g and ghat the targets A and B whose signs the certificates prove,
g = (pi/2160) sin^2(pi r^2/2) int_0^oo A(t) e^{-pi r^2 t} dt and ghat the
same with B, that is -c_a times the pass of A or B (c_a from
``modforms.special_values``).  The plan holds one e^{-pi (y + 2n)} per center
and one principal row per (center, power), each of y's shape, each term
reading its row by index with its coefficient folded in; one near kernel
e^{-pi y/u_j} over the 160 nodes; and the rest of the far range is one
``qfloat.RayPlan`` over all its rows (series, power), whose exponent grids
share one exp, and where phi_0, phi_-2 and phi_-4 share one grid and so one
set of closed forms, and d/dy rides along as the next power.  A single radius
runs the same code: its leaves give Python floats, so the glue between
numpy's transcendentals and dot products runs on Python floats.  The pass
runs under one ``np.errstate``, where powers of y that overflow saturate to
0 and a NaN from numpy raises ArithmeticError; ``_radius_sq`` refuses a
radius whose pi*y overflows.

Every series value comes from ``qfloat.eval_at`` (the near range over its
160 nodes at once, and the contour segments, one array of nodes per panel;
the contour keeps its panels' values, which do not depend on r) or a
``RayPlan`` (the far range and the contour's vertical ray), so each error estimate here carries their bound on
truncation and roundoff, integrated against the quadrature weights.  Each
argument has Im z >= 1/2 (iu, it with u, t >= 1; -1/w on the contour), where
q^64, the catalog's one order, suffices.

Values of a and b are purely imaginary; all functions here return the real
number with the global i factored out (g and ghat are genuinely real).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .modforms import GROWTH_BOUNDS, TARGETS, FormId, build_form, chart_terms, eval_form, principal_part, special_values
from .qfloat import RayPlan, combine

__all__ = [
    "RadialValue",
    "eval_a",
    "eval_b",
    "eval_g",
    "eval_g_deriv",
    "contour_eval",
    "hankel_fourier_oracle",
]

_PI = math.pi
_QUAD_TOL = 1e-12
_SING_BAND = 1e-3
# -pi as a 0-d array, which numpy takes faster than a float
_NEG_PI = np.array(-_PI)


class RadialValue:
    """Function value with the global i factored out, plus an error estimate.

    ``residual`` is the real part that ``contour_eval`` discards, and 0 for
    every other evaluator.  It is exactly +-0 there too: the two outer
    segments are mirror images, whose real parts cancel exactly, and the
    middle segment and the ray are purely imaginary; a nonzero residual flags
    a broken symmetry.  Fields are Python floats; one that is not finite is a
    numerical failure (ArithmeticError).
    """

    __slots__ = ("value", "err", "residual")

    def __init__(self, value: float, err: float, residual: float = 0.0) -> None:
        if not type(value) is type(err) is type(residual) is float:
            value, err, residual = float(value), float(err), float(residual)
        if not (math.isfinite(value) and math.isfinite(err)):
            raise ArithmeticError(f"radial value {value} +/- {err} is not finite")
        self.value, self.err, self.residual = value, err, residual

    def __eq__(self, other) -> bool:
        if type(other) is not RadialValue:
            return NotImplemented
        return (self.value, self.err, self.residual) == (other.value, other.err, other.residual)

    def __repr__(self) -> str:
        return f"RadialValue(value={self.value!r}, err={self.err!r}, residual={self.residual!r})"


# ---------------------------------------------------------------------------
# near range (0, 1]: substitute u = 1/t and integrate over u in [1, 14]

# the near range u = 1/t in [1, _NEAR_U_MAX] on _NEAR_PANELS equal panels: the
# integrands decay like e^{-2 pi u}, below 1e-33 past u = 14, and 4 panels agree
# with 16 to 3.3e-15 relative (tests/test_radial.py)
_NEAR_U_MAX = 14.0
_NEAR_PANELS = 4


@lru_cache(maxsize=None)
def _gauss_legendre_40() -> tuple[np.ndarray, np.ndarray]:
    """The 40-point Gauss-Legendre rule on [-1, 1]: the nodes of numpy's
    ``leggauss`` and the weights 2 / ((1 - x^2) P_40'(x)^2) at them, within
    5.2e-14 relative of a 40-digit rule (``leggauss``'s own, from derivatives
    taken before its Newton step, are off by 7.0e-13 at the ends).  Made on
    the first quadrature, so importing loads neither numpy.polynomial nor
    LAPACK: in a fresh process that first call takes about 3.7 ms on a
    2-vCPU VM, 2.7 ms of it the import of numpy.polynomial and the rest the
    eigenvalue solve."""
    legendre = np.polynomial.legendre
    x = legendre.leggauss(40)[0]
    return x, 2 / ((1 - x) * (1 + x) * legendre.legval(x, legendre.legder([0] * 40 + [1])) ** 2)


def _panel_rule(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes, in increasing order, and the weights of the 40-point rule on
    ``panels`` equal panels of [lo, hi]."""
    x0, w0 = _gauss_legendre_40()
    h = 0.5 * (hi - lo) / panels  # half a panel
    nodes = (lo + 2 * h * np.arange(panels)[:, None] + h * (x0 + 1.0)).ravel()
    return nodes, np.tile(h * w0, panels)


@lru_cache(maxsize=None)
def _near_quadrature(which: str) -> tuple[np.ndarray, np.ndarray, float]:
    """-pi/u_j at the nodes u_j of ``_panel_rule`` on [1, _NEAR_U_MAX], the
    same for every integrand, y-independent weights w_j * f(u_j) / u_j^2 for
    the near-range integral of the integrand ``which`` (a, b, A or B), the
    whole integrand over t in [0, 1], and the weighted sum of the series
    bounds, which bounds the error of the series for every y >= 0 (the kernel
    e^{-pi y/u} is at most 1).  The u-chart integrand sums the terms
    c/pi^k u^p F(iu) of ``modforms.chart_terms``: one for a and b, two for A
    and B, each one ``eval_form`` call over all the nodes."""
    u, weights = _panel_rule(1.0, _NEAR_U_MAX, _NEAR_PANELS)
    parts = [(c / _PI**k, eval_form(form, 1j * u), u ** (2 - p)) for form, c, k, p in chart_terms(which, "u")]
    values = sum(scale * series.value.real / u_pow for scale, series, u_pow in parts)
    bounds = sum(abs(scale) * series.tail_bound / u_pow for scale, series, u_pow in parts)
    return -_PI / u, weights * values, float(np.dot(weights, bounds))


def _float(x):
    """x as a Python float where it is one number (a float or a numpy scalar),
    an array as it is: the glue of a one-radius pass runs on Python floats,
    and numpy only forms its transcendentals, whose bits libm would change."""
    return float(x) if isinstance(x, float) else x


def _principal_part(terms: tuple) -> tuple:
    """The principal terms ((k, p, n), C) of ``modforms.principal_part``,
    C/pi^k t^p q^n, integrated over [1, oo) and continued in y:
    int_1^oo t^p e^{-pi x t} dt = e^{-pi x} sum_{j<=p} p!/(p-j)! (pi x)^-(j+1)
    with x = y + 2n, for every x != 0.  Times sin^2(pi y/2) each term is a
    sum of prefactors (coefficient, center, power) of C p!/(p-j)! / pi^(k+j+1)
    e^{-pi x} sin^2(pi y/2) / x^(j+1), center = -2n, each coefficient
    rounded once from its exact rational, in the order of the terms, then of j."""
    return tuple((float(c * math.perm(p, j)) / _PI ** (k + j + 1), float(-2 * n), j + 1)
                 for (k, p, n), c in terms for j in range(p + 1))


# ---------------------------------------------------------------------------
# singular prefactors: stable ratios of sin(pi y/2)^2

# Taylor coefficients s_1 .. s_8 of sin^2(pi x / 2) = sum_k s_k x^{2k}
_S2_COEFFS = [(-1) ** (k + 1) * 2 ** (2 * k - 1) * (_PI / 2) ** (2 * k) / math.factorial(2 * k) for k in range(1, 9)]


def _sines(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(pi y/2) and its d/dy (pi/2) sin(pi y), both at y reduced modulo 2
    to [-1, 1] for accuracy near shells; a and b share them.  A Python float
    y gives Python floats."""
    x = y - 2.0 * _float(np.rint(0.5 * y))
    s = _float(np.sin(0.5 * _PI * x))
    return s * s, 0.5 * _PI * _float(np.sin(_PI * x))


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x^k rounded as an array's ``**`` rounds it, a product up to k = 2 (so a
    Python float stays one, and overflows to inf where ``**`` would raise)."""
    return x if k == 1 else x * x if k == 2 else _float(np.power(x, k))


def _quotient(x: np.ndarray, s2: np.ndarray, s2_prime: np.ndarray, power: int, deriv: bool) -> np.ndarray:
    """sin^2(pi y/2) / x^power, or its d/dy, from the sines at y and x = y - center.
    Where a power of x overflows the quotient, below |x|^-power, saturates to 0."""
    if deriv:
        return s2_prime / _power(x, power) - power * s2 / _power(x, power + 1)
    return s2 / _power(x, power)


def _ratio(y: np.ndarray, sines, center: float, power: int, deriv: bool) -> np.ndarray:
    """Stable sin^2(pi y/2) / (y - center)^power (center in {0, 2}), or its d/dy,
    given ``sines`` = ``_sines(y)``.

    Away from the singularity the direct quotient is used; inside the band the
    power series of sin^2(pi x/2) in x = y - center takes over (the reduction
    makes x the distance to the nearest even integer, which equals y - center
    exactly when y is near center); only a y with points on both sides is
    split by a mask.  A Python float y gives a Python float.
    """
    x = y - center
    near = abs(x) < _SING_BAND
    if near is False or not np.count_nonzero(near):  # near is a Python bool at one radius
        return _quotient(x, *sines, power, deriv)
    xs = x if near is True or near.all() else x[near]
    acc = 0.0
    for k, s_k in enumerate(_S2_COEFFS, start=1):
        e = 2 * k - power
        if deriv:
            acc = acc + (s_k * e * _power(xs, e - 1) if e != 0 else 0.0)
        else:
            acc = acc + s_k * _power(xs, e)
    if xs is x:
        return acc
    out = np.empty_like(x)
    far = ~near
    out[far] = _quotient(x[far], *(s[far] for s in sines), power, deriv)
    out[near] = acc
    return out


def _principal(y: np.ndarray, sines, decay: np.ndarray, center: float, power: int, deriv: bool) -> np.ndarray:
    """e^{-pi x} sin^2(pi y/2) / x^power at x = y - center, given sines =
    ``_sines(y)`` and decay = e^{-pi x}, or its d/dy e^{-pi x} (Q' - pi Q),
    from the stable ``_ratio`` Q.  A Python float y gives a Python float."""
    quotient = _ratio(y, sines, center, power, False)
    if deriv:
        quotient = _ratio(y, sines, center, power, True) - _PI * quotient
    return decay * quotient


# ---------------------------------------------------------------------------
# core vectorized evaluator (y = r^2)

# the integrand of each evaluator name: a and b their own, g and ghat the
# targets A and B of the certificates
_FUNCTIONS = {"a": "a", "b": "b", "g": "A", "ghat": "B"}


@lru_cache(maxsize=None)
def _layout(name: str, deriv: bool) -> tuple:
    """The y-independent plan of one pass over y for the integrand ``name``
    (a, b, A or B): the centers of the principal terms, one
    e^{-pi (y - center)} each, and the rows (center, power) of the principal
    prefactors of ``_principal`` (d/dy of each in a derivative pass), one per
    pair that a term reads, so that at one radius each row is one Python
    float; the ``RayPlan`` of the far-range rows (series, power, C); the
    near-range exponents -pi/u_j; the prefactors (coefficient, row); per d
    its far-range parts (coefficient, ray row), its near-range weights (those
    of ``_near_quadrature`` times (-pi/u_j)^d) and near-range bound times
    pi^d; and the scale of the pass, whose sum is Im f / 4 for the integrand f: 4 for a and b, and -4 c_a for g and ghat,
    which are c_a Im a +- c_b Im b = -c_a times the same sum over A and B
    (c_b / c_a = 36/pi^2 is the b weight of ``TARGETS``).
    Each row is numbered when a term first reads it; rows are computed
    independently, so their order moves no bit."""
    neg_pi_u, weights, near_err = _near_quadrature(name)
    rays, integrals = [], []
    for d in (0, 1) if deriv else (0,):
        far = []
        for form, c, k, j in chart_terms(name, "t"):
            far.append((c / _PI**k * (-_PI) ** d, len(rays)))
            rays.append((build_form(form), j + d, GROWTH_BOUNDS[form]))
        integrals.append((tuple(far), weights * neg_pi_u**d, near_err * _PI**d))
    rows = {}
    prefactors = tuple((c, rows.setdefault((center, power), len(rows)))
                       for c, center, power in _principal_part(principal_part(name)))
    centers = tuple(dict.fromkeys(center for center, _ in rows))
    scale = -4.0 * float(special_values()["c_a"]) if name in TARGETS else 4.0
    return centers, tuple(rows), RayPlan(rays), neg_pi_u, prefactors, tuple(integrals), scale


def _g(y: np.ndarray, which: str, deriv: bool) -> tuple[np.ndarray, np.ndarray]:
    """Im a, Im b, g or ghat (``which``) as a function of y = r^2, or its d/dy,
    and the bound on the error of its series part.

    Each is a scale times sin^2(pi y/2) times the near range of its integrand
    (a, b, A or B), the whole integrand over t in [0, 1], and the far range,
    its terms with n > 0 over [1, oo), plus the principal part
    (``modforms.principal_part``) times sin^2(pi y/2) over [1, oo) in closed
    form, continued in y (``_principal_part``): nothing is subtracted, so
    nothing cancels.  The near range is integrated by quadrature in the
    u = 1/t chart (its bound holds for every y >= 0: the kernel is at most 1,
    its d/dy at most pi), and the far range comes from ``RayPlan``.  One
    pass, laid out by ``_layout``, forms one e^{-pi (y - center)} per center
    and one principal row per (center, power), each of y's shape; the near
    kernel e^{-pi y/u_j}, y's shape times the 160 nodes, with one dot product
    per d; and one ``RayPlan`` call for the far range, with d/dy of the
    integral alongside it.  The assembly is a few flat loops over the
    (coefficient, row) pairs of the layout.  At one radius (y a numpy
    scalar) the leaves ``_sines``, ``_principal``, ``_ratio`` and ``_power``,
    the quadrature sums and ``RayPlan`` give Python floats, so the sums,
    ``combine`` and the assembly run on Python floats, and numpy forms only
    the transcendentals and the dot products; the result is a numpy scalar,
    as a grid's is an array.

    The pass runs under one ``np.errstate``: a power of y that overflows
    saturates its quotient to 0, and an invalid operation of numpy (a NaN)
    raises ArithmeticError where it happens.  A radius whose pi*y overflows
    never gets here: ``_radius_sq`` refuses it with ArithmeticError.
    """
    if which not in _FUNCTIONS:
        raise ValueError("which must be one of 'a', 'b', 'g', 'ghat'")
    centers, rows, far_plan, neg_pi_u, prefactors, integrals, scale = _layout(_FUNCTIONS[which], deriv)
    y_glue = _float(y)  # at one radius a Python float
    sines = s2, s2_prime = _sines(y_glue)
    try:
        with np.errstate(over="ignore", invalid="raise"):
            decay = {center: _float(np.exp(_NEG_PI * (y_glue - center))) for center in centers}
            principal = [_principal(y_glue, sines, decay[center], center, power, deriv) for center, power in rows]
            ray = far_plan(y)
            kernel = np.multiply.outer(y, neg_pi_u)
            np.exp(kernel, out=kernel)
            integral = []  # per d: (value, bound) of the integral
            for far, near_w, near_err in integrals:
                value, bound = combine([(c, ray[row]) for c, row in far])
                integral.append((_float(kernel.dot(near_w)) + value, near_err + bound))
            pref = 0
            for c, i in prefactors:
                pref = pref + c * principal[i]
            value, err = integral[0]
            if deriv:
                d_value, d_err = integral[1]
                value, err = pref + s2_prime * value + s2 * d_value, abs(s2_prime) * err + s2 * d_err
            else:
                value, err = pref + s2 * value, s2 * err
    except FloatingPointError as exc:
        raise ArithmeticError(f"invalid operation in a radial kernel at y = r^2 up to {np.max(y):.6g}: {exc}") from None
    return np.float64(scale * value), np.float64(abs(scale) * err)


def _eval_err(value: float, series_err: float) -> float:
    """Error estimate: quadrature tolerance, the series bound, and roundoff."""
    return 4.0 * _QUAD_TOL + series_err + 1e-13 * (1.0 + abs(value))


def _radius_sq(r: float) -> np.float64:
    """y = r^2 as a numpy scalar, the 0-d y of a pass, for r >= 0 with y and pi y finite."""
    y = float(r) * float(r)
    if not (r >= 0 and math.isfinite(y)):
        raise ValueError("r must be nonnegative with a finite square")
    if not math.isfinite(_PI * y):
        raise ArithmeticError(f"y = r^2 = {y:.6g} overflows a radial kernel: pi y is not a double")
    return np.float64(y)


def _radial(which: str, r: float) -> RadialValue:
    value, err = map(float, _g(_radius_sq(r), which, False))
    return RadialValue(value, _eval_err(value, err))


def eval_a(r: float) -> RadialValue:
    """Im a(r) from the single-integral representation (a(r) = i * value)."""
    return _radial("a", r)


def eval_b(r: float) -> RadialValue:
    """Im b(r) from the single-integral representation (b(r) = i * value)."""
    return _radial("b", r)


def _check_g(which: str) -> None:
    if which not in ("g", "ghat"):
        raise ValueError("which must be 'g' or 'ghat'")


def eval_g(r: float, which: str = "g") -> RadialValue:
    """The magic function g(r) (or ghat), a real number."""
    _check_g(which)
    return _radial(which, r)


def eval_g_deriv(r: float, which: str = "g") -> RadialValue:
    """d/dr of g or ghat, by analytic differentiation (d/dr = 2r d/dy)."""
    _check_g(which)
    if r == 0:
        raise ValueError("r must be positive")
    dy, err = map(float, _g(_radius_sq(r), which, True))
    value = 2.0 * float(r) * dy
    return RadialValue(value, (1 + 2 * r) * _eval_err(value, err))


# ---------------------------------------------------------------------------
# oracle 1: the defining contour integrals

# bisection depth at which an unconverged contour panel is a numerical failure
_MAX_DEPTH = 24
# panels kept by ``_panel_series``, about 1.8 kB each: four radii in [0.69, 3.1] use 186
_PANEL_MEMO_SIZE = 384

# the finite segments z = cusp + s dz, s in [0, 1], from each cusp to i, as
# (cusp, dz, weight in the sum).  Gauss-Legendre nodes are interior, so no
# segment is evaluated at its cusp w = 0: the smallest node, on a panel at
# depth _MAX_DEPTH, is about 2.6e-11.
_SEGMENTS = ((-1.0, 1.0 + 1j, 1.0), (1.0, -1.0 + 1j, 1.0), (0.0, 1j, -2.0))


def _adaptive_gl(f, lo: float, hi: float, tol: float) -> tuple:
    """Adaptive Gauss-Legendre quadrature over [lo, hi].

    ``f(x)`` returns the integrand (real or complex) at an array of nodes and
    a bound on its error there.  A panel is accepted, as its two halves, once
    the degree-40 estimates of the halves sum to its own within tol; a panel
    still unconverged at depth ``_MAX_DEPTH`` raises ArithmeticError.  Returns
    the integral and the integrated bound, summed over the accepted halves in
    increasing order, and the sum of their estimates' changes.
    """
    x0, w0 = _gauss_legendre_40()

    def panel(a: float, b: float):
        half = 0.5 * (b - a)
        values, bounds = f(a + half * (x0 + 1.0))
        return half * np.dot(w0, values), half * np.dot(w0, bounds)

    integral = bound = err = 0.0
    stack = [(lo, hi, panel(lo, hi)[0], 0)]
    while stack:  # depth first, left half first: panels come out in order
        a, b, coarse, depth = stack.pop()
        m = 0.5 * (a + b)
        (left, left_bound), (right, right_bound) = panel(a, m), panel(m, b)
        delta = abs(left + right - coarse)
        if delta < tol:
            integral, bound, err = integral + left + right, bound + left_bound + right_bound, err + delta
        elif depth >= _MAX_DEPTH:
            raise ArithmeticError(f"quadrature failed to converge on panel [{a!r}, {b!r}]")
        else:
            stack += [(m, b, right, depth + 1), (a, m, left, depth + 1)]
    return integral, bound, err


@lru_cache(maxsize=_PANEL_MEMO_SIZE)
def _panel_series(form: FormId, cusp: float, dz: complex, nodes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """F(-1/w) and its bound at the nodes s of one panel of the contour segment
    cusp + s dz, w = z - cusp, kept for the panels of recent calls."""
    s = np.frombuffer(nodes)
    series = eval_form(form, -1.0 / ((cusp + s * dz) - cusp))
    series.value.flags.writeable = series.tail_bound.flags.writeable = False
    return series.value, series.tail_bound


@lru_cache(maxsize=None)
def _ray_plan(form: FormId) -> RayPlan:
    """The one-row ``RayPlan`` of the contour's vertical ray: F(it) itself, power 0."""
    return RayPlan(((build_form(form), 0, GROWTH_BOUNDS[form]),))


def contour_eval(r: float, which: str = "a") -> RadialValue:
    """Independent oracle: quadrature of the defining four-segment contours.

    The three finite segments (-1 -> i, 1 -> i, 0 -> i) are parameterized as
    straight lines; the series are always evaluated at arguments with large
    imaginary part by routing through the S-transformation laws, one array of
    quadrature nodes per call: with w = z - cusp the integrand is
    phi_0(-1/w) w^2 for a and psi_S(-1/w) w^2 = psi_I(w) for b, which is
    psi_T(z) on the outer segments (psi_T has period 2) and psi_I(z) on the
    middle one.  The series factor at a panel's nodes does not depend on r
    and comes from ``_panel_series``; w^2 e^{pi i r^2 z} dz is formed per call.
    """
    if which not in ("a", "b"):
        raise ValueError("which must be 'a' or 'b'")
    y = _radius_sq(r)
    form = FormId.PHI_0 if which == "a" else FormId.PSI_S
    finite, quad_err, series_err = 0j, 0.0, 0.0
    for cusp, dz, weight in _SEGMENTS:
        def f(s: np.ndarray):
            z = cusp + s * dz
            w = z - cusp
            value, bound = _panel_series(form, cusp, dz, s.tobytes())
            scale = w**2 * np.exp(1j * _PI * y * z) * dz
            return value * scale, bound * np.abs(scale)

        integral, bound, err = _adaptive_gl(f, 0.0, 1.0, 1e-13)
        finite = finite + weight * complex(integral)
        quad_err = quad_err + abs(weight) * err
        series_err = series_err + abs(weight) * float(bound)
    # b's three finite segments take the opposite sign to a's, and its ray
    # piece the same: with that orientation b's contour deforms onto the
    # imaginary axis as 4i sin^2(pi r^2/2) int psi_I(it) e^{-pi r^2 t} dt, the
    # representation behind eval_b (fixed by b'(sqrt 2) = 2 sqrt(2) pi i and
    # ghat >= 0).  The sign is typed here, not derived.
    # int_i^{i oo} f(z) e^{pi i y z} dz = i int_1^oo f(it) e^{-pi y t} dt
    (ray, ray_bound), = _ray_plan(form)(y)
    total = (finite if which == "a" else -finite) + 2.0 * 1j * ray
    series_err = series_err + 2 * ray_bound
    err = quad_err + series_err + 1e-12 * (1.0 + abs(total))
    return RadialValue(value=total.imag, err=err, residual=total.real)


# ---------------------------------------------------------------------------
# oracle 2: numerical Hankel transform (8-dimensional radial Fourier transform)

_HANKEL_R_MAX = 12.0
_HANKEL_PANELS = 32
# the s at which the scale 2 pi s^-3 and the error term's s^4 are doubles
_HANKEL_S_MIN, _HANKEL_S_MAX = (2 * _PI / np.finfo(float).max) ** (1 / 3), np.finfo(float).max ** 0.25


@lru_cache(maxsize=None)
def _hankel_grid() -> tuple[np.ndarray, np.ndarray]:
    """The tabulation nodes r_j, those of ``_panel_rule`` on [0, _HANKEL_R_MAX],
    and the rule's weights times r_j^4."""
    grid, weights = _panel_rule(0.0, _HANKEL_R_MAX, _HANKEL_PANELS)
    return grid, weights * grid**4


@lru_cache(maxsize=None)
def _hankel_table(which: str) -> tuple[np.ndarray, np.ndarray]:
    """The grid and the function on it, by one pass of ``_g``."""
    grid = _hankel_grid()[0]
    return grid, _g(grid**2, which, False)[0]


# J_3 takes its method from x alone; the thresholds and the start order are
# accuracy constants: below x = 2 the power series' 13th term is under 2e-21,
# Miller's recurrence from order 60 agrees with J_3 to 5e-16 on [2, 25] (from
# order 52 only to 2e-14), and from x = 25 on the Hankel expansion's terms
# fall below 2^-56 within 20 terms.
_J3_SERIES_BELOW = 2.0
_J3_ASYMPTOTIC_FROM = 25.0
_J3_MILLER_START = 60
# 1/(k! (k+3)!), the power series of J_3(x)/(x/2)^3 in -x^2/4 (DLMF 10.2.2)
_J3_SERIES = tuple(1 / (math.factorial(k) * math.factorial(k + 3)) for k in range(12))


def _j3_hankel_coeffs() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(-1)^k a_2k(3) and (-1)^k a_2k+1(3), the coefficients of P and Q in
    J_3's Hankel expansion (DLMF 10.17.1 and 10.17.3), from
    a_k = a_k-1 (36 - (2k - 1)^2) / (8k), up to the first term a_k / x^k
    below 2^-56 at x = 25."""
    coeffs, a, k = [], 1.0, 0
    while abs(a) >= 2.0**-56 * _J3_ASYMPTOTIC_FROM**k:
        coeffs.append((-1) ** (k // 2) * a)
        k += 1
        a *= (36 - (2 * k - 1) ** 2) / (8 * k)
    return tuple(coeffs[0::2]), tuple(coeffs[1::2])


_J3_P, _J3_Q = _j3_hankel_coeffs()


def _horner(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k by Horner's rule."""
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _bessel_j3(x: np.ndarray) -> np.ndarray:
    """J_3(x) for x >= 0 to within about 5e-16, in numpy alone.

    Below x = 2 the power series (DLMF 10.2.2), which gives J_3(0) = 0
    exactly.  From 2 to 25 Miller's backward recurrence (DLMF §3.6(vi)):
    J_n-1 = (2n/x) J_n - J_n+1 from J_61 = 0, J_60 = 1 down to J_0, scaled by
    the identity J_0 + 2(J_2 + J_4 + ...) = 1 (DLMF §10.12).  From 25 on the
    Hankel expansion (DLMF 10.17.3), with cos and sin of x - 7 pi/4 taken from
    cos x and sin x so that no rounding of the phase enters.
    """
    out = np.empty_like(x)
    small = x < _J3_SERIES_BELOW
    large = x >= _J3_ASYMPTOTIC_FROM
    mid = ~(small | large)

    half = 0.5 * x[small]
    out[small] = half**3 * _horner(_J3_SERIES, -half * half)

    inv = 2.0 / x[mid]
    j_next, j = np.zeros_like(inv), np.ones_like(inv)
    even, scratch = np.zeros_like(inv), np.empty_like(inv)
    for n in range(_J3_MILLER_START, 0, -1):  # j holds J_n, up to one common factor
        if n % 2 == 0:
            even += j
        if n == 3:
            j3 = j.copy()
        np.multiply(inv, j, out=scratch)
        scratch *= n
        np.subtract(scratch, j_next, out=j_next)
        j_next, j = j, j_next
    even *= 2.0
    even += j
    out[mid] = j3 / even

    xl = x[large]
    cos, sin, t = np.cos(xl), np.sin(xl), 1.0 / (xl * xl)
    p, q = _horner(_J3_P, t), _horner(_J3_Q, t) / xl
    out[large] = (p * (cos - sin) - q * (cos + sin)) / np.sqrt(_PI * xl)
    return out


def hankel_fourier_oracle(which: str, s: float) -> RadialValue:
    """Numerically Fourier-transform the tabulated radial function.

    For a radial function f on R^8, fhat(s) = 2 pi s^{-3} int_0^oo f(r)
    J_3(2 pi r s) r^4 dr, a Hankel transform of order 3.  Non-rigorous
    diagnostic: the 40-point Gauss-Legendre rule on 32 equal panels of
    [0, 12], over the function cached at its nodes, with the truncation
    beyond r = 12 negligible because all four functions decay faster than
    e^{-2 pi r}, and J_3 from ``_bessel_j3`` (DLMF 10.2.2, §3.6(vi) and
    10.17.3 by range), which needs numpy alone.  An s outside
    [_HANKEL_S_MIN, _HANKEL_S_MAX), nan included, raises ValueError first.
    """
    if not _HANKEL_S_MIN <= s < _HANKEL_S_MAX:
        raise ValueError(f"s must lie in [{_HANKEL_S_MIN!r}, {_HANKEL_S_MAX!r}), where 2 pi s^-3 and s^4 are doubles")
    grid, vals = _hankel_table(which)
    integral = float(np.dot(_hankel_grid()[1], vals * _bessel_j3(2 * _PI * grid * s)))
    value = 2 * _PI * s ** (-3) * integral
    # the panel rule is within 2e-13 relative of Simpson's on 12,001 points, far inside err
    err = 1e-8 * (1.0 + abs(value)) + 1e-9 * max(1.0, s) ** 4
    return RadialValue(value=value, err=err)
