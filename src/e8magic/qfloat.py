"""Float evaluation of exact q-series, with one bound on truncation and roundoff.

This module is the one place where the exact coefficients of a ``QSeries``
become floats.  Each series' float view (``_floats``: its exponents and
coefficients as arrays, with the reductions ``eval_at`` reads) is formed on
first use, once per series, and freed with it.  Evaluation at one or many
points of the upper half-plane (``eval_at``) and the termwise Laplace
transform along the imaginary axis (``RayPlan``, of several series and
powers in one pass) return one bound that covers both the discarded tail
and the float roundoff of the sum; ``combine`` sums such (value, bound)
pairs with coefficients.  The tail is bounded by ``_tail_majorant`` from the
coefficient growth bound |c(n)| <= C*e^{4 pi sqrt(n)} with a caller-supplied
C: since sqrt(n) is concave, one geometric series from the first omitted
term bounds it, formed in floats and enlarged by an a-priori roundoff factor
derived in its docstring, so the module needs no interval arithmetic and
imports nothing from ``rigor``.

The exact layers import this module only where they evaluate in floats
(``modforms._float_layer``, on the first call of ``eval_form``,
``verify_transform`` or ``certify.numeric_value``), so the proof path loads
neither it nor numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .qseries import EIGHTH, U, QSeries, TruncationError

__all__ = ["EvalResult", "RayPlan", "combine", "eval_at"]

# below the smallest normal double, exp and products lose their relative
# accuracy; every such term is off by at most this much times |c(n)|
_TINY = 2.0**-1022
# the smallest subnormal double: a product that underflows is off by at most
# half of it (Higham, *Accuracy and Stability*, sec. 2.1)
_ETA = 2.0**-1074
# the majorant's raise of an exp argument, relative to its size: 8u
_RAISE = 2.0**-50
# the largest 2/y whose square the tail majorant's order hint forms: (2^500)^2
# is finite
_HINT_ROOT_MAX = 2.0**500
# the height at which eval_at bounds the tail of a series evaluated above it:
# the tail majorant's products 2 pi y n stay finite there
_MAJORANT_Y_MAX = 1e300
# values of y per block of a ``RayPlan`` pass (``_blocks``): a constant, so
# that each row's sums fall in the same blocks whatever other rows its plan
# holds (a matrix-vector product rounds the last rows of a block otherwise)
_RAY_BLOCK = 256
# the factor of the argument error that RayPlan's bounds carry, 6 pi u
_SIX_PI_U = 6 * math.pi * U


class EvalResult(NamedTuple):
    """Value of the stored terms plus a bound on its distance to the full series.

    ``tail_bound`` covers both the discarded tail and the float roundoff of
    ``value``.  For an array of points both fields are arrays.
    """

    value: complex | np.ndarray
    tail_bound: float | np.ndarray


def combine(parts) -> tuple:
    """(value, bound) of the sum of coefficient * value over (coefficient,
    (value, bound)) pairs, bounding each value's error and the roundoff of
    forming each float coefficient, product and sum (a few u each, doubled for
    complex arithmetic), plus the absolute error of the products that
    underflow (a few eta per part: the real and imaginary parts of c * value
    and the scaled bound)."""
    value = scaled = magnitude = 0
    for c, (v, b) in parts:
        value = value + c * v
        scaled = scaled + abs(c) * b
        magnitude = magnitude + abs(c) * abs(v)
    roundoff = 2 * (len(parts) + 8) * U * magnitude + 4 * len(parts) * _ETA
    return value, scaled + roundoff


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the summation error factor."""
    return n * U / (1 - n * U)


def _tail_majorant(lead: int, order: int, stride: int, c: float, y: float) -> float:
    """Rigorous bound on sum C e^{4 pi sqrt(n)} e^{-2 pi n y} over the grid points
    n >= order of a series with this lead and stride, in floats.

    With n0 the first grid point at or past the order (exact, as is s =
    stride/8), sqrt(n0 + k s) <= sqrt(n0) + k s / (2 sqrt(n0)) since the
    square root is concave, so the tail is at most the geometric series
    C e^{4 pi sqrt(n0) - 2 pi n0 y} / (1 - r), r = e^{-2 pi s (y -
    1/sqrt(n0))}, which converges for y > 1/sqrt(n0) only.

    Roundoff (Higham, *Accuracy and Stability*, ch. 3-4; u = 2^-53, eta =
    2^-1074, gamma_k = k u / (1 - k u)):

    * Arguments.  p = 4 pi sqrt(n0) and q = 2 pi n0 y are each computed with
      a relative error below gamma_3 (the rounding of pi, the square root and
      two products), so x = p - q carries an error below gamma_4 (p + q).
      The head's argument is raised by 2^-50 fl(p + q) >= 8u (1 - gamma_4)(p +
      q), which covers that and the rounding of the raise itself.  The
      ratio's argument -2 pi s (y - v) reads v >= 1/sqrt(n0), 1/sqrt(n0)
      stepped outward by the factor 1 + 2^-50 over its two roundings, and
      the factor 1 - 2^-50 raises it over its own five (pi, the difference
      and three products).  Both arguments thus lie above the exact ones,
      and exp, being increasing, gives at least the exact head and ratio.
    * exp.  Under the libm assumption ``rigor`` states, exp is within 2 ulp:
      e^x <= (1 + 5u) fl(e^x) + 3 eta, the eta covering results that fall
      below 2^-1022, where an ulp is eta.
    * Ratio and division.  r <= fl(e^x) (1 + 5u) + 3 eta < fl(e^x) + 2^-50 =
      r_hi after its own rounding; then 1 - r >= fl(1 - r_hi) / (1 + u) =: d
      / (1 + u), and the quotient H = head / d adds a factor 1 + u and eta / 2.

    Together the exact tail is below C H (1 + 8u) / (1 - u)^2 + C eta (4/d +
    1).  The factor 1 + 2^-36 covers the first term with the roundings of C H
    times it and of the final sum, and the floor (C + 1)(4/d + 4) eta, itself
    rounded, covers the second, so a positive tail never comes back as 0.

    This is the one check of C and of the order for ``eval_at`` and
    ``RayPlan``: a C that is NaN, infinite or negative raises ValueError, and
    a series truncated at or below q^0 (the growth bound holds for n > 0
    only) raises TruncationError.  So does a y at which r_hi reaches 1: the
    message names the order (2/y)^2, where 1/sqrt(n0) <= y/2, if that is past
    the series' own and within the float range, and says no finite order
    suffices otherwise (r is then within 2^-49 of 1 at any order).  A head
    past the double range, just above that edge of a long series, raises
    OverflowError naming Im z and n0.
    """
    if not 0 <= c < math.inf:
        raise ValueError(f"the growth-bound constant must be finite and nonnegative, got {c!r}")
    if order <= 0:
        raise TruncationError("series truncated at or below q^0")
    n0 = (lead - (lead - order) // stride * stride) / EIGHTH  # the first grid point >= order
    ratio = math.exp(-2 * math.pi * (stride / EIGHTH) * (y - (1 + _RAISE) / math.sqrt(n0)) * (1 - _RAISE)) + _RAISE
    if ratio >= 1.0:
        hint = math.ceil((2 / y) ** 2) * EIGHTH if 2 / y <= _HINT_ROOT_MAX else 0
        raise TruncationError("geometric tail ratio >= 1; Im z too small: " + (
            f"rebuild the series to order >= {hint} grid units (q^{hint // 8})" if hint > order
            else "no finite order suffices"))
    d = 1.0 - ratio
    p, q = 4 * math.pi * math.sqrt(n0), 2 * math.pi * n0 * y
    try:
        head = math.exp(p - q + _RAISE * (p + q))
    except OverflowError:
        raise OverflowError(f"the tail bound overflows at Im z = {y!r}, first omitted grid point n = {n0!r}") from None
    return head / d * (1 + 2.0**-36) * c + (c + 1) * (4 / d + 4) * _ETA


@lru_cache(maxsize=None)
def _falling_factorials(top: int) -> tuple:
    """Per p = 1 .. top, the pairs (k, p!/(p-k)!) for k = 1 .. p, the factor a
    float, or None where it is 1 (p = 1: 1 * x is x)."""
    return tuple(tuple((k, None if p == 1 else float(math.perm(p, k))) for k in range(1, p + 1)) for p in range(1, top + 1))


def _falling_sums(inv, top: int) -> list:
    """The sums S_p = sum_{k<=p} p!/(p-k)! beta^-(k+1), each left to right, for
    p = 0 .. top, from inv = 1/beta a float or an array, each power
    beta^-(k+1) the last one times inv: int_1^oo t^p e^{-beta t} dt =
    e^{-beta} S_p.  A power that underflows is 0."""
    powers, sums = [inv], [inv]
    for row in _falling_factorials(top):
        powers.append(powers[-1] * inv)
        acc = inv
        for k, f in row:
            acc = acc + (powers[k] if f is None else f * powers[k])
        sums.append(acc)
    return sums


def _floats(series: QSeries) -> tuple:
    """The float view of a series' terms: the arrays n of exponents in units of
    q (exact) and c of coefficients rounded to nearest, then what ``eval_at``
    reads beyond them, |n|, sum |c| and the summation factor 16u + 2 gamma_N.
    It is formed on first use and kept in the series' instance dict, as
    ``functools.cached_property`` keeps a value: once per series, and freed
    with it."""
    view = series.__dict__.get("_floats")
    if view is None:
        terms = list(series._terms())
        n = np.array([e / EIGHTH for e, _ in terms])
        c = np.array([x / series.den for _, x in terms])
        view = series.__dict__["_floats"] = (n, c, np.abs(n), float(np.abs(c).sum()), 16 * U + 2 * _gamma(len(n)))
    return view


def eval_at(series: QSeries, z, bound_constant: float) -> EvalResult:
    """Evaluate sum c(n) e^{2*pi*i*n*z} over the stored terms of a series, at one z
    or an array of z.

    The caller asserts |c(n)| <= bound_constant * e^{4 pi sqrt(n)}
    for every n >= order > 0 on the support grid.  ``tail_bound`` then
    majorizes the distance from ``value`` to the full series: the tail,
    bounded once at the smallest Im z (or at ``_MAJORANT_Y_MAX`` if that
    is smaller: the majorant decreases in Im z, and past that height its
    products 2 pi y n would overflow), plus an a-priori roundoff bound at
    each point (Higham, *Accuracy and Stability*, ch. 3-4).  Each term
    carries the rounding of its coefficient, exp and product, and the error
    of a few u in the argument 2 pi n z, which exp turns into a relative
    error of about 2 pi |n z| u; the sum adds gamma_N.  Constants are
    doubled to cover the second-order terms.  A term that may fall below
    the smallest normal double adds 2^-1022 |c(n)|; at a point where every
    term is computed as 0, their true sum bounded in logs replaces these.
    """
    z = np.asarray(z, dtype=complex)
    y_min = float(z.imag.min())
    if not y_min > 0:
        raise ValueError("evaluation point must satisfy Im z > 0")
    tail = _tail_majorant(series.lead, series.order, series.stride, bound_constant, min(y_min, _MAJORANT_Y_MAX))
    n, c, abs_n, abs_c_sum, summation = _floats(series)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        terms = np.exp((2j * math.pi) * np.multiply.outer(z, n)) * c
        value = terms.sum(axis=-1)
        mag = np.abs(terms)
        floor = _TINY * abs_c_sum
        if np.count_nonzero(mag[..., :1]) < mag[..., :1].size:  # the first term is 0 somewhere
            # where every term is 0 the error is below sum |c| e^{-2 pi n_0 Im z}, bounded in
            # logs so that a caller's x^p cannot blow it up; 8u, 2^-40 and 4 eta cover roundoff
            scale = 2 * math.pi * n[0] * (1 - 8 * U if n[0] > 0 else 1 + 8 * U)
            own = np.exp(math.log(abs_c_sum) - scale * z.imag) * (1 + 2.0**-40) + 4 * _ETA
            floor = np.where(np.count_nonzero(mag, axis=-1) == 0, own, floor)
        bound = tail + (summation * mag.sum(axis=-1) + 10 * math.pi * U * np.abs(z) * (mag @ abs_n) + floor)
    if not (np.isfinite(value).all() and np.isfinite(bound).all()):
        raise OverflowError(f"series value overflows a double at Im z = {y_min!r}")
    if z.ndim == 0:
        return EvalResult(value=complex(value), tail_bound=float(bound))
    return EvalResult(value=value, tail_bound=bound)


class RayPlan:
    """sum_{n>0} c(n) int_1^oo t^p e^{-2 pi n t} e^{-pi y t} dt, termwise in closed
    form, for each of fixed rows (series, p, bound_constant), at one y >= 0 or
    an array of them; callers that evaluate the same rows again keep the plan.

    This is the Laplace transform along the ray z = it, t >= 1, of the terms
    with n > 0.  The closed forms int_1^oo t^p e^{-beta t} dt = e^{-beta} S_p
    (``_falling_sums``) read beta = pi (2n + y).  The exponent grids of all
    rows lie in one row of 2n: per block of y, one add, multiply, exp and
    divide give -beta = (-pi)(2n + y), e^{-beta} and 1/beta = -1/(-beta)
    over that row (exact rewritings of pi (2n + y) and its inverse), and the
    sums S_p and the closed form m_p of each power p are formed once for
    every row.  Each row sums m_p against its own coefficients, and one
    ``np.matmul`` per grid forms all those sums: a dot product per sum at a
    0-d y, a matrix-vector product per sum and block of an array, the
    kernels of ``ndarray.dot``.  Each row gives a pair (value, bound):
    Python floats at a 0-d y, arrays of y's shape otherwise.

    The plan holds all that does not depend on y: the row of 2n; the largest
    power; per grid its span of the row, the number of powers its rows read
    and the stack of the vectors each m_p meets there, c, |c| and 2n|c| of
    each row of power p; the picker of each row's three sums among the
    products; and per row the tail majorant times F(beta0) = S_p(beta0), the
    summation factor and the subnormal term.  The bound covers truncation
    and roundoff as in ``eval_at``: a discarded term has beta >= beta0 = 2 pi
    order, and S_p decreases in beta, so the tail is at most F(beta0)
    e^{-pi y} times the tail majorant at Im z = 1; the computed beta has a
    relative error of a few u, which e^{-beta} turns into one of about beta
    u.
    """

    def __init__(self, rows) -> None:
        grids, consts = {}, []
        for i, (series, p, bound_constant) in enumerate(rows):
            majorant = _tail_majorant(series.lead, series.order, series.stride, bound_constant, 1.0)
            factor = _falling_sums(1 / (2 * math.pi * series.order / EIGHTH), p)[p]  # F(beta0)
            n, c = _floats(series)[:2]
            n, c = n[n > 0], c[n > 0]
            abs_c = np.abs(c)
            # rows with equal exponent grids share their closed forms
            grids.setdefault(n.tobytes(), (2 * n, []))[1].append((i, p, [c, abs_c, 2 * n * abs_c]))
            consts.append((factor * majorant, 48 * U + 2 * _gamma(len(n)), _TINY * float(abs_c.sum())))
        self.top = max(p for _, p, _ in rows)  # the largest power
        # -pi and -1 are 0-d arrays, which numpy takes faster than floats
        self.neg_pi, self.minus_one = np.array(-math.pi), np.array(-1.0)
        self.grids, keys, start = [], [], 0
        for two_n, members in grids.values():
            # per power p up to the grid's largest, the vectors m_p meets: ((row, j), vector j)
            met = [[] for _ in range(1 + max(p for _, p, _ in members))]
            for i, p, vectors in members:
                met[p] += [((i, j), v) for j, v in enumerate(vectors)]
            stack = np.zeros((max(map(len, met)), len(met), len(two_n), 1))
            for p, vectors in enumerate(met):
                for k, (_, v) in enumerate(vectors):
                    stack[k, p, :, 0] = v
            # np.matmul lays out m_p times vector k of the stack at k * len(met) + p
            keys += [met[p][k][0] if k < len(met[p]) else None for k in range(len(stack)) for p in range(len(met))]
            self.grids.append((slice(start, start + len(two_n)), len(met), stack))
            start += len(two_n)
        self.two_n = np.concatenate([two_n for two_n, _ in grids.values()])
        place = {key: at for at, key in enumerate(keys) if key is not None}
        # each row's value, sum m_p |c| and sum m_p 2n|c|
        self.pick = itemgetter(*(place[i, j] for i in range(len(rows)) for j in range(3)))
        self.consts = consts  # per row: tail factor, summation factor, subnormal term

    def __call__(self, y) -> list[tuple]:
        y = np.asarray(y, dtype=float)
        if not (y[()] >= 0 if y.ndim == 0 else (y >= 0).all()):
            raise ValueError("ray Laplace transform needs y >= 0")
        blocks = []
        for yb in _blocks(y, _RAY_BLOCK):
            neg_beta = self.neg_pi * (self.two_n + yb)
            decay = np.exp(neg_beta)
            sums = _falling_sums(self.minus_one / neg_beta, self.top)
            m = np.empty((len(sums), *neg_beta.shape))
            for p, acc in enumerate(sums):
                np.multiply(decay, acc, out=m[p])
            products = []
            for span, grid_powers, stack in self.grids:
                grid = np.matmul(m[:grid_powers, ..., span].reshape(1, grid_powers, -1, stack.shape[2]), stack)
                products += grid.ravel().tolist() if y.ndim == 0 else list(grid.reshape(-1, len(yb)))
            blocks.append(self.pick(products))
        # each row's three sums, joined over the blocks into arrays of y's shape; floats at one y
        sums = [np.concatenate(column).reshape(y.shape) for column in zip(*blocks)] if y.ndim else blocks[0]
        flat = y if y.ndim else float(y)
        decay = np.exp((-math.pi) * flat)  # e^{-pi y}: numpy takes a float faster than a 0-d array
        decay = decay if y.ndim else float(decay)
        return [
            (v, t * decay + (g * b + _SIX_PI_U * (d + flat * b)) + tiny)
            for v, b, d, (t, g, tiny) in zip(sums[0::3], sums[1::3], sums[2::3], self.consts)
        ]


def _blocks(y, size: int) -> list:
    """The blocks of a pass over y: a 0-d y is one block, as a 0-d array
    (numpy takes an array operand faster than a scalar); an array is cut into
    columns of ``size`` values, so the pass's arrays stay small."""
    if y.ndim == 0:
        return [y[...]]  # a 0-d array, also of a numpy scalar
    flat = y.reshape(-1, 1)
    return [flat[lo:lo + size] for lo in range(0, y.size, size)]

