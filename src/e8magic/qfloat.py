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
C: its terms are summed in floats and enlarged by an a-priori roundoff
factor derived in its docstring, so the module needs no interval arithmetic
and imports nothing from ``rigor``.

The exact layers import this module only where they evaluate in floats
(``modforms._float_layer``, on the first call of ``eval_form``,
``verify_transform`` or ``certify.numeric_value``), so the proof path loads
neither it nor numpy.
"""

from __future__ import annotations

import math
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
# leading tail terms the majorant bounds one by one before its geometric part
_MAX_EXPLICIT_TERMS = 100_000
# the majorant's raise of an exp argument, relative to its size: 8u
_RAISE = 2.0**-50
# the largest 4/y whose square the tail majorant forms: (2^511)^2 = 2^1022 is
# finite; far below that height the majorant already needs too many terms
_SPLIT_ROOT_MAX = 2.0**511
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
    n >= order of a series with this lead and stride, summed in floats.

    The tail splits at n* = max(n0, (4/y)^2 + 1), past which 4 pi sqrt(n) <=
    pi y n: the N grid points n0 <= n < n* are summed term by term, the rest
    as the geometric series C e^{-pi y n_N} / (1 - r), r = e^{-pi y s}, from
    the first grid point n_N >= n*, with s = stride/8.  The grid start and N
    are integers; n, s and n/8 are exact floats.

    Roundoff (Higham, *Accuracy and Stability*, ch. 3-4; u = 2^-53, eta =
    2^-1074, gamma_k = k u / (1 - k u)):

    * Arguments.  p = 4 pi sqrt(n) and q = 2 pi n y are each computed with a
      relative error below gamma_3 (the rounding of pi, the square root and
      two products), so x = p - q carries an error below gamma_4 (p + q),
      which exp would turn into a relative error of about (p + q) u.  Each
      argument is raised by 2^-50 fl(p + q) >= 8u (1 - gamma_4)(p + q) before
      exp; that covers gamma_4 (p + q) and the rounding of the raise itself,
      so every argument lies above the exact one and exp, being increasing,
      gives at least the exact term.  The geometric part's arguments -pi y
      n_N and -pi y s are raised the same way, by the factor 1 - 2^-50.
    * exp.  Under the libm assumption ``rigor`` states, exp is within 2 ulp:
      e^x <= (1 + 5u) fl(e^x) + 3 eta, the eta covering results that fall
      below 2^-1022, where an ulp is eta.
    * Ratio and division.  r <= fl(e^x) (1 + 5u) + 3 eta < fl(e^x) + 2^-50 =
      r_hi after its own rounding; then 1 - r >= fl(1 - r_hi) / (1 + u) =: d
      / (1 + u), and the quotient first / d adds a factor 1 + u and eta / 2.
    * The sum of the N + 1 nonnegative parts in order has a relative error
      below gamma_N (sums are exact when they underflow); N <= 10^5 gives
      gamma_N < 1.12e-11.

    Together the exact tail is below C S (1 + 8u + gamma_N) / (1 - u)^2 +
    C eta (3N + 4/d + 1) for the computed sum S.  The factor 1 + 2^-36 >=
    1 + 1.45e-11 covers the first term with the roundings of C S times it and
    of the final sum, and the floor (C + 1)(4N + 4/d + 4) eta, itself rounded,
    covers the second, so a positive tail never comes back as 0.  A tail that
    needs more than ``_MAX_EXPLICIT_TERMS`` explicit terms, whose split point
    (4/y)^2 passes the float range, or whose r_hi reaches 1, raises
    TruncationError; a C that is NaN, infinite or negative raises ValueError.
    This is the one check of C for ``eval_at`` and ``RayPlan``.
    """
    if not 0 <= c < math.inf:
        raise ValueError(f"the growth-bound constant must be finite and nonnegative, got {c!r}")
    if not 4 / y <= _SPLIT_ROOT_MAX:
        raise TruncationError(
            f"Im z = {y!r} is too small for the tail majorant: its split point "
            "(4 / Im z)^2 passes the float range, so no finite order suffices"
        )
    e0 = lead - (lead - order) // stride * stride  # first grid point >= order, in 1/8 units
    n_star = max(e0 / EIGHTH, (4 / y) ** 2 + 1)
    if n_star * EIGHTH > e0 + _MAX_EXPLICIT_TERMS * stride:
        hint = math.ceil(n_star) * EIGHTH
        raise TruncationError(
            "tail majorant needs too many explicit terms at this point; "
            f"rebuild the series to order >= {hint} grid units (q^{hint // 8})"
        )
    explicit = (math.ceil(n_star * EIGHTH) - e0 + stride - 1) // stride
    total = 0.0
    for e in range(e0, e0 + explicit * stride, stride):
        n = e / EIGHTH
        p, q = 4 * math.pi * math.sqrt(n), 2 * math.pi * n * y
        total += math.exp(p - q + _RAISE * (p + q))
    ratio = math.exp(-math.pi * y * (stride / EIGHTH) * (1 - _RAISE)) + _RAISE
    if ratio >= 1.0:
        raise TruncationError("geometric tail ratio >= 1; Im z too small")
    d = 1.0 - ratio
    total += math.exp(-math.pi * y * ((e0 + explicit * stride) / EIGHTH) * (1 - _RAISE)) / d
    return total * (1 + 2.0**-36) * c + (c + 1) * (4 * explicit + 4 / d + 4) * _ETA


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
    for every n >= order on the support grid.  ``tail_bound`` then
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
    with n > 0.  The closed forms int_1^oo t^p e^{-beta t} dt =
    e^{-beta} sum_{i<=p} (p!/(p-i)!) beta^{-(i+1)} read beta = pi (2n + y).
    The exponent grids of all rows lie in one row of 2n: per block of y, one
    add, multiply, exp and divide give -beta = (-pi)(2n + y), e^{-beta} and
    1/beta = -1/(-beta) over that row (exact rewritings of pi (2n + y) and
    its inverse), and the powers of 1/beta and the closed form m_p of each
    power p are formed once for every row.  Each row sums m_p against its own
    coefficients, and one ``np.matmul`` per grid forms all those sums: a dot
    product per sum at a 0-d y, a matrix-vector product per sum and block of
    an array, the kernels of ``ndarray.dot``.  Each row gives a pair (value,
    bound): Python floats at a 0-d y, arrays of y's shape otherwise.

    The plan holds all that does not depend on y: the row of 2n; the factors
    p!/(p-k)! per power; per grid its span of the row, the number of powers
    its rows read and the stack of the vectors each m_p meets there, c, |c|
    and 2n|c| of each row of power p; the picker of each row's three sums
    among the products; and per row the tail majorant
    times F(beta0), the summation factor and the subnormal term.
    The bound covers truncation and roundoff as in ``eval_at``: a
    discarded term has beta >= beta0 = 2 pi order, so the tail is at most
    F(beta0) e^{-pi y} times the tail majorant at Im z = 1; the computed beta
    has a relative error of a few u, which e^{-beta} turns into one of about
    beta u.
    """

    def __init__(self, rows) -> None:
        grids, consts = {}, []
        for i, (series, p, bound_constant) in enumerate(rows):
            if series.order <= 0:
                raise TruncationError("series truncated at or below q^0")
            beta0 = 2 * math.pi * series.order / EIGHTH
            factor = 0.0  # left to right, not by sum(), which CPython >= 3.12 compensates
            for k in range(p + 1):
                factor = factor + math.perm(p, k) * beta0 ** -(k + 1)
            majorant = _tail_majorant(series.lead, series.order, series.stride, bound_constant, 1.0)
            n, c = _floats(series)[:2]
            n, c = n[n > 0], c[n > 0]
            abs_c = np.abs(c)
            # rows with equal exponent grids share their closed forms
            grids.setdefault(n.tobytes(), (2 * n, []))[1].append((i, p, [c, abs_c, 2 * n * abs_c]))
            consts.append((factor * majorant, 48 * U + 2 * _gamma(len(n)), _TINY * float(abs_c.sum())))
        # per power p, each k = 1 .. p with the factor p!/(p-k)! of beta^-(k+1) in its closed form (None
        # for 1: 1 * x is x); the factors, -pi and -1 are 0-d arrays, which numpy takes faster than floats
        self.factors = [[(k, None if math.perm(p, k) == 1 else np.array(float(math.perm(p, k)))) for k in range(1, p + 1)]
                        for p in range(1 + max(p for _, p, _ in rows))]
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
            inv = [self.minus_one / neg_beta]  # beta^-(k+1), each the last one times 1/beta
            for _ in self.factors[1:]:
                inv.append(inv[-1] * inv[0])
            m = np.empty((len(self.factors), *neg_beta.shape))
            for p, factors in enumerate(self.factors):
                acc = inv[0]
                for k, fact in factors:
                    acc = acc + (inv[k] if fact is None else fact * inv[k])
                np.multiply(decay, acc, out=m[p])
            products = []
            for span, grid_powers, stack in self.grids:
                grid = np.matmul(m[:grid_powers, ..., span].reshape(1, grid_powers, -1, stack.shape[2]), stack)
                products += grid.ravel().tolist() if y.ndim == 0 else list(grid.reshape(-1, len(yb)))
            blocks.append(self.pick(products))
        sums = _gather(blocks, y.shape) if y.ndim else blocks[0]  # each row's three sums, floats at one y
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
    columns of ``size`` values, so the pass's arrays stay small.  ``_gather``
    joins the results of the blocks."""
    if y.ndim == 0:
        return [y[...]]  # a 0-d array, also of a numpy scalar
    flat = y.reshape(-1, 1)
    return [flat[lo:lo + size] for lo in range(0, y.size, size)]


def _gather(blocks, shape: tuple) -> list:
    """The per-block results of a pass over y (per block, one value or array
    per quantity), joined quantity by quantity into arrays of y's shape; at a
    0-d y, the one block's as Python floats."""
    if not shape:
        block, = blocks
        return list(map(float, block))
    return [np.concatenate(column).reshape(shape) for column in zip(*blocks)]
