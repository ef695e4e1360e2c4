"""Command-line entry point.

Verbs: series, certify, eval, plot, lattice, bound, selfcheck.  Exit codes:
0 success/certified, 2 invalid input, 3 certification failure, 4 numerical
failure, which includes a float verb (eval, plot, selfcheck) run where numpy
cannot be imported: its input is valid, but it cannot be evaluated
(selfcheck prints its exact checks before it exits).  Numeric
output carries explicit error-bound columns (``bound``'s is exact); series
and certificate documents are JSON.

Each input is checked once: a name (form, target, function) by argparse's
choices, a value by the library function that takes it, whose ValueError
exits 2.  The CLI itself checks only what no library function limits: the
budgets on --order, --max-norm and --samples, and plot's --range.

Series documents are cached per (form, order) under $E8MAGIC_CACHE_DIR (if
set).  An entry holds the document and the order it was built for.  It is
served only for that order, and only if its series writes back exactly its
bytes, sha256 included, so a damaged or copied file is rebuilt; an entry
written by older code that built the series differently is still served.

Every verb loads ``modforms`` and ``qseries``; the other layers, and
hashlib, are imported by the verbs that call them: ``certify`` (with
``rigor``) by certify, plot of A or B and selfcheck, ``radial`` by eval,
plot of g or ghat and selfcheck, the float layer ``qfloat`` (with numpy) by
eval, plot and selfcheck, ``e8`` by lattice, bound and selfcheck, and
hashlib by series alone.  So ``series``, ``certify``, ``lattice`` and
``bound`` (exact, from ``modforms.special_values``) load no float code and
run without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache, partial
from pathlib import Path

from .modforms import DEFAULT_ORDER, WEIGHTS, FormId, build_form, special_values
from .qseries import QSeries

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_CERT_FAILURE = 3
EXIT_NUMERICAL_FAILURE = 4

# input budgets: the largest --order, --max-norm and --samples accepted (on a
# 2-vCPU VM, build_form(phi_0) takes about 3 s at order 2000; max norm 400
# bounds the divisor sieve and the Poisson sums, about 0.1 s for a whole
# lattice process); certify_sign sets its own limit on the cutoff --n
MAX_SERIES_ORDER = 2000
MAX_LATTICE_NORM = 400
MAX_PLOT_SAMPLES = 10_000


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID_INPUT):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# series cache

def _cache_path(form: FormId, order: int) -> Path | None:
    """The cache entry of (form, order), its directory created; None with no cache set."""
    value = os.environ.get("E8MAGIC_CACHE_DIR")
    if not value:
        return None
    try:
        Path(value).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"E8MAGIC_CACHE_DIR={value!r} cannot be created: {exc}") from None
    return Path(value) / f"{form.name.lower()}_o{order}.json"


def _series_doc(form: FormId, series: QSeries) -> dict:
    import hashlib

    doc = series.to_doc(name=form.value, weight=WEIGHTS[form])
    payload = json.dumps(doc["coefficients"], sort_keys=True)
    doc["sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    return doc


def _entry(doc: dict, order: int) -> str:
    """The cache entry of a series document: the document and the order it was built for."""
    return json.dumps({**doc, "built_for_order": order}, sort_keys=True)


def _cached_series(form: FormId, order: int, path: Path) -> tuple[QSeries, dict] | None:
    """The series of a cache entry and its document, if the series, built for
    this order, writes back exactly the bytes of the entry, sha256 included;
    None for any other entry."""
    try:
        raw = path.read_bytes()
        series = QSeries.from_doc(json.loads(raw))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError):
        return None  # missing, unreadable or damaged: rebuilt by the caller
    doc = _series_doc(form, series)
    return (series, doc) if _entry(doc, order).encode() == raw else None


def _load_or_build_series(form: FormId, order: int) -> tuple[QSeries, dict]:
    path = _cache_path(form, order)
    cached = path and _cached_series(form, order, path)
    if cached:
        return cached
    series = build_form(form, order)
    doc = _series_doc(form, series)
    if path:
        try:
            path.write_text(_entry(doc, order))
        except OSError as exc:
            raise CliError(f"the series cache under E8MAGIC_CACHE_DIR cannot be written: {exc}") from None
    return series, doc


# ---------------------------------------------------------------------------
# verbs

def _cmd_series(args: argparse.Namespace) -> int:
    form = FormId(args.form)
    if not 0 < args.order <= MAX_SERIES_ORDER:
        raise CliError(f"--order must be between 1 and {MAX_SERIES_ORDER}")
    series, doc = _load_or_build_series(form, args.order)
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"# {form.value} (weight {WEIGHTS[form]}), known below q^({series.order}/8)")
        for e, c in sorted(series.coeffs.items()):
            print(f"q^({e}/8)\t{c}")
    return EXIT_OK


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"--out {path!r} cannot be written: {exc.strerror or exc}") from None


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certify import certify_sign

    cert = certify_sign(args.target, n=args.n, t_star=args.tstar, max_depth=args.max_depth)
    doc = cert.to_doc()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        _write_out(args.out, text)
    else:
        print(text)
    sign = "< 0" if args.target == "A" else "> 0"
    margin = ""  # no segment has no margin
    if cert.segments:
        ratio, seg = cert.worst_ratio
        margin = f", min margin {cert.min_margin:.6g}, envelope/room {ratio:.3g} on {seg.chart} [{seg.lo:.6g}, {seg.hi:.6g}]"
    print(f"target {args.target} {sign}: {cert.status} ({len(cert.segments)} segments{margin})", file=sys.stderr)
    return EXIT_OK if cert.certified else EXIT_CERT_FAILURE


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import radial as radial_mod

    fn = args.function
    if fn in ("a", "b") and not args.deriv:
        rv = radial_mod.eval_a(args.r) if fn == "a" else radial_mod.eval_b(args.r)
    else:  # eval_g_deriv refuses a and b
        rv = (radial_mod.eval_g_deriv if args.deriv else radial_mod.eval_g)(args.r, fn)
    label = f"{fn}'" if args.deriv else fn
    print(f"{label}({args.r!r}) = {rv.value!r} +/- {rv.err:.3e}")
    return EXIT_OK


def _parse_range(spec: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise CliError("--range must look like lo:hi")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise CliError("--range needs finite lo < hi")
    return lo, hi


def _cmd_plot(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.range)
    if not 2 <= args.samples <= MAX_PLOT_SAMPLES:
        raise CliError(f"--samples must be between 2 and {MAX_PLOT_SAMPLES}")
    fn = args.function
    if fn in ("A", "B"):
        from .certify import numeric_value

        evaluate = partial(numeric_value, fn)
    else:
        from .radial import eval_g

        def evaluate(x: float) -> tuple[float, float]:
            rv = eval_g(x, fn)
            return rv.value, rv.err
    xs = [lo + (hi - lo) * i / (args.samples - 1) for i in range(args.samples)]
    lines = ["x,value,err"] + [f"{x!r},{v!r},{e:.6e}" for x, (v, e) in zip(xs, map(evaluate, xs))]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_lattice(args: argparse.Namespace) -> int:
    from . import e8 as e8_mod

    if args.max_norm > MAX_LATTICE_NORM:
        raise CliError(f"--max-norm must be at most {MAX_LATTICE_NORM}")
    rep = None if args.poisson is None else e8_mod.poisson_check(args.poisson, args.max_norm)
    table = e8_mod.enumerate_shells(args.max_norm)
    if args.shells:
        print("norm^2\tcount")
        for norm2, cnt in table.entries.items():
            print(f"{norm2}\t{cnt}")
    else:
        print(f"shells up to norm^2 = {args.max_norm}: {len(table.entries)} "
              f"(kissing number N(2) = {table.count(2)})")
    if rep is not None:
        print(
            f"poisson alpha={rep.alpha}: lhs={rep.lhs!r} rhs={rep.rhs!r} "
            f"discrepancy={rep.discrepancy:.3e} tail_bound={rep.tail_bound:.3e}"
        )
        print(
            f"scaled 2^4 identity: lhs={rep.scaled_lhs!r} rhs={rep.scaled_rhs!r} "
            f"discrepancy={rep.scaled_discrepancy:.3e}"
        )
        if not rep.conclusive:
            raise CliError(
                f"poisson tail bound {rep.tail_bound:.3e} exceeds {e8_mod.POISSON_MAX_REL_BOUND:g} of the "
                "smallest sum, so the check cannot fail at this alpha; use a larger --max-norm",
                EXIT_NUMERICAL_FAILURE,
            )
        if not rep.passed:
            raise CliError("poisson discrepancy exceeds tail bound", EXIT_NUMERICAL_FAILURE)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    from . import e8 as e8_mod

    rep = e8_mod.density_bound()
    print(f"f(0)/fhat(0) = {rep.ratio!r}   [2^4 g(0)/ghat(0), g(0) = ghat(0) = 1 exactly, f(x) = g(sqrt2 x)]")
    print(f"Vol B_8(0, 1/2) = {rep.ball_volume!r}   [pi^4/6144]")
    print(f"density bound pi^4/384 = {rep.bound!r}")
    if not rep.matches_reference:
        raise CliError("density bound does not match pi^4/384", EXIT_NUMERICAL_FAILURE)
    return EXIT_OK


_GOLDEN_LEADS = {
    FormId.J: {-8: "1/1", 0: "744/1", 8: "196884/1"},
    FormId.PHI_0: {8: "518400/1", 16: "31104000/1"},
    FormId.PSI_I: {-8: "1/1", 0: "144/1", 4: "-5120/1"},
    FormId.PSI_S: {4: "-10240/1", 12: "-1253376/1"},
}


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from . import e8 as e8_mod
    from .certify import certify_sign

    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {name}{('  ' + detail) if detail else ''}")
        if not ok:
            failures.append(name)

    for form, expected in _GOLDEN_LEADS.items():
        series = build_form(form)
        got = {e: f"{c.numerator}/{c.denominator}" for e, c in series.coeffs.items() if e in expected}
        check(f"golden expansion {form.value}", got == expected)

    for target in ("A", "B"):
        cert = certify_sign(target)
        check(f"certificate {target}", cert.certified, cert.status)

    rep = e8_mod.density_bound()
    check("density bound pi^4/384", rep.matches_reference, f"{rep.bound!r}")

    # the float checks last: the exact ones above run where numpy cannot be imported
    from . import radial as radial_mod

    exact, root2 = special_values(), math.sqrt(2)
    for name, rv in (("g(0)", radial_mod.eval_g(0.0)), ("ghat(0)", radial_mod.eval_g(0.0, "ghat")),
                     ("g'(sqrt2)", radial_mod.eval_g_deriv(root2)), ("ghat'(sqrt2)", radial_mod.eval_g_deriv(root2, "ghat"))):
        value = float(exact[name])
        check(f"{name} = {value!r} (exact)", abs(rv.value - value) <= rv.err, f"{rv.value!r} +/- {rv.err:.1e}")
    ladder = [radial_mod.eval_g(math.sqrt(2 * n), which) for n in range(1, 7) for which in ("g", "ghat")]
    check("zero ladder g, ghat at sqrt(2n), n=1..6", all(abs(rv.value) <= rv.err for rv in ladder))

    if failures:
        print(f"FAIL ({len(failures)} checks)")
        return EXIT_CERT_FAILURE if any("certificate" in f for f in failures) else EXIT_NUMERICAL_FAILURE
    print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process (``main`` parses each
    argv with it); the verbs look up the library functions they call when
    they run."""
    parser = argparse.ArgumentParser(
        prog="e8magic",
        description="The E8 magic function: series, certificates, evaluation, lattice sums.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("series", help="print a catalog q-expansion")
    p.add_argument("--form", required=True, choices=[f.value for f in FormId])
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_series)

    # no abbreviations: --m would otherwise be read as --max-depth
    p = sub.add_parser("certify", help="certify A < 0 or B > 0 on (0, oo)", allow_abbrev=False)
    p.add_argument("--target", required=True, choices=("A", "B"))
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--tstar", type=float, default=4.0)
    p.add_argument("--max-depth", type=int, default=60)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("eval", help="evaluate a, b, g or ghat at a radius")
    p.add_argument("--function", required=True, choices=("a", "b", "g", "ghat"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--deriv", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plot", help="emit CSV samples of g, ghat, A or B")
    p.add_argument("--function", required=True, choices=("g", "ghat", "A", "B"))
    p.add_argument("--range", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("lattice", help="enumerate shells and check Poisson summation")
    p.add_argument("--max-norm", type=int, default=40)
    p.add_argument("--shells", action="store_true")
    p.add_argument("--poisson", type=float, default=None)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("bound", help="print the sphere packing density bound")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("selfcheck", help="run the built-in verification suite")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors, which matches EXIT_INVALID_INPUT
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:  # stdout to devnull, so the flush at exit fails no more (Python docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_INVALID_INPUT)
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except ModuleNotFoundError as exc:  # valid input, but the float layer cannot load
        if exc.name != "numpy":
            raise
        print("error: numerical failure: this verb evaluates in floats with numpy, which cannot be imported", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
