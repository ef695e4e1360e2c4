"""Hand-written mutants of the package, each expected to fail tier-1.

    python3 tools/mutants.py

Copies the repository (without ``.git`` and caches) to a temporary directory
and, for one mutant at a time, replaces its target text in one file of
``src/e8magic`` by the mutated text.  Each mutant names the test file that
must kill it: that file runs first, with ``pytest -x``, and only a mutant it
leaves alive runs the whole tier-1 suite, also with ``-x``, but for the test
of this list's target texts, which no mutated copy passes.  A mutant is
killed when pytest exits 1 (a test failed); any other exit code, such as a
collection error, is reported as an error of the mutant.  The file is
restored before the next mutant.

It prints one line per mutant (its name, its outcome, the test file or suite
that decided it, and the wall time) and a summary line, and exits 1 if a
mutant survived or erred.  Stdlib only; no mutation package is used.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*")


class Mutant(NamedTuple):
    name: str
    module: str  # file under src/e8magic
    target: str  # text that occurs exactly once in src/
    mutated: str
    killer: str  # test file expected to kill it, from the root of the repository


MUTANTS = [
    Mutant("nearest-sign-flipped", "rigor.py",
           "    return v, num * e - m * den\n",
           "    return v, m * den - num * e\n",
           "tests/test_rigor.py"),
    Mutant("nearest-zero-error", "rigor.py",
           "    return v, num * e - m * den\n",
           "    return v, 0\n",
           "tests/test_rigor.py"),
    Mutant("quotient-sign-kept", "rigor.py",
           "    if n < 0:  # a positive denominator\n        m, n = -m, -n\n",
           "",
           "tests/test_rigor.py"),
    Mutant("sum-unordered", "rigor.py",
           "        if abs(a) < abs(b):\n            a, b = b, a\n",
           "",
           "tests/test_rigor.py"),
    Mutant("square-excess-sign-flipped", "rigor.py",
           "    return p * p * t - s * q * q\n",
           "    return s * q * q - p * p * t\n",
           "tests/test_rigor.py"),
    Mutant("enclose-fraction-as-point", "rigor.py",
           '    q, d = _nearest(num, den, "/", num, den)\n    return Interval(_down(q, d), _up(q, d))\n',
           "    return Interval.point(float(num) / float(den))\n",
           "tests/test_rigor.py"),
    Mutant("outward-swapped", "rigor.py",
           "    lo = min([_down(v, d) for v, d in values])\n    ups = [_up(v, d) for v, d in values]\n",
           "    lo = min([_up(v, d) for v, d in values])\n    ups = [_down(v, d) for v, d in values]\n",
           "tests/test_rigor.py"),
    Mutant("majorant-edge-not-outward", "qfloat.py",
           "(y - (1 + _RAISE) / math.sqrt(n0))",
           "(y - 1 / math.sqrt(n0))",
           "tests/test_qseries.py"),
    Mutant("majorant-head-not-raised", "qfloat.py",
           "head = math.exp(p - q + _RAISE * (p + q))",
           "head = math.exp(p - q)",
           "tests/test_qseries.py"),
    Mutant("majorant-slope-halved", "qfloat.py",
           "(1 + _RAISE) / math.sqrt(n0))",
           "(1 + _RAISE) / math.sqrt(n0) / 2)",
           "tests/test_qseries.py"),
    Mutant("eval-all-zero-floor-dropped", "qfloat.py",
           "            floor = np.where(np.count_nonzero(mag, axis=-1) == 0, own, floor)\n",
           "",
           "tests/test_certify.py"),
    Mutant("ray-factorial-one", "qfloat.py",
           "None if p == 1 else float(math.perm(p, k))",
           "None",
           "tests/test_qseries.py"),
    Mutant("ray-tail-factorial-one", "qfloat.py",
           "factor = _falling_sums(1 / (2 * math.pi * series.order / EIGHTH), p)[p]",
           "factor = sum((2 * math.pi * series.order / EIGHTH) ** -(k + 1) for k in range(p + 1))",
           "tests/test_qseries.py"),
    Mutant("principal-last-term-only", "radial.py",
           "for (k, p, n), c in terms for j in range(p + 1))",
           "for (k, p, n), c in terms for j in (p,))",
           "tests/test_reference.py"),
    Mutant("principal-deriv-pi-q-dropped", "radial.py",
           "quotient = _ratio(y, sines, center, power, True) - _PI * quotient",
           "quotient = _ratio(y, sines, center, power, True)",
           "tests/test_reference.py"),
    Mutant("ghat-scale-raised", "radial.py",
           'scale = -4.0 * float(special_values()["c_a"]) if name in TARGETS else 4.0',
           'scale = -4.0 * float(special_values()["c_a"]) * (1 + 1e-9 * (name == "B")) if name in TARGETS else 4.0',
           "tests/test_radial.py"),
    Mutant("gauss-weights-of-leggauss", "radial.py",
           "    return x, 2 / ((1 - x) * (1 + x) * legendre.legval(x, legendre.legder([0] * 40 + [1])) ** 2)\n",
           "    return legendre.leggauss(40)\n",
           "tests/test_radial.py"),
    Mutant("near-one-panel", "radial.py",
           "_NEAR_PANELS = 4\n",
           "_NEAR_PANELS = 1\n",
           "tests/test_radial.py"),
    Mutant("a-principal-raised", "radial.py",
           "prefactors = tuple((c, rows.setdefault((center, power), len(rows)))",
           'prefactors = tuple((c * (1 + 1e-10 * (name == "a" and not rows)), rows.setdefault((center, power), len(rows)))',
           "tests/test_radial.py"),
    Mutant("tail-flag-flipped", "certify.py",
           "eps.hi, eps.hi < 1.0)",
           "eps.hi, eps.hi >= 1.0)",
           "tests/test_certify.py"),
    Mutant("envelope-head-dropped", "certify.py",
           "        return pref, _AMPLITUDE * total + head / (1 - ratio)\n",
           "        return pref, _AMPLITUDE * total\n",
           "tests/test_certify.py"),
    Mutant("shell-mod-4-dropped", "e8.py",
           "if rest == 0 and parity_sum == 0]",
           "if rest == 0]",
           "tests/test_e8.py"),
    Mutant("miller-start-52", "radial.py",
           "_J3_MILLER_START = 60\n",
           "_J3_MILLER_START = 52\n",
           "tests/test_radial.py"),
]


# the tier-1 test of this list's target texts, which fails on any mutated copy
_TARGETS_TEST = "tests/test_tools.py::test_each_mutant_targets_text_that_occurs_once_in_src"


def _pytest(copy: Path, *args: str) -> tuple[int, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
                          cwd=copy, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - start


def run(mutant: Mutant, copy: Path) -> tuple[str, str, float]:
    """(outcome, decided by, wall seconds) of one mutant on the copy."""
    path = copy / "src" / "e8magic" / mutant.module
    original = path.read_text()
    path.write_text(original.replace(mutant.target, mutant.mutated, 1))
    try:
        code, seconds = _pytest(copy, mutant.killer)
        decided = mutant.killer
        if code == 0:
            code, more = _pytest(copy, "--continue-on-collection-errors", "--deselect", _TARGETS_TEST)
            decided, seconds = "tier-1", seconds + more
    finally:
        path.write_text(original)
    outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
    return outcome, decided, seconds


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        for mutant in MUTANTS:
            outcome, decided, seconds = run(mutant, copy)
            bad += outcome != "killed"
            print(f"{mutant.name:28} {outcome:9} {decided:20} {seconds:6.1f} s", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
