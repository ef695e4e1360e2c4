"""The recorder of the radial goldens: the rows of ``tests/radial_goldens.json``
and ``tests/radial_seeded_goldens.json`` and the sha256 of the four dense
Hankel tables in ``tests/hankel_table_goldens.json``.

    python3 tools/record_goldens.py --check    # writes nothing
    python3 tools/record_goldens.py --write    # rewrites the three files

Evaluates every row (function, r, which) of the two row files with this
checkout's ``src/e8magic``, in the files' order, and the dense tables by the
tests' own ``dense_table`` on their grid; the seeded file's radii must be the
tests' ``_seeded_radii()``.  It prints one JSON document: per function its
rows, the number of rows whose value, and whose residual, moved and the largest
|new value - old value| / old err; every err that grew, with its growth in
ulps of the old err and whether it grew through ``radial._eval_err``'s term
1e-13 (1 + |value|) alone (the row's err with that term at the old value is
at most the old err); the number of errs that shrank; and per table its
digest, old and new.  ``--check`` exits 1 where the tests would fail (a
value, residual or digest that moved, or an err that grew), 0 otherwise.
``--write`` rewrites the digests and, whole, each row on which the tests
would fail, keeping every other row as it is (an err that shrank too), the
rows' order and the files' layout, and exits 0.  It touches no other golden.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
ROW_FILES = ("radial_goldens.json", "radial_seeded_goldens.json")
DIGEST_FILE = "hankel_table_goldens.json"


def _tests():
    """The tests' module of the radial goldens, on this checkout's package."""
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    import test_radial

    return test_radial


def _row(radial, call: str, r: float, which: str) -> list:
    fn = getattr(radial, call)
    rv = fn(r) if call in ("eval_a", "eval_b") else fn(r, which)
    return [call, r, which, rv.value.hex(), rv.err.hex(), rv.residual.hex()]


def _err_at_value(radial, call: str, r: float, which: str, value: float) -> float:
    """The err of a row with ``radial._eval_err`` reading the given value in
    place of the new one: an err that grew is at most its golden here where
    it grew through the term 1e-13 (1 + |value|) alone."""
    eval_err = radial._eval_err
    radial._eval_err = lambda _, series_err: eval_err(value, series_err)
    try:
        return float.fromhex(_row(radial, call, r, which)[4])
    finally:
        radial._eval_err = eval_err


def _digest(grid, table) -> str:
    """sha256 of the grid then the values, little-endian doubles, as the tests hash them."""
    import numpy as np

    digest = hashlib.sha256()
    for arr in (grid, table):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def record(tests) -> tuple[dict, dict]:
    """(report, new contents): the JSON report and, per file, its rows or
    digests as they are to be written.  A row is rewritten whole where the
    tests would fail on it (its value or residual moved, or its err grew)
    and kept as it is otherwise, errs that shrank included: the ids of
    ``test_radial_values_match_goldens`` embed each row's bits, so a row
    rewritten without need would rename its test."""
    from e8magic import radial

    old = {name: json.loads((TESTS / name).read_text()) for name in ROW_FILES + (DIGEST_FILE,)}
    if [r for call, r, *_ in old[ROW_FILES[1]] if call == "eval_a"] != tests._seeded_radii():
        raise SystemExit(f"{ROW_FILES[1]} does not hold the tests' seeded radii")
    new = {name: [] for name in ROW_FILES}
    new[DIGEST_FILE] = {which: _digest(tests.DENSE_GRID, tests.dense_table(which)) for which in sorted(old[DIGEST_FILE])}

    functions, grew, shrank = {}, [], 0
    for name in ROW_FILES:
        for row in old[name]:
            (call, r, which, *before), after = row, _row(radial, *row[:3])[3:]
            (v0, e0, _), (v1, e1, _) = ([float.fromhex(x) for x in bits] for bits in (before, after))
            stats = functions.setdefault(call, {"rows": 0, "moved": 0, "residuals_moved": 0, "max_dvalue_over_err": 0.0})
            stats["rows"] += 1
            stats["moved"] += before[0] != after[0]
            stats["residuals_moved"] += before[2] != after[2]
            stats["max_dvalue_over_err"] = max(stats["max_dvalue_over_err"], abs(v1 - v0) / e0)
            if e1 > e0:
                grew.append({"call": call, "r": r, "which": which, "ulps": round((e1 - e0) / math.ulp(e0)),
                             "via_value": _err_at_value(radial, call, r, which, v0) <= e0})
            shrank += e1 < e0
            fails = before[0] != after[0] or before[2] != after[2] or e1 > e0
            new[name].append([call, r, which, *after] if fails else row)
    digests = {which: {"old": old[DIGEST_FILE][which], "new": digest} for which, digest in new[DIGEST_FILE].items()}
    # what the tests pin: every value, residual and digest, and no err above its golden
    changed = bool(grew) or any(d["old"] != d["new"] for d in digests.values()) or any(
        stats["moved"] or stats["residuals_moved"] for stats in functions.values())
    report = {"changed": changed, "functions": functions, "errs_grew": grew, "errs_shrank": shrank,
              "digests": digests}
    return report, new


def write(new: dict) -> None:
    """Each row file as one row per line, and the digests one per line, as they are laid out."""
    for name in ROW_FILES:
        (TESTS / name).write_text("[\n" + ",\n".join(json.dumps(row) for row in new[name]) + "\n]\n")
    (TESTS / DIGEST_FILE).write_text(json.dumps(new[DIGEST_FILE], indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="report what moved; write nothing")
    mode.add_argument("--write", action="store_true", help="rewrite the three files")
    args = parser.parse_args(argv)
    report, new = record(_tests())
    if args.write:
        write(new)
    print(json.dumps(report, indent=1))
    return 1 if args.check and report["changed"] else 0


if __name__ == "__main__":
    sys.exit(main())
