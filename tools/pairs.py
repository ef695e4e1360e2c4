"""Alternated benchmark pairs of two checkouts of the repository.

    python3 tools/pairs.py PARENT CHANGE --workload oracles --pairs 10 --seed 100

Runs ``perfbench/run.py`` from the root of each checkout, untraced, as pairs
in ABBA order: pair i runs the parent first when i is even and the change
first when it is odd, and both runs of pair i take seed ``--seed`` + i.  It
prints each pair's ``pass_s`` and the median of every part timing the run
reports (such as ``eval_warm_s``), then each side's median and quartiles of
these, of ``setup_s`` and ``peak_rss_mb`` and of the share of failed
operations, and the pairs the change won (a tie counts for neither side).  A gain
is shown when the change wins at least nine pairs in ten and the medians
differ by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics, the median of each part timing and the share
    of failed operations of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    last, = (line for line in lines if "metrics" in line)
    detail, = (line["detail"] for line in lines if "detail" in line)
    if not last["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} had unexpected failures:\n{proc.stderr}")
    values = {key: metric["value"] for key, metric in last["metrics"].items()}
    values.update({key: part["median"] for key, part in detail.items() if key.endswith("_s") and key not in values})
    values["fail_ratio"] = detail["fail_ratio"]["value"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (a single run is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("cold-eval", "proof", "oracles"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=10.0, help="run length, as the benchmark's --seconds")
    args = parser.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed + i, args.seconds))
        parent, change = runs["parent"][-1], runs["change"][-1]
        parts = "  ".join(f"{key} {parent[key]:.4f} -> {change[key]:.4f}" for key in parent if key.endswith("_s")
                          and key not in ("pass_s", "setup_s"))
        print(f"pair {i} seed {args.seed + i} ({order[0]} first): pass_s {parent['pass_s']:.4f} -> "
              f"{change['pass_s']:.4f}  [{parts}]", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs: median [q1, q3]")
    for key in runs["parent"][0]:
        old = [run[key] for run in runs["parent"]]
        new = [run[key] for run in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        wins = sum(b < a for a, b in zip(old, new))
        losses = sum(b > a for a, b in zip(old, new))
        ratio = f"{cm / pm:.3f}" if pm else "-"
        print(f"{key:14s} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  change {cm:.4f} [{c1:.4f}, {c3:.4f}]  "
              f"ratio {ratio}  change won {wins} of {args.pairs} (lost {losses})  "
              f"median gain {pm - cm:.4f} vs parent IQR {p3 - p1:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
