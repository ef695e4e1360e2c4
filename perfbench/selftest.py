"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py reports, that
two traced runs with the same seed report identical exact counts, and that
the benchmark refuses to run (non-zero exit, no result line) in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from harness import ROOT
from run import END_TO_END_UNITS, per_layer_units

HERE = Path(__file__).resolve().parent
EXACT_UNITS = {"count", "bytes", "ratio", "1"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_declaration() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert declared == per_layer_units(), "per_layer in BENCHMARK.json differs from run.py"
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == END_TO_END_UNITS, "end_to_end in BENCHMARK.json differs from run.py"


def check_exact_counts_repeat() -> None:
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "proof", "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        results.append({k: v["value"] for k, v in metrics.items() if v["unit"] in EXACT_UNITS})
    assert results[0] == results[1], f"exact counts differ between runs: {results}"


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "proof", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> None:
    for check in (check_declaration, check_refuses_without_sources, check_exact_counts_repeat):
        check()
        print(f"ok  {check.__name__}")


if __name__ == "__main__":
    main()
