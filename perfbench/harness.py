"""Shared machinery: operations with checks, CLI processes, inputs, statistics.

Every operation the benchmark performs is counted as attempted; one whose
outcome misses its expectation (a wrong exit code, a value outside the
acceptance tolerance, an exception) is counted as failed and named on stderr.
A failure may carry a ``known`` reason: it is still counted, but it is a
documented defect of the program rather than a broken run, so only failures
without one make the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROC_TIMEOUT_S = 170

# A fixed thread count keeps numpy's BLAS from competing with the benchmark's
# own processes on a small machine; it is recorded in every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def check_checkout() -> None:
    if not (SRC / "e8magic" / "__init__.py").is_file():
        print(f"error: no e8magic sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


class Run:
    """State of one benchmark run: tracer, operation counts and failures."""

    def __init__(self, tracer: Tracer, tmp: Path | None = None):
        self.tracer = tracer
        self.tmp = tmp
        self.attempted = 0
        self.failures: list[dict] = []
        self.counts: dict[str, float] = {}
        self.timings: dict[str, list[float]] = {}

    def record(self, layer: str, name: str, ok: bool, detail: str = "", known: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append({"layer": layer, "name": name, "detail": detail[:300], "known": known})
        return ok

    def op(self, layer: str, name: str, fn, check=None, known: str | None = None, **attrs):
        """Call ``fn`` inside a span and judge its result with ``check``.

        ``check(result)`` returns (ok, detail).  Returns the result, or None
        when the call raised.
        """
        try:
            with self.tracer.span(name, layer, **attrs):
                result = fn()
        except Exception as exc:  # a raising call is a failed operation, not a crashed run
            self.record(layer, name, False, f"{type(exc).__name__}: {exc}", known)
            return None
        ok, detail = check(result) if check else (True, "")
        self.record(layer, name, ok, detail, known)
        return result

    def cli(self, name: str, argv: list[str], expect: int = 0, check=None,
            known: str | None = None, env: dict | None = None):
        """Run ``e8magic <argv>`` as a fresh process; returns (seconds, stdout)."""
        cmd = [sys.executable, "-m", "e8magic.cli", *argv]
        t0 = time.perf_counter()
        with self.tracer.span(name, "cli", argv=argv):
            try:
                proc = subprocess.run(cmd, capture_output=True, env=env or child_env(),
                                      cwd=ROOT, timeout=PROC_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.record("cli", name, False, f"timed out after {PROC_TIMEOUT_S} s", known)
                return time.perf_counter() - t0, b""
        seconds = time.perf_counter() - t0
        ok = proc.returncode == expect
        detail = f"exit {proc.returncode}, expected {expect}"
        if not ok:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            detail += f": {tail[0]}"
        elif check is not None:
            ok, detail = check(proc.stdout)
        self.record("cli", name, ok, detail, known)
        return seconds, proc.stdout

    @property
    def unexpected(self) -> list[dict]:
        return [f for f in self.failures if not f["known"]]

    def merge(self, doc: dict) -> None:
        """Fold in what a probe process reported."""
        self.attempted += doc["attempted"]
        self.failures.extend(doc["failures"])
        self.counts.update(doc["counts"])
        self.tracer.adopt(doc["spans"])


def run_script(script: str, *args: str, timeout: int = PROC_TIMEOUT_S) -> dict:
    """Run a benchmark helper script in a fresh interpreter; returns its last JSON line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / script), *args],
                          capture_output=True, env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest resident set among this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def summary(values: list[float]) -> dict:
    """Median, maximum and sample count of a timing."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal bins of [lo, hi]."""
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def log_stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    return [math.exp(v) for v in stratified(rng, math.log(lo), math.log(hi), k)]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))
