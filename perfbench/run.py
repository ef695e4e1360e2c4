"""The e8magic benchmark.

    python3 perfbench/run.py --workload {cold-eval,proof,oracles} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run sets up (several times, reporting
the median), then measures whole passes of the workload: at least the
workload's MIN_PASSES, and more while the next one fits into ``--seconds``.
Every operation's output is checked.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics, and the spans are written to .bench_out/.  Earlier
lines carry the run's stamp and, untraced, the per-operation timings behind
the end-to-end metrics.  Failed operations are named on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from harness import (BLAS_THREADS, ROOT, Run, check_checkout, peak_rss_mb, run_script,
                     summary)
from tracing import LAYERS, Tracer, durations, self_times

SETUP_SAMPLES = 3

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, scale to the unit); the statistic is the median
# and the unit is the suffix of the metric's second component (eval_g_us -> us)
SPAN_METRICS = {
    "cli.import_s": ("cli.import", 1.0),
    **{f"qseries.{op}_ms.{f}": (f"qseries.{op}.{f}", 1e3)
       for f in ("phi_0", "psi_S") for op in ("dumps", "loads")},
    **{f"modforms.build_form_s.{f}.{o}": (f"modforms.build_form.{f}.{o}", 1.0)
       for o in (64, 200)
       for f in ("j", "varphi_-4", "varphi_-2", "phi_0", "h", "psi_I", "psi_T", "psi_S")},
    "modforms.eval_form_us": ("modforms.eval_form", 1e6),
    "modforms.verify_transform_us": ("modforms.verify_transform", 1e6),
    "rigor.enclose_us": ("rigor.enclose", 1e6),
    "certify.build_model_ms": ("certify.build_model", 1e3),
    "certify.certify_sign_ms": ("certify.certify_sign", 1e3),
    "certify.numeric_value_us": ("certify.numeric_value", 1e6),
    "radial.eval_g_first_s": ("radial.eval_g_first", 1.0),
    "radial.eval_g_us": ("radial.eval_g", 1e6),
    "radial.eval_g_deriv_us": ("radial.eval_g_deriv", 1e6),
    "radial.contour_eval_s.a": ("radial.contour_eval.a", 1.0),
    "radial.contour_eval_s.b": ("radial.contour_eval.b", 1.0),
    "radial.hankel_ms": ("radial.hankel", 1e3),
    "radial.hankel_table_s": ("radial.hankel_table", 1.0),
    "e8.enumerate_shells_ms": ("e8.enumerate_shells", 1e3),
    "e8.poisson_check_ms": ("e8.poisson_check", 1e3),
    "e8.magic_poisson_check_ms": ("e8.magic_poisson_check", 1e3),
    "e8.density_bound_ms": ("e8.density_bound", 1e3),
}
COUNT_UNITS = {
    "qseries.coeffs.phi_0": "count",
    "qseries.coeffs.psi_S": "count",
    "qseries.json_bytes.phi_0": "bytes",
    "qseries.json_bytes.psi_S": "bytes",
    "certify.leaves": "count",
    "certify.leaf_checks": "count",
    "certify.useful_ratio": "ratio",
    "certify.max_depth": "count",
    "certify.min_margin": "1",
    "rigor.enclose_rel_width": "ratio",
    "radial.contour_err_max": "1",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        units[name] = name.split(".")[1].rsplit("_", 1)[1]
    units.update(COUNT_UNITS)
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count", f"{layer}.failed": "count"})
    units.update({"trace.overhead_s": "s", "trace.spans": "count"})
    return units


def stamp() -> dict:
    import numpy
    import scipy

    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, timeout=10).stdout.split()
        sha = top[1] if len(top) == 2 and os.path.samefile(top[0], ROOT) else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}


def span_cost_s(n: int = 20000) -> float:
    """Cost of recording one span, timed on a throwaway tracer.

    The traced run reports span count times this cost as its overhead: the
    difference between a traced and an untraced pass is a few milliseconds,
    far inside the run-to-run noise of a multi-second pass."""
    tracer = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("x", "bench"):
            pass
    return (time.perf_counter() - t0) / n


def layer_metrics(run: Run, overhead_s: float) -> dict[str, float]:
    spans = [s for s in run.tracer.spans if s["end"] is not None]
    values = {}
    for name, (span_name, scale) in SPAN_METRICS.items():
        ds = durations(spans, span_name)
        values[name] = statistics.median(ds) * scale if ds else 0.0
    for name in COUNT_UNITS:
        values[name] = run.counts.get(name, 0)
    selfs = self_times(spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        values[f"{layer}.calls"] = sum(1 for s in spans if s["layer"] == layer)
        values[f"{layer}.failed"] = sum(1 for f in run.failures if f["layer"] == layer)
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(spans)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    t0 = time.perf_counter()
    wl.setup()
    setup = [time.perf_counter() - t0]
    setup += [run_script("probes.py", "setup", workload)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]

    rng = random.Random(seed)
    run = Run(Tracer(trace), tmp)
    passes = []
    start = time.perf_counter()
    while True:
        inp = wl.inputs(rng)
        p0 = time.perf_counter()
        wl.run_pass(run, inp)
        now = time.perf_counter()
        passes.append(now - p0)
        if len(passes) >= wl.MIN_PASSES and now - start + passes[-1] > seconds:
            break

    result = {"run": run, "stamp": stamp()}
    if trace:
        from probes import layer_probe

        layer_probe(run, seed)
        overhead = len(run.tracer.spans) * span_cost_s()
        units = per_layer_units()
        result["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in layer_metrics(run, overhead).items()}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        run.tracer.write_jsonl(out / f"trace-{workload}-seed{seed}.jsonl")
        return result
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {k: summary(v) for k, v in sorted(run.timings.items())}
    detail["setup_s"] = summary(setup)
    detail["pass_s"] = summary(passes)
    detail["fail_ratio"] = {"value": len(run.failures) / run.attempted, "failed": len(run.failures),
                            "ops": run.attempted}
    result["detail"] = detail
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold-eval", "proof", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_checkout()

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run = res["run"]
    for f in run.failures:
        tag = f"known defect: {f['known']}" if f["known"] else "UNEXPECTED"
        print(f"failed {f['layer']} {f['name']}: {f['detail']} [{tag}]", file=sys.stderr)
    print(json.dumps({"stamp": res["stamp"], "workload": args.workload, "seed": args.seed}))
    if "detail" in res:
        print(json.dumps({"detail": res["detail"]}))
    print(json.dumps({"correct": not run.unexpected, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
