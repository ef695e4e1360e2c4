"""Per-layer probe: timed public calls into every layer of e8magic.

The traced run of every workload runs this probe after the workload's own
passes, so each per-layer metric has samples on every workload.  Two parts
need a fresh interpreter and run as child processes of the benchmark:

    python3 perfbench/probes.py setup <workload>   # one set-up sample
    python3 perfbench/probes.py build <seed>       # import and the exact series builds
    python3 perfbench/probes.py radial <seed>      # cold and warm radial calls, e8

Each prints one JSON line; ``build`` and ``radial`` report their spans,
operations, failures and exact counts for the parent to merge.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time

from harness import Run, check_checkout, log_stratified, run_script, stratified
from tracing import Tracer

# catalog forms in dependency order (j, varphi_-4 and varphi_-2 feed phi_0)
BUILD_FORMS = ("j", "varphi_-4", "varphi_-2", "phi_0", "h", "psi_I", "psi_T", "psi_S")
BUILD_ORDERS = (64, 200)
PERSIST_FORMS = ("phi_0", "psi_S")
REPEATS = 5  # for sub-millisecond calls whose single timings are noise


def build_probe(run: Run, rng) -> None:
    with run.tracer.span("cli.import", "cli"):
        import e8magic  # noqa: F401
    from e8magic.modforms import WEIGHTS, FormId, build_form
    from e8magic.qseries import QSeries

    for order in BUILD_ORDERS:
        for name in BUILD_FORMS:
            run.op("modforms", f"modforms.build_form.{name}.{order}",
                   lambda: build_form(FormId(name), order),
                   check=lambda s: (s.order >= order and len(s.coeffs) > 0, repr(s)))
    for name in PERSIST_FORMS:
        form = FormId(name)
        series = build_form(form, 200)
        for _ in range(REPEATS):
            text = run.op("qseries", f"qseries.dumps.{name}",
                          lambda: series.dumps(name=name, weight=WEIGHTS[form]))
            run.op("qseries", f"qseries.loads.{name}", lambda: QSeries.loads(text),
                   check=lambda s: ((s.lead, s.order, s.coeffs) == (series.lead, series.order, series.coeffs),
                                    f"{name}: loads(dumps(s)) differs from s"))
        run.counts[f"qseries.coeffs.{name}"] = len(series.coeffs)
        run.counts[f"qseries.json_bytes.{name}"] = len(text.encode())


def radial_probe(run: Run, rng) -> None:
    import e8magic  # noqa: F401
    from e8magic import radial
    from workloads import _contour_ok, _e8_checks, _hankel_ok, _sign_ok

    run.op("radial", "radial.eval_g_first", lambda: radial.eval_g(rng.uniform(0.0, 6.0)),
           check=lambda rv: (math.isfinite(rv.value), repr(rv)))
    for i, r in enumerate(stratified(rng, 0.0, 6.0, 40)):
        which = ("g", "ghat")[i % 2]
        run.op("radial", "radial.eval_g", lambda: radial.eval_g(r, which),
               check=lambda rv: _sign_ok(rv.value, rv.err, r, which))
    for i, r in enumerate(stratified(rng, 0.01, 6.0, 40)):
        which = ("g", "ghat")[i % 2]
        run.op("radial", "radial.eval_g_deriv", lambda: radial.eval_g_deriv(r, which),
               check=lambda rv: (math.isfinite(rv.value), repr(rv)))
    for i, s in enumerate(stratified(rng, 0.5, 2.5, 8)):
        which, direct, sgn = (("a", radial.eval_a, 1), ("b", radial.eval_b, -1))[i % 2]
        ref = direct(s)
        name = "radial.hankel_table" if i < 2 else "radial.hankel"  # first call per function tabulates
        run.op("radial", name, lambda: radial.hankel_fourier_oracle(which, s),
               check=lambda h: _hankel_ok(h, sgn * ref.value, which, s))
    r = rng.uniform(2.1, 3.1)
    for which, direct in (("a", radial.eval_a), ("b", radial.eval_b)):
        ref = direct(r)
        rv = run.op("radial", f"radial.contour_eval.{which}", lambda: radial.contour_eval(r, which),
                    check=lambda o: _contour_ok(o, ref, r, which))
        if rv is not None:
            run.counts["radial.contour_err_max"] = max(run.counts.get("radial.contour_err_max", 0.0), rv.err)
    alpha = rng.uniform(0.8, 2.5)
    for _ in range(REPEATS):
        _e8_checks(run, alpha)


def certify_probe(run: Run, rng) -> None:
    """In-process part: models, the two reference certificates, series evaluation."""
    from e8magic import certify, modforms
    from e8magic.modforms import FormId
    from e8magic.rigor import Interval
    from workloads import VERIFY_LAWS, _eval_form_ok, _segment_ok, numeric_value_op

    leaves = checks = depth = 0
    rel_widths = []
    margins = []
    for target in "AB":
        models = {}
        for regime in (certify.NEAR_INFINITY, certify.NEAR_ZERO):
            models[regime] = run.op("certify", "certify.build_model",
                                    lambda: certify.build_model(target, 6, regime))
        cert = run.op("certify", "certify.certify_sign", lambda: certify.certify_sign(target),
                      check=lambda c: (c.certified, f"{target}: {c.status}"))
        if cert is None:
            continue
        margins.append(cert.min_margin)
        sign = -1 if target == "A" else 1
        for chart, x_star in (("t", cert.t_star), ("u", cert.u_star)):
            segs = [s for s in cert.segments if s.chart == chart]
            leaves += len(segs)
            checks += 2 * len(segs) - 1  # a binary bisection tree with len(segs) leaves
            model = models[certify.NEAR_INFINITY if chart == "t" else certify.NEAR_ZERO]
            for seg in segs:
                depth = max(depth, round(math.log2((x_star - 1.0) / (seg.hi - seg.lo))))
                iv = run.op("rigor", "rigor.enclose", lambda: model.enclose(Interval(seg.lo, seg.hi)),
                            check=lambda iv: _segment_ok(iv, seg, sign))
                if iv is not None:
                    rel_widths.append(iv.width / max(abs(iv.lo), abs(iv.hi)))
    run.counts.update({
        "certify.leaves": leaves,
        "certify.leaf_checks": checks,
        "certify.useful_ratio": leaves / checks if checks else 0.0,
        "certify.max_depth": depth,
        "certify.min_margin": min(margins, default=0.0),
        "rigor.enclose_rel_width": statistics.median(rel_widths) if rel_widths else 0.0,
    })

    for t in log_stratified(rng, 0.1, 10.0, 10):
        for target in "AB":
            numeric_value_op(run, target, t)
    for form in FormId:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        run.op("modforms", "modforms.eval_form", lambda: modforms.eval_form(form, z), check=_eval_form_ok)
    for name, law in VERIFY_LAWS:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
        run.op("modforms", "modforms.verify_transform",
               lambda: modforms.verify_transform(FormId(name), law, z),
               check=lambda c: (c.passed, f"{name} {law} at {z!r}: {c}"))


def layer_probe(run: Run, seed: int) -> None:
    """The whole probe, from the benchmark's traced process."""
    for kind in ("build", "radial"):
        with run.tracer.span(f"probe.{kind}", "bench"):
            run.merge(run_script("probes.py", kind, str(seed)))
    with run.tracer.span("probe.certify", "bench"):
        certify_probe(run, random.Random(f"certify-{seed}"))


def setup_sample(workload: str) -> float:
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    WORKLOADS[workload]().setup()
    return time.perf_counter() - t0


def main(argv: list[str]) -> None:
    check_checkout()
    kind, arg = argv
    if kind == "setup":
        print(json.dumps({"setup_s": setup_sample(arg)}))
        return
    run = Run(Tracer(True))
    rng = random.Random(f"{kind}-{arg}")
    {"build": build_probe, "radial": radial_probe}[kind](run, rng)
    print(json.dumps({"attempted": run.attempted, "failures": run.failures,
                      "counts": run.counts, "spans": run.tracer.spans}))


if __name__ == "__main__":
    main(sys.argv[1:])
