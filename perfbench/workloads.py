"""The three workloads.

Each workload is one client in a closed loop: the benchmark's own process
runs one operation at a time, and CLI operations are fresh ``e8magic``
processes run one after another (the target machine has two cores, so no
pool is used).  A workload has

* ``setup()``: what a process does before its first timed operation;
* ``inputs(rng)``: the seeded inputs of one pass;
* ``run_pass(run, inp)``: one pass; the caller times it, and the pass
  records the wall time of its parts under the names of the detail line;
* ``MIN_PASSES``: how many passes a run measures at least.

Why each workload exists, in one line each, is in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

from harness import Run, child_env, close, log_stratified, stratified

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())
SQRT2 = math.sqrt(2.0)
WARM_Z = complex(0.6, 2.2)  # set-up input, outside every sampled domain

# Known defects of the program at the commit that defined this benchmark.
# Operations hitting them still count as failed; see the README.
KNOWN_NAN = "eval accepts --r nan/inf and exits 0 (ROADMAP item 5)"
KNOWN_TSTAR = "certify --tstar inf ends in an OverflowError traceback (ROADMAP item 5)"
KNOWN_ROUNDOFF = "numeric_value B loses all digits to cancellation for t > 6.5 (ROADMAP item 2)"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def timed(run: Run, key: str, seconds: float) -> None:
    run.timings.setdefault(key, []).append(seconds)


# ---------------------------------------------------------------------------
# cold-eval: fresh processes that build the exact series

class ColdEval:
    """Cold CLI processes, where the series build to q^200 dominates."""

    SERIES = ("phi_0", "psi_S")
    MIN_PASSES = 1

    def setup(self) -> None:
        import e8magic  # noqa: F401

    def inputs(self, rng) -> dict:
        # a cold eval of a builds the phi forms, of b the psi forms, and of g,
        # ghat or a derivative both; every pass runs a, b and one of the other
        # three, so the cost of a pass does not depend on the seed
        kind = rng.choice(("g", "ghat", "deriv"))
        fn = rng.choice(("g", "ghat")) if kind == "deriv" else kind
        radii = stratified(rng, 0.05, 6.0, 3)
        rng.shuffle(radii)
        return {"evals": [("a", False, radii[0]), ("b", False, radii[1]),
                          (fn, kind == "deriv", radii[2])]}

    def run_pass(self, run: Run, inp: dict) -> None:
        for fn, deriv, r in inp["evals"]:
            argv = ["eval", "--function", fn, "--r", repr(r)] + (["--deriv"] if deriv else [])
            secs, _ = run.cli("cli.eval", argv, check=lambda out: _eval_ok(out, fn, deriv, r))
            timed(run, "eval_cold_s", secs)

        secs, _ = run.cli("cli.selfcheck", ["selfcheck"],
                          check=lambda out: (out.strip().endswith(b"PASS"), out[-200:].decode()))
        timed(run, "selfcheck_s", secs)

        cache = run.tmp / "series-cache"
        shutil.rmtree(cache, ignore_errors=True)
        env = child_env(E8MAGIC_CACHE_DIR=str(cache))
        cold = {}
        for form in self.SERIES:
            golden = GOLDENS[f"series.{form}.200"]
            secs, cold[form] = run.cli("cli.series", _series_argv(form), env=env,
                                       check=lambda out: (sha(out) == golden, "sha256 differs from golden"))
            timed(run, "series_build_s", secs)
        for form in self.SERIES:
            secs, _ = run.cli("cli.series", _series_argv(form), env=env,
                              check=lambda out: (out == cold[form] and any(cache.iterdir()),
                                                 "cached document differs from the cold one"))
            timed(run, "series_cached_s", secs)
        shutil.rmtree(cache, ignore_errors=True)


def _series_argv(form: str) -> list[str]:
    return ["series", "--form", form, "--order", "200", "--format", "json"]


def _eval_ok(out: bytes, fn: str, deriv: bool, r: float):
    """``label(r) = value +/- err`` with finite numbers, and g, ghat signed as proved."""
    text = out.decode().strip()
    try:
        value, err = (float(x) for x in text.split(" = ")[-1].split(" +/- "))
    except ValueError:
        return False, text
    ok = finite(value, err)
    if ok and not deriv and fn in ("g", "ghat"):
        ok, _ = _sign_ok(value, err, r, fn)
    return ok, text


def _sign_ok(value: float, err: float, r: float, which: str):
    """g <= err for r >= sqrt 2, and ghat >= -err everywhere."""
    if not finite(value, err):
        return False, f"{which}({r!r}) = {value!r} +/- {err!r}"
    if which == "g":
        return r < SQRT2 or value <= err, f"g({r!r}) = {value!r} > err {err!r}"
    return value >= -err, f"ghat({r!r}) = {value!r} < -err {err!r}"


# ---------------------------------------------------------------------------
# proof: certificates, interval bisection and the tail argument

class Proof:
    """Certification: fresh certify processes and an in-process certify_sign sweep."""

    MIN_PASSES = 3

    def setup(self) -> None:
        import e8magic  # noqa: F401

    def inputs(self, rng) -> dict:
        # n = 5 fails for B and is not part of the paper's claim, so n stays in
        # {6, 8, 10}.  The cost grows with T*, so each pass takes one T* from
        # each sixth of [4, 12] and deals them out to the cases at random.
        t_stars = stratified(rng, 4.0, 12.0, 6)
        rng.shuffle(t_stars)
        cases = [(target, n, t_stars.pop()) for target in "AB" for n in (6, 8, 10)]
        rng.shuffle(cases)
        return {"cases": cases}

    def run_pass(self, run: Run, inp: dict) -> None:
        golden_a = GOLDENS["certify.A.stdout"]
        secs, _ = run.cli("cli.certify", ["certify", "--target", "A"],
                          check=lambda out: (sha(out) == golden_a, "sha256 differs from golden"))
        timed(run, "certify_s", secs)
        out_path = run.tmp / "b_cert.json"
        out_path.unlink(missing_ok=True)
        golden_b = GOLDENS["certify.B.out"]
        secs, _ = run.cli("cli.certify", ["certify", "--target", "B", "--out", str(out_path)],
                          check=lambda _: (out_path.is_file() and sha(out_path.read_bytes()) == golden_b,
                                           "sha256 differs from golden"))
        timed(run, "certify_s", secs)
        run.cli("cli.certify_invalid", ["certify", "--target", "A", "--tstar", "inf"],
                expect=2, known=KNOWN_TSTAR)

        t0 = time.perf_counter()
        self._sweep(run, inp)
        timed(run, "certify_sweep_s", time.perf_counter() - t0)

    def _sweep(self, run: Run, inp: dict) -> None:
        from e8magic import certify
        from e8magic.rigor import Interval

        models = {}
        for target in "AB":
            for n in (6, 8, 10):
                for regime in (certify.NEAR_INFINITY, certify.NEAR_ZERO):
                    models[target, n, regime] = run.op(
                        "certify", "certify.build_model",
                        lambda: certify.build_model(target, n, regime),
                        check=lambda m: (len(m.terms) > 0, "empty model"))
        for target, n, t_star in inp["cases"]:
            cert = run.op("certify", "certify.certify_sign",
                          lambda: certify.certify_sign(target, n=n, m=n, t_star=t_star),
                          check=lambda c: (c.certified and c.min_margin > 0,
                                           f"{target} n={n} T*={t_star!r}: {c.status}"))
            if cert is None:
                continue
            sign = -1 if target == "A" else 1
            for seg in cert.segments:
                regime = certify.NEAR_INFINITY if seg.chart == "t" else certify.NEAR_ZERO
                model = models[target, n, regime]
                run.op("rigor", "rigor.enclose", lambda: model.enclose(Interval(seg.lo, seg.hi)),
                       check=lambda iv: _segment_ok(iv, seg, sign))
        run.op("certify", "certify.certify_sign",
               lambda: certify.certify_sign("A", n=1, m=1),
               check=lambda c: (c.status.startswith("failed"), f"n=1 control: {c.status}"))


def _segment_ok(iv, seg, sign: int):
    """The re-enclosure reproduces the certificate's bounds and has strict sign."""
    strict = iv.hi < 0 if sign < 0 else iv.lo > 0
    same = (iv.lo, iv.hi) == (seg.model_lo, seg.model_hi)
    return strict and same, f"[{seg.lo}, {seg.hi}] in {seg.chart}: {iv} vs recorded [{seg.model_lo}, {seg.model_hi}]"


# ---------------------------------------------------------------------------
# oracles: the warm numeric evaluators and their two oracles

# One contour radius per stratum [0, 0.7), [0.7, 1.4), [1.4, 2.1), [2.1, 3.1],
# drawn from a window inside it.  contour_eval(r, "a") takes 12 s at r = 0.1
# but 4.6 s at r = 0.69, so the windows are narrow where the cost changes fast
# with r, which keeps the cost of a pass steady across seeds.
CONTOUR_WINDOWS = ((0.695, 0.70), (1.36, 1.40), (1.90, 2.10), (2.60, 3.10))
VERIFY_LAWS = (("E2", "S"), ("theta00^4", "S"), ("theta01^4", "S"), ("theta10^4", "S"),
               ("phi_0", "S"), ("psi_I", "S"))


class Oracles:
    """Warm process: contour and Hankel oracles, the warm radial sweep,
    scalar series evaluation."""

    MIN_PASSES = 3

    def setup(self) -> None:
        warm_up()

    def inputs(self, rng) -> dict:
        def z(lo, hi):
            return complex(rng.uniform(-0.5, 0.5), rng.uniform(lo, hi))

        return {
            "contour": [rng.uniform(lo, hi) for lo, hi in CONTOUR_WINDOWS],
            "hankel": stratified(rng, 0.5, 2.5, 6),
            "g_radii": stratified(rng, 0.0, 6.0, 400),
            "ghat_radii": stratified(rng, 0.0, 6.0, 400),
            "deriv_radii": stratified(rng, 0.01, 6.0, 200),
            "alpha": rng.uniform(0.8, 2.5),
            "invalid": [(rng.choice(("g", "ghat", "a", "b")), bad) for bad in ("-1", "nan", "inf")],
            "form_z": [z(0.5, 2.0) for _ in range(3)],
            "law_z": [z(0.8, 1.5) for _ in range(6)],
            "t": log_stratified(rng, 0.1, 10.0, 30),
        }

    def run_pass(self, run: Run, inp: dict) -> None:
        for part, fn in (("oracle_s", _oracles), ("eval_warm_s", _warm_sweep),
                         ("series_eval_s", _series_eval)):
            t0 = time.perf_counter()
            fn(run, inp)
            timed(run, part, time.perf_counter() - t0)


def _oracles(run: Run, inp: dict) -> None:
    from e8magic import radial

    for r in inp["contour"]:
        for which, direct in (("a", radial.eval_a), ("b", radial.eval_b)):
            ref = direct(r)
            rv = run.op("radial", f"radial.contour_eval.{which}", lambda: radial.contour_eval(r, which),
                        check=lambda o: _contour_ok(o, ref, r, which))
            if rv is not None:
                run.counts["radial.contour_err_max"] = max(run.counts.get("radial.contour_err_max", 0.0), rv.err)
    for s in inp["hankel"]:
        for which, direct, sgn in (("a", radial.eval_a, 1), ("b", radial.eval_b, -1)):
            ref = direct(s)
            run.op("radial", "radial.hankel", lambda: radial.hankel_fourier_oracle(which, s),
                   check=lambda h: _hankel_ok(h, sgn * ref.value, which, s))


def _warm_sweep(run: Run, inp: dict) -> None:
    """eval_g and eval_g_deriv over [0, 6], the zero ladder, the e8 checks, and
    invalid radii through the CLI entry point (in this warm process: a fresh
    one would build the series to q^200 before it looks at the radius)."""
    from e8magic import radial

    for which in ("g", "ghat"):
        for r in inp[f"{which}_radii"]:
            run.op("radial", "radial.eval_g", lambda: radial.eval_g(r, which),
                   check=lambda rv: _sign_ok(rv.value, rv.err, r, which))
    for i, r in enumerate(inp["deriv_radii"]):
        which = ("g", "ghat")[i % 2]
        run.op("radial", "radial.eval_g_deriv", lambda: radial.eval_g_deriv(r, which),
               check=lambda rv: (finite(rv.value, rv.err), repr(rv)))
    for n in range(1, 7):
        for which in ("g", "ghat"):
            run.op("radial", "radial.eval_g", lambda: radial.eval_g(math.sqrt(2 * n), which),
                   check=lambda rv: (abs(rv.value) <= rv.err, f"zero ladder n={n}: {rv!r}"))
    _e8_checks(run, inp["alpha"])
    for fn, bad in inp["invalid"]:
        run.op("cli", "cli.main.eval_invalid",
               lambda: _call_main(["eval", "--function", fn, "--r", bad]),
               check=lambda code: (code == 2, f"--r {bad}: exit {code}, expected 2"),
               known=None if bad == "-1" else KNOWN_NAN)


def _e8_checks(run: Run, alpha: float) -> None:
    from e8magic import e8

    run.op("e8", "e8.enumerate_shells", lambda: e8.enumerate_shells(40),
           check=lambda t: ((t.count(2), t.count(4), t.count(6)) == (240, 2160, 6720), "shell counts"))
    run.op("e8", "e8.poisson_check", lambda: e8.poisson_check(alpha, 40), check=_poisson_ok)
    run.op("e8", "e8.magic_poisson_check", e8.magic_poisson_check,
           check=lambda res: (abs(res[0] - 1) <= res[2] and abs(res[1] - 1) <= res[2], repr(res)))
    run.op("e8", "e8.density_bound", e8.density_bound,
           check=lambda rep: (rep.matches_reference and abs(rep.bound - math.pi**4 / 384) < 1e-8, repr(rep)))


def _series_eval(run: Run, inp: dict) -> None:
    from e8magic import modforms
    from e8magic.modforms import FormId

    for form in FormId:
        periodic = _integer_exponents(form)
        for z in inp["form_z"]:
            ev = run.op("modforms", "modforms.eval_form", lambda: modforms.eval_form(form, z),
                        check=_eval_form_ok)
            if periodic and ev is not None:
                run.op("modforms", "modforms.eval_form", lambda: modforms.eval_form(form, z + 1),
                       check=lambda e: (abs(e.value - ev.value) <= e.tail_bound + ev.tail_bound
                                        + 1e-8 * (1 + abs(ev.value)),
                                        f"{form.value}(z+1) != {form.value}(z) at z={z!r}"))
    for name, law in VERIFY_LAWS:
        form = FormId(name)
        for z in inp["law_z"]:
            run.op("modforms", "modforms.verify_transform", lambda: modforms.verify_transform(form, law, z),
                   check=lambda c: (c.passed, f"{name} {law} at {z!r}: {c}"))
    for t in inp["t"]:
        for target in "AB":
            numeric_value_op(run, target, t)


def numeric_value_op(run: Run, target: str, t: float) -> None:
    """numeric_value must have the proved sign, A < 0 and B > 0, beyond its error."""
    from e8magic import certify

    def check(ve):
        value, err = ve
        ok = finite(value, err) and (value + err < 0 if target == "A" else value - err > 0)
        return ok, f"{target}({t!r}) = {value!r} +/- {err!r}"

    run.op("certify", "certify.numeric_value", lambda: certify.numeric_value(target, t), check=check,
           known=KNOWN_ROUNDOFF if target == "B" and t > 6.5 else None)


def warm_up() -> None:
    """Import e8magic and call each public function the oracles pass uses once,
    at an input outside the sampled domains, so the series caches and Hankel
    tables are filled before timing.  contour_eval needs nothing beyond the
    order-200 series that eval_a and eval_b build, so it is not called here."""
    from e8magic import certify, modforms, radial
    from e8magic.modforms import FormId

    radial.eval_a(6.5)
    radial.eval_b(6.5)
    radial.eval_g(6.5)
    radial.eval_g_deriv(6.5)
    radial.hankel_fourier_oracle("a", 3.0)
    radial.hankel_fourier_oracle("b", 3.0)
    for form in FormId:
        modforms.eval_form(form, WARM_Z)
    modforms.verify_transform(FormId.E2, "S", WARM_Z)
    certify.numeric_value("A", 0.05)
    certify.numeric_value("B", 0.05)


def _call_main(argv: list[str]) -> int:
    from e8magic import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _integer_exponents(form) -> bool:
    from e8magic.modforms import build_form

    series = build_form(form)
    return series.lead % 8 == 0 and series.stride % 8 == 0


def _contour_ok(o, ref, r: float, which: str):
    ok = close(o.value, ref.value, 1e-8) and abs(o.residual) <= o.err + 1e-10
    return ok, f"contour {which} r={r!r}: {o!r} vs {ref!r}"


def _hankel_ok(h, expected: float, which: str, s: float):
    """The Hankel transform of a is a, of b is -b (Fourier eigenvalues +1, -1)."""
    return abs(h.value - expected) <= 1e-6 * (1 + abs(h.value)), f"hankel {which} s={s!r}: {h!r} vs {expected!r}"


def _eval_form_ok(e):
    return finite(abs(e.value), e.tail_bound) and e.tail_bound >= 0, repr(e)


def _poisson_ok(rep):
    """The acceptance tolerance.  ``rep.passed`` compares against a truncation
    bound that leaves float roundoff out, so it is false for most alpha."""
    return rep.discrepancy < 1e-10 and rep.scaled_discrepancy < 1e-10, repr(rep)


WORKLOADS = {"cold-eval": ColdEval, "proof": Proof, "oracles": Oracles}
