"""Call-by-call alternated timing of one warm call in two checkouts, in one process.

    python3 tools/interleave.py PARENT CHANGE --call eval_g --calls 4000 --seed 1

Loads ``src/e8magic`` of each checkout under its own package name
(``e8magic_parent``, ``e8magic_change``), warms both up, and then makes the
call on the same seeded inputs, one input at a time on both sides: the parent
first on even inputs, the change first on odd ones.  It prints each side's
median and quartiles of the time per call, the median and quartiles of the
per-input ratios change / parent, and the Python bytecodes per call (opcode
events of ``sys.settrace``, averaged over the first inputs).  It exits 1 if
the two sides return different bits for any input.

The calls and their inputs:

- ``eval_g``, ``eval_g_deriv``: ``radial.eval_g(r)``, ``radial.eval_g_deriv(r)``,
  r uniform on [0.01, 6];
- ``numeric_value``: ``certify.numeric_value(target, t)``, target A and B
  alternated, t log-uniform on [0.1, 10];
- ``eval_form``: ``modforms.eval_form(form, z)``, form drawn from the
  catalog, Re z uniform on [-0.5, 0.5] and Im z on [0.5, 2];
- ``certify_sign``: ``certify.certify_sign(target, n, None, t)``, target
  drawn from A and B, n from 6, 8 and 10, and t uniform on [4, 12]; its bits
  are those of the certificate's JSON document.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import random
import statistics
import struct
import sys
import time
from pathlib import Path

# inputs whose bytecodes are counted, after the warm-up
_TRACED = 20


def load(checkout: Path, name: str):
    """The ``e8magic`` package of a checkout, imported as ``name``."""
    root = checkout.resolve() / "src" / "e8magic"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def calls(package: str, call: str, count: int, seed: int):
    """The function of ``call`` in ``package`` and its seeded argument tuples."""
    rng = random.Random(seed)
    if call in ("eval_g", "eval_g_deriv"):
        fn = getattr(importlib.import_module(f"{package}.radial"), call)
        return fn, [(rng.uniform(0.01, 6.0),) for _ in range(count)]
    if call == "numeric_value":
        fn = importlib.import_module(f"{package}.certify").numeric_value
        return fn, [("AB"[i % 2], math.exp(rng.uniform(math.log(0.1), math.log(10.0)))) for i in range(count)]
    if call == "certify_sign":
        fn = importlib.import_module(f"{package}.certify").certify_sign
        return fn, [(rng.choice("AB"), rng.choice((6, 8, 10)), None, rng.uniform(4.0, 12.0)) for _ in range(count)]
    modforms = importlib.import_module(f"{package}.modforms")
    forms = list(modforms.FormId)
    return modforms.eval_form, [
        (rng.choice(forms), complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))) for _ in range(count)
    ]


def bits(result) -> bytes:
    """The bytes of every float a result holds: the slots or the attributes of
    a record, the items of a tuple, the parts of a complex number; of a
    certificate, its JSON document."""
    if hasattr(result, "to_doc"):
        return json.dumps(result.to_doc(), sort_keys=True).encode()
    if getattr(type(result), "__slots__", ()):
        items = [getattr(result, name) for name in type(result).__slots__]
    else:
        items = list(vars(result).values()) if hasattr(result, "__dict__") else list(result)
    floats = []
    for x in items:
        x = complex(x)
        floats += [x.real, x.imag]
    return struct.pack(f"{len(floats)}d", *floats)


def bytecodes(fn, inputs) -> float:
    """Opcode events per call of fn over the inputs."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        for args in inputs:
            fn(*args)
    finally:
        sys.settrace(None)
    return count / len(inputs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (a single value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--call", required=True,
                        choices=("eval_g", "eval_g_deriv", "numeric_value", "eval_form", "certify_sign"))
    parser.add_argument("--calls", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    # per side its function and inputs: the same draws, in its own package's types
    sides = {}
    for side in ("parent", "change"):
        package = f"e8magic_{side}"
        load(getattr(args, side), package)
        sides[side] = fn, inputs = calls(package, args.call, args.calls, args.seed)
        for x in inputs:  # warm-up: builds the series and fills every cache the calls read
            fn(*x)
    counts = {side: bytecodes(fn, inputs[:_TRACED]) for side, (fn, inputs) in sides.items()}

    times = {side: [] for side in sides}
    for i in range(args.calls):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        out = {}
        for side in order:
            fn, inputs = sides[side]
            x = inputs[i]
            t0 = time.perf_counter()
            out[side] = fn(*x)
            times[side].append(time.perf_counter() - t0)
        if bits(out["parent"]) != bits(out["change"]):
            print(f"{args.call}{x!r}: parent {out['parent']!r} != change {out['change']!r}", file=sys.stderr)
            return 1

    print(f"{args.call}, {args.calls} alternated calls, seed {args.seed}: median [q1, q3]")
    for side in sides:
        q1, median, q3 = (1e6 * v for v in quartiles(times[side]))
        print(f"{side:6s} {median:9.1f} us [{q1:.1f}, {q3:.1f}]  {counts[side]:.0f} bytecodes per call")
    q1, median, q3 = quartiles([c / p for p, c in zip(times["parent"], times["change"])])
    print(f"ratio change / parent: median {median:.3f} [{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
