"""Spans recorded by the benchmark around its calls into e8magic.

A span has a name, a layer, start and end times (``time.perf_counter``, which
is CLOCK_MONOTONIC on Linux and so comparable across processes), the id of the
span that caused it and the id of the operation it belongs to.  Spans stay in
memory and are written as JSON lines when the run ends.  A disabled tracer
records nothing; its ``span`` costs one attribute check.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("cli", "qseries", "modforms", "rigor", "certify", "radial", "e8")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_op = 0

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._next_op += 1
            op = self._next_op
        else:
            op = self.spans[parent]["op"]
        rec = {"id": sid, "name": name, "layer": layer, "parent": parent, "op": op,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def adopt(self, spans: list[dict]) -> None:
        """Add spans recorded by a child process under the current span."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent]["op"] if parent is not None else 0
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec)
            rec["id"] += base
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            rec["op"] = op
            self.spans.append(rec)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus what its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    totals: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + (s["end"] - s["start"]) - covered
    return totals
