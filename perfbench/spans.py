"""Spans around the public functions of each `findiag` module, kept in
memory, and the per-layer metrics derived from them.

The tracer replaces each public function of the layer modules in every
`findiag.*` namespace that holds it, so calls made through `from .x import f`
are seen too, and puts the originals back on `uninstall`.  A span is
(function id, start ns, end ns, parent span, job id, note), where the note
is a small number taken from the call's result (see NOTES) or the name of
the exception it raised.  A layer's self time is its spans' durations minus
the durations of their direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from typing import Dict, List

LAYERS = ("cli", "serialize", "sequences", "majorize", "decide", "explore", "construct")

NOTES = {
    "decide.witness_bounds": lambda args, r: math.prod(r) if r and min(r) >= 1 else 0,
    "decide.enumerate_witnesses": lambda args, r: len(r),
    "decide.decide": lambda args, r: int(r.feasible),
    "explore.candidate_multiplicity_bound": lambda args, r: r,
    "explore.emit_region": lambda args, r: len(r),
    "construct.realize_truncated": lambda args, r: (r.dimension, len(r.provenance)),
    "construct.verify_realization": lambda args, r: r.spectrum_distance,
    "serialize.dump_json": lambda args, r: len(r),
    "serialize.load_json": lambda args, r: len(args[0]),
}

# Per-layer metrics that must repeat exactly for a given seed and job set.
COUNTS = (
    "sequences.threshold_stats.calls",
    "sequences.normalize.calls",
    "decide.decide.calls",
    "decide.box_candidates",
    "decide.witness_yield",
    "majorize.equivalent_form_check.calls",
    "explore.cap_total",
    "explore.cells",
    "explore.feasible_share",
    "construct.horn_construct.calls",
    "construct.rotations",
    "construct.matrix_dim_total",
    "construct.truncation_retry_share",
    "serialize.bytes_out",
    "serialize.bytes_in",
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[tuple] = []
        self.job = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter_ns, NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
            except BaseException as exc:
                spans[idx] = (fid, start, clock(), parent, tracer.job, type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (fid, start, end, parent, tracer.job, note(args, result) if note else None)
            return result

        return traced

    def install(self) -> None:
        if not self._patches:
            modules = [m for name, m in sys.modules.items() if name == "findiag" or name.startswith("findiag.")]
            for layer in LAYERS:
                mod = sys.modules[f"findiag.{layer}"]
                for attr, fn in list(vars(mod).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                        continue
                    traced = self._wrap(f"{layer}.{attr}", fn)
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is fn:
                                self._patches.append((holder, key, fn, traced))
        for holder, key, fn, traced in self._patches:
            setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, fn, traced in reversed(self._patches):
            setattr(holder, key, fn)

    def take(self) -> List[tuple]:
        """Hand over the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def write(self, path: str, spans: List[tuple]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh)


def layer_metrics(names: List[str], spans: List[tuple]) -> Dict[str, float]:
    """Self times per layer and function, and the counters, from one pass."""
    child = [0] * len(spans)
    for fid, start, end, parent, job, note in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for (fid, start, end, parent, job, note), inner in zip(spans, child):
        name = names[fid]
        self_ns[name] = self_ns.get(name, 0) + (end - start - inner)
        calls[name] = calls.get(name, 0) + 1

    def self_s(*fns: str) -> float:
        return sum(self_ns.get(f, 0) for f in fns) / 1e9

    def notes(name: str, parents=None):
        return [
            s[5] for s in spans
            if names[s[0]] == name and (parents is None or (s[3] >= 0 and names[spans[s[3]][0]] in parents))
        ]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*(n for n in self_ns if n.split(".")[0] == layer))
    for fn in ("sequences.threshold_stats", "sequences.normalize", "construct.horn_construct"):
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = self_s(fn)
    m["decide.decide.calls"] = calls.get("decide.decide", 0)
    m["majorize.equivalent_form_check.calls"] = calls.get("majorize.equivalent_form_check", 0)

    def total(values) -> int:  # exception names are not counts
        return sum(v for v in values if isinstance(v, int))

    box = total(notes("decide.witness_bounds", {"decide.enumerate_witnesses"}))
    found = total(notes("decide.enumerate_witnesses"))
    m["decide.enumerate_witnesses.self_s"] = self_s("decide.enumerate_witnesses")
    m["decide.box_candidates"] = box
    m["decide.ns_per_candidate"] = ratio(self_ns.get("decide.enumerate_witnesses", 0), box)
    m["decide.witness_yield"] = ratio(found, box)

    sweeps = ("explore.three_point_spectra", "explore.four_point_region")
    cells = notes("decide.decide", set(sweeps))
    m["explore.candidate_multiplicity_bound.self_s"] = self_s("explore.candidate_multiplicity_bound")
    m["explore.cap_total"] = total(notes("explore.candidate_multiplicity_bound"))
    m["explore.sweep.self_s"] = self_s(*sweeps)
    m["explore.cells"] = len(cells)
    m["explore.feasible_share"] = ratio(total(cells), len(cells))
    m["explore.emit_region.self_s"] = self_s("explore.emit_region")

    realized = notes("construct.realize_truncated")
    built = [n for n in realized if isinstance(n, tuple)]
    m["construct.realize_truncated.self_s"] = self_s("construct.realize_truncated")
    m["construct.rotations"] = sum(r for _, r in built)
    m["construct.matrix_dim_total"] = sum(d for d, _ in built)
    m["construct.truncation_retry_share"] = ratio(
        sum(n == "TruncationTooSmallError" for n in realized), len(realized)
    )
    m["construct.verify_realization.self_s"] = self_s("construct.verify_realization")
    m["construct.max_spectrum_distance"] = max(
        (n for n in notes("construct.verify_realization") if isinstance(n, float)), default=0.0
    )

    m["serialize.dump_s"] = self_s(*(n for n in self_ns if n.startswith("serialize.dump_")))
    m["serialize.parse_s"] = self_s(
        *(n for n in self_ns if n.startswith(("serialize.parse_", "serialize.load_")))
    )
    m["serialize.bytes_out"] = total(notes("serialize.dump_json"))
    m["serialize.bytes_in"] = total(notes("serialize.load_json"))
    m["trace.self_sum_s"] = sum(self_ns.values()) / 1e9
    return m
