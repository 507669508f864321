"""Per-layer spans and counters, installed from outside the program.

Each traced function is replaced, in every ``bnkeypad`` module namespace
that holds it, by a wrapper, so it is traced as its callers see it. A
span wrapper records calls, inclusive time and self time (inclusive time
minus the time of child spans); a count wrapper on a hot inner call only
counts, so its time stays in its caller's self time. Spans live in memory
and are read out per operation.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from math import perm
from time import perf_counter


def _read_bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _scan_counts(_args, result):
    units, skipped = result
    return {"units": len(units), "skipped": skipped}


def _presses(_args, result):
    return {"presses": len(result.presses)}


def _assignments(args, _result):
    instance = args[0]
    return {"assignments": perm(len(instance.key_slots), len(instance.units))}


def _nonzero(_args, result):
    return {"nonzero_exits": int(result != 0)}


def _written_bytes(args, _result):
    return {"bytes": len(args[1].encode("utf-8"))}


# (module, function, "span" or "count", extra per-call measurements)
TARGETS = (
    ("bn_text", "read_corpus", "span", _read_bytes),
    ("bn_text", "count_frequencies", "span", None),
    ("bn_text", "scan_units", "span", _scan_counts),
    ("bn_text", "count_unit_bigrams", "span", None),
    ("bn_text", "merge", "count", None),
    ("transcribe", "transcribe", "span", _presses),
    ("transcribe", "evaluate", "span", None),
    ("transcribe", "decode", "span", None),
    ("ergonomics", "key_cost", "count", None),
    ("ergonomics", "rank_keys", "count", None),
    ("layout", "build_layout", "span", None),
    ("layout", "serialize", "span", None),
    ("layout", "load_layout", "span", None),
    ("optimize", "improve_local", "span", None),
    ("optimize", "objective_value", "span", None),
    ("optimize", "solve_greedy", "span", None),
    ("optimize", "solve_exhaustive", "span", _assignments),
    ("cli", "main", "span", _nonzero),
    ("cli", "write_text_atomic", "span", _written_bytes),
)

# Per-layer metrics with their units, in the order they are reported.
# ".s" is self seconds per operation; counts are per operation.
PER_LAYER = (
    ("bn_text.read_corpus.s", "s"), ("bn_text.read_corpus.bytes", "bytes"),
    ("bn_text.count_frequencies.s", "s"), ("bn_text.count_frequencies.calls", "count"),
    ("bn_text.scan_units.s", "s"), ("bn_text.scan_units.units", "count"),
    ("bn_text.scan_units.skipped", "count"), ("bn_text.count_unit_bigrams.s", "s"),
    ("bn_text.merge.calls", "count"), ("bn_text.ns_per_unit", "ns/unit"),
    ("transcribe.transcribe.s", "s"), ("transcribe.transcribe.calls", "count"),
    ("transcribe.transcribe.presses", "count"), ("transcribe.evaluate.s", "s"),
    ("transcribe.evaluate.calls", "count"), ("transcribe.decode.s", "s"),
    ("transcribe.ns_per_unit", "ns/unit"),
    ("ergonomics.key_cost.calls", "count"), ("ergonomics.rank_keys.calls", "count"),
    ("layout.build_layout.s", "s"), ("layout.serialize.s", "s"),
    ("layout.load_layout.s", "s"), ("layout.load_layout.calls", "count"),
    ("optimize.improve_local.s", "s"), ("optimize.objective_value.calls", "count"),
    ("optimize.objective_value.s", "s"), ("optimize.swaps_per_s", "1/s"),
    ("optimize.solve_greedy.s", "s"), ("optimize.solve_exhaustive.s", "s"),
    ("optimize.exhaustive.assignments", "count"),
    ("optimize.exhaustive.assignments_per_s", "1/s"),
    ("cli.main.s", "s"), ("cli.main.calls", "count"), ("cli.main.nonzero_exits", "count"),
    ("cli.write_text_atomic.s", "s"), ("cli.write_text_atomic.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Accumulates spans and counts for one operation at a time."""

    def __init__(self):
        self.acc: dict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span

    def _span(self, name, fn, extra):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.acc[name + ".s"] += elapsed - children
                self.acc[name + ".incl_s"] += elapsed
                self.acc[name + ".calls"] += 1
            if extra is not None:
                for key, value in extra(args, result).items():
                    self.acc[f"{name}.{key}"] += value
            return result
        return wrapper

    def _count(self, name, fn):
        counter = name + ".calls"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.acc[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in every loaded ``bnkeypad`` module, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bnkeypad" or n.startswith("bnkeypad."))]
        undo = []
        for module_name, func_name, kind, extra in TARGETS:
            original = getattr(sys.modules.get(f"bnkeypad.{module_name}"), func_name, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            name = f"{module_name}.{func_name}"
            wrapper = (self._span(name, original, extra) if kind == "span"
                       else self._count(name, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def take(self, units: int) -> dict[str, float]:
        """Per-layer metrics of the operation just traced; resets the counters."""
        acc, self.acc = self.acc, defaultdict(float)
        bn_text_s = sum(acc[f"bn_text.{f}.s"] for f in
                        ("read_corpus", "count_frequencies", "scan_units", "count_unit_bigrams"))
        transcribe_s = sum(acc[f"transcribe.{f}.s"] for f in ("transcribe", "evaluate", "decode"))
        out = {name: acc[name] for name, _unit in PER_LAYER if name in acc}
        out["bn_text.ns_per_unit"] = 1e9 * bn_text_s / units if units else 0.0
        out["transcribe.ns_per_unit"] = 1e9 * transcribe_s / units if units else 0.0
        out["optimize.swaps_per_s"] = _rate(acc["optimize.objective_value.calls"],
                                            acc["optimize.improve_local.incl_s"])
        out["optimize.exhaustive.assignments"] = acc["optimize.solve_exhaustive.assignments"]
        out["optimize.exhaustive.assignments_per_s"] = _rate(
            acc["optimize.solve_exhaustive.assignments"], acc["optimize.solve_exhaustive.incl_s"])
        return {name: out.get(name, 0.0) for name, _unit in PER_LAYER
                if name != "trace.overhead_s"}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0
