"""In-memory spans around the benchmark's calls into essencekit.

A span is (name, start, end, parent index, op id, failed). The benchmark
opens one ``op.<kind>`` span per operation and a span named
``<layer>.<function>`` around every public call it makes, so a layer's
self time is its spans' durations minus the child spans they enclose.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

LAYERS = ("store", "engine", "designation", "description", "metamodel", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def op(self, kind: str) -> "_Span":
        self.op_id += 1
        return _Span(self, f"op.{kind}")


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer._stack.append(self.index)
        tracer.spans.append(None)  # reserve the slot so children see it
        self.start = perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        # A tuple of plain values, so the collector stops tracking it.
        tracer.spans[self.index] = (self.name, self.start, end, self.parent,
                                    tracer.op_id, exc_type is not None)
        return False


class NullTracer:
    """Same interface, records nothing: the untraced runs use this."""

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN

    def op(self, kind: str) -> "_NullSpan":
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def write_spans(spans: list[tuple], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, op_id, failed in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op_id,
                                 "failed": failed}) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[tuple], wall_s: float) -> dict:
    """Busy time, calls and failures per span name; self share per layer."""
    by_name: dict[str, dict] = {}
    for name, start, end, _, _, failed in spans:
        entry = by_name.setdefault(name, {"busy_s": 0.0, "calls": 0,
                                          "failed": 0, "durations": []})
        entry["busy_s"] += end - start
        entry["calls"] += 1
        entry["failed"] += failed
        entry["durations"].append(end - start)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    shares = {layer: own / wall_s for layer, own in layer_self.items()}
    return {"functions": by_name, "self_share": shares}


def children_busy(spans: list[tuple], parent_name: str) -> float:
    """Total duration of the direct children of every span named parent_name."""
    parents = {i for i, span in enumerate(spans) if span[0] == parent_name}
    return sum(end - start for _, start, end, parent, _, _ in spans
               if parent in parents)


def tail_head_ratio(spans: list[tuple], name: str) -> float:
    """Mean cost of the last tenth of calls over the first tenth, per op.

    The calls of one replay share an op id; the median over replays is
    returned, or 0.0 when no replay made at least two calls.
    """
    per_op: dict[int, list[float]] = {}
    for span_name, start, end, _, op_id, _ in spans:
        if span_name == name:
            per_op.setdefault(op_id, []).append(end - start)
    ratios = []
    for durations in per_op.values():
        if len(durations) < 2:
            continue
        tenth = max(1, len(durations) // 10)
        head = sum(durations[:tenth]) / tenth
        tail = sum(durations[-tenth:]) / tenth
        if head > 0:
            ratios.append(tail / head)
    return statistics.median(ratios) if ratios else 0.0
