"""Out-of-program tracing: wrap public functions of the package for the
duration of a traced run, record spans in memory, and derive per-layer
numbers from them afterwards.

Nothing here is imported by the package, and every wrapper is removed when
the traced run ends, so untraced runs call the original functions.

A span is (name, start, end, parent, query, calls, busy, value). Functions
called once per query or less get one span per call. Functions called per
search state (``leaf`` targets, which call no other target) would give
millions of spans, so all their calls inside one parent span are folded into
one span: ``calls`` counts them, ``busy`` sums their durations, and start and
end are the first call's start and the last call's end.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """A public function to wrap: ``attr`` in module ``module`` (``Class.method``
    for a method), reported as ``name``.

    ``value`` maps the call's result to a number summed over calls (the
    outcome of a predicate, the hits of a range query). ``kind`` is "span"
    for one span per call, "leaf" to fold calls per parent span, or "count"
    for a bare call count, for functions too hot to time.
    """

    module: str
    attr: str
    name: str
    value: Optional[Callable[[object], int]] = None
    kind: str = "span"


def _truth(result) -> int:
    return 1 if result else 0


def _leaf(module: str, attr: str, value=None) -> Target:
    return Target(f"rallypoint.{module}", attr, f"{module}.{attr}", value, "leaf")


TARGETS: Tuple[Target, ...] = (
    Target("rallypoint.multi_venue", "srdo_seed", "multi_venue.srdo_seed"),
    Target("rallypoint.single_venue", "candidate_order", "single_venue.candidate_order"),
    Target("rallypoint.rtree", "Rtree.range_query", "rtree.range_query", len),
    Target("rallypoint.model", "SocialGraph.__init__", "model.SocialGraph"),
    Target("rallypoint.indexes", "build_indexes", "indexes.build_indexes"),
    Target("rallypoint.model", "distance", "model.distance", kind="count"),
    _leaf("balltree", "mindist_point_ball"),
    _leaf("balltree", "mindist_mbr_ball"),
    _leaf("single_venue", "sso_admits", _truth),
    _leaf("model", "familiarity_ok", _truth),
    _leaf("pruning", "avg_familiarity_prune", _truth),
    _leaf("pruning", "distance_prune", _truth),
    _leaf("pruning", "member_familiarity_prune", _truth),
    _leaf("pruning", "pool_familiarity_prune", _truth),
    _leaf("pruning", "outer_triangle_ball_bound"),
    _leaf("pruning", "inner_triangle_bound"),
    _leaf("pruning", "ball_distance_bound"),
)


def bindings(target: Target):
    """(namespaces, attribute, original) for a target: the class that owns a
    method, or every ``rallypoint`` module that binds the function."""
    owner = sys.modules[target.module]
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    if path:
        return [owner], attr, original
    namespaces = [
        module
        for name, module in list(sys.modules.items())
        if (name == "rallypoint" or name.startswith("rallypoint."))
        and getattr(module, attr, None) is original
    ]
    return namespaces, attr, original


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for none
    query: int  # query id, -1 outside the stream
    calls: int = 1
    busy: float = 0.0  # summed call durations; end - start for a single call
    value: int = 0


class Tracer:
    """Span recorder; ``query_id`` is set by the caller before each query."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.query_id = -1
        self._stack: List[int] = [-1]
        # (parent span, name) -> folded leaf span, while the parent is open
        self._folded: Dict[Tuple[int, str], Span] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1], self.query_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _span_wrapper(self, fn, name: str, value):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            span = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if value is not None:
                span.value = value(result)
            return result

        return traced

    def _leaf_wrapper(self, fn, name: str, value):
        stack, folded, clock = self._stack, self._folded, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            key = (stack[-1], name)
            span = folded.get(key)
            if span is None:
                span = folded[key] = Span(name, start, end, stack[-1], self.query_id, 0)
            span.calls += 1
            span.busy += end - start
            span.end = end
            if value is not None:
                span.value += value(result)
            return result

        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def all_spans(self) -> List[Span]:
        """Every span, folded leaf spans after the spans they were called in."""
        return self.spans + list(self._folded.values())

    # -- installing wrappers -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every package namespace that binds it."""
        for target in TARGETS:
            namespaces, attr, original = bindings(target)
            if target.kind == "count":
                wrapper = self._count_wrapper(original, target.name)
            elif target.kind == "leaf":
                wrapper = self._leaf_wrapper(original, target.name, target.value)
            else:
                wrapper = self._span_wrapper(original, target.name, target.value)
            for namespace in namespaces:
                self._patched.append((namespace, attr, original))
                setattr(namespace, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write(self, path: str) -> None:
        """Spans as JSON lines, in the field order of ``Span``."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.all_spans():
                row = [s.name, s.start, s.end, s.parent, s.query, s.calls, s.busy, s.value]
                out.write(json.dumps(row) + "\n")


@dataclass
class NameSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value_sum: int = 0


def summarize(spans: List[Span], queries_only: bool = False) -> Dict[str, NameSummary]:
    """Calls, total time, self time and value sums per span name; with
    ``queries_only``, of the spans recorded within queries only.

    A span's self time is its busy time minus the part of it that its child
    spans cover. One thread runs them, so children never overlap and that
    part is the sum of the children's busy times.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.busy
    out: Dict[str, NameSummary] = {}
    for s, child_s in zip(spans, covered):
        if queries_only and s.query < 0:
            continue
        summary = out.setdefault(s.name, NameSummary())
        summary.calls += s.calls
        summary.total_s += s.busy
        summary.self_s += s.busy - child_s
        summary.value_sum += s.value
    return out
