"""Spans around the layer calls the benchmark makes, and the per-layer
metrics derived from them.

A span is ``[name, start, end, parent, request, calls]``: ``parent`` is the
index of the enclosing span (``None`` for a request's root span) and
``calls`` is 1, except for the summed spans of per-event boundaries (the
``read_events`` iterator and the output sink), which fold every call of one
request into one span whose length is the summed time.  A layer's self time
is its span's length minus its children's lengths.

:class:`NullTracer` is what untraced runs use: it hands every callable and
iterator back unchanged, so the measured requests run the same code with
nothing added but a few no-op context managers.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List, Optional

import mfx.mft
import mfx.optimize
from mfx.mft import size

_NULL = contextlib.nullcontext()

#: optimize passes timed by replacing the module attribute, and their spans
OPTIMIZE_PASSES = {
    "remove_unreachable": "optimize.unreachable",
    "unused_params": "optimize.unused",
    "constant_params": "optimize.constant",
    "remove_stay_moves": "optimize.stay",
}
FIXPOINT_CHECK = "optimize.fixpoint_check"


class NullTracer:
    def request(self, rid):
        return _NULL

    def span(self, name):
        return _NULL

    def events(self, it):
        return it

    def sink(self, fn):
        return fn

    def compose_done(self, idx, report, fused):
        pass

    def keep(self, name, mft):
        pass

    def count(self, name, value):
        pass


class Tracer:
    """Records spans and counts for the requests run inside :meth:`request`."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[object, Dict[str, float]] = {}
        self._stack: List[int] = []
        self._rid = None
        # summed spans: [name, parent, first_start, total, calls]
        self._sums: List[list] = []
        self._kept: List[tuple] = []
        self._gc_start: Optional[float] = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._rid, 1])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def request(self, rid):
        self._rid = rid
        self.counts[rid] = {}
        gc.callbacks.append(self._on_gc)
        try:
            with self.span("request"):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._finish_request()
            self._rid = None

    def _finish_request(self):
        for name, parent, start, total, calls in self._sums:
            self.spans.append([name, start, start + total, parent, self._rid,
                               calls])
            if name == "xmlio.read":
                self.count("xmlio.read_events", calls)
        self._sums = []
        # transducer sizes are computed after the request so they cost
        # nothing inside it
        for name, mft in self._kept:
            self.count(name, size(mft))
        self._kept = []

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.count("runtime.gc_ms",
                       (time.perf_counter() - self._gc_start) * 1e3)
            self.count("runtime.gc_collections", 1)
            self._gc_start = None

    # -- summed per-event boundaries ------------------------------------------

    def _sum_slot(self, name: str) -> list:
        slot = [name, self._stack[-1], None, 0.0, 0]
        self._sums.append(slot)
        return slot

    def events(self, it):
        """Wrap an event iterator; time spent in ``next()`` is summed."""
        slot = self._sum_slot("xmlio.read")
        nxt = iter(it).__next__
        clock = time.perf_counter

        def timed():
            while True:
                t = clock()
                if slot[2] is None:
                    slot[2] = t
                try:
                    ev = nxt()
                except StopIteration:
                    slot[3] += clock() - t
                    return
                slot[3] += clock() - t
                slot[4] += 1
                yield ev
        return timed()

    def sink(self, fn):
        """Wrap an output sink; time spent in its calls is summed."""
        slot = self._sum_slot("xmlio.write")
        clock = time.perf_counter

        def timed(ev):
            t = clock()
            if slot[2] is None:
                slot[2] = t
            fn(ev)
            slot[3] += clock() - t
            slot[4] += 1
        return timed

    # -- composition and counts ----------------------------------------------

    def compose_done(self, idx: int, report, fused):
        """Split the finished compose span ``idx``: the product construction
        is the report's own timing, the rest of the span is pruning."""
        start = self.spans[idx][1]
        self.spans.append(["compose.product", start, start + report.seconds,
                           idx, self._rid, 1])
        self.count("compose.full_size", report.size_out)
        self.keep("compose.pruned_size", fused)

    def keep(self, name: str, mft):
        self._kept.append((name, mft))

    def count(self, metric: str, value):
        """Add to a per-layer count metric of the current request."""
        counts = self.counts[self._rid]
        counts[metric] = counts.get(metric, 0) + value

    # -- instrumentation of module attributes -------------------------------

    @contextlib.contextmanager
    def instrument(self):
        """Replace the optimize passes and ``print_mft`` (the fixpoint
        check) with timing wrappers for the duration of the block.  The
        wrappers only record when called from inside an ``optimize`` span,
        so the pruning step of ``compose`` stays part of compose."""
        saved = [(mfx.optimize, name, getattr(mfx.optimize, name))
                 for name in OPTIMIZE_PASSES]
        saved.append((mfx.mft, "print_mft", mfx.mft.print_mft))
        for module, name, fn in saved:
            span = OPTIMIZE_PASSES.get(name, FIXPOINT_CHECK)
            setattr(module, name, self._wrap(fn, span))
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def _wrap(self, fn, span_name: str):
        def wrapper(*args, **kwargs):
            if self.current() != "optimize":
                return fn(*args, **kwargs)
            with self.span(span_name):
                return fn(*args, **kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit) in report order; every one is printed on every workload,
#: 0 where the workload never calls the layer
LAYER_METRICS = (
    ("xquery.parse_ms", "ms"),
    ("compile.ms", "ms"),
    ("compile.size", "count"),
    ("optimize.ms", "ms"),
    ("optimize.rounds", "count"),
    ("optimize.size_out", "count"),
    ("optimize.unreachable_ms", "ms"),
    ("optimize.unused_ms", "ms"),
    ("optimize.constant_ms", "ms"),
    ("optimize.stay_ms", "ms"),
    ("optimize.fixpoint_check_ms", "ms"),
    ("xmlio.read_ms", "ms"),
    ("xmlio.read_events", "count"),
    ("stream.self_ms", "ms"),
    ("stream.us_per_event", "us"),
    ("stream.events_in", "count"),
    ("stream.events_out", "count"),
    ("stream.peak_nodes", "count"),
    ("stream.peak_suspensions", "count"),
    ("xmlio.write_ms", "ms"),
    ("xmlio.write_bytes", "bytes"),
    ("compose.product_ms", "ms"),
    ("compose.prune_ms", "ms"),
    ("compose.full_size", "count"),
    ("compose.pruned_size", "count"),
    ("compose.keep_ratio", "ratio"),
    ("mft.evaluate_ms", "ms"),
    ("xmlio.build_forest_ms", "ms"),
    ("forest.coalesce_ms", "ms"),
    ("xmlio.forest_to_bytes_ms", "ms"),
    ("runtime.gc_ms", "ms"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_ms", "ms"),
)

#: span name -> metric of its self time (ms per request)
_SELF_MS = {
    "xquery.parse": "xquery.parse_ms",
    "compile": "compile.ms",
    "optimize.unreachable": "optimize.unreachable_ms",
    "optimize.unused": "optimize.unused_ms",
    "optimize.constant": "optimize.constant_ms",
    "optimize.stay": "optimize.stay_ms",
    FIXPOINT_CHECK: "optimize.fixpoint_check_ms",
    "xmlio.read": "xmlio.read_ms",
    "stream": "stream.self_ms",
    "xmlio.write": "xmlio.write_ms",
    "compose.product": "compose.product_ms",
    "compose": "compose.prune_ms",
    "mft.evaluate": "mft.evaluate_ms",
    "xmlio.build_forest": "xmlio.build_forest_ms",
    "forest.coalesce": "forest.coalesce_ms",
    "xmlio.forest_to_bytes": "xmlio.forest_to_bytes_ms",
}


def self_times(spans: List[list]) -> List[float]:
    """Self time (s) of every span: its length minus its children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def self_ms_by_layer(tracer: Tracer) -> Dict[str, float]:
    """Mean self time per traced request (ms) of every span name; these add
    up to the mean traced request time (``request`` is the harness's own
    share)."""
    n = max(1, len(tracer.counts))
    out: Dict[str, float] = {}
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        out[s[0]] = out.get(s[0], 0.0) + st * 1e3 / n
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def request_self_check(tracer: Tracer) -> dict:
    """Per request, the layers' self times against the request span.

    Returns the largest absolute difference between their sum and the
    request span, and the most negative self time (a child that does not
    fit in its parent would show here), both in ms."""
    selfs = self_times(tracer.spans)
    by_request: Dict[object, float] = {}
    root: Dict[object, float] = {}
    lowest = 0.0
    for s, st in zip(tracer.spans, selfs):
        by_request[s[4]] = by_request.get(s[4], 0.0) + st
        if s[0] == "request":
            root[s[4]] = s[2] - s[1]
        lowest = min(lowest, st)
    worst = max((abs(by_request[r] - root[r]) for r in root), default=0.0)
    return {"requests": len(root), "max_sum_residual_ms": worst * 1e3,
            "min_self_ms": lowest * 1e3}


def layer_metrics(tracer: Tracer,
                  stats_by_rid: Dict[object, object]) -> Dict[str, float]:
    """The per-layer metrics of a traced run, as per-request means (times,
    sizes, events, bytes), maxima (peaks) or ratios of totals."""
    n = max(1, len(tracer.counts))
    total: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
    selfs = self_times(tracer.spans)
    for s, st in zip(tracer.spans, selfs):
        metric = _SELF_MS.get(s[0])
        if metric is not None:
            total[metric] += st * 1e3
        if s[0] == "optimize":
            total["optimize.ms"] += (s[2] - s[1]) * 1e3
            total["optimize.rounds"] -= 1   # the check before round one
        elif s[0] == FIXPOINT_CHECK:
            total["optimize.rounds"] += 1
    for counts in tracer.counts.values():
        for metric, value in counts.items():
            total[metric] += value
    events_in = 0
    for st in stats_by_rid.values():
        if st is None:
            continue
        events_in += st.events_in
        total["stream.events_in"] += st.events_in
        total["stream.events_out"] += st.events_out
    out = {name: total[name] / n for name, _ in LAYER_METRICS}
    stream_self_ms = total["stream.self_ms"]
    out["stream.us_per_event"] = (stream_self_ms * 1e3 / events_in
                                  if events_in else 0.0)
    peaks = [st for st in stats_by_rid.values() if st is not None]
    out["stream.peak_nodes"] = max((st.peak_nodes for st in peaks), default=0)
    out["stream.peak_suspensions"] = max(
        (st.peak_suspensions for st in peaks), default=0)
    out["compose.keep_ratio"] = (total["compose.pruned_size"]
                                 / total["compose.full_size"]
                                 if total["compose.full_size"] else 0.0)
    return out

