"""The benchmark harness: set-up, the closed request loop, the output
check, the end-to-end metrics and the traced report.  ``run.py`` is the
command-line entry point."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from mfx.bench import CORPUS_QUERIES
from mfx.gen import generate_bytes
from mfx.mft import size
from mfx.xmlio import bytes_to_forest
from mfx.xquery import parse_query

import workloads as W
from tracing import (LAYER_METRICS, NullTracer, Tracer, layer_metrics,
                     request_self_check, self_ms_by_layer)

SETUP_REPEATS = 3
MIN_REQUESTS = 100
#: untraced runs are split over this many worker processes, run one after
#: the other, so that one process's speed does not set the whole run's
WORKERS = 5
#: a worker that has not finished after this many seconds is killed
WORKER_TIMEOUT = 150

#: retained-node peaks at 100k nodes, seed 0 (ROADMAP item 2)
PEAKS_100K = {"q01": 7, "q02": 1, "q04": 21, "q13": 5, "q16": 14, "q17": 7,
              "fourstar": 9, "double": 88192, "deepdup": 35719}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("first_output_ms_p50", "ms"),
    ("first_output_ms_p90", "ms"),
    ("peak_nodes", "count"),
)


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


@dataclass
class Rec:
    """What the benchmark keeps of one request (never its output)."""
    rid: int
    entry: object
    traced: bool
    ok: bool = False
    ms: float = 0.0             # request wall time
    first_ms: float = 0.0       # request start to first output byte
    stats: object = None        # StreamStats; None on the eval path
    out_bytes: int = 0

    @property
    def peak_nodes(self) -> int:
        # the eval path materialises the whole document
        return self.stats.peak_nodes if self.stats else self.entry.doc.nodes

    @property
    def peak_suspensions(self) -> int:
        return self.stats.peak_suspensions if self.stats else 0


def _describe(rec) -> str:
    e = rec.entry
    return "request %d (%s on %s/%d)" % (rec.rid, e.label, e.doc.profile,
                                         e.doc.size)


def run_one(entry, tr, rec, problems, fused_sizes):
    """Run one request, check its output against the reference and fill
    ``rec``; exceptions and mismatches are noted in ``problems``."""
    try:
        res = W.run_request(entry, tr, rec.rid)
    except Exception as e:  # counted, reported, the run goes on
        problems.append("%s: %s: %s" % (_describe(rec), type(e).__name__, e))
        return
    rec.ms, rec.first_ms = res.seconds * 1e3, res.first_output * 1e3
    rec.stats, rec.out_bytes = res.stats, len(res.out)
    rec.ok = res.out == entry.ref
    if not rec.ok:
        problems.append("%s: output differs from the reference (%d bytes, "
                        "expected %d)" % (_describe(rec), len(res.out),
                                          len(entry.ref)))
    if res.fused is not None and entry.label not in fused_sizes:
        fused_sizes[entry.label] = size(res.fused)


def run_pool(wl, seconds, trace, min_requests=None, worker=0, rid_base=0):
    """Run whole passes over the pool, each in a fresh seeded order, until
    ``seconds`` have passed and enough requests have run.  With ``trace``
    the passes alternate between untraced and traced."""
    if min_requests is None:
        min_requests = MIN_REQUESTS
    rng = random.Random("%d-%d" % (wl.seed, worker))
    null, tracer = NullTracer(), (Tracer() if trace else None)
    records, problems, fused_sizes = [], [], {}
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 1
        order = list(wl.entries)
        rng.shuffle(order)
        with (tracer.instrument() if traced else contextlib.nullcontext()):
            for entry in order:
                rec = Rec(rid_base + len(records), entry, traced)
                records.append(rec)
                run_one(entry, tracer if traced else null, rec, problems,
                        fused_sizes)
        n_pass += 1
        n_traced = sum(1 for r in records if r.traced)
        enough = (min(n_traced, len(records) - n_traced) >= min_requests // 2
                  if trace else len(records) >= min_requests)
        if enough and time.perf_counter() - start >= seconds:
            return records, problems, tracer, n_pass, fused_sizes


def request_rows(records):
    """``[ms, first_ms, in_bytes, peak_nodes, peak_suspensions, ok]`` of
    each request: all the end-to-end metrics need of it."""
    return [[r.ms, r.first_ms, len(r.entry.doc.data), r.peak_nodes,
             r.peak_suspensions, r.ok] for r in records]


def end_to_end(rows, setup_s):
    done = [r for r in rows if r[0]]
    lat = [r[0] for r in done]
    first = [r[1] for r in done]
    in_bytes = sum(r[2] for r in done)
    return {
        "setup_s": setup_s,
        "throughput_mb_s": in_bytes / 1e6 / (sum(lat) / 1e3),
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_p90": p90(lat),
        "first_output_ms_p50": statistics.median(first),
        "first_output_ms_p90": p90(first),
        "peak_nodes": max(r[3] for r in done),
    }


def per_query_rows(records):
    """One row per program: median latency, peaks and output bytes over
    the distinct documents it ran on (untraced requests)."""
    rows = {}
    for r in records:
        if r.traced or not r.ms:
            continue
        row = rows.setdefault(r.entry.label, {"lat": [], "docs": {}})
        row["lat"].append(r.ms)
        row["docs"][id(r.entry.doc)] = (r.peak_nodes, r.peak_suspensions,
                                        r.out_bytes)
    out = []
    for label, row in sorted(rows.items()):
        docs = row["docs"].values()
        out.append({"program": label,
                    "requests": len(row["lat"]),
                    "latency_ms_p50": statistics.median(row["lat"]),
                    "peak_nodes": max(d[0] for d in docs),
                    "peak_suspensions": max(d[1] for d in docs),
                    "out_bytes": sum(d[2] for d in docs)})
    return out


def set_up(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Set up ``repeats`` times, each on a freshly collected heap; return
    the workload and the set-up times."""
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        wl = W.plan(workload, seed)
        W.set_up(wl)
        W.warm_up(wl)
        times.append(time.perf_counter() - t0)
    return wl, times


def worker(workload: str, seed: int, index: int, seconds: float,
           min_requests: int, rid_base: int) -> dict:
    """One worker process's share of an untraced run: one set-up, then
    whole passes until ``seconds`` have passed and ``min_requests`` have
    run.  Returns what :func:`bench` needs of it, as JSON-ready data."""
    wl, setups = set_up(workload, seed, repeats=1)
    # set-up objects live for the whole run: keep the collector off them
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    records, problems, _, n_pass, fused_sizes = run_pool(
        wl, seconds, False, min_requests, index, rid_base)
    measured = time.perf_counter() - t0
    gc.unfreeze()
    return {"setup_s": setups[0], "measured_s": measured, "passes": n_pass,
            "requests": request_rows(records), "problems": problems,
            "fused_sizes": fused_sizes}


def run_workers(workload: str, seed: int, seconds: float) -> dict:
    """Run the ``WORKERS`` processes of an untraced run one after the other,
    each with its share of the time still left, and pool their requests."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    pooled = {"setups": [], "passes": 0, "requests": [], "problems": [],
              "fused_sizes": {}}
    measured = 0.0
    for index in range(WORKERS):
        left = WORKERS - index
        share = max(0.0, seconds - measured) / left
        need = math.ceil(max(0, MIN_REQUESTS - len(pooled["requests"]))
                         / left)
        proc = subprocess.run(
            [sys.executable, run_py, "--worker", str(index),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(share), "--min-requests", str(need),
             "--rid-base", str(len(pooled["requests"]))],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("worker %d exited with status %d"
                               % (index, proc.returncode))
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        measured += part["measured_s"]
        pooled["setups"].append(part["setup_s"])
        pooled["passes"] += part["passes"]
        pooled["requests"] += part["requests"]
        pooled["problems"] += part["problems"]
        pooled["fused_sizes"].update(part["fused_sizes"])
    return pooled


def _summary(workload, seed, rows, passes, fused_sizes, setups, e2e):
    attempted = len(rows)
    failed = sum(1 for r in rows if not r[5])
    print("workload=%s seed=%d requests=%d passes=%d failed=%d "
          "failed_ratio=%.4f peak_suspensions=%d fused_size=%d setups=%s"
          % (workload, seed, attempted, passes, failed, failed / attempted,
             max(r[4] for r in rows), sum(fused_sizes.values()),
             ",".join("%.3f" % t for t in setups)))
    for name, unit in END_TO_END:
        print("  %-28s %14.4f %s" % (name, e2e[name], unit))
    return attempted, failed


def bench(workload: str, seed: int, seconds: float, trace: bool,
          out_dir: str) -> dict:
    """One benchmark run; prints a report and returns the result object.

    An untraced run is split over ``WORKERS`` processes (see
    :func:`run_workers`); a traced run stays in this process, because its
    per-layer metrics and its tracing overhead compare traced and untraced
    passes of the same process."""
    if not trace:
        pooled = run_workers(workload, seed, seconds)
        for p in pooled["problems"]:
            print(p, file=sys.stderr)
        rows = pooled["requests"]
        e2e = end_to_end(rows, statistics.median(pooled["setups"]))
        attempted, failed = _summary(workload, seed, rows, pooled["passes"],
                                     pooled["fused_sizes"], pooled["setups"],
                                     e2e)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    wl, setups = set_up(workload, seed)
    setup_s = statistics.median(setups)
    # set-up objects live for the whole run: keep the collector off them
    gc.collect()
    gc.freeze()
    records, problems, tracer, n_pass, fused_sizes = run_pool(wl, seconds,
                                                             trace)
    gc.unfreeze()
    for p in problems:
        print(p, file=sys.stderr)
    e2e = end_to_end(request_rows(r for r in records if not r.traced),
                     setup_s)
    attempted, failed = _summary(workload, seed, request_rows(records),
                                 n_pass, fused_sizes, setups, e2e)

    traced = [r for r in records if r.traced and r.ms]
    layers = layer_metrics(tracer, {r.rid: r.stats for r in traced})
    layers["trace.overhead_ms"] = (statistics.median(r.ms for r in traced)
                                   - e2e["latency_ms_p50"])
    rows = per_query_rows(records)
    selfcheck = request_self_check(tracer)
    for name, unit in LAYER_METRICS:
        print("  %-28s %14.4f %s" % (name, layers[name], unit))
    for row in rows:
        print("  row %-26s p50=%.2fms peak_nodes=%d peak_suspensions=%d "
              "out_bytes=%d" % (row["program"], row["latency_ms_p50"],
                                row["peak_nodes"], row["peak_suspensions"],
                                row["out_bytes"]))
    print("  self-time check: %s" % json.dumps(selfcheck))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace-%s-%d.json" % (workload, seed)),
              "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "end_to_end_untraced": e2e, "per_layer": layers,
                   "rows": rows, "self_time_check": selfcheck,
                   "self_ms_by_layer": self_ms_by_layer(tracer),
                   "requests": [[r.rid, r.entry.label, r.entry.doc.profile,
                                 r.entry.doc.size, r.traced, r.ms, r.first_ms]
                                for r in records],
                   "spans": tracer.spans}, fh)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in LAYER_METRICS}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def rows_100k(out_dir: str) -> int:
    """Every corpus query once at 100k nodes, seed 0, on the ``run`` path."""
    doc = W.Doc("xmark-lite", 100_000, 0)
    doc.data = generate_bytes(doc.profile, doc.size, doc.seed)
    forest = bytes_to_forest(doc.data)
    rows, bad = [], 0
    for q in sorted(CORPUS_QUERIES):
        e = W.Entry("run", q, doc, (q,))
        e.ref = W.reference(parse_query(CORPUS_QUERIES[q]), forest)
        runs = [W.run_request(e, NullTracer(), "%s-%d" % (q, i))
                for i in range(3)]
        st = runs[0].stats
        match = st.peak_nodes == PEAKS_100K[q]
        same = all(r.out == e.ref for r in runs)
        bad += (not match) + (not same)
        rows.append({"program": q, "nodes": doc.size,
                     "latency_ms_p50": statistics.median(r.seconds * 1e3
                                                         for r in runs),
                     "peak_nodes": st.peak_nodes,
                     "peak_suspensions": st.peak_suspensions,
                     "out_bytes": len(runs[0].out),
                     "peak_matches_roadmap": match, "output_correct": same})
        print("row %-8s p50=%.1fms peak_nodes=%d (roadmap %d) "
              "peak_suspensions=%d out_bytes=%d correct=%s"
              % (q, rows[-1]["latency_ms_p50"], st.peak_nodes, PEAKS_100K[q],
                 st.peak_suspensions, len(runs[0].out), same), flush=True)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows-100k.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return 1 if bad else 0
