"""The benchmark's workloads: documents, request pools, references and the
requests themselves.

A workload is a fixed pool of requests.  Which query (or query pair) runs
on which document size is fixed here; the workload seed picks the document
seeds, jitters each size by up to ±1 % and orders the requests, so two
seeds give different inputs with the same shape.  Every request starts
from query text (or, for fused pairs on ``oracle``, a transducer built in
set-up) and XML bytes, and calls the package's public functions the way
the CLI does:

* ``run``      -- ``mfx run --query``: parse, compile, optimize, stream.
* ``pipeline`` -- ``mfx compose | mfx run``: two queries compiled and
  optimized, fused with ``compose``, the document streamed through it.
* ``eval``     -- ``mfx eval``: build the forest, ``mft.evaluate``,
  coalesce text, serialise.

References come from ``xqeval``, the direct interpreter, which shares
nothing with the compiler.  For a pair the reference is ``xqeval`` of the
second query over the first query's reference output.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from mfx.bench import CORPUS_QUERIES
from mfx.compile import compile_query
from mfx.compose import compose
from mfx.forest import coalesce_text, node_count
from mfx.gen import generate_bytes
from mfx.mft import Mft, evaluate
from mfx.optimize import optimize
from mfx.stream import StreamStats, stream_run
from mfx.xmlio import (build_forest, bytes_to_forest, forest_to_bytes,
                       read_events, sink_to)
from mfx.xqeval import eval_query
from mfx.xquery import parse_query

from tracing import NullTracer

SCAN = ("q01", "q02", "q04", "q13", "q16", "q17")
COPY = ("double", "deepdup", "fourstar")

#: (first, second, compose mode); a pair's label is "first>second:mode"
PIPELINE_PAIRS = (
    ("double", "deepdup", "tt-tt"),
    ("deepdup", "double", "mtt-tt"),
    ("double", "deepdup", "tt-mtt"),
    ("double", "fourstar", "tt-ft"),
    ("deepdup", "fourstar", "mtt-ft"),
    ("q13", "double", "ft-tt"),
)
#: fused transducers the oracle evaluates (composed in set-up)
ORACLE_FUSED = (("q13", "double", "ft-tt"), ("q13", "deepdup", "ft-tt"))

XMARK, WIDE = "xmark-lite", "wide-flat"

#: workload -> list of (kind, program, profile, node-count targets)
PLANS: Dict[str, List[tuple]] = {
    "scan": [("run", q, XMARK, (1000, 2000, 5000, 6000, 14000, 32000))
             for q in SCAN],
    "copy": [("run", q, XMARK, (400, 1200, 3500, 12000)) for q in COPY]
            + [("run", "double", WIDE, (1500,)),
               ("run", "deepdup", WIDE, (1300,)),
               ("run", "fourstar", WIDE, (4000,))],
    "pipeline": [("pipeline", pair, XMARK,
                  (200, 250, 300) if pair[2].endswith("ft")
                  else (400, 475, 550))
                 for pair in PIPELINE_PAIRS[:-1]]
                + [("pipeline", PIPELINE_PAIRS[-1], XMARK,
                    (250, 333, 416, 500))],
    "oracle": [("eval", q, XMARK, (2000, 10000)) for q in SCAN]
              + [("eval", q, XMARK, (500, 2000)) for q in COPY]
              + [("eval", "double", WIDE, (2600,)),
                 ("eval", "deepdup", WIDE, (2000,))]
              # 42 and 84 nodes: one and two records per xmark-lite section
              + [("eval", pair, XMARK, (42, 84)) for pair in ORACLE_FUSED],
}
WORKLOADS = tuple(PLANS)

#: sizes below this are exact (they pick the number of records directly)
_JITTER_FROM = 200


@dataclass
class Doc:
    profile: str
    size: int
    seed: int
    data: bytes = b""
    nodes: int = 0


@dataclass
class Entry:
    kind: str                   # "run", "pipeline" or "eval"
    label: str                  # query id, or "first>second[:mode]"
    doc: Doc
    queries: Tuple[str, ...]    # query ids, one or two
    mode: Optional[str] = None  # compose mode of a pair
    mft: Optional[Mft] = None   # transducer of an eval pair, built in set-up
    ref: bytes = b""


@dataclass
class Result:
    out: bytes
    seconds: float              # request wall time
    first_output: float         # request start to first output byte
    stats: Optional[StreamStats]
    fused: Optional[Mft] = None


@dataclass
class Workload:
    name: str
    seed: int
    entries: List[Entry] = field(default_factory=list)


def plan(name: str, seed: int) -> Workload:
    """The request pool of a workload, documents not yet generated."""
    rng = random.Random(seed)
    docs: Dict[tuple, Doc] = {}
    wl = Workload(name, seed)
    for kind, program, profile, sizes in PLANS[name]:
        if isinstance(program, tuple):
            queries, mode = program[:2], program[2]
            label = "%s>%s:%s" % program
        else:
            queries, mode, label = (program,), None, program
        for target in sizes:
            key = (profile, target)
            if key not in docs:
                size = target
                if target >= _JITTER_FROM:
                    size = round(target * rng.uniform(0.99, 1.01))
                docs[key] = Doc(profile, size, rng.randrange(2 ** 31))
            wl.entries.append(Entry(kind, label, docs[key], queries, mode))
    return wl


def set_up(wl: Workload):
    """Generate and serialise the documents, prepare the fused oracle
    transducers and compute every reference."""
    docs = {id(e.doc): e.doc for e in wl.entries}
    forests = {}
    for key, doc in docs.items():
        doc.data = generate_bytes(doc.profile, doc.size, doc.seed)
        forests[key] = bytes_to_forest(doc.data)
        doc.nodes = node_count(forests[key])
    asts = {q: parse_query(CORPUS_QUERIES[q])
            for e in wl.entries for q in e.queries}
    refs: Dict[tuple, bytes] = {}

    def ref(queries, doc) -> bytes:
        key = (queries, id(doc))
        if key not in refs:
            if len(queries) == 1:
                refs[key] = reference(asts[queries[0]], forests[id(doc)])
            else:
                refs[key] = reference(asts[queries[1]],
                                      bytes_to_forest(ref(queries[:1], doc)))
        return refs[key]

    fused: Dict[str, Mft] = {}
    for e in wl.entries:
        if e.kind == "eval" and len(e.queries) == 2:
            if e.label not in fused:
                m1, m2 = (optimize(compile_query(asts[q])) for q in e.queries)
                fused[e.label] = compose(m1, m2, e.mode)[0]
            e.mft = fused[e.label]
        e.ref = ref(e.queries, e.doc)


def reference(ast, forest) -> bytes:
    return forest_to_bytes(coalesce_text(eval_query(ast, forest)))


def warm_up(wl: Workload):
    """Run the smallest request of every program once, untimed."""
    smallest: Dict[str, Entry] = {}
    for e in wl.entries:
        if e.label not in smallest or e.doc.size < smallest[e.label].doc.size:
            smallest[e.label] = e
    for e in smallest.values():
        run_request(e, NullTracer(), "warm-up")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


class _Out:
    """Output byte stream that notes when its first byte arrives.  After
    the first write, ``write`` is the list's own ``append``."""

    def __init__(self):
        self.chunks: List[bytes] = []
        self.first: Optional[float] = None

    def write(self, data):
        self.first = time.perf_counter()
        self.write = self.chunks.append
        self.chunks.append(data)


def _transducer(query: str, tr) -> Mft:
    with tr.span("xquery.parse"):
        ast = parse_query(CORPUS_QUERIES[query])
    with tr.span("compile"):
        m = compile_query(ast)
    tr.keep("compile.size", m)
    with tr.span("optimize"):
        m = optimize(m)
    tr.keep("optimize.size_out", m)
    return m


def _stream(m: Mft, data: bytes, out: _Out, tr) -> StreamStats:
    with tr.span("stream"):
        return stream_run(m, tr.events(read_events(data)),
                          tr.sink(sink_to(out)))


def run_request(e: Entry, tr, rid) -> Result:
    """One request, timed from query text and XML bytes to the last output
    byte."""
    out = _Out()
    stats = fused = None
    t0 = time.perf_counter()
    with tr.request(rid):
        if e.kind == "run":
            stats = _stream(_transducer(e.queries[0], tr), e.doc.data, out, tr)
        elif e.kind == "pipeline":
            m1, m2 = (_transducer(q, tr) for q in e.queries)
            with tr.span("compose") as idx:
                fused, report = compose(m1, m2, e.mode)
            tr.compose_done(idx, report, fused)
            stats = _stream(fused, e.doc.data, out, tr)
        else:
            m = e.mft if e.mft is not None else _transducer(e.queries[0], tr)
            with tr.span("xmlio.build_forest"):
                doc = build_forest(tr.events(read_events(e.doc.data)))
            with tr.span("mft.evaluate"):
                result = evaluate(m, doc)
            with tr.span("forest.coalesce"):
                result = coalesce_text(result)
            with tr.span("xmlio.forest_to_bytes"):
                data = forest_to_bytes(result)
            tr.sink(out.write)(data)
        t1 = time.perf_counter()
        tr.count("xmlio.write_bytes", sum(len(c) for c in out.chunks))
    first = (out.first if out.first is not None else t1) - t0
    return Result(b"".join(out.chunks), t1 - t0, first, stats, fused)
