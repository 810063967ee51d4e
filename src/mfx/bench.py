"""Benchmark harness: the nine benchmark queries at desk scale.

Runs each query's (compiled, optionally optimized) transducer over
generated documents and reports wall time, the peak number of retained
input nodes (the memory proxy; process RSS is deliberately not measured)
and output volume, one machine-parseable record per line:

    query=q01 nodes=10000 ms=123.4 peak=17 out_bytes=42
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .compile import compile_text
from .gen import count_nodes, generate_events
from .mft import Mft
from .optimize import optimize
from .stream import stream_run

#: The benchmark programs, as printed (predicate forms, no where-clauses).
CORPUS_QUERIES: Dict[str, str] = {
    "q01": """<query01>{
for $person in $input/site/people/person
               [./person_id/text()="person0"]
return $person/name/text()}</query01>""",

    "q02": """<query02>{
for $open_auction in /site/open_auctions/open_auction return
 <increase>{ for $increase in $open_auction/bidder/increase return
   <bid>{$increase/text()}</bid> }</increase>
}</query02>""",

    "q04": """<query04>{
for $b in $input/site/open_auctions/open_auction
          [./bidder[./personref/personref_person/text()="personXX"]
            /following-sibling::bidder/personref/personref_person
            /text()="personYY"]
return <history>{$b/reserve/text()}</history>}</query04>""",

    "q13": """<query13>{
for $item in $input/site/regions/australia/item
return <item><name>{$item/name/text()}</name>
             <description>{$item/description}</description></item>
}</query13>""",

    "q16": """<query16>{
for $closed_auction in $input/site/closed_auctions/closed_auction
                [./annotation/description/parlist/listitem/parlist
                  /listitem/text/emph/keyword/text()] return
  <person><id>{$closed_auction/seller/seller_person}</id></person>
}</query16>""",

    "q17": """<query17>{
for $person in $input/site/people/person[empty(./homepage/text())]
return <person><name>{$person/name/text()}</name></person>
}</query17>""",

    "double": """<double><r1>{$input/*}</r1>{$input/*}</double>""",

    "fourstar": """<fourstar>{$input//*//*//*//*}</fourstar>""",

    "deepdup": """<deepdup>{ for $x in $input/* return
 <r> { for $y in $x/* return <r1><r2>{$y}</r2>{$y}</r1> } </r>
}</deepdup>""",
}

#: Generator profile each query runs against by default.
QUERY_PROFILES: Dict[str, str] = {name: "xmark-lite" for name in CORPUS_QUERIES}


@dataclass(frozen=True)
class BenchSpec:
    query: str                  # corpus query id
    profile: str = "xmark-lite"
    size: int = 10_000          # node-count target of the generated input
    seed: int = 0
    repetitions: int = 1
    no_opt: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")


@dataclass
class BenchResult:
    query: str
    nodes: int
    ms: float
    peak: int
    out_bytes: int

    def record(self) -> str:
        return ("query=%s nodes=%d ms=%.1f peak=%d out_bytes=%d"
                % (self.query, self.nodes, self.ms, self.peak, self.out_bytes))


def corpus_transducer(name: str, no_opt: bool = False) -> Mft:
    m = compile_text(CORPUS_QUERIES[name])
    return m if no_opt else optimize(m)


class _ByteCounter:
    def __init__(self):
        self.n = 0

    def write(self, data: bytes):
        self.n += len(data)


def run_spec(spec: BenchSpec, transducer: Optional[Mft] = None) -> BenchResult:
    from .xmlio import sink_to
    m = transducer if transducer is not None \
        else corpus_transducer(spec.query, spec.no_opt)
    nodes = count_nodes(generate_events(spec.profile, spec.size, spec.seed))
    times: List[float] = []
    peak = out_bytes = 0
    for _ in range(max(1, spec.repetitions)):
        counter = _ByteCounter()
        t0 = time.perf_counter()
        stats = stream_run(m, generate_events(spec.profile, spec.size,
                                              spec.seed), sink_to(counter))
        times.append((time.perf_counter() - t0) * 1000.0)
        peak = stats.peak_nodes
        out_bytes = counter.n
    times.sort()
    return BenchResult(spec.query, nodes, times[len(times) // 2], peak,
                       out_bytes)
