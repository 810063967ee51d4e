import io
import random
import time

import pytest

import mfx.stream
from mfx.compile import compile_text
from mfx.forest import elem, text
from mfx.mft import EPS, evaluate, parse_mft
from mfx.optimize import optimize
from mfx.stream import Engine, EngineError, measure, stream_bytes, stream_run
from mfx.xmlio import (_CHUNK, EOF, End, StartElement, Text, XmlError,
                       bytes_to_forest, forest_events, forest_to_bytes,
                       read_events, sink_to)

from conftest import DOC1, DOC2
from util import random_forest, random_ft, random_mft, random_tt, run_bytes

IDENTITY_QUERY = "<out>{$input/node()}</out>"


def _flat(n):
    return b"".join([b"<root>"]
                    + [b"<item>x%d</item>" % i for i in range(n)]
                    + [b"</root>"])


def test_m_person_stream_bytes(m_person):
    out, stats = stream_bytes(m_person, DOC1)
    assert out == b"<out>JimLi</out>"
    out2, _ = stream_bytes(m_person, DOC2)
    assert out2 == b"<out>JimLi</out>"
    assert stats.events_in > 0 and stats.events_out == 3


def test_output_prefix_before_input_end(m_person):
    # <out> is determined by the very first input event
    eng = Engine(m_person)
    events = list(read_events(DOC1))
    first = eng.step(events[0])
    assert first and first[0] == StartElement("out")


def test_step_fold_equals_stream_run(m_person):
    rng = random.Random(91)
    for _ in range(20):
        doc = random_forest(rng, budget=12)
        data = forest_to_bytes((elem("person", *doc),))
        via_run, _ = stream_bytes(m_person, data)
        eng = Engine(m_person)
        out = io.BytesIO()
        sink = sink_to(out)
        for ev in read_events(data):
            for o in eng.step(ev):
                sink(o)
        assert out.getvalue() == via_run


def test_constant_query_full_output_on_eof():
    m = compile_text("<r>hello</r>")
    eng = Engine(m)
    outs = eng.step(EOF)
    assert outs[:3] == [StartElement("r"), Text("hello"), End()]


def test_stream_equals_evaluate_on_random_inputs():
    # events fed directly: the engine handles multi-tree input forests
    rng = random.Random(92)
    for _ in range(25):
        m = random_mft(rng)
        for _ in range(3):
            f = random_forest(rng, budget=12)
            want = run_bytes(m, f)
            out = io.BytesIO()
            stream_run(m, iter(list(forest_events(f)) + [EOF]), sink_to(out))
            assert out.getvalue() == want


def test_stream_equals_evaluate_on_compiled_queries():
    from mfx.bench import CORPUS_QUERIES
    from mfx.gen import generate_bytes
    doc = generate_bytes("xmark-lite", 900, seed=5)
    forest = bytes_to_forest(doc)
    for name, text in CORPUS_QUERIES.items():
        m = optimize(compile_text(text))
        want = run_bytes(m, forest)
        got, _ = stream_bytes(m, doc)
        assert got == want, name


def test_identity_scales_with_depth_not_width():
    m = optimize(compile_text(IDENTITY_QUERY))
    for n in (500, 5000):
        out, stats = stream_bytes(m, _flat(n))
        assert out == b"<out>" + _flat(n) + b"</out>"
        assert stats.peak_nodes <= 4  # independent of width


def test_double_query_buffers_whole_input():
    q = "<double><r1>{$input/*}</r1>{$input/*}</double>"
    m = optimize(compile_text(q))
    _, small = stream_bytes(m, _flat(100))
    _, big = stream_bytes(m, _flat(1000))
    assert small.peak_nodes >= 2 * 100
    assert big.peak_nodes >= 2 * 1000


def test_unoptimized_retains_input():
    m = compile_text(IDENTITY_QUERY)
    _, small = stream_bytes(m, _flat(100))
    _, big = stream_bytes(m, _flat(1000))
    assert big.peak_nodes >= 5 * small.peak_nodes


def test_monotone_emission_and_balance(m_person):
    # events, once emitted, serialise to balanced XML incrementally
    out = io.BytesIO()
    stats = stream_run(m_person, read_events(DOC1), sink_to(out))
    assert out.getvalue() == b"<out>JimLi</out>"
    assert stats.events_in == 16


def test_measure_discards_output(m_person):
    stats = measure(m_person, read_events(DOC1))
    assert stats.events_out == 3


def test_stay_budget_streaming():
    m = parse_mft("""\
q(%t(x1)x2) -> q(x0)
q(eps) -> q(x0)
""")
    with pytest.raises(EngineError):
        stream_bytes(m, b"<a/>")


def test_deep_documents_stream():
    m = optimize(compile_text(IDENTITY_QUERY))
    deep = b"<n>" * 3000 + b"x" + b"</n>" * 3000
    out, stats = stream_bytes(m, deep)
    assert out == b"<out>" + deep + b"</out>"
    # retained nodes track depth
    assert stats.peak_nodes <= 3100


def test_suspensions_are_shared(m_person):
    # the q4(x1) argument feeds both filter branches but runs once: the
    # peak suspension count stays small
    _, stats = stream_bytes(m_person, DOC1)
    assert stats.peak_suspensions <= 8


#: (peak_nodes, peak_suspensions, events_out, output bytes) of every corpus
#: query, optimized, over generate_bytes("xmark-lite", 5000, 0), as the
#: engine with finalizer-based liveness counting measured them
BOUNDED_MEMORY = {
    "q01": (7, 2, 3, 23),
    "q02": (1, 0, 903, 6011),
    "q04": (21, 13, 5, 43),
    "q13": (5, 0, 1192, 11223),
    "q16": (14, 10, 478, 4447),
    "q17": (7, 2, 312, 2175),
    "double": (4302, 0, 14548, 149446),
    "fourstar": (9, 0, 15643, 153770),
    "deepdup": (1684, 0, 14560, 149492),
}


def test_corpus_peaks_and_output_sizes_are_pinned():
    from mfx.bench import CORPUS_QUERIES
    from mfx.gen import generate_bytes
    doc = generate_bytes("xmark-lite", 5000, 0)
    got = {}
    for name, query in CORPUS_QUERIES.items():
        out, st = stream_bytes(optimize(compile_text(query)), doc)
        got[name] = (st.peak_nodes, st.peak_suspensions, st.events_out,
                     len(out))
    assert got == BOUNDED_MEMORY


def _per_step_outputs(m, events, force_drive=False):
    eng = Engine(m)
    steps = []
    for ev in events:
        if force_drive:
            eng._waiting = None  # run the task stack on every event
        steps.append(eng.step(ev))
    st = eng.stats
    return steps, (st.events_out, st.peak_nodes, st.peak_suspensions)


def _assert_skip_is_transparent(m, events):
    assert (_per_step_outputs(m, events, False)
            == _per_step_outputs(m, events, True))


def test_waiting_on_a_cell_does_not_delay_output():
    # the engine only resumes when the cell it blocked on is filled or
    # closed; every output event must still leave on the same step
    from mfx.bench import CORPUS_QUERIES
    from mfx.gen import generate_bytes
    events = list(read_events(generate_bytes("xmark-lite", 900, seed=5)))
    for query in CORPUS_QUERIES.values():
        _assert_skip_is_transparent(optimize(compile_text(query)), events)
    rng = random.Random(93)
    for _ in range(20):
        for m in (random_ft(rng), random_tt(rng), random_mft(rng)):
            f = random_forest(rng, budget=12)
            _assert_skip_is_transparent(m, list(forest_events(f)) + [EOF])


@pytest.fixture
def never_drop(monkeypatch):
    """A switch that makes the buffer's reachability check never fire, so
    that every event is buffered."""
    def switch():
        monkeypatch.setattr(mfx.stream, "getrefcount", lambda cell: 3)
    return switch


def _random_draws():
    """(transducer, forest) pairs: 20 each of random FTs, TTs and MFTs."""
    rng = random.Random(94)
    draws = []
    for _ in range(20):
        for m in (random_ft(rng), random_tt(rng), random_mft(rng)):
            draws.append((m, random_forest(rng, budget=12)))
    return draws


def test_dropping_unreachable_input_is_transparent(never_drop):
    from mfx.bench import CORPUS_QUERIES
    from mfx.gen import generate_bytes
    data = generate_bytes("xmark-lite", 900, seed=5)
    events = list(read_events(data))
    cases = [(optimize(compile_text(q)), events)
             for q in CORPUS_QUERIES.values()]
    cases += [(m, list(forest_events(f)) + [EOF]) for m, f in _random_draws()]
    dropping = [_per_step_outputs(m, evs) for m, evs in cases]
    by_reader = [stream_bytes(m, data) for m, _ in cases[:9]]
    never_drop()
    assert dropping == [_per_step_outputs(m, evs) for m, evs in cases]
    for (m, _), (out, st) in zip(cases, by_reader):
        out2, st2 = stream_bytes(m, data)
        assert out == out2
        assert ((st.events_out, st.peak_nodes, st.peak_suspensions)
                == (st2.events_out, st2.peak_nodes, st2.peak_suspensions))
        assert st.nodes_buffered <= st2.nodes_buffered


def test_pushed_and_pulled_input_stream_alike():
    # a reader pushes into the buffer and expat skips what it drops; the
    # same events in a list go through Engine.step, and the buffer drops
    # them one by one
    from mfx.bench import CORPUS_QUERIES
    from mfx.gen import generate_bytes
    data = generate_bytes("xmark-lite", 900, seed=5)
    cases = [(optimize(compile_text(q)), data)
             for q in CORPUS_QUERIES.values()]
    cases += [(m, forest_to_bytes((elem("r", *f),)))
              for m, f in _random_draws()]
    for m, doc in cases:
        runs = []
        for src in (read_events(doc), list(read_events(doc))):
            out = io.BytesIO()
            st = stream_run(m, src, sink_to(out))
            runs.append((out.getvalue(), st.events_out, st.peak_nodes,
                         st.peak_suspensions, st.events_in))
        assert runs[0][:4] == runs[1][:4]
        assert runs[0][4] <= runs[1][4]


def test_memoised_arguments_are_shared_not_copied():
    # ft_to_mtt threads the rest of the output through a suspension per
    # sibling, each read into its caller's memo.  4x the nodes costs 4-6x
    # the time; copying each memoised value into its caller, as a memo of
    # flat event lists does, costs 13x and more.  Best of 3 per size, the
    # two sizes alternated so that a slow spell hits both.
    from mfx.bench import CORPUS_QUERIES
    from mfx.compose import ft_to_mtt
    from mfx.gen import generate_bytes
    m = ft_to_mtt(optimize(compile_text(CORPUS_QUERIES["fourstar"])))
    docs = [generate_bytes("xmark-lite", n, 0) for n in (1000, 4000)]
    best = [float("inf")] * len(docs)
    for _ in range(3):
        for i, doc in enumerate(docs):
            t0 = time.perf_counter()
            measure(m, read_events(doc))
            best[i] = min(best[i], time.perf_counter() - t0)
    assert best[1] / best[0] < 8


def test_q13_buffers_under_half_of_the_input():
    from mfx.bench import CORPUS_QUERIES
    from mfx.gen import count_nodes, generate_bytes, generate_events
    doc = generate_bytes("xmark-lite", 5000, 0)
    out, st = stream_bytes(optimize(compile_text(CORPUS_QUERIES["q13"])), doc)
    assert (st.peak_nodes, st.peak_suspensions, st.events_out,
            len(out)) == BOUNDED_MEMORY["q13"]
    assert st.nodes_buffered < count_nodes(
        generate_events("xmark-lite", 5000, 0)) / 2


def test_input_cut_inside_a_dropped_subtree_fails_typed(never_drop):
    # a constant query reads nothing below the root: <b> and <c> are dropped
    m = compile_text("<r>c</r>")
    events = [StartElement("a"), StartElement("b"), Text("t"),
              StartElement("c"), EOF]
    msg = "input ended with 3 open elements"
    with pytest.raises(EngineError, match=msg):
        stream_run(m, iter(events), lambda ev: None)
    body = b"<i>x</i>" * (3 * _CHUNK)
    with pytest.raises(XmlError, match=r"line 1, column \d+"):
        stream_bytes(m, b"<a><b>" + body)
    never_drop()
    with pytest.raises(EngineError, match=msg):
        stream_run(m, iter(events), lambda ev: None)


def test_symbol_rule_beats_text_guard_in_both_interpreters():
    # symbol rules match by label whatever the node kind; a state without a
    # text rule sends unmatched text nodes to its default rule
    m = parse_mft("""\
q(%) -> p(x0) d(x0)
p(person0(x1)x2) -> sym() p(x2)
p(%text(x1)x2) -> txt() p(x2)
p(%t(x1)x2) -> other() p(x2)
p(eps) -> eps
d(person0(x1)x2) -> sym() d(x2)
d(%t(x1)x2) -> other() d(x2)
d(eps) -> eps
""")
    f = (text("person0"), elem("person0"), text("nope"), elem("nope"))
    want = tuple(elem(x) for x in ("sym", "sym", "txt", "other",
                                   "sym", "sym", "other", "other"))
    assert evaluate(m, f) == want
    out = io.BytesIO()
    stream_run(m, iter(list(forest_events(f)) + [EOF]), sink_to(out))
    assert out.getvalue() == forest_to_bytes(want)


def test_missing_eps_rule_fails_with_typed_error():
    m = parse_mft("""\
q(%t(x1)x2) -> %t(q(x1)) q(x2)
q(eps) -> eps
""")
    del m.rules[("q", EPS)]
    with pytest.raises(EngineError, match="state q"):
        stream_bytes(m, b"<a/>")
    with pytest.raises(ValueError, match="state q"):
        evaluate(m, (elem("a"),))


#: one rule body per kind of compiled op and argument plan: static leaves
#: (#"end", sep(), last()) and nodes with children (doc, dd), %t with
#: children and %t on a text node (whose children are dropped), parameter
#: output, an empty argument (eps), suspended arguments (sep(), dup(x0)),
#: pass-through arguments (pass), a suspension read three times (y3), and
#: argument-less tail calls on x0 (walk), x1 (down) and x2 (skip)
ALL_OPS = """\
main(%t(x1)x2) -> doc(walk(x0)) #"end"
main(eps) -> none()
walk(%t(x1)x2) -> copy(x0)
walk(eps) -> eps
copy(%text(x1)x2) -> %t(lost()) copy(x2)
copy(%t(x1)x2) -> %t(copy(x1)) args(x1, eps, sep(), dup(x0)) copy(x2)
copy(eps) -> eps
args(%text(x1)x2, y1, y2, y3) -> y1 y3 y3 #"t" pass(x2, y2, y3)
args(%t(x1)x2, y1, y2, y3) -> y2 y1 y3
args(eps, y1, y2, y3) -> y3
pass(%t(x1)x2, y1, y2) -> y1 y2 pass(x2, y1, y2)
pass(eps, y1, y2) -> last()
dup(%t(x1)x2) -> dd(down(x1))
dup(eps) -> eps
down(%text(x1)x2) -> #"leaf" skip(x2)
down(%t(x1)x2) -> down(x1)
down(eps) -> bottom()
skip(%text(x1)x2) -> %t() skip(x2)
skip(%t(x1)x2) -> skip(x2)
skip(eps) -> eps
"""

#: a suspension (%t()) read once per child of the root: forced once, it
#: must let go of the root, or the root pins every child
SHARED = """r(%t(x1)x2) -> each(x1, %t())
r(eps) -> eps
each(%t(x1)x2, y1) -> y1 each(x2, y1)
each(eps, y1) -> eps
"""


def test_compiled_ops_agree_with_evaluate():
    # pinned values as the uncompiled engine measured them
    m = parse_mft(ALL_OPS)
    doc = b"<a><b>t1<c/>t2<g><h>v</h></g></b>t3<d><e>u</e><f/></d></a>"
    out, st = stream_bytes(m, doc)
    assert out == run_bytes(m, bytes_to_forest(doc))
    assert b"<lost/>" not in out and out.count(b"<dd>leaft2</dd>") == 6
    assert (st.peak_nodes, st.peak_suspensions, st.events_out,
            len(out)) == (13, 8, 89, 336)
    out, st = stream_bytes(m, b"<a/>")
    assert out == b"<doc><a/><dd><bottom/></dd></doc>end"
    assert (st.peak_nodes, st.peak_suspensions, st.events_out) == (1, 2, 9)
    m = parse_mft(SHARED)
    out, st = stream_bytes(m, _flat(200))
    assert out == b"<root/>" * 200
    assert (st.peak_nodes, st.peak_suspensions, st.events_out) == (2, 1, 400)


def test_rows_are_compiled_on_first_use():
    from mfx.bench import CORPUS_QUERIES
    from mfx.compose import compose
    from mfx.gen import generate_bytes
    m1, m2 = (optimize(compile_text(CORPUS_QUERIES[q]))
              for q in ("q13", "double"))
    fused = compose(m1, m2, "ft-tt")[0]
    data = generate_bytes("xmark-lite", 250, 0)
    eng = Engine(fused)
    out = io.BytesIO()
    sink = sink_to(out)
    for ev in read_events(data):
        for o in eng.step(ev):
            sink(o)
    assert out.getvalue() == run_bytes(fused, bytes_to_forest(data))
    assert 0 < len(eng.rows) < len(fused.states) / 2


def test_first_output_is_timed(m_person):
    _, st = stream_bytes(m_person, DOC1)
    assert 0.0 < st.first_output_ms <= st.seconds * 1000.0
    assert "first_output_ms=" in st.lines()


#: c is a copy state: a call of it copies its input forest in one task.
#: At x0 its output goes to the sink; in twice's argument it fills a list
#: (a suspension read twice), also inside an output node (k)
COPY_AT_X0 = """\
r(%t(x1)x2) -> out(c(x0))
r(eps) -> out()
"""
COPY_IN_ARGUMENT = """\
r(%t(x1)x2) -> out(twice(x0, k(c(x1)) c(x2)))
r(eps) -> out()
twice(%t(x1)x2, y1) -> y1 w(y1)
twice(eps, y1) -> y1
"""
COPY = """\
c(%t(x1)x2) -> %t(c(x1)) c(x2)
c(eps) -> eps
"""
#: a symbol rule no input has: the same transducer, with no copy state
DISGUISE = "c(zz(x1)x2) -> %t(c(x1)) c(x2)\n"


@pytest.mark.parametrize("head", [COPY_AT_X0, COPY_IN_ARGUMENT],
                         ids=["at-x0", "in-argument"])
def test_copy_state_streams_like_its_rules(head):
    from mfx.gen import generate_bytes
    m = parse_mft(head + COPY)
    disguised = parse_mft(head + COPY + DISGUISE)
    assert Engine(m).rows.copies == {"c"}
    assert Engine(disguised).rows.copies == set()
    # near-copies (output on eps, a text rule of their own) run their rules
    small = b"<a>t<b x='1'>u<c/>v</b><d/></a>"
    for old, new in (("c(eps) -> eps", "c(eps) -> z()"),
                     ("c(eps)", "c(%text(x1)x2) -> c(x2)\nc(eps)")):
        near = parse_mft(head + COPY.replace(old, new))
        assert Engine(near).rows.copies == set()
        assert stream_bytes(near, small)[0] == run_bytes(
            near, bytes_to_forest(small))
    for data in (generate_bytes("deep-chain", 5000),
                 generate_bytes("wide-flat", 20000), small):
        events = list(read_events(data))
        steps, stats = _per_step_outputs(m, events)
        assert (steps, stats) == _per_step_outputs(disguised, events)
        out = io.BytesIO()
        sink = sink_to(out)
        for o in (ev for step in steps for ev in step):
            sink(o)
        assert out.getvalue() == run_bytes(m, bytes_to_forest(data))
