"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdicts.
Tolerances are pinned here and nowhere else; every expected value is
either transcribed from the worked examples, computed by an independent
oracle in this suite, or a frozen measured envelope.
"""

import functools
import io
import random
import time

import pytest

from mfx.bench import CORPUS_QUERIES
from mfx.compile import compile_query, compile_text
from mfx.forest import coalesce_text
from mfx.gen import generate_bytes, generate_events
from mfx.mft import evaluate, parse_mft, size, validate
from mfx.optimize import (constant_params, necessary_params, optimize,
                          remove_stay_moves, remove_unreachable,
                          unused_params)
from mfx.compose import compose, ft_to_mtt
from mfx.xmlio import bytes_to_forest, forest_to_bytes
from mfx.xquery import parse_query

from conftest import (DOC1, DOC2, M_PERSON_TEXT, NESTED_DOC, NESTED_PROGRAM,
                      P_PERSON_TEXT)
from util import (classify, corpus_transducer, count_nodes, measure,
                  necessary_params_oracle, oracle_bytes, parse_term,
                  random_forest, random_ft, random_mft, random_person_doc,
                  query_size, random_query, random_tt, run_bytes,
                  stream_bytes)


def _ok(name: str, detail: str = ""):
    print("PASS %s%s" % (name, (" -- " + detail) if detail else ""))


def test_criterion_1_worked_example_fidelity():
    t0 = time.time()
    m = parse_mft(M_PERSON_TEXT)
    for doc in (DOC1, DOC2):
        forest = bytes_to_forest(doc)
        assert run_bytes(m, forest) == b"<out>JimLi</out>"
        streamed, _ = stream_bytes(m, doc)
        assert streamed == b"<out>JimLi</out>"
    took = time.time() - t0
    assert took < 1.0
    _ok("criterion 1: worked-example fidelity", "%.2fs" % took)


def test_criterion_2_compiler_fidelity(m_person):
    t0 = time.time()
    m = compile_text(P_PERSON_TEXT)
    assert len(m.states) == 14
    mo = optimize(m)
    for doc in (DOC1, DOC2):
        forest = bytes_to_forest(doc)
        assert run_bytes(mo, forest) == run_bytes(m_person, forest)
    ast = parse_query(P_PERSON_TEXT)
    rng = random.Random(1002)
    for _ in range(50):
        doc = random_person_doc(rng)
        assert run_bytes(mo, doc) == oracle_bytes(ast, doc)
    took = time.time() - t0
    assert took < 10.0
    _ok("criterion 2: compiler fidelity (14 states pre-optimization)",
        "%.2fs" % took)


def test_criterion_3_nested_loop_ordering():
    m = compile_text(NESTED_PROGRAM)
    doc = bytes_to_forest(NESTED_DOC)
    a1 = b"<a><b><c><c/></c><d/><d/></b><b><d/></b></a>"
    b1 = b"<b><c><c/></c><d/><d/></b>"
    frozen = a1 + b1 + b"<c><c/></c><c/><d/><d/>" + a1 + b"<b><d/></b><d/>"
    got = forest_to_bytes(coalesce_text(evaluate(m, doc)))
    assert got == frozen
    assert got == oracle_bytes(parse_query(NESTED_PROGRAM), doc)
    streamed, _ = stream_bytes(optimize(m), NESTED_DOC)
    assert streamed == frozen
    _ok("criterion 3: subtree sequence a1 b1 c1 c2 d1 d2 a1 b2 d3")


def test_criterion_4_parameter_free_corpus_queries():
    for name in ("q02", "q13"):
        m = optimize(compile_text(CORPUS_QUERIES[name]))
        assert m.total_params() == 0, name
        assert classify(m) in ("TT", "FT"), name
    _ok("criterion 4: q02 and q13 optimize to parameter-free transducers")


def test_criterion_5_optimizer_soundness():
    t0 = time.time()
    rng = random.Random(1005)
    rewrites = (remove_unreachable, unused_params, constant_params,
                remove_stay_moves, optimize)
    pairs = 0
    while pairs < 200:
        m = random_mft(rng)
        docs = [random_forest(rng, budget=10) for _ in range(4)]
        rewritten = [(fn, fn(m)) for fn in rewrites]
        for fn, out in rewritten:
            assert validate(out) == [], fn.__name__
        for doc in docs:
            want = run_bytes(m, doc)
            for fn, out in rewritten:
                assert run_bytes(out, doc) == want, fn.__name__
            pairs += 1
    took = time.time() - t0
    assert took < 60.0
    _ok("criterion 5: optimizer soundness", "%d pairs, %.1fs" % (pairs, took))


def test_criterion_6_composition_suite():
    rng = random.Random(1006)

    def make(kind):
        if kind == "tt":
            return random_tt(rng)
        if kind == "ft":
            return random_ft(rng)
        return random_mft(rng, tree_shaped=True)

    modes = (("tt-tt", "tt", "tt"), ("mtt-tt", "mtt", "tt"),
             ("tt-mtt", "tt", "mtt"), ("mtt-ft", "mtt", "ft"),
             ("tt-ft", "tt", "ft"), ("ft-tt", "ft", "tt"))
    for mode, k1, k2 in modes:
        for _ in range(50):
            m1, m2 = make(k1), make(k2)
            comp, _ = compose(m1, m2, mode)
            assert validate(comp) == []
            for _ in range(2):
                f = random_forest(rng, budget=6)
                assert run_bytes(comp, f) == \
                    run_bytes(m2, evaluate(m1, f)), mode

    # the chain/spawner example: stay rules keep the composition small
    chain = parse_mft("""\
q0(a(x1)x2) -> b(b(b(b(q0(x1)))))
q0(%t(x1)x2) -> eps
q0(eps) -> eps
""")
    spawn = parse_mft("""\
p0(b(x1)x2) -> c(p0(x1)) p0(x1)
p0(%t(x1)x2) -> eps
p0(eps) -> eps
""")
    comp, rep = compose(chain, spawn, "tt-tt")
    assert rep.size_out < 2 * rep.sigma * rep.size1 * rep.size2

    def height(rhs):
        from mfx.mft import Call, Node
        h = 0
        for it in rhs:
            if isinstance(it, Node):
                h = max(h, 1 + height(it.children))
            elif isinstance(it, Call):
                h = max(h, 1 + max([height(a) for a in it.args], default=0))
            else:
                h = max(h, 1)
        return h

    assert all(height(r.rhs) < 5 for r in comp.rules.values())
    f = parse_term("a(a(a()))")
    assert evaluate(comp, f) == evaluate(spawn, evaluate(chain, f))

    # doubling transducer composed with itself: 2-node chain -> 16 leaves
    doubling = parse_mft("""\
q(a(x1)x2) -> q(x2) q(x2)
q(%t(x1)x2) -> eps
q(eps) -> a()
""")
    squared, _ = compose(ft_to_mtt(doubling), doubling, "mtt-ft")
    two = parse_term("a() a()")
    out = evaluate(squared, two)
    assert len(out) == 16
    assert out == evaluate(doubling, evaluate(doubling, two))
    _ok("criterion 6: composition suite",
        "6 constructions x 50 pairs + worked examples")


def test_criterion_7_streaming_memory():
    t0 = time.time()
    sizes = (10_000, 100_000)

    # (a) optimized scans keep a width-independent buffer
    for name in ("q01", "q02", "q13"):
        m = corpus_transducer(name)
        peaks = [measure(m, generate_events("xmark-lite", s, seed=7)).peak_nodes
                 for s in sizes]
        assert peaks[1] <= 1.1 * peaks[0], (name, peaks)

    # (b) the unoptimized variant keeps the whole input alive
    m_no = corpus_transducer("q01", no_opt=True)
    peaks_no = [measure(m_no, generate_events("xmark-lite", s, seed=7)).peak_nodes
                for s in (10_000, 100_000)]
    assert peaks_no[1] >= 5 * peaks_no[0], peaks_no

    # (c) doubling the input genuinely needs the input buffered
    m_double = corpus_transducer("double")
    for s in sizes:
        stats = measure(m_double, generate_events("xmark-lite", s, seed=7))
        nodes = count_nodes(generate_events("xmark-lite", s, seed=7))
        assert stats.peak_nodes >= 0.5 * nodes, (s, stats.peak_nodes, nodes)

    # (d) the corner-case queries stream correctly against the oracle
    data = generate_bytes("xmark-lite", 3000, seed=7)
    forest = bytes_to_forest(data)
    for name in ("fourstar", "deepdup"):
        m = corpus_transducer(name)
        got, _ = stream_bytes(m, data)
        assert got == oracle_bytes(parse_query(CORPUS_QUERIES[name]), forest)

    took = time.time() - t0
    assert took < 300.0
    _ok("criterion 7: streaming memory profile", "%.1fs" % took)


def test_criterion_8_exhaustive_small_instance_oracles():
    from test_paths import all_forests
    from mfx.paths import Numbering, PathAutomaton, select_ctx
    from util import automaton_select
    from mfx.xquery import parse_query as pq

    def path_of(expr):
        return pq("<r>{%s}</r>" % expr).children[0].path

    paths = [path_of(e) for e in
             ("$input/a", "$input/b/c", "$input//a", "$input//a/b",
              "$input/*/a", "$input//a//c",
              "$input/a/following-sibling::b",
              "$input//a/following-sibling::*/c")]
    autos = [(p, PathAutomaton(p.steps, False)) for p in paths]
    for _, auto in autos:
        # a move depends only on (state, label class): compute each once
        # across all forests; select_ctx still checks every forest
        auto.move = functools.cache(auto.move)
    forests = 0
    for f in all_forests(("a", "b", "c"), 6):
        forests += 1
        doc = Numbering(f)
        for p, auto in autos:
            want = select_ctx(p.steps, doc, 0)
            got = automaton_select(auto, doc)
            assert got == want, (p, f)
    assert forests > 2000

    for name in CORPUS_QUERIES:
        m = compile_text(CORPUS_QUERIES[name])
        assert necessary_params(m) == necessary_params_oracle(m), name
    _ok("criterion 8: exhaustive small-instance oracles",
        "%d forests x %d paths" % (forests, len(paths)))


def test_criterion_9_compile_size_linearity():
    worst = 0.0
    for text in CORPUS_QUERIES.values():
        ast = parse_query(text)
        worst = max(worst, size(compile_query(ast)) / query_size(ast))
    rng = random.Random(1009)
    for _ in range(20):
        ast = random_query(rng)
        worst = max(worst, size(compile_query(ast)) / query_size(ast))
    assert worst <= 64.0, worst
    _ok("criterion 9: compile-size linearity envelope",
        "max ratio %.1f <= 64" % worst)
