import random
import time

import pytest

from mfx.bench import CORPUS_QUERIES
from mfx.compile import compile_query
from mfx.forest import elem, parse_term, text
from mfx.gen import generate_bytes
from mfx.mft import (Call, EPS, Guard, Node, Param, Rule,
                     StayBudgetExceeded, classify, evaluate, is_tree_rhs,
                     parse_mft, print_mft, size, validate)
from mfx.optimize import optimize
from mfx.xmlio import bytes_to_forest
from mfx.xquery import parse_query

from conftest import DOC2_VERBATIM, M_PERSON_TEXT
from util import random_forest, random_mft, run_bytes

Q_COPY = """\
q(%t(x1)x2) -> %t(q(x1)) q(x2)
q(eps) -> eps
"""

DOUBLING_FT = """\
q(a(x1)x2) -> q(x2) q(x2)
q(%t(x1)x2) -> eps
q(eps) -> a()
"""


def test_m_person_valid(m_person):
    assert validate(m_person) == []


def test_m_person_doc1(m_person, doc1):
    assert run_bytes(m_person, doc1) == b"<out>JimLi</out>"


def test_m_person_fallback(m_person, doc2):
    # the first p_id fails the filter; the second parameter retries the
    # remaining siblings and succeeds
    assert run_bytes(m_person, doc2) == b"<out>JimLi</out>"


def test_m_person_fallback_verbatim(m_person):
    # the variant document as printed drops the second name
    doc = bytes_to_forest(DOC2_VERBATIM)
    assert run_bytes(m_person, doc) == b"<out>Jim</out>"


def test_q_copy_is_identity():
    m = parse_mft(Q_COPY)
    rng = random.Random(3)
    for _ in range(50):
        f = random_forest(rng, budget=15, attrs=True)
        assert evaluate(m, f) == f


def test_doubling_ft():
    # a chain of three a-leaves becomes a forest of 2^3 a-leaves
    m = parse_mft(DOUBLING_FT)
    out = evaluate(m, parse_term("a() a() a()"))
    assert out == parse_term(" ".join(["a()"] * 8))


def test_evaluate_deterministic(m_person, doc1):
    assert evaluate(m_person, doc1) == evaluate(m_person, doc1)


def test_stay_budget():
    m = parse_mft("""\
q(%t(x1)x2) -> q(x0)
q(eps) -> q(x0)
""")
    with pytest.raises(StayBudgetExceeded) as ei:
        evaluate(m, parse_term("a()"))
    assert "q" in str(ei.value)


def test_evaluate_reads_arguments_by_need():
    # r loops on stay moves; p reads its argument only on an empty forest
    m = parse_mft("""\
q(%t(x1)x2) -> p(x1, r(x0)) p(x1, b())
q(eps) -> eps
p(%t(x1)x2, y1) -> eps
p(eps, y1) -> y1 y1
r(%t(x1)x2) -> r(x0)
r(eps) -> r(x0)
""")
    assert evaluate(m, parse_term("a(c())")) == ()
    with pytest.raises(StayBudgetExceeded):
        evaluate(m, parse_term("a()"))


def test_validate_missing_eps():
    m = parse_mft(Q_COPY)
    del m.rules[("q", EPS)]
    assert any("eps" in d for d in validate(m))


def test_validate_duplicate_symbol_rule():
    text_rules = """\
q(a(x1)x2) -> eps
q(%t(x1)x2) -> eps
q(eps) -> eps
"""
    m = parse_mft(text_rules)
    with pytest.raises(ValueError):
        parse_mft(text_rules.replace("q(%t", "q(a", 1))
    # stitched-in duplicate via the API surfaces in validate
    m.rules[("q", Guard.sym("b"))] = Rule("q", Guard.sym("b"), (Param(1),))
    diags = validate(m)
    assert any("y1" in d for d in diags)  # param out of range
    assert any("sigma" in d for d in diags)  # b not declared


def test_validate_eps_rule_x0_only():
    m = parse_mft(Q_COPY)
    m.rules[("q", EPS)] = Rule("q", EPS, (Call("q", 1),))
    assert any("x0" in d for d in validate(m))


def test_classify():
    assert classify(parse_mft(Q_COPY)) == "TT"
    assert classify(parse_mft(DOUBLING_FT)) == "FT"
    m = parse_mft(M_PERSON_TEXT)
    assert classify(m) == "MFT"
    mtt = parse_mft("""\
q(%t(x1)x2, y1) -> %t(q(x1, y1))
q(eps, y1) -> y1
""")
    assert classify(mtt) == "MTT"


def test_tree_shape_predicate():
    # a call followed by anything needs concatenation: not a tree
    rhs = (Call("q", 1), Param(1))
    assert not is_tree_rhs(rhs)
    assert is_tree_rhs((Node("a", children=(Call("q", 1),)), Param(1)))


def test_size_m_person(m_person):
    # frozen regression: |sigma| = 4 plus hand-counted left- and right-hand sides
    assert size(m_person) == 111


def test_size_monotone_under_adding_rule(m_person):
    m = m_person.copy()
    m.sigma = frozenset(m.sigma | {"zz"})
    m.rules[("q1", Guard.sym("zz"))] = Rule("q1", Guard.sym("zz"), ())
    assert size(m) > size(m_person)


def test_print_parse_roundtrip(m_person):
    out = print_mft(m_person)
    again = parse_mft(out)
    assert print_mft(again) == out
    assert validate(again) == []


def test_roundtrip_random_transducers():
    rng = random.Random(11)
    for _ in range(40):
        m = random_mft(rng)
        out = print_mft(m)
        again = parse_mft(out)
        assert print_mft(again) == out
        assert validate(again) == []


def test_text_guard_checked_before_default():
    m = parse_mft("""\
q(%text(x1)x2) -> hit()
q(%t(x1)x2) -> miss()
q(eps) -> eps
""")
    assert evaluate(m, (text("anything"),)) == (elem("hit"),)
    assert evaluate(m, (elem("anything"),)) == (elem("miss"),)


def test_symbol_rule_beats_text_guard():
    # symbol rules match by label regardless of node kind
    m = parse_mft("""\
q(person0(x1)x2) -> sym()
q(%text(x1)x2) -> txt()
q(%t(x1)x2) -> other()
q(eps) -> eps
""")
    assert evaluate(m, (text("person0"),)) == (elem("sym"),)
    assert evaluate(m, (elem("person0"),)) == (elem("sym"),)
    assert evaluate(m, (text("nope"),)) == (elem("txt"),)


def test_deep_and_wide_inputs():
    # the evaluator is iterative: depth and width beyond the Python
    # recursion limit must work
    m = parse_mft(Q_COPY)
    deep = ()
    for _ in range(5000):
        deep = (elem("n", *deep),)
    assert evaluate(m, deep) == deep
    wide = tuple(elem("w") for _ in range(5000))
    assert evaluate(m, wide) == wide


def test_evaluate_is_linear_in_the_width():
    # 8x the width: walking siblings by index costs 7-12x the time, copying
    # the remaining siblings at every step 20-28x.  Best of 3 per width,
    # the two widths alternated so that a slow spell hits both.
    m = optimize(compile_query(parse_query(CORPUS_QUERIES["double"])))
    widths = (2500, 20000)
    docs = [bytes_to_forest(generate_bytes("wide-flat", w)) for w in widths]
    best = [float("inf")] * len(widths)
    for _ in range(3):
        for i, f in enumerate(docs):
            t0 = time.perf_counter()
            evaluate(m, f)
            best[i] = min(best[i], time.perf_counter() - t0)
    assert best[1] / best[0] < 16
