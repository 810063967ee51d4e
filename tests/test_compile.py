import random

import pytest

from mfx.compile import collect_sigma, compile_query, compile_text
from mfx.forest import coalesce_text
from mfx.mft import evaluate, size, validate
from mfx.optimize import optimize
from mfx.xmlio import bytes_to_forest, forest_to_bytes
from mfx.xquery import check_scoping, parse_query

from conftest import DOC1, NESTED_DOC, NESTED_PROGRAM, P_PERSON_TEXT
from util import (elem, oracle_bytes, pretty, query_size, random_forest,
                  random_person_doc, random_query, run_bytes, stream_bytes)


def test_p_person_has_fourteen_states():
    m = compile_text(P_PERSON_TEXT)
    assert len(m.states) == 14


def test_p_person_sigma():
    ast = parse_query(P_PERSON_TEXT)
    assert collect_sigma(ast) == {"person", "p_id", "person0", "name"}


def test_p_person_behaviour_matches_m_person(m_person, doc1, doc2):
    m = optimize(compile_text(P_PERSON_TEXT))
    for doc in (doc1, doc2):
        assert run_bytes(m, doc) == run_bytes(m_person, doc)


def test_p_person_against_interpreter_on_random_docs():
    ast = parse_query(P_PERSON_TEXT)
    m = optimize(compile_text(P_PERSON_TEXT))
    rng = random.Random(51)
    for _ in range(50):
        doc = random_person_doc(rng)
        assert run_bytes(m, doc) == oracle_bytes(ast, doc)


def test_constant_query_ignores_input():
    m = compile_text("<r>hello</r>")
    for doc in ((), bytes_to_forest(DOC1), (elem("x"),)):
        assert run_bytes(m, doc) == b"<r>hello</r>"


def test_nested_program_order():
    m = compile_text(NESTED_PROGRAM)
    doc = bytes_to_forest(NESTED_DOC)
    got = forest_to_bytes(coalesce_text(evaluate(m, doc)))
    a1 = b"<a><b><c><c/></c><d/><d/></b><b><d/></b></a>"
    b1 = b"<b><c><c/></c><d/><d/></b>"
    want = (a1 + b1 + b"<c><c/></c><c/><d/><d/>"
            + a1 + b"<b><d/></b><d/>")
    assert got == want
    assert got == oracle_bytes(parse_query(NESTED_PROGRAM), doc)


# -- per-construct rules ------------------------------------------------------


def _first_out(query: str, doc: bytes = b"<top><a>x</a></top>") -> bytes:
    m = compile_text(query)
    return run_bytes(m, bytes_to_forest(doc))


def test_element_constructor():
    assert _first_out("<r><s></s></r>") == b"<r><s/></r>"


def test_string_literal_is_text():
    assert _first_out("<r>hi</r>") == b"<r>hi</r>"


def test_sequence_fanout_order():
    out = _first_out('<r>{ ($input/a, $input/a) }</r>',
                     b"<a><b/></a>")
    assert out == b"<r><a><b/></a><a><b/></a></r>"


def test_output_variable():
    out = _first_out("<r>{ for $v in $input/a return ($v, $v) }</r>",
                     b"<a><b/></a>")
    assert out == b"<r><a><b/></a><a><b/></a></r>"


def test_let_binding():
    out = _first_out("<r>{ let $v := <s>x</s> return ($v, $v) }</r>")
    assert out == b"<r><s>x</s><s>x</s></r>"


def test_path_expression_emits_matches_in_preorder():
    out = _first_out("<r>{$input//name}</r>",
                     b"<p><name>n1<name>n2</name></name><x><name>n3</name></x></p>")
    assert out == b"<r><name>n1<name>n2</name></name><name>n2</name><name>n3</name></r>"


def test_for_gets_match_and_siblings_as_position():
    # following-sibling from the bound variable sees the match's tail
    q = ("<r>{ for $v in $input/top/a return "
         "$v/following-sibling::b }</r>")
    out = _first_out(q, b"<top><a/><b>1</b><a/><b>2</b></top>")
    assert out == b"<r><b>1</b><b>2</b><b>2</b></r>"


def test_empty_match_set_gives_empty_forest():
    assert _first_out("<r>{$input/zz}</r>") == b"<r/>"


def test_predicate_on_nested_documents():
    q = ('<r>{ for $p in $input/p[./q/text()="t1"] return <hit></hit> }</r>')
    assert _first_out(q, b"<p><q>t1</q></p>") == b"<r><hit/></r>"
    assert _first_out(q, b"<p><q>t2</q></p>") == b"<r/>"
    # sibling retry: second q satisfies the filter
    assert _first_out(q, b"<p><q>t2</q><q>t1</q></p>") == b"<r><hit/></r>"


def test_empty_predicate():
    q = '<r>{ for $p in $input/p[empty(./h/text())] return <hit></hit> }</r>'
    assert _first_out(q, b"<p><h>x</h></p>") == b"<r/>"
    assert _first_out(q, b"<p><h></h></p>") == b"<r><hit/></r>"
    assert _first_out(q, b"<p/>") == b"<r><hit/></r>"


def test_neq_predicate_needs_witness():
    q = '<r>{ for $p in $input/p[./q/text()!="t1"] return <hit></hit> }</r>'
    assert _first_out(q, b"<p><q>t2</q></p>") == b"<r><hit/></r>"
    assert _first_out(q, b"<p><q>t1</q></p>") == b"<r/>"
    assert _first_out(q, b"<p/>") == b"<r/>"
    assert _first_out(q, b"<p><q>t1</q><q>t2</q></p>") == b"<r><hit/></r>"


def test_nested_predicates():
    q = ('<r>{ for $p in $input/p[./b[./c]/following-sibling::b/text()="t2"]'
         " return <hit></hit> }</r>")
    assert _first_out(q, b"<p><b><c/></b><b>t2</b></p>") == b"<r><hit/></r>"
    assert _first_out(q, b"<p><b></b><b>t2</b></p>") == b"<r/>"
    assert _first_out(q, b"<p><b><c/></b><b>t3</b></p>") == b"<r/>"


def test_predicate_agreement_exhaustive_small():
    # compiled predicates against the interpreter on every small forest
    from test_paths import all_forests
    q = parse_query('<r>{ for $v in $input/a[./b] return $v }</r>')
    m = optimize(compile_query(q))
    for f in all_forests(("a", "b"), 4):
        assert run_bytes(m, f) == oracle_bytes(q, f), f


def test_randomized_queries_against_interpreter():
    rng = random.Random(52)
    checked = 0
    for i in range(40):
        ast = random_query(rng)
        assert check_scoping(ast) == []
        m = compile_query(ast)
        mo = optimize(m)
        for _ in range(6):
            doc = random_forest(rng, budget=12)
            want = oracle_bytes(ast, doc)
            assert run_bytes(m, doc) == want, pretty(ast)
            assert run_bytes(mo, doc) == want, pretty(ast)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("profile,size", [("deep-chain", 5000),
                                           ("wide-flat", 20000)])
@pytest.mark.parametrize("query", [
    '$input//text()',
    'for $x in $input//n return <k>x</k>',
    '$input/*/leaf[./text()="v7"]',
    '$input//leaf/following-sibling::leaf',
    'for $x in $input//n[./n] return <k>{$x/text()}</k>'],
    ids=["text", "for", "filter", "siblings", "for-filter"])
def test_three_semantics_agree_deep_and_wide(profile, size, query):
    # the interpreter, the in-memory evaluator and the stream engine, on
    # input deeper than the recursion limit and wider than a quadratic
    # walk finishes on
    from mfx.gen import generate_bytes
    data = generate_bytes(profile, size)
    doc = bytes_to_forest(data)
    ast = parse_query(query)
    m = optimize(compile_query(ast))
    want = oracle_bytes(ast, doc)
    assert run_bytes(m, doc) == want
    assert stream_bytes(m, data)[0] == want


def test_compile_is_deterministic():
    a = compile_text(P_PERSON_TEXT)
    b = compile_text(P_PERSON_TEXT)
    from mfx.mft import print_mft
    assert print_mft(a) == print_mft(b)


def test_compile_validates():
    rng = random.Random(53)
    for _ in range(30):
        ast = random_query(rng)
        assert validate(compile_query(ast)) == []


def test_compile_size_linear_envelope():
    # size(compile(P)) / |P| stays under a frozen constant for the corpus
    from mfx.bench import CORPUS_QUERIES
    rng = random.Random(54)
    worst = 0.0
    for text_ in CORPUS_QUERIES.values():
        ast = parse_query(text_)
        ratio = size(compile_query(ast)) / query_size(ast)
        worst = max(worst, ratio)
    for _ in range(20):
        ast = random_query(rng)
        ratio = size(compile_query(ast)) / query_size(ast)
        worst = max(worst, ratio)
    # frozen envelope: the corpus stays under 19; descendant-heavy random
    # paths cost more through the subset construction but stay bounded
    assert worst <= 64, worst


def test_scoping_failures_propagate():
    with pytest.raises(ValueError):
        compile_text("<r>{$nope}</r>")
