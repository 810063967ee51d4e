import random

import pytest

from mfx.xquery import (Element, For, Let, NodeTest, Path,
                        Predicate, QueryError, Sequence, Step,
                        check_scoping, parse_query)

from conftest import NESTED_PROGRAM, P_PERSON_TEXT
from util import pretty, query_size, random_query


def test_nested_program_shape():
    ast = parse_query(NESTED_PROGRAM)
    assert isinstance(ast, For)
    assert isinstance(ast.body, For)
    assert isinstance(ast.body.body, Let)
    assert isinstance(ast.body.body.body, Let)
    assert isinstance(ast.body.body.body.body, Sequence)
    assert len(ast.body.body.body.body.items) == 4
    assert ast.path == Path("input", (Step("descendant", NodeTest("name", "a")),))


def test_p_person_shape():
    ast = parse_query(P_PERSON_TEXT)
    assert isinstance(ast, Element) and ast.name == "out"
    (clause,) = ast.children
    assert isinstance(clause, For) and clause.var == "b"
    (step,) = clause.path.steps
    assert step.test == NodeTest("name", "person")
    (pred,) = step.predicates
    assert pred == Predicate("eq",
                             (Step("child", NodeTest("name", "p_id")),
                              Step("child", NodeTest("text"))),
                             "person0")


def test_empty_element():
    assert parse_query("<r></r>") == Element("r", ())


def test_abbreviations_desugar():
    ast = parse_query("<r>{$input//a/b/text()}</r>")
    (pe,) = ast.children
    axes = [s.axis for s in pe.path.steps]
    assert axes == ["descendant", "child", "child"]


def test_leading_slash_is_input():
    ast = parse_query("<r>{ for $x in /site/a return $x }</r>")
    (f,) = ast.children
    assert f.path.start == "input"


def test_text_as_element_name():
    # "text" without () is an ordinary name test
    ast = parse_query("<r>{$input/text/emph}</r>")
    (pe,) = ast.children
    assert pe.path.steps[0].test == NodeTest("name", "text")
    assert pe.path.steps[1].test == NodeTest("name", "emph")


def test_scoping_accepts_worked_examples():
    assert check_scoping(parse_query(NESTED_PROGRAM)) == []
    assert check_scoping(parse_query(P_PERSON_TEXT)) == []


def test_scoping_rejects_outer_for_path():
    q = ("for $a in $input/child::x return "
         "for $b in $a/child::y return $a/child::z")
    msgs = check_scoping(parse_query(q))
    assert msgs and "$a" in msgs[0]


def test_scoping_accepts_output_variables():
    q = "for $a in $input/child::x return ($a, $a)"
    assert check_scoping(parse_query(q)) == []


def test_scoping_flags_unbound():
    assert check_scoping(parse_query("<r>{$nope}</r>"))


def test_positioned_errors():
    with pytest.raises(QueryError) as ei:
        parse_query("<out>{ for $x in }</out>", filename="f.xq")
    assert str(ei.value).startswith("f.xq:1:")


def test_query_sizes_frozen():
    # hand-counted parse-tree node counts, kept as regressions
    assert query_size(parse_query("<r></r>")) == 1
    assert query_size(parse_query("<r>hello</r>")) == 2
    # for(1) + var(1) + path(1 + one step 2) + body ($v: 1 + 1)
    assert query_size(parse_query("for $v in $input/a return $v")) == 7
    assert query_size(parse_query(P_PERSON_TEXT)) == 22


def test_pretty_roundtrip_worked_examples():
    for text in (NESTED_PROGRAM, P_PERSON_TEXT):
        ast = parse_query(text)
        assert parse_query(pretty(ast)) == ast


def test_pretty_roundtrip_random():
    rng = random.Random(31)
    for _ in range(100):
        ast = random_query(rng)
        assert parse_query(pretty(ast)) == ast
        assert check_scoping(ast) == []


def test_desugaring_idempotent():
    rng = random.Random(32)
    for _ in range(50):
        ast = random_query(rng)
        once = pretty(parse_query(pretty(ast)))
        assert pretty(parse_query(once)) == once
