import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfx.forest import (Call, Node, NodeKind, Param, TermError, coalesce_text,
                        print_term)

from util import attr, check_forest, elem, parse_term, random_forest, text


def test_term_examples():
    assert parse_term("a(b())") == (elem("a", elem("b")),)
    assert parse_term("") == ()
    assert parse_term("eps") == ()
    assert print_term(()) == "eps"
    assert print_term((elem("a", elem("b")),)) == "a(b())"


def test_term_text_and_attributes():
    f = (elem("book", attr("isbn", "123"), elem("author", text("Knuth"))),)
    s = print_term(f)
    assert s == 'book(@isbn(#"123") author(#"Knuth"))'
    assert parse_term(s) == f


def test_term_quoting():
    f = (elem("weird label", text('say "hi"')),)
    assert parse_term(print_term(f)) == f


def test_term_errors_have_positions():
    with pytest.raises(ValueError) as ei:
        parse_term("a(b(")
    assert "offset" in str(ei.value)


def test_terms_read_as_rule_bodies_do():
    # a forest is a rule body without calls, parameters or %t
    assert parse_term("a(eps) eps") == (elem("a"),)
    assert parse_term("a(x1())") == (elem("a", elem("x1")),)
    for body in ("a(q(x1))", "y1", "%t()"):
        with pytest.raises(TermError):
            parse_term(body)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 9))
def test_term_roundtrip_random(seed):
    f = random_forest(random.Random(seed), budget=14, attrs=True)
    assert parse_term(print_term(f)) == f


def test_check_forest_flags_violations():
    ok = (elem("a", text("x"), elem("b")),)
    assert check_forest(ok) == []
    bad = (Node("t", NodeKind.TEXT, (elem("a"),)),)
    assert check_forest(bad)
    adjacent = (elem("a", text("x"), text("y")),)
    assert check_forest(adjacent)


def test_coalesce_text():
    f = (elem("a", text("x"), text("y"), elem("b"), text("z")),)
    assert coalesce_text(f) == (elem("a", text("xy"), elem("b"), text("z")),)


def _chain(depth, leaves):
    f = tuple(leaves)
    for _ in range(depth):
        f = (elem("a", *f),)
    return f


def test_coalesce_text_survives_a_deep_chain():
    # coalesce_text walks an explicit stack, so depth is not bounded by
    # the recursion limit
    f = _chain(5000, (text("x"), text(""), text("y"), elem("b"), text("")))
    want = _chain(5000, (text("xy"), elem("b")))
    assert coalesce_text(f) == want


def test_tree_equality_is_structural_at_any_depth():
    deep = _chain(5000, (text("x"),))
    assert deep == _chain(5000, (text("x"),))
    assert deep != _chain(5000, (text("y"),))
    assert deep != _chain(5000, (elem("x"),))
    assert deep != _chain(5000, (text("x"), text("x")))
    assert deep != _chain(4999, (text("x"),))
    assert elem("a") != "a" and elem("a") == Node("a")
    assert hash(elem("a", text("x"))) == hash(elem("a", text("x")))


def test_slotted_terms_compare_and_hash_by_value():
    # Node, Call and Param are slotted, not frozen: equality and hashing
    # stay by value, so equal terms are one set member and one dict key
    def make():
        return (elem("a", attr("k", "v"), text("x")),
                Call("q", 1, ((Param(1), elem("b")), ())),
                Param(2))
    for x, y in zip(make(), make()):
        assert x is not y and x == y and hash(x) == hash(y)
        assert len({x, y}) == 1 and {x: 1, y: 2} == {x: 2}
    assert Param(1) != Param(2) and Param(1) == Param(1)
    assert elem("a") != Call("q", 1) and Call("q", 1) != elem("a")
    assert Node("q") != Call("q", 0) and Call("q", 1) != Call("q", 2)
    for obj in make():
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_helpers_handle_a_5000_deep_chain():
    t = text("x")
    for k in range(5000):
        t = Node("n", NodeKind.ATTRIBUTE if k == 0 else NodeKind.ELEMENT,
                 (t,))
    want = "n(" * 4999 + '@n(#"x")' + ")" * 4999
    assert print_term((t,)) == want
    assert repr(t) == "Node(%s)" % want
    assert check_forest((t,)) == []
    bad = Node("n", NodeKind.ELEMENT, (t, text("a"), text("b")))
    assert check_forest((bad,)) == ["[0]/n[2]: adjacent text siblings"]
    twin = text("x")
    for k in range(5000):
        twin = Node("n", NodeKind.ATTRIBUTE if k == 0 else NodeKind.ELEMENT,
                    (twin,))
    assert twin == t and hash(twin) == hash(t)
    assert len({t, twin, bad}) == 2


def test_term_round_trip_on_a_5000_deep_chain():
    chain = text("bottom")
    for _ in range(5000):
        chain = elem("n", chain)
    term = "n(" * 5000 + '#"bottom"' + ")" * 5000
    assert print_term((chain,)) == term
    assert parse_term(term) == (chain,)
    assert parse_term("n(" * 5000 + ")" * 5000)[0].children[0].label == "n"
    with pytest.raises(ValueError, match="expected '\\)'"):
        parse_term("n(" * 5000 + ")" * 4999)
