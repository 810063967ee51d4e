import random

import pytest

from mfx.forest import elem, text
from mfx.paths import (NodeCtx, PathAutomaton, compile_path,
                       fold_comparison, select_ctx, virtual_ctx)
from mfx.xquery import NodeTest, Path, Predicate, Step, parse_query

from util import dump_dot, random_forest, select_nodes_oracle


def _path(expr: str) -> Path:
    ast = parse_query("<r>{%s}</r>" % expr)
    return ast.children[0].path


def all_forests(labels, max_nodes):
    """Every element-only forest with at most max_nodes nodes."""
    if max_nodes == 0:
        yield ()
        return
    yield ()
    for first_size in range(1, max_nodes + 1):
        for label in labels:
            for kids in all_forests(labels, first_size - 1):
                head = elem(label, *kids)
                for rest in all_forests(labels, max_nodes - first_size):
                    yield (head,) + rest


def test_single_child_step():
    auto = compile_path(_path("$input/a"), anchored=False)
    doc = (elem("a", elem("a")), elem("b"), elem("a"))
    got = [c.tree.label for c in auto.select(virtual_ctx(doc))]
    assert got == ["a", "a"]
    # only top-level a's: nested one not selected
    assert [c.pos for c in auto.select(virtual_ctx(doc))] == [(0,), (2,)]


def test_descendant_child_matches_oracle_exhaustively():
    path = _path("$input//a/b")
    auto = compile_path(path, anchored=False)
    count = 0
    for f in all_forests(("a", "b"), 5):
        ctx = virtual_ctx(f)
        want = [c.pos for c in select_nodes_oracle(path, f)]
        got = [c.pos for c in auto.select(ctx)]
        assert got == want, f
        count += 1
    assert count > 100


def test_exhaustive_three_letter_suite():
    # the acceptance-level oracle check at small scale
    paths = [_path(e) for e in
             ("$input/a", "$input//b", "$input//a/b", "$input/*/c",
              "$input//a//b", "$input/a/following-sibling::b")]
    for f in all_forests(("a", "b", "c"), 4):
        for path in paths:
            want = [c.pos for c in select_nodes_oracle(path, f)]
            got = [c.pos for c in compile_path(path, False).select(virtual_ctx(f))]
            assert got == want, (path, f)


def test_anchored_matches_within_first_tree_only():
    path = _path("$v/a")  # anchored paths consume the anchor root first
    auto = PathAutomaton(path.steps, anchored=True)
    t = elem("r", elem("a"), elem("b", elem("a")))
    sibling = elem("a")
    ctx = NodeCtx(t, (sibling,), (), (0,))
    got = auto.select(ctx)
    # selects the a-child of the anchor, not the a-sibling
    assert [c.pos for c in got] == [(0, 0)]


def test_following_sibling_from_anchor():
    path = Path("v", (Step("following-sibling", NodeTest("name", "x")),))
    auto = PathAutomaton(path.steps, anchored=True)
    t = elem("r")
    tail = (elem("x"), elem("y"), elem("x"))
    got = auto.select(NodeCtx(t, tail, (), (0,)))
    assert [c.pos for c in got] == [(1,), (3,)]
    # oracle agrees
    want = select_ctx(path.steps, NodeCtx(t, tail, (), (0,)))
    assert [c.pos for c in want] == [(1,), (3,)]


def test_selection_is_preorder_and_deduped():
    path = _path("$input//a")
    f = (elem("a", elem("a", elem("a"))),)
    got = select_nodes_oracle(path, f)
    assert [c.pos for c in got] == [(0,), (0, 0), (0, 0, 0)]
    auto = compile_path(path, False)
    assert [c.pos for c in auto.select(virtual_ctx(f))] == \
        [(0,), (0, 0), (0, 0, 0)]


def test_node_test_semantics():
    f = (elem("a"), text("a"), text("t1"), elem("b"))
    ctx = virtual_ctx(f)
    # name test matches by label regardless of kind (documented)
    assert [c.pos for c in select_ctx((Step("child", NodeTest("name", "a")),), ctx)] \
        == [(0,), (1,)]
    # star excludes text nodes, text() selects only them
    assert [c.pos for c in select_ctx((Step("child", NodeTest("star")),), ctx)] \
        == [(0,), (3,)]
    assert [c.pos for c in select_ctx((Step("child", NodeTest("text")),), ctx)] \
        == [(1,), (2,)]
    assert len(select_ctx((Step("child", NodeTest("node")),), ctx)) == 4


def test_predicate_evaluation():
    person = elem("person",
                  elem("p_id", elem("a"), text("person0")),
                  elem("name", text("Jim")))
    doc = (person,)
    pred = parse_query(
        '<r>{ for $b in $input/person[./p_id/text() = "person0"] '
        "return $b }</r>").children[0].path.steps[0].predicates[0]
    from mfx.paths import pred_holds
    assert pred_holds(pred, NodeCtx(person, (), (), (0,)))
    other = elem("person", elem("p_id", text("perso7")))
    assert not pred_holds(pred, NodeCtx(other, (), (), (0,)))


def test_eq_comparison_is_label_based():
    # an element with the compared label also satisfies the filter
    pred = Predicate("eq", (Step("child", NodeTest("name", "p_id")),
                            Step("child", NodeTest("text"))), "person0")
    from mfx.paths import pred_holds
    person = elem("person", elem("p_id", elem("person0")))
    assert pred_holds(pred, NodeCtx(person, (), (), (0,)))


def test_neq_and_empty():
    from mfx.paths import pred_holds
    neq = Predicate("neq", (Step("child", NodeTest("text")),), "t1")
    holder = elem("x", text("t2"))
    assert pred_holds(neq, NodeCtx(holder, (), (), (0,)))
    only_t1 = elem("x", text("t1"))
    assert not pred_holds(neq, NodeCtx(only_t1, (), (), (0,)))
    empty = Predicate("empty", (Step("child", NodeTest("name", "h")),))
    assert pred_holds(empty, NodeCtx(only_t1, (), (), (0,)))
    assert not pred_holds(empty, NodeCtx(elem("x", elem("h")), (), (), (0,)))


def test_fold_comparison_appends_text_step():
    pred = Predicate("eq", (Step("child", NodeTest("name", "p")),), "v")
    steps = fold_comparison(pred)
    assert len(steps) == 2
    assert steps[-1].test == NodeTest("name", "v")
    pred2 = Predicate("neq", (Step("child", NodeTest("text")),), "v")
    steps2 = fold_comparison(pred2)
    assert len(steps2) == 1 and steps2[-1].test == NodeTest("neq", "v")


def test_compile_path_rejects_predicates():
    path = _path('$input/a[./b]')
    with pytest.raises(ValueError):
        compile_path(path, False)


def test_randomized_agreement_with_text_nodes():
    rng = random.Random(41)
    exprs = ("$input//a", "$input/*/text()", "$input//text()",
             "$input/a//b", "$input/node()",
             "$input/a/following-sibling::*")
    paths = [_path(e) for e in exprs]
    for _ in range(150):
        f = random_forest(rng, budget=10)
        for path in paths:
            want = [c.pos for c in select_nodes_oracle(path, f)]
            got = [c.pos for c in compile_path(path, False).select(virtual_ctx(f))]
            assert got == want, (path, f)


def test_dump_dot_smoke():
    out = dump_dot(compile_path(_path("$input//a/b"), False))
    assert out.startswith("digraph") and "->" in out


def test_automaton_totality():
    auto = compile_path(_path("$input//a/b"), False)
    state = auto.initial()
    for cls in [("a", False), ("b", False), (None, False), (None, True)]:
        sel, down, right = auto.move(state, cls)
        assert isinstance(sel, bool)  # defined for every class
