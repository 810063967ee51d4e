import random

from mfx.paths import (Numbering, PathAutomaton, fold_comparison, pred_holds,
                       select_ctx)
from mfx.xquery import NodeTest, Path, Predicate, Step, parse_query

from util import automaton_select, elem, random_forest, text


def _path(expr: str) -> Path:
    ast = parse_query("<r>{%s}</r>" % expr)
    return ast.children[0].path


def _automaton(expr: str) -> PathAutomaton:
    return PathAutomaton(_path(expr).steps, anchored=False)


def _both(path: Path, f) -> bool:
    """The reference selection and the automaton agree on the forest."""
    doc = Numbering(f)
    return select_ctx(path.steps, doc, 0) == \
        automaton_select(PathAutomaton(path.steps, False), doc)


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


def test_numbering_is_preorder_with_parent_and_end():
    doc = Numbering((elem("a", elem("b"), elem("c", elem("d"))), elem("e")))
    assert [t and t.label for t in doc.trees] == [None, "a", "b", "c", "d", "e"]
    assert doc.parent == [0, 0, 1, 1, 3, 0]
    assert doc.end == [6, 5, 3, 5, 5, 6]


def test_single_child_step():
    doc = Numbering((elem("a", elem("a")), elem("b"), elem("a")))
    auto = _automaton("$input/a")
    assert [doc.trees[k].label for k in automaton_select(auto, doc)] == \
        ["a", "a"]
    # only top-level a's: nested one (node 2) not selected
    assert automaton_select(auto, doc) == [1, 4]


def test_descendant_child_matches_oracle_exhaustively():
    path = _path("$input//a/b")
    count = 0
    for f in all_forests(("a", "b"), 5):
        assert _both(path, f), f
        count += 1
    assert count > 100


def test_exhaustive_three_letter_suite():
    # the acceptance-level oracle check at small scale
    paths = [_path(e) for e in
             ("$input/a", "$input//b", "$input//a/b", "$input/*/c",
              "$input//a//b", "$input/a/following-sibling::b")]
    for f in all_forests(("a", "b", "c"), 4):
        for path in paths:
            assert _both(path, f), (path, f)


def test_anchored_matches_within_first_tree_only():
    path = _path("$v/a")  # anchored paths consume the anchor root first
    auto = PathAutomaton(path.steps, anchored=True)
    # node 1 is the anchor r, node 5 its a-sibling
    doc = Numbering((elem("r", elem("a"), elem("b", elem("a"))), elem("a")))
    # selects the a-child of the anchor, not the a-sibling
    assert automaton_select(auto, doc, 1) == [2]


def test_following_sibling_from_anchor():
    path = Path("v", (Step("following-sibling", NodeTest("name", "x")),))
    auto = PathAutomaton(path.steps, anchored=True)
    doc = Numbering((elem("r"), elem("x"), elem("y"), elem("x")))
    assert automaton_select(auto, doc, 1) == [2, 4]
    # oracle agrees
    assert select_ctx(path.steps, doc, 1) == [2, 4]


def test_selection_is_preorder_and_deduped():
    path = _path("$input//a")
    doc = Numbering((elem("a", elem("a", elem("a"))),))
    assert select_ctx(path.steps, doc, 0) == [1, 2, 3]
    assert automaton_select(_automaton("$input//a"), doc) == [1, 2, 3]


def test_node_test_semantics():
    doc = Numbering((elem("a"), text("a"), text("t1"), elem("b")))
    # name test matches by label regardless of kind (documented)
    assert select_ctx((Step("child", NodeTest("name", "a")),), doc, 0) \
        == [1, 2]
    # star excludes text nodes, text() selects only them
    assert select_ctx((Step("child", NodeTest("star")),), doc, 0) == [1, 4]
    assert select_ctx((Step("child", NodeTest("text")),), doc, 0) == [2, 3]
    assert len(select_ctx((Step("child", NodeTest("node")),), doc, 0)) == 4


def test_predicate_evaluation():
    person = elem("person",
                  elem("p_id", elem("a"), text("person0")),
                  elem("name", text("Jim")))
    pred = parse_query(
        '<r>{ for $b in $input/person[./p_id/text() = "person0"] '
        "return $b }</r>").children[0].path.steps[0].predicates[0]
    assert pred_holds(pred, Numbering((person,)), 1)
    other = elem("person", elem("p_id", text("perso7")))
    assert not pred_holds(pred, Numbering((other,)), 1)


def test_eq_comparison_is_label_based():
    # an element with the compared label also satisfies the filter
    pred = Predicate("eq", (Step("child", NodeTest("name", "p_id")),
                            Step("child", NodeTest("text"))), "person0")
    person = elem("person", elem("p_id", elem("person0")))
    assert pred_holds(pred, Numbering((person,)), 1)


def test_neq_and_empty():
    neq = Predicate("neq", (Step("child", NodeTest("text")),), "t1")
    holder = elem("x", text("t2"))
    assert pred_holds(neq, Numbering((holder,)), 1)
    only_t1 = Numbering((elem("x", text("t1")),))
    assert not pred_holds(neq, only_t1, 1)
    empty = Predicate("empty", (Step("child", NodeTest("name", "h")),))
    assert pred_holds(empty, only_t1, 1)
    assert not pred_holds(empty, Numbering((elem("x", elem("h")),)), 1)


def test_fold_comparison_appends_text_step():
    pred = Predicate("eq", (Step("child", NodeTest("name", "p")),), "v")
    steps = fold_comparison(pred)
    assert len(steps) == 2
    assert steps[-1].test == NodeTest("name", "v")
    pred2 = Predicate("neq", (Step("child", NodeTest("text")),), "v")
    steps2 = fold_comparison(pred2)
    assert len(steps2) == 1 and steps2[-1].test == NodeTest("neq", "v")


def test_randomized_agreement_with_text_nodes():
    rng = random.Random(41)
    exprs = ("$input//a", "$input/*/text()", "$input//text()",
             "$input/a//b", "$input/node()",
             "$input/a/following-sibling::*")
    paths = [_path(e) for e in exprs]
    for _ in range(150):
        f = random_forest(rng, budget=10)
        for path in paths:
            assert _both(path, f), (path, f)


def test_automaton_totality():
    auto = _automaton("$input//a/b")
    state = auto.initial()
    for cls in [("a", False), ("b", False), (None, False), (None, True)]:
        sel, down, right = auto.move(state, cls)
        assert isinstance(sel, bool)  # defined for every class
