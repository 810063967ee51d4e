"""Path selection: the reference selection over a numbered document and the
total selection automaton the compiler builds its scans from.

Node-test semantics shared by the reference selection, the automaton, and
the compiled transducers:

* a name test matches any node with that label, regardless of kind (this is
  what makes string-comparison guards possible, and means a text node whose
  content equals a tested name is treated like that name);
* ``*`` matches any non-text node, ``text()`` any text node, ``node()``
  everything;
* an equality comparison ``p = "s"`` folds into the final step as a label
  test for ``s`` (any kind); ``p != "s"`` as "a text node labeled anything
  but s".  A comparison after a non-text() step gets an implicit
  ``/text()`` first.

Selection order is document pre-order, without duplicates.

The reference selection runs on a :class:`Numbering` of the document, the
pre/size plane of Grust's *Accelerating XPath location steps* (SIGMOD
2002): a node is its pre-order number, the virtual document node is 0, and
node ``k`` keeps its tree, ``parent[k]`` and ``end[k]``, one past its last
descendant.  Every axis is a range of numbers: the children of ``k`` start
at ``k+1`` and step by ``end``, its descendants are ``range(k+1, end[k])``,
and its following siblings run from ``end[k]`` to its parent's ``end``.
Order and de-duplication are integer comparisons, and nothing recurses on
the document.

The automaton is a subset construction over "seek tokens": token ``j``
means "looking for a node matching step j".  A child or following-sibling
token survives along the sibling chain it scans; a descendant token also
floods downward.  A successful match of step ``j`` injects token ``j+1``
into the children (child/descendant axis) or into the tail
(following-sibling).  Anchored automata carry token 0, which consumes the
anchor's root (any label) exactly once; unanchored automata start seeking
step 1 directly, which is how paths rooted at the document and predicate
paths over a candidate's children behave.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from .forest import Forest, Node, NodeKind
from .xquery import NodeTest, Predicate, Step

State = FrozenSet[int]

#: A label class: (label, is_text).  The automaton replaces a label outside
#: its alphabet by None, which no name test matches.
LabelClass = Tuple[Optional[str], bool]


# ---------------------------------------------------------------------------
# Node tests
# ---------------------------------------------------------------------------


def class_test(test: NodeTest, cls: LabelClass) -> bool:
    label, is_text = cls
    if test.kind == "name":
        return label == test.name
    if test.kind == "star":
        return not is_text
    if test.kind == "text":
        return is_text
    if test.kind == "node":
        return True
    if test.kind == "neq":
        return is_text and label != test.name
    raise ValueError(test.kind)


def fold_comparison(pred: Predicate) -> Tuple[Step, ...]:
    """Steps of a predicate with any comparison folded into the final test."""
    steps = pred.steps
    if pred.kind in ("eq", "neq"):
        if not steps or steps[-1].test.kind != "text":
            steps = steps + (Step("child", NodeTest("text")),)
        last = steps[-1]
        kind = "name" if pred.kind == "eq" else "neq"
        steps = steps[:-1] + (Step(last.axis, NodeTest(kind, pred.value),
                                   last.predicates),)
    return steps


# ---------------------------------------------------------------------------
# Reference selection over the pre-order numbering
# ---------------------------------------------------------------------------


class Numbering:
    """A forest numbered in pre-order.  ``trees[k]`` is node ``k``'s tree
    (``None`` for the virtual document node 0), ``parent[k]`` its parent
    (0 for the top level and for node 0 itself) and ``end[k]`` one past
    its last descendant."""

    __slots__ = ("forest", "trees", "parent", "end")

    def __init__(self, forest: Forest):
        self.forest = forest
        trees: List[Optional[Node]] = [None]
        parent, end = [0], [0]
        # one frame per open node: its number and its children left to read
        stack = [(0, iter(forest))]
        while stack:
            p, todo = stack[-1]
            for t in todo:
                k = len(trees)
                trees.append(t)
                parent.append(p)
                end.append(k + 1)
                if t.children:
                    stack.append((k, iter(t.children)))
                    break
            else:
                stack.pop()
                end[p] = len(trees)
        self.trees, self.parent, self.end = trees, parent, end


def select_ctx(steps, doc: Numbering, anchor: int) -> List[int]:
    """All nodes reached from node ``anchor`` by the steps, in pre-order,
    without duplicates.  Handles predicates recursively."""
    trees, parent, end = doc.trees, doc.parent, doc.end
    TEXT = NodeKind.TEXT
    frontier = [anchor]
    for step in steps:
        cands: List[int] = []
        if step.axis == "descendant":
            covered = 0
            for k in frontier:  # a nested context adds no descendants
                if k >= covered:
                    covered = end[k]
                    cands.extend(range(k + 1, covered))
        elif step.axis == "child":
            for k in frontier:
                j, stop = k + 1, end[k]
                while j < stop:
                    cands.append(j)
                    j = end[j]
            cands.sort()
        elif step.axis == "following-sibling":
            scanned = set()  # the first sibling scans for the later ones
            for k in frontier:
                if parent[k] not in scanned:
                    scanned.add(parent[k])
                    j, stop = end[k], end[parent[k]]
                    while j < stop:
                        cands.append(j)
                        j = end[j]
            cands.sort()
        else:
            raise ValueError(step.axis)
        test, preds = step.test, step.predicates
        frontier = [j for j in cands
                    if class_test(test, (trees[j].label,
                                         trees[j].kind is TEXT))
                    and all(pred_holds(p, doc, j) for p in preds)]
    return frontier


def pred_holds(pred: Predicate, doc: Numbering, k: int) -> bool:
    if pred.kind == "empty":
        return not select_ctx(pred.steps, doc, k)
    return bool(select_ctx(fold_comparison(pred), doc, k))


# ---------------------------------------------------------------------------
# The selection automaton
# ---------------------------------------------------------------------------

ANCHOR = 0


class PathAutomaton:
    """Total deterministic selection automaton for one path.

    ``move(state, cls)`` consumes one node of the given label class and
    returns ``(selected, down, right)``: whether that node is selected,
    the state governing its children, and the state continuing along its
    following siblings.  The empty state is dead.  ``allowed`` restricts
    which step matches count, which is how predicate guards are spliced
    in by the rule generator.
    """

    def __init__(self, steps: Tuple[Step, ...], anchored: bool):
        self.steps = steps
        self.k = len(steps)
        self.anchored = anchored
        # symbols this automaton distinguishes
        names = set()
        for s in steps:
            if s.test.kind in ("name", "neq"):
                names.add(s.test.name)
        self.sigma = names

    def initial(self) -> State:
        if self.anchored:
            return frozenset({ANCHOR})
        if self.k == 0:
            return frozenset()
        return self._inject(1, set(), set())

    def _inject(self, j: int, down: set, right: set) -> State:
        target = right if self.steps[j - 1].axis == "following-sibling" else down
        target.add(j)
        return frozenset(target)

    def matching_tokens(self, state: State, cls: LabelClass) -> List[int]:
        """Tokens of the state whose step test matches the class (the
        anchor token matches anything)."""
        out = []
        for j in sorted(state):
            if j == ANCHOR:
                out.append(j)
            elif class_test(self.steps[j - 1].test, cls):
                out.append(j)
        return out

    def move(self, state: State, cls: LabelClass,
             allowed=None) -> Tuple[bool, State, State]:
        selected = False
        down: set = set()
        right: set = set()
        for j in sorted(state):
            if j == ANCHOR:
                if self.k == 0:
                    selected = True
                else:
                    self._inject(1, down, right)
                continue
            step = self.steps[j - 1]
            ok = class_test(step.test, cls) and (allowed is None or j in allowed)
            if ok:
                if j == self.k:
                    selected = True
                else:
                    self._inject(j + 1, down, right)
            right.add(j)
            if step.axis == "descendant":
                down.add(j)
        return selected, frozenset(down), frozenset(right)

    def token_predicates(self, j: int) -> Tuple[Predicate, ...]:
        return () if j == ANCHOR else self.steps[j - 1].predicates
