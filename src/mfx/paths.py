"""Path selection: a naive reference oracle and a total selection automaton.

Node-test semantics shared by the oracle, the automaton, and the compiled
transducers:

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

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from .forest import Forest, NodeKind, Tree
from .xquery import NodeTest, Path, Predicate, Step

State = FrozenSet[int]


# ---------------------------------------------------------------------------
# Node contexts and test matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCtx:
    """A node together with its following siblings; ``tree=None`` is the
    virtual document node (children = the whole top-level forest)."""

    tree: Optional[Tree]
    tail: Forest = ()
    doc: Forest = ()
    pos: Tuple[int, ...] = ()

    @property
    def children(self) -> Forest:
        return self.doc if self.tree is None else self.tree.children


def virtual_ctx(doc: Forest) -> NodeCtx:
    return NodeCtx(None, (), doc, ())


def test_matches(test: NodeTest, tree: Tree) -> bool:
    if test.kind == "name":
        return tree.label == test.name
    if test.kind == "star":
        return tree.kind is not NodeKind.TEXT
    if test.kind == "text":
        return tree.kind is NodeKind.TEXT
    if test.kind == "node":
        return True
    if test.kind == "neq":
        return tree.kind is NodeKind.TEXT and tree.label != test.name
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
# Naive selection oracle
# ---------------------------------------------------------------------------


def _descendants(children: Forest, base: Tuple[int, ...]) -> List[NodeCtx]:
    out = []
    for i, t in enumerate(children):
        ctx = NodeCtx(t, children[i + 1:], (), base + (i,))
        out.append(ctx)
        out.extend(_descendants(t.children, ctx.pos))
    return out


def _step_candidates(step: Step, ctx: NodeCtx) -> List[NodeCtx]:
    if step.axis == "child":
        kids = ctx.children
        return [NodeCtx(t, kids[i + 1:], (), ctx.pos + (i,))
                for i, t in enumerate(kids)]
    if step.axis == "descendant":
        return _descendants(ctx.children, ctx.pos)
    if step.axis == "following-sibling":
        base, last = ctx.pos[:-1], (ctx.pos[-1] if ctx.pos else 0)
        return [NodeCtx(t, ctx.tail[i + 1:], (), base + (last + 1 + i,))
                for i, t in enumerate(ctx.tail)]
    raise ValueError(step.axis)


def select_ctx(steps, anchor: NodeCtx) -> List[NodeCtx]:
    """All nodes reached from the anchor by the steps, in document
    pre-order, without duplicates.  Handles predicates recursively."""
    frontier = [anchor]
    for step in steps:
        nxt: List[NodeCtx] = []
        seen = set()
        for ctx in frontier:
            for cand in _step_candidates(step, ctx):
                if cand.pos in seen:
                    continue
                if not test_matches(step.test, cand.tree):
                    continue
                if all(pred_holds(p, cand) for p in step.predicates):
                    seen.add(cand.pos)
                    nxt.append(cand)
        nxt.sort(key=lambda c: c.pos)
        frontier = nxt
    return frontier


def pred_holds(pred: Predicate, ctx: NodeCtx) -> bool:
    if pred.kind == "empty":
        return not select_ctx(pred.steps, ctx)
    return bool(select_ctx(fold_comparison(pred), ctx))


# ---------------------------------------------------------------------------
# The selection automaton
# ---------------------------------------------------------------------------

ANCHOR = 0

#: A label class: (label if it is an alphabet symbol else None, is_text).
LabelClass = Tuple[Optional[str], bool]


def class_of(tree: Tree, sigma) -> LabelClass:
    return (tree.label if tree.label in sigma else None,
            tree.kind is NodeKind.TEXT)


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

    def select(self, anchor: NodeCtx) -> List[NodeCtx]:
        """Automaton-driven selection (predicate-free paths only)."""
        for s in self.steps:
            if s.predicates:
                raise ValueError("automaton selection requires a "
                                 "predicate-free path")
        out: List[NodeCtx] = []
        sigma = self.sigma

        def walk(state: State, items):
            s = state
            for (t, tail, pos) in items:
                if not s:
                    return
                sel, down, right = self.move(s, class_of(t, sigma))
                if sel:
                    out.append(NodeCtx(t, tail, (), pos))
                if down:
                    kids = t.children
                    walk(down, [(c, kids[i + 1:], pos + (i,))
                                for i, c in enumerate(kids)])
                s = right

        start = self.initial()
        if self.anchored:
            if anchor.tree is None:
                raise ValueError("anchored selection needs a real anchor")
            pos = anchor.pos or (0,)
            items = [(anchor.tree, anchor.tail, pos)]
            for i, t in enumerate(anchor.tail):
                items.append((t, anchor.tail[i + 1:],
                              pos[:-1] + (pos[-1] + 1 + i,)))
            walk(start, items)
        elif self.k and self.steps[0].axis == "following-sibling":
            # an unanchored scan seeded by a sibling axis runs over the
            # anchor's tail (empty for the virtual document node)
            pos = anchor.pos or (0,)
            walk(start, [(t, anchor.tail[i + 1:],
                          pos[:-1] + (pos[-1] + 1 + i,))
                         for i, t in enumerate(anchor.tail)])
        else:
            kids = anchor.children
            walk(start, [(c, kids[i + 1:], anchor.pos + (i,))
                         for i, c in enumerate(kids)])
        out.sort(key=lambda c: c.pos)
        return out


def compile_path(path: Path, anchored: bool) -> PathAutomaton:
    """Build the selection automaton for a predicate-free path."""
    for s in path.steps:
        if s.predicates:
            raise ValueError("compile_path requires a predicate-free path")
    return PathAutomaton(path.steps, anchored)
