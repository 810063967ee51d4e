"""XML forests: the universal value domain.

A forest is an ordered, possibly empty sequence of trees.  Every node is
labeled by a non-empty string; text and attribute nodes are ordinary trees
tagged with a :class:`NodeKind`.  A text node has no children, an attribute
node has exactly one text child.  Forests are plain tuples of :class:`Tree`
values and are immutable, so they can be shared freely.

The module also provides the binary-tree view of a forest: the
first-child/next-sibling encoding ``fcns``, its inverse, and the
``eval_binary`` mapping that interprets the reserved binary symbol ``@``
as forest concatenation.  Term notation (``a(b() #"hi")``) is the textual
exchange format for forests throughout the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

#: Reserved label for the concatenation symbol in binary trees.  It never
#: appears as a forest label.
CONCAT = "@"


class NodeKind(enum.Enum):
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


@dataclass(frozen=True)
class Tree:
    """One node and its subtree.  ``children`` is a Forest (tuple of Tree)."""

    label: str
    kind: NodeKind = NodeKind.ELEMENT
    children: "Forest" = ()

    def __repr__(self) -> str:  # compact, term-ish
        return "Tree(%s)" % print_term((self,))


Forest = Tuple[Tree, ...]

EMPTY: Forest = ()


def elem(label: str, *children: Tree) -> Tree:
    return Tree(label, NodeKind.ELEMENT, tuple(children))


def text(content: str) -> Tree:
    return Tree(content, NodeKind.TEXT, ())


def attr(name: str, value: str) -> Tree:
    return Tree(name, NodeKind.ATTRIBUTE, (text(value),))


def node_count(f: Forest) -> int:
    """Number of nodes in the forest (ε has zero)."""
    total = 0
    stack = list(f)
    while stack:
        t = stack.pop()
        total += 1
        stack.extend(t.children)
    return total


def check_forest(f: Forest) -> list:
    """Structural invariant check; returns a list of violation messages.

    Checked: non-empty labels, text nodes are leaves, attribute nodes have
    exactly one text child, no two adjacent text siblings, no ``@`` labels.
    Text content read from XML attribute values may be empty, so emptiness
    is only enforced for element and attribute labels.
    """
    problems = []

    def walk(forest, path):
        prev_text = False
        for i, t in enumerate(forest):
            where = "%s[%d]" % (path, i)
            if t.label == CONCAT:
                problems.append("%s: reserved label %r" % (where, CONCAT))
            if t.kind is NodeKind.TEXT:
                if t.children:
                    problems.append("%s: text node with children" % where)
                if prev_text:
                    problems.append("%s: adjacent text siblings" % where)
                prev_text = True
            else:
                prev_text = False
                if not t.label:
                    problems.append("%s: empty label" % where)
                if t.kind is NodeKind.ATTRIBUTE:
                    ok = len(t.children) == 1 and t.children[0].kind is NodeKind.TEXT
                    if not ok:
                        problems.append(
                            "%s: attribute must have exactly one text child" % where
                        )
                walk(t.children, where + "/" + t.label)

    walk(f, "")
    return problems


def coalesce_text(f: Forest) -> Forest:
    """Merge adjacent text siblings (recursively), dropping empty text."""
    out = []
    for t in f:
        if t.kind is not NodeKind.TEXT:
            t = Tree(t.label, t.kind, coalesce_text(t.children))
            out.append(t)
            continue
        if out and out[-1].kind is NodeKind.TEXT:
            out[-1] = text(out[-1].label + t.label)
        else:
            out.append(t)
    return tuple(t for t in out if not (t.kind is NodeKind.TEXT and t.label == ""))


# ---------------------------------------------------------------------------
# Binary-tree view
# ---------------------------------------------------------------------------

#: A binary tree is either None (the leaf ε) or a :class:`BNode`.
BinaryTree = Optional["BNode"]


@dataclass(frozen=True)
class BNode:
    label: str
    kind: NodeKind = NodeKind.ELEMENT
    left: "BinaryTree" = None
    right: "BinaryTree" = None


def fcns(f: Forest) -> BinaryTree:
    """First-child/next-sibling encoding: fcns(σ(f1) f2) = σ(fcns(f1), fcns(f2))."""
    out: BinaryTree = None
    for t in reversed(f):
        out = BNode(t.label, t.kind, fcns(t.children), out)
    return out


def fcns_inverse(b: BinaryTree) -> Forest:
    """Inverse of :func:`fcns`; rejects trees containing ``@`` labels."""
    items = []
    while b is not None:
        if b.label == CONCAT:
            raise ValueError("fcns_inverse: input contains the reserved symbol @")
        items.append(Tree(b.label, b.kind, fcns_inverse(b.left)))
        b = b.right
    return tuple(items)


def eval_binary(b: BinaryTree) -> Forest:
    """Decode a binary tree to a forest, interpreting ``@`` as concatenation.

    eval(@(t1, t2)) = eval(t1) eval(t2); for σ ≠ @, σ(l, r) becomes the tree
    σ(eval(l)) followed by eval(r); the leaf ε becomes the empty forest.
    """
    out = []
    stack = [b]
    while stack:
        b = stack.pop()
        if b is None:
            continue
        if b.label == CONCAT:
            stack.append(b.right)
            stack.append(b.left)
        else:
            out.append(Tree(b.label, b.kind, eval_binary(b.left)))
            stack.append(b.right)
    return tuple(out)


# ---------------------------------------------------------------------------
# Term notation
# ---------------------------------------------------------------------------

_BARE_FORBIDDEN = set('() ,"\t\r\n')


def _label_needs_quotes(label: str) -> bool:
    if label == "" or label == "eps":
        return True
    if label[0] in "#@%":
        return True
    if label in ("x0", "x1", "x2"):
        return True
    if label[0] == "y" and label[1:].isdigit():
        return True
    return any(c in _BARE_FORBIDDEN for c in label)


def _quote(label: str) -> str:
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def print_tree(t: Tree) -> str:
    if t.kind is NodeKind.TEXT:
        return "#" + _quote(t.label)
    body = " ".join(print_tree(c) for c in t.children)
    name = _quote(t.label) if _label_needs_quotes(t.label) else t.label
    if t.kind is NodeKind.ATTRIBUTE:
        return "@%s(%s)" % (name, body)
    return "%s(%s)" % (name, body)


def print_term(f: Forest) -> str:
    """Forest to term notation; the empty forest prints as ``eps``."""
    if not f:
        return "eps"
    return " ".join(print_tree(t) for t in f)


class TermError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


class _TermScanner:
    def __init__(self, s: str):
        self.s = s
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.s) and self.s[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.s[self.pos] if self.pos < len(self.s) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise TermError("expected %r" % ch, self.pos)
        self.pos += 1

    def quoted(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.s):
                raise TermError("unterminated string", self.pos)
            c = self.s[self.pos]
            self.pos += 1
            if c == '"':
                return "".join(out)
            if c == "\\":
                if self.pos >= len(self.s):
                    raise TermError("dangling escape", self.pos)
                out.append(self.s[self.pos])
                self.pos += 1
            else:
                out.append(c)

    def bare(self) -> str:
        start = self.pos
        while self.pos < len(self.s) and self.s[self.pos] not in _BARE_FORBIDDEN:
            self.pos += 1
        if self.pos == start:
            raise TermError("expected a label", self.pos)
        return self.s[start:self.pos]


def _parse_forest(sc: _TermScanner) -> Forest:
    items = []
    while True:
        sc.skip_ws()
        c = sc.peek()
        if c in ("", ")"):
            break
        items.append(_parse_tree(sc))
    return tuple(items)


def _parse_tree(sc: _TermScanner) -> Tree:
    c = sc.peek()
    if c == "#":
        sc.pos += 1
        return text(sc.quoted())
    kind = NodeKind.ELEMENT
    if c == "@":
        sc.pos += 1
        kind = NodeKind.ATTRIBUTE
        c = sc.peek()
    if c == '"':
        label = sc.quoted()
    else:
        label = sc.bare()
        if label == "eps":
            raise TermError("eps is not a tree", sc.pos)
    sc.expect("(")
    children = _parse_forest(sc)
    sc.skip_ws()
    sc.expect(")")
    return Tree(label, kind, children)


def parse_term(s: str) -> Forest:
    """Parse term notation; accepts ``eps`` or the empty string for ε."""
    sc = _TermScanner(s)
    sc.skip_ws()
    if sc.s[sc.pos:].strip() == "eps":
        return ()
    f = _parse_forest(sc)
    sc.skip_ws()
    if sc.pos != len(sc.s):
        raise TermError("trailing input", sc.pos)
    return f
