"""XML forests: the universal value domain.

A forest is an ordered, possibly empty sequence of trees.  Every node is
labeled by a non-empty string, and no label is reserved; text and
attribute nodes are ordinary trees tagged with a :class:`NodeKind`.  A
text node has no children, an attribute node has exactly one text child.
Forests are plain tuples of :class:`Tree` values and are immutable, so
they can be shared freely.

Equality, hashing, :func:`check_forest`, :func:`coalesce_text`, the
printers and the term parser walk an explicit stack, so the recursion
limit does not bound the depth they handle.  Term notation
(``a(b() #"hi")``) is the textual exchange format for forests throughout
the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if (a.label != b.label or a.kind is not b.kind
                        or len(a.children) != len(b.children)):
                    return False
                stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:  # of what __eq__ compares
        return hash(print_term((self,)))

    def __repr__(self) -> str:  # compact, term-ish
        return "Tree(%s)" % print_term((self,))


Forest = Tuple[Tree, ...]


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
    exactly one text child, no two adjacent text siblings.
    Text content read from XML attribute values may be empty, so emptiness
    is only enforced for element and attribute labels.
    """
    problems = []
    # one frame per open level: its path and the children left to check
    stack = [("", enumerate(f))]
    prev_text = False
    while stack:
        path, todo = stack[-1]
        for i, t in todo:
            where = "%s[%d]" % (path, i)
            if t.kind is NodeKind.TEXT:
                if t.children:
                    problems.append("%s: text node with children" % where)
                if prev_text:
                    problems.append("%s: adjacent text siblings" % where)
                prev_text = True
                continue
            prev_text = False
            if not t.label:
                problems.append("%s: empty label" % where)
            if t.kind is NodeKind.ATTRIBUTE:
                ok = len(t.children) == 1 and t.children[0].kind is NodeKind.TEXT
                if not ok:
                    problems.append(
                        "%s: attribute must have exactly one text child" % where
                    )
            stack.append((where + "/" + t.label, enumerate(t.children)))
            break
        else:
            stack.pop()
            prev_text = False
    return problems


def coalesce_text(f: Forest) -> Forest:
    """Merge adjacent text siblings (at every depth), dropping empty text."""
    # one frame per open node: (children left to read, merged children so
    # far, the node, its parent's merged children); the root frame has no node
    TEXT = NodeKind.TEXT
    stack = [(iter(f), [], None, None)]
    while True:
        todo, out, node, parent_out = stack[-1]
        for t in todo:
            if t.kind is TEXT:
                if not t.label:
                    continue
                if out and out[-1].kind is TEXT:
                    out[-1] = text(out[-1].label + t.label)
                else:
                    out.append(t)
            elif t.children:
                stack.append((iter(t.children), [], t, out))
                break
            else:
                out.append(t)
        else:
            stack.pop()
            if node is None:
                return tuple(out)
            parent_out.append(Tree(node.label, node.kind, tuple(out)))


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
    return not _BARE_FORBIDDEN.isdisjoint(label)


def _quote(label: str) -> str:
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def print_tree(t: Tree) -> str:
    return print_term((t,))


def print_term(f: Forest) -> str:
    """Forest to term notation; the empty forest prints as ``eps``."""
    if not f:
        return "eps"
    parts = []
    stack = [iter(f)]
    fresh = True  # nothing printed yet at the current level
    while stack:
        for t in stack[-1]:
            if not fresh:
                parts.append(" ")
            fresh = False
            if t.kind is NodeKind.TEXT:
                parts.append("#" + _quote(t.label))
                continue
            name = _quote(t.label) if _label_needs_quotes(t.label) else t.label
            parts.append(("@%s(" if t.kind is NodeKind.ATTRIBUTE else "%s(")
                         % name)
            stack.append(iter(t.children))
            fresh = True
            break
        else:
            stack.pop()
            if stack:
                parts.append(")")
            fresh = False
    return "".join(parts)


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
    """Trees up to an unmatched ``)`` or the end of input."""
    # one frame per open tree: (label, kind, its children so far); the
    # bottom frame collects the top level
    stack = [(None, None, [])]
    while True:
        sc.skip_ws()
        c = sc.peek()
        if c in ("", ")"):
            if len(stack) == 1:
                return tuple(stack[0][2])
            sc.expect(")")
            label, kind, items = stack.pop()
            stack[-1][2].append(Tree(label, kind, tuple(items)))
            continue
        if c == "#":
            sc.pos += 1
            stack[-1][2].append(text(sc.quoted()))
            continue
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
        stack.append((label, kind, []))


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
