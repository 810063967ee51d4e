"""XML forests, and the term notation that forests and rule bodies share.

A forest is an ordered, possibly empty sequence of trees.  Every node is
labeled by a non-empty string, and no label is reserved; text and
attribute nodes are ordinary trees tagged with a :class:`NodeKind`.  A
text node has no children, an attribute node has exactly one text child.
Forests are plain tuples of :class:`Node` values, so they can be shared
freely.  :class:`Node`, :class:`Call` and :class:`Param` are slotted and
never mutated, like the reader's events: a run builds one ``Node`` per
input node, per output node and per merged text, and a slotted one is
built in a third of a frozen one's time (0.19 against 0.57 µs) and makes
a read forest a quarter smaller.  They compare and hash by value.

A transducer rule's right-hand side (:data:`Rhs`) is a forest expression,
and a forest is one without calls, parameters and ``%t``.  Both share one
term notation (``a(b() #"hi")``, ``%t(q(x1, y1)) q(x2)``), one printer,
:func:`print_term`, and one reader, which :func:`mfx.mft.parse_mft` uses.

A forest's nodes and a rule body's output nodes are one class,
:class:`Node`, so a forest is a rule body as it is and :func:`ground`
only checks that a body is one.  Equality, hashing, :func:`coalesce_text`,
the printer and the reader walk an explicit stack, so the recursion limit
does not bound the depth they handle.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple


class NodeKind(enum.Enum):
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


@dataclass(slots=True)
class Node:
    """A node and its subtree: a forest's node, whose ``children`` is a
    forest, or an output node of a rule body, whose ``children`` is an
    :data:`Rhs` and whose ``label=None`` means %t (copy the current input
    label)."""

    label: Optional[str]
    kind: NodeKind = NodeKind.ELEMENT
    children: "Rhs" = ()

    def __eq__(self, other) -> bool:  # a call's too
        if type(other) is not type(self):
            return NotImplemented
        return _same([((self,), (other,))])

    def __hash__(self) -> int:  # of what __eq__ compares
        return hash(print_term((self,)))

    def __repr__(self) -> str:  # compact, term-ish
        return "%s(%s)" % (type(self).__name__, print_term((self,)))


Forest = Tuple[Node, ...]


@dataclass(slots=True, unsafe_hash=True)
class Param:
    index: int  # 1-based


@dataclass(slots=True)
class Call:
    state: str
    var: int  # 0, 1 or 2
    args: Tuple["Rhs", ...] = ()

    __eq__, __hash__, __repr__ = Node.__eq__, Node.__hash__, Node.__repr__


def _same(todo: List[tuple]) -> bool:
    """Whether each pair of sequences in ``todo`` holds equal items; the
    pairs still to compare wait on this stack, not on the recursion."""
    while todo:
        xs, ys = todo.pop()
        if len(xs) != len(ys):
            return False
        for a, b in zip(xs, ys):
            if a is b:
                continue
            t = type(a)
            if t is not type(b):
                return False
            if t is Node:
                if a.label != b.label or a.kind is not b.kind:
                    return False
                if a.children is not b.children:
                    todo.append((a.children, b.children))
            elif t is Call:
                if a.state != b.state or a.var != b.var:
                    return False
                if a.args is not b.args:
                    todo.append((a.args, b.args))
            elif t is tuple:
                todo.append((a, b))
            elif a.index != b.index:  # two parameters
                return False
    return True


Rhs = Tuple[object, ...]


def node_count(f: Forest) -> int:
    """Number of nodes in the forest (ε has zero)."""
    total = 0
    stack = list(f)
    while stack:
        t = stack.pop()
        total += 1
        stack.extend(t.children)
    return total


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
                    out[-1] = Node(out[-1].label + t.label, TEXT)
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
            parent_out.append(Node(node.label, node.kind, tuple(out)))


def ground(rhs: Rhs) -> Optional[Forest]:
    """The body itself if it is a forest (it has no calls, parameters or
    ``%t`` nodes), else None."""
    seqs = [rhs]
    while seqs:
        for it in seqs.pop():
            if type(it) is not Node or it.label is None:
                return None
            if it.children:
                seqs.append(it.children)
    return rhs


# ---------------------------------------------------------------------------
# Term notation
# ---------------------------------------------------------------------------
#
# Items are separated by spaces: label(...) an output node, #"..." a text
# node, @name(...) an attribute node, %t(...) a node that copies the
# current input label, y<i> a parameter, q(x<i>, arg, ...) a call of state
# q on input variable x<i> (x0, x1 or x2, followed by "," or ")"), and eps
# the empty forest.  The printer quotes a label that would read otherwise.

_BARE_FORBIDDEN = set('() ,"\t\r\n')
#: an input variable followed by "," or ")" makes ``q(`` a call
_CALL_VAR = re.compile(r"x([012])(?=[ \t\r\n]*[,)])")

#: the text of an empty call argument, as an item to print
_EPS_ARG = ("eps",)


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


def print_term(rhs: Rhs) -> str:
    """Term notation of a rule body or a forest, ``eps`` if it is empty.  The
    sequences being printed wait on an explicit stack, so nesting is not
    limited by the recursion limit: a frame holds a sequence's items left,
    the text that closes it, and the separator before its next item.  A
    call's arguments are one frame each, closed by ``, `` or the call's
    ``)``; a string item is printed as it is."""
    if not rhs:
        return "eps"
    out: List[str] = []
    emit = out.append
    frames: List[tuple] = []
    items, close, sep = iter(rhs), "", ""
    while True:
        for it in items:
            if sep:
                emit(sep)
            sep = " "
            t = type(it)
            if t is Param:
                emit("y%d" % it.index)
            elif t is Call:
                args = it.args
                if not args:
                    emit("%s(x%d)" % (it.state, it.var))
                    continue
                emit("%s(x%d, " % (it.state, it.var))
                frames.append((items, close, " "))
                last = len(args) - 1
                for i in range(last, 0, -1):
                    frames.append((iter(args[i] or _EPS_ARG),
                                   ")" if i == last else ", ", ""))
                items, close, sep = (iter(args[0] or _EPS_ARG),
                                     ")" if last == 0 else ", ", "")
                break
            elif t is str:
                emit(it)
            elif it.label is not None and it.kind is NodeKind.TEXT:
                emit("#" + _quote(it.label))
            else:
                if it.label is None:
                    emit("%t(")
                else:
                    emit(("@%s(" if it.kind is NodeKind.ATTRIBUTE else "%s(")
                         % (_quote(it.label) if _label_needs_quotes(it.label)
                            else it.label))
                if not it.children:
                    emit(")")
                    continue
                frames.append((items, close, " "))
                items, close, sep = iter(it.children), ")", ""
                break
        else:
            emit(close)
            if not frames:
                return "".join(out)
            items, close, sep = frames.pop()


class TermError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at offset %d)" % (message, pos))
        self.pos = pos


class _TermScanner:
    def __init__(self, s: str):
        self.s = s
        self.pos = 0

    def err(self, msg: str):
        raise TermError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.s) and self.s[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.s[self.pos] if self.pos < len(self.s) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.err("expected %r" % ch)
        self.pos += 1

    def quoted(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.s):
                self.err("unterminated string")
            c = self.s[self.pos]
            self.pos += 1
            if c == '"':
                return "".join(out)
            if c == "\\":
                if self.pos >= len(self.s):
                    self.err("dangling escape")
                out.append(self.s[self.pos])
                self.pos += 1
            else:
                out.append(c)

    def bare(self) -> str:
        start = self.pos
        while self.pos < len(self.s) and self.s[self.pos] not in _BARE_FORBIDDEN:
            self.pos += 1
        if self.pos == start:
            self.err("expected a label")
        return self.s[start:self.pos]

    def rhs(self) -> Rhs:
        """The items from here to the end of the input.  Open nodes and
        calls wait on an explicit stack, so nesting is not limited by the
        recursion limit."""
        # one frame per open node or call: (the items it sits in, its label
        # or state, its kind or input variable, None for a node or a call's
        # finished slots, the first being its input variable); ``items``
        # collects the open node's children or the call's open argument
        frames: List[tuple] = []
        items: List[object] = []
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "":
                if frames:
                    self.err("expected ')'")
                return tuple(items)
            if c == ")" or c == ",":
                if not frames or c == "," and frames[-1][3] is None:
                    self.err("unexpected %r" % c)
                self.pos += 1
                outer, label, tag, slots = frames[-1]
                if slots is not None:
                    slots.append(tuple(items))
                    if c == ",":
                        items = []
                        continue
                frames.pop()
                outer.append(Node(label, tag, tuple(items)) if slots is None
                             else Call(label, tag, tuple(slots[1:])))
                items = outer
                continue
            if c == "#":
                self.pos += 1
                items.append(Node(self.quoted(), NodeKind.TEXT))
                continue
            kind = NodeKind.ELEMENT
            if c == "@":
                self.pos += 1
                kind = NodeKind.ATTRIBUTE
                c = self.peek()
            if c == "%":
                self.pos += 1
                word = self.bare()
                if word != "t":
                    self.err("unknown %%%s" % word)
                label, kind = None, NodeKind.ELEMENT
            elif c == '"':
                label = self.quoted()
            else:
                label = self.bare()
                self.skip_ws()
                if self.peek() != "(":
                    if label[0] == "y" and label[1:].isdigit():
                        items.append(Param(int(label[1:])))
                    elif label != "eps":  # eps adds nothing
                        self.err("bare label %r (parameters are y<i>)"
                                 % label)
                    continue
            self.skip_ws()
            self.expect("(")
            self.skip_ws()
            call = label is not None and _CALL_VAR.match(self.s, self.pos)
            if call:
                self.pos = call.end()
            frames.append((items, label, int(call[1]), []) if call
                          else (items, label, kind, None))
            items = []
