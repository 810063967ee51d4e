"""MinXQuery front end: lexer, parser, scope checker.

The fragment: nested for/let clauses, element constructors, string
literals, parenthesised sequences, and downward paths with the child,
descendant and following-sibling axes.  Path steps may carry predicates
(existence, emptiness, string equality/inequality).  Abbreviated steps
desugar during parsing: ``p/a`` to ``p/child::a`` and ``p//a`` to
``p/descendant::a``; a path with no leading variable gets ``$input``.

Two static restrictions (checked by :func:`check_scoping`): only
``$input`` is free, and every path with at least one step must start at
the variable of the nearest enclosing for clause ($input if none).
Variables bound elsewhere may only be used bare, as output variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

AXES = ("child", "descendant", "following-sibling")


@dataclass(frozen=True)
class NodeTest:
    kind: str  # "name" | "star" | "text" | "node"
    name: Optional[str] = None

    def __str__(self):
        return {"name": self.name, "star": "*",
                "text": "text()", "node": "node()"}[self.kind]


@dataclass(frozen=True)
class Predicate:
    kind: str  # "exists" | "empty" | "eq" | "neq"
    steps: Tuple["Step", ...]
    value: Optional[str] = None


@dataclass(frozen=True)
class Step:
    axis: str
    test: NodeTest
    predicates: Tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class Path:
    start: str  # variable name, without the $
    steps: Tuple[Step, ...] = ()


@dataclass(frozen=True)
class Element:
    name: str
    children: Tuple["Query", ...] = ()


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class For:
    var: str
    path: Path
    body: "Query"


@dataclass(frozen=True)
class Let:
    var: str
    bound: "Query"
    body: "Query"


@dataclass(frozen=True)
class PathExpr:
    path: Path


@dataclass(frozen=True)
class Sequence:
    items: Tuple["Query", ...]  # at least two


Query = (Element, StringLit, For, Let, PathExpr, Sequence)


class QueryError(ValueError):
    def __init__(self, msg: str, filename: str, line: int, col: int):
        super().__init__("%s:%d:%d: %s" % (filename, line, col, msg))
        self.line, self.col = line, col


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_REST = _NAME_START | set("0123456789-.")


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.pos = 0

    # -- low-level ---------------------------------------------------------

    def err(self, msg: str):
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        raise QueryError(msg, self.filename, line, col)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def eat(self, s: str) -> bool:
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.eat(s):
            self.err("expected %r" % s)

    def name(self) -> str:
        if self.peek() not in _NAME_START:
            self.err("expected a name")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_REST:
            self.pos += 1
        return self.text[start:self.pos]

    def keyword(self, word: str) -> bool:
        """Consume ``word`` if present as a whole name token."""
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos) and (
                end >= len(self.text) or self.text[end] not in _NAME_REST):
            self.pos = end
            return True
        return False

    def string(self) -> str:
        self.expect('"')
        end = self.text.find('"', self.pos)
        if end < 0:
            self.err("unterminated string")
        s = self.text[self.pos:end]
        self.pos = end + 1
        return s

    # -- grammar -----------------------------------------------------------

    def query(self):
        self.skip_ws()
        if self.peek() == "<":
            return self.element()
        return self.clause()

    def element(self) -> Element:
        self.expect("<")
        name = self.name()
        self.expect(">")
        children: List[object] = []
        while True:
            if self.peek(2) == "</":
                break
            if self.peek() == "<":
                children.append(self.element())
            elif self.peek() == "{":
                self.pos += 1
                children.append(self.clause())
                self.skip_ws()
                self.expect("}")
            elif self.peek() == "":
                self.err("unterminated element <%s>" % name)
            else:
                lit = self.bare_text()
                if lit:
                    children.append(StringLit(lit))
        self.expect("</")
        closing = self.name()
        if closing != name:
            self.err("mismatched </%s> for <%s>" % (closing, name))
        self.expect(">")
        return Element(name, tuple(children))

    def bare_text(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "<{":
            self.pos += 1
        raw = self.text[start:self.pos]
        # whitespace used for layout is not content: trim per line
        lines = [ln.strip() for ln in raw.splitlines()]
        return " ".join(ln for ln in lines if ln)

    def clause(self):
        self.skip_ws()
        if self.keyword("for"):
            self.skip_ws()
            var = self.var()
            self.skip_ws()
            if not self.keyword("in"):
                self.err("expected 'in'")
            self.skip_ws()
            path = self.path()
            self.skip_ws()
            if not self.keyword("return"):
                self.err("expected 'return'")
            return For(var, path, self.query())
        if self.keyword("let"):
            self.skip_ws()
            var = self.var()
            self.skip_ws()
            self.expect(":=")
            bound = self.query()
            self.skip_ws()
            if not self.keyword("return"):
                self.err("expected 'return'")
            return Let(var, bound, self.query())
        if self.peek() == "(":
            self.pos += 1
            items = [self.query()]
            self.skip_ws()
            while self.eat(","):
                items.append(self.query())
                self.skip_ws()
            self.expect(")")
            if len(items) < 2:
                self.err("a sequence needs at least two items")
            return Sequence(tuple(items))
        return PathExpr(self.path())

    def var(self) -> str:
        self.expect("$")
        return self.name()

    def path(self) -> Path:
        self.skip_ws()
        if self.peek() == "$":
            start = self.var()
        elif self.peek() == "/":
            start = "input"  # paths like /site/... anchor at the document
        else:
            self.err("expected $var or /")
            raise AssertionError
        return Path(start, self._steps())

    def _steps(self) -> Tuple[Step, ...]:
        steps: List[Step] = []
        while True:
            mark = self.pos
            self.skip_ws()  # printed queries wrap long paths across lines
            if self.peek() != "/":
                self.pos = mark
                return tuple(steps)
            self.pos += 1
            axis = "child"
            if self.peek() == "/":
                self.pos += 1
                axis = "descendant"
            self.skip_ws()
            steps.append(self.step(axis))

    def step(self, default_axis: str) -> Step:
        axis = default_axis
        mark = self.pos
        for ax in AXES:
            if self.keyword(ax):
                if self.peek(2) == "::":
                    self.pos += 2
                    axis = ax
                    break
                self.pos = mark
        test = self.nodetest()
        preds: List[Predicate] = []
        self.skip_ws()
        while self.peek() == "[":
            self.pos += 1
            preds.append(self.predicate())
            self.skip_ws()
            self.expect("]")
            self.skip_ws()
        return Step(axis, test, tuple(preds))

    def nodetest(self) -> NodeTest:
        if self.eat("*"):
            return NodeTest("star")
        # text and node are kind tests only with (); bare they are names
        for word in ("text", "node"):
            mark = self.pos
            if self.keyword(word):
                if self.eat("()"):
                    return NodeTest(word)
                self.pos = mark
        return NodeTest("name", self.name())

    def predicate(self) -> Predicate:
        self.skip_ws()
        if self.keyword("empty"):
            self.skip_ws()
            self.expect("(")
            steps = self.predpath()
            self.skip_ws()
            self.expect(")")
            return Predicate("empty", steps)
        steps = self.predpath()
        self.skip_ws()
        if self.eat("!="):
            self.skip_ws()
            return Predicate("neq", steps, self.string())
        if self.eat("="):
            self.skip_ws()
            return Predicate("eq", steps, self.string())
        return Predicate("exists", steps)

    def predpath(self) -> Tuple[Step, ...]:
        self.skip_ws()
        self.expect(".")
        return self._steps()


def parse_query(text: str, filename: str = "<query>"):
    p = _Parser(text, filename)
    q = p.query()
    p.skip_ws()
    if p.pos != len(p.text):
        p.err("trailing input")
    return q


# ---------------------------------------------------------------------------
# Scope checking
# ---------------------------------------------------------------------------


def check_scoping(ast) -> List[str]:
    """Static restrictions.  Returns diagnostics, empty iff the query is
    accepted: paths with steps start at the nearest enclosing for variable
    ($input at top level); other variables occur only bare (as output
    variables) and must be in scope."""
    out: List[str] = []

    def walk(q, nearest_for: str, in_scope):
        if isinstance(q, Element):
            for c in q.children:
                walk(c, nearest_for, in_scope)
        elif isinstance(q, StringLit):
            pass
        elif isinstance(q, Sequence):
            for c in q.items:
                walk(c, nearest_for, in_scope)
        elif isinstance(q, For):
            check_path(q.path, nearest_for, in_scope)
            walk(q.body, q.var, in_scope | {q.var})
        elif isinstance(q, Let):
            walk(q.bound, nearest_for, in_scope)
            walk(q.body, nearest_for, in_scope | {q.var})
        elif isinstance(q, PathExpr):
            if q.path.steps:
                check_path(q.path, nearest_for, in_scope)
            elif q.path.start not in in_scope:
                out.append("unbound variable $%s" % q.path.start)
        else:
            raise TypeError(q)

    def check_path(path, nearest_for, in_scope):
        if path.start != nearest_for:
            if path.start not in in_scope:
                out.append("unbound variable $%s" % path.start)
            else:
                out.append(
                    "path must start at $%s (the nearest enclosing for "
                    "variable), not $%s" % (nearest_for, path.start))

    walk(ast, "input", {"input"})
    return out
