"""Direct MinXQuery interpreter: the reference semantics.

Evaluates a scoped query over a document forest by structural recursion
on the query, selecting paths with :func:`mfx.paths.select_ctx` over the
document's pre-order :class:`~mfx.paths.Numbering`, so no step recurses
on the document.  This is the independent yardstick the compiled
transducers are tested against; it shares nothing with the compilation
pipeline except the node-test semantics defined in :mod:`mfx.paths`.

For-variables bind a node, that is, its pre-order number (so
following-sibling steps from the variable work); ``$input`` is the
virtual document node 0; let-variables bind the value forest.  Used as an
output variable, a for-variable contributes a copy of just the matched
node, ``$input`` the whole document.
"""

from __future__ import annotations

from typing import Dict, List, Union

from .forest import Forest, Node, NodeKind
from .paths import Numbering, select_ctx
from .xquery import Element, For, Let, PathExpr, Sequence, StringLit

Value = Union[int, Forest]


def eval_query(ast, doc: Forest) -> Forest:
    return _eval(ast, {"input": 0}, Numbering(doc))


def _anchor(env: Dict[str, Value], var: str) -> int:
    v = env[var]
    if not isinstance(v, int):
        raise ValueError("path starts at a let variable $%s" % var)
    return v


def _eval(q, env: Dict[str, Value], doc: Numbering) -> Forest:
    if isinstance(q, Element):
        kids: List[Node] = []
        for c in q.children:
            kids.extend(_eval(c, env, doc))
        return (Node(q.name, NodeKind.ELEMENT, tuple(kids)),)
    if isinstance(q, StringLit):
        return (Node(q.value, NodeKind.TEXT, ()),)
    if isinstance(q, Sequence):
        out: List[Node] = []
        for c in q.items:
            out.extend(_eval(c, env, doc))
        return tuple(out)
    if isinstance(q, For):
        out = []
        for k in select_ctx(q.path.steps, doc, _anchor(env, q.path.start)):
            inner = dict(env)
            inner[q.var] = k
            out.extend(_eval(q.body, inner, doc))
        return tuple(out)
    if isinstance(q, Let):
        inner = dict(env)
        inner[q.var] = _eval(q.bound, env, doc)
        return _eval(q.body, inner, doc)
    if isinstance(q, PathExpr):
        if q.path.steps:
            return tuple(doc.trees[k] for k in select_ctx(
                q.path.steps, doc, _anchor(env, q.path.start)))
        v = env[q.path.start]
        if not isinstance(v, int):
            return v
        return doc.forest if v == 0 else (doc.trees[v],)
    raise TypeError(q)
