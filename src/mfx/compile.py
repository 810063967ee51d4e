"""MinXQuery to macro forest transducer translation.

Every construct compiles against a current state ``q`` (rank m+1, one
accumulating parameter per in-scope variable, tracked by the environment
``rho``) and emits rules for it:

* sequences fan out to fresh states sharing the input position;
* ``<name>e</name>`` wraps a fresh state's output in an output node;
* a string literal emits a text node, a bare variable its parameter;
* ``for $v in p`` compiles the body against a fresh state of rank m+2
  (the extra parameter carries a copy of the matched node) and generates
  path-scan rules so the body runs once per match, in document pre-order,
  with the match and its following siblings as the input position;
* ``let $v := e`` evaluates the bound state at the current position and
  passes its output as an extra parameter;
* a path expression emits the copies of the selected nodes.

Path scanning instantiates the selection automaton of :mod:`mfx.paths`,
one transducer state per reachable automaton state; the caller owns the
initial one.  Paths written at the top level anchor at the virtual
document node (the scan covers the whole top-level forest); paths under a
for clause consume the bound node's root first.  The state entered below
a selected node is named apart (an "accept" marker), mirroring a total
automaton; token-free states are declared but never called, so they fall
to unreachable-state removal.  A selected node contributes, in order:
the body call (with the copied match as last argument), the descent into
its children, and the continuation along its siblings -- document
pre-order.

XPath predicates gate token advancement.  The transition rule splits
into then/else branches through a rank-3 predicate state whose two
parameters realise the if-then-else; predicate scans run over the
candidate's children (or its following siblings, for a leading
following-sibling step) in continuation style: the first hit returns the
first parameter, exhaustion returns the second.

The alphabet is the set of node-test names and comparison constants of
the query.  Known approximations, shared with the path oracle: name
tests match by label whatever the node kind, and a selected node found
under a symbol guard is copied with that static label as an element.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import paths as P
from .forest import NodeKind
from .mft import (Call, DEFAULT, EPS, Guard, Mft, Node, Param, Rhs, Rule,
                  TEXT, rhs_nodes, validate)
from .xquery import (Element, For, Let, Path, PathExpr, Predicate, Sequence,
                     StringLit, Step, check_scoping, parse_query)

COPY_STATE = "q_copy"


def collect_sigma(ast) -> frozenset:
    """Node-test names and comparison constants appearing in the query."""
    out = set()

    def steps(ss):
        for s in ss:
            if s.test.kind == "name":
                out.add(s.test.name)
            for p in s.predicates:
                pred(p)

    def pred(p: Predicate):
        steps(p.steps)
        if p.value is not None:
            out.add(p.value)

    def walk(q):
        if isinstance(q, Element):
            for c in q.children:
                walk(c)
        elif isinstance(q, StringLit):
            pass
        elif isinstance(q, Sequence):
            for c in q.items:
                walk(c)
        elif isinstance(q, For):
            steps(q.path.steps)
            walk(q.body)
        elif isinstance(q, Let):
            walk(q.bound)
            walk(q.body)
        elif isinstance(q, PathExpr):
            steps(q.path.steps)
        else:
            raise TypeError(q)

    walk(ast)
    return frozenset(out)


class _Ctx:
    def __init__(self, sigma):
        self.sigma = sigma
        self.counter = 1
        self.states: Dict[str, int] = {}
        self.rules: Dict[Tuple[str, Guard], Rule] = {}

    def fresh(self, tag: str, rank: int) -> str:
        name = "q%d_%s" % (self.counter, tag)
        self.counter += 1
        self.states[name] = rank
        return name

    def declare(self, name: str, rank: int):
        self.states[name] = rank

    def add(self, state: str, guard: Guard, rhs: Rhs):
        key = (state, guard)
        if key in self.rules:
            raise ValueError("duplicate rule %s/%s" % (state, guard))
        self.rules[key] = Rule(state, guard, rhs)

    def add_pct(self, state: str, rhs: Rhs):
        """The % shorthand: identical default and eps rules (x0 only)."""
        self.add(state, DEFAULT, rhs)
        self.add(state, EPS, rhs)


def _ys(m: int) -> Tuple:
    return tuple(Param(i) for i in range(1, m + 1))


def _args(ys) -> Tuple[Rhs, ...]:
    return tuple((y,) for y in ys)


def compile_query(ast) -> Mft:
    """Translate a scoped query to a validated transducer."""
    errs = check_scoping(ast)
    if errs:
        raise ValueError("query is not scoped: " + "; ".join(errs))
    ctx = _Ctx(collect_sigma(ast))
    ctx.declare("q0", 1)
    ctx.declare(COPY_STATE, 1)
    ctx.add(COPY_STATE, DEFAULT,
            (Node(None, NodeKind.ELEMENT, (Call(COPY_STATE, 1),)),
             Call(COPY_STATE, 2)))
    ctx.add(COPY_STATE, EPS, ())
    start = ctx.fresh("start", 2)
    ctx.add_pct("q0", (Call(start, 0, ((Call(COPY_STATE, 0),),)),))
    _T(ctx, ast, {"input": 1}, start, top=True)
    m = Mft(ctx.states, ctx.sigma, "q0", ctx.rules)
    problems = validate(m)
    if problems:
        raise AssertionError("compiler produced an invalid transducer: "
                             + "; ".join(problems))
    return m


def compile_text(text: str) -> Mft:
    return compile_query(parse_query(text))


def _T(ctx: _Ctx, e, rho: Dict[str, int], q: str, top: bool):
    m = ctx.states[q] - 1
    ys = _ys(m)
    if isinstance(e, Sequence):
        _content(ctx, e.items, rho, q, top)
    elif isinstance(e, Element):
        q2 = ctx.fresh("elt", m + 1)
        ctx.add_pct(q, (Node(e.name, NodeKind.ELEMENT,
                             (Call(q2, 0, _args(ys)),)),))
        _content(ctx, e.children, rho, q2, top)
    elif isinstance(e, StringLit):
        ctx.add_pct(q, (Node(e.value, NodeKind.TEXT, ()),))
    elif isinstance(e, PathExpr) and not e.path.steps:
        ctx.add_pct(q, (Param(rho[e.path.start]),))
    elif isinstance(e, PathExpr):
        q2 = ctx.fresh("pe", m + 2)
        ctx.add_pct(q2, (Param(m + 1),))
        _F(ctx, e.path, q, q2, m, top)
    elif isinstance(e, For):
        q2 = ctx.fresh("for", m + 2)
        rho2 = dict(rho)
        rho2[e.var] = m + 1
        _T(ctx, e.body, rho2, q2, top=False)
        _F(ctx, e.path, q, q2, m, top)
    elif isinstance(e, Let):
        qv = ctx.fresh("letv", m + 1)
        q2 = ctx.fresh("let", m + 2)
        rho2 = dict(rho)
        rho2[e.var] = m + 1
        ctx.add_pct(q, (Call(q2, 0, _args(ys) + ((Call(qv, 0, _args(ys)),),)),))
        _T(ctx, e.bound, rho, qv, top)
        _T(ctx, e.body, rho2, q2, top)
    else:
        raise TypeError(e)


def _content(ctx: _Ctx, items, rho, q: str, top: bool):
    """Element content / sequence body: zero, one, or a fan-out of many."""
    m = ctx.states[q] - 1
    ys = _ys(m)
    if len(items) == 0:
        ctx.add_pct(q, ())
    elif len(items) == 1:
        _T(ctx, items[0], rho, q, top)
    else:
        subs = [ctx.fresh("seq", m + 1) for _ in items]
        ctx.add_pct(q, tuple(Call(s, 0, _args(ys)) for s in subs))
        for sub, item in zip(subs, items):
            _T(ctx, item, rho, sub, top)


# ---------------------------------------------------------------------------
# Path scan rules
# ---------------------------------------------------------------------------


def _F(ctx: _Ctx, path: Path, q: str, q2: str, m: int, top: bool):
    """Rules so that running ``q`` on the current position concatenates
    ``q2(match tail, y1..ym, copy-of-match)`` over all matches of the path,
    in document pre-order."""
    ys = _ys(m)
    anchored = not top
    if not path.steps:
        if anchored:
            copy = (Node(None, NodeKind.ELEMENT, (Call(COPY_STATE, 1),)),)
            ctx.add(q, DEFAULT, (Call(q2, 0, _args(ys) + (copy,)),))
            ctx.add(q, EPS, ())
        else:
            copy = (Call(COPY_STATE, 0),)
            ctx.add_pct(q, (Call(q2, 0, _args(ys) + (copy,)),))
        return
    if not anchored and path.steps[0].axis == "following-sibling":
        ctx.add_pct(q, ())  # the document node has no siblings
        return
    auto = P.PathAutomaton(path.steps, anchored)
    gen = _ScanGen(ctx, auto, m, q2)
    gen.emit(auto.initial(), False, owner=q)


class _ScanGen:
    """Emits transducer states/rules for the reachable automaton states of
    one path.  State identity is (token set, accept marker); the marker
    mirrors a total automaton's post-match state and only matters for
    naming, never for behaviour."""

    def __init__(self, ctx: _Ctx, auto: P.PathAutomaton, m: int,
                 q2: Optional[str]):
        self.ctx = ctx
        self.auto = auto
        self.m = m           # parameters threaded through the scan
        self.ys = _args(_ys(m))  # shared arguments passing them on
        self.q2 = q2         # None for predicate scans (u1/u2 style)
        self.names: Dict[Tuple, str] = {}
        self.preds: Dict[Predicate, str] = {}

    # -- state bookkeeping --------------------------------------------------

    def state_name(self, key: Tuple) -> str:
        st, acc = key
        if key not in self.names:
            rank = self.m + 1 if self.q2 is not None else 3
            tag = "acc" if acc else ("pscan" if self.q2 is None else "scan")
            name = self.ctx.fresh(tag, rank)
            self.names[key] = name
            self.emit(st, acc, owner=name)
        return self.names[key]

    # -- rule emission -------------------------------------------------------

    def emit(self, st, acc: bool, owner: str):
        self.names[(st, acc)] = owner
        default_rhs = self.rhs_for(st, (None, False))
        # a text node moves the automaton as an unnamed element does unless
        # a token's test tells them apart
        text_rhs = (self.rhs_for(st, (None, True)) if self.tells_text(st)
                    else default_rhs)
        have_text = text_rhs != default_rhs
        self.ctx.add(owner, DEFAULT, default_rhs)
        if have_text:
            self.ctx.add(owner, TEXT, text_rhs)
        # a symbol no test of this path names moves the automaton as an
        # unnamed node does, so its rows are the default and text rows,
        # but for the label of the copy of a selected node
        same = None
        for sym in sorted(self.ctx.sigma):
            if sym not in self.auto.sigma:
                if same is None:
                    same = not (self.copies(default_rhs)
                                or self.copies(text_rhs))
                if same:
                    continue
            sym_rhs = self.rhs_for(st, (sym, False))
            # a symbol rule is also needed when a text node carrying the
            # symbol must behave differently from the rule it would fall
            # through to (symbol guards match either kind; when the two
            # kinds genuinely disagree the element behaviour wins)
            text_fallthrough = text_rhs if have_text else default_rhs
            if sym_rhs != default_rhs \
                    or self.rhs_for(st, (sym, True)) != text_fallthrough:
                self.ctx.add(owner, Guard.sym(sym), sym_rhs)
        self.ctx.add(owner, EPS, self.eps_rhs())

    def tells_text(self, st) -> bool:
        """Whether some token of the state tests for text or non-text."""
        return any(j != P.ANCHOR and self.auto.steps[j - 1].test.kind
                   in ("star", "text", "neq") for j in st)

    def copies(self, rhs: Rhs) -> bool:
        """Whether a row copies a selected node (under the row's label)."""
        return self.q2 is not None and any(
            type(it) is Call and it.state == self.q2 for it in rhs_nodes(rhs))

    def eps_rhs(self) -> Rhs:
        return () if self.q2 is not None else self.ys[1]

    def rhs_for(self, st, cls) -> Rhs:
        pending = [j for j in self.auto.matching_tokens(st, cls)
                   if self.auto.token_predicates(j)]
        return self.branch(st, cls, pending, set(), set(st))

    def branch(self, st, cls, pending: List[int], allowed_true: set,
               universe: set) -> Rhs:
        if pending:
            j, rest = pending[0], pending[1:]
            then = self.branch(st, cls, rest, allowed_true | {j}, universe)
            els = self.branch(st, cls, rest, allowed_true, universe)
            # keep the common continuation outside the if-then-else, so a
            # sibling scan is written once rather than once per branch
            shared = 0
            while (shared < len(then) and shared < len(els)
                   and then[len(then) - 1 - shared] == els[len(els) - 1 - shared]):
                shared += 1
            tail = then[len(then) - shared:]
            then, els = then[:len(then) - shared], els[:len(els) - shared]
            if not then and not els:
                return tail
            cur = then
            for pred in reversed(self.auto.token_predicates(j)):
                cur = self.pred_gate(pred, cur, els)
            return cur + tail
        allowed = {j for j in universe
                   if not self.auto.token_predicates(j)} | allowed_true
        sel, down, right = self.auto.move(st, cls, allowed=allowed)
        return self.transition_rhs(sel, down, right, cls)

    def transition_rhs(self, sel: bool, down, right, cls) -> Rhs:
        rhs: List = []
        ys = self.ys
        if sel and self.q2 is not None:
            # cls is (label, is_text); label None is %t, copying any label
            copy = Node(cls[0], NodeKind.ELEMENT, (Call(COPY_STATE, 1),))
            rhs.append(Call(self.q2, 0, ys + ((copy,),)))
        elif sel:
            return ys[0]  # predicate scan: first hit wins
        if sel and not down:
            self.state_name((down, True))  # post-match state, never called
        down_name = self.state_name((down, False)) if down else None
        if down:
            if self.q2 is not None:
                rhs.append(Call(down_name, 1, ys))
            else:
                fail: Rhs = ((Call(self.state_name((right, False)), 2, ys),)
                             if right else ys[1])
                return tuple(rhs) + (Call(down_name, 1, (ys[0], fail)),)
        if right:
            rhs.append(Call(self.state_name((right, False)), 2, ys))
        if not rhs and self.q2 is None:
            return ys[1]
        return tuple(rhs)

    # -- predicates -----------------------------------------------------------

    def pred_gate(self, pred: Predicate, then: Rhs, els: Rhs) -> Rhs:
        const = _pred_const(pred)
        if const is not None:
            return then if const else els
        steps = (P.fold_comparison(pred) if pred.kind in ("eq", "neq")
                 else pred.steps)
        state = self.pred_state(steps)
        var = 2 if steps[0].axis == "following-sibling" else 1
        if pred.kind == "empty":
            then, els = els, then  # a hit means the predicate is false
        return (Call(state, var, (then, els)),)

    def pred_state(self, steps: Tuple[Step, ...]) -> str:
        """An existence scan over the candidate's children (or tail): first
        hit returns the first parameter, exhaustion the second."""
        if steps in self.preds:
            return self.preds[steps]
        auto = P.PathAutomaton(steps, anchored=False)
        sub = _ScanGen(self.ctx, auto, 2, None)
        name = sub.state_name((auto.initial(), False))
        self.preds[steps] = name
        return name


def _pred_const(pred: Predicate) -> Optional[bool]:
    if pred.steps or pred.kind in ("eq", "neq"):
        return None
    return pred.kind == "exists"  # exists(.) is true, empty(.) is false
