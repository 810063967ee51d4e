"""Transducer decompositions and compositions.

The binary-tree side of the theory lives entirely inside the ordinary
rule representation here: a binary tree, first-child/next-sibling
encoded, *is* a forest, so a "macro/top-down tree transducer" is just a
transducer whose right-hand sides are tree shaped (:func:`mfx.mft.is_tree_rhs`).

* :func:`decompose_eval` replaces concatenation in right-hand sides by the
  reserved binary symbol ``@`` (making them tree shaped);
  :func:`recompose_eval` removes ``@`` again.  ``tt-ft`` and ``mtt-ft``
  decompose their second operand, pair, and recompose.
* :func:`ft_to_mtt` rewrites a parameter-free transducer into tree shape
  by threading a continuation parameter ("the rest of my output"), the
  parameter encoding of forest concatenation.  ``ft-tt`` is this encoding
  of its first operand followed by one ``mtt-tt`` pairing.
* The pairing constructions ``tt-tt``, ``mtt-tt`` and ``tt-mtt`` of
  :data:`MODES` are one walker product, :func:`_pair` (Perst and Seidl's
  construction for macro forest transducers).  For an m1 state q and an
  m2 state p, the entry state ``(q,p)`` starts, for every rule of q, a
  walker at the root of the rule's right-hand side.  The walker at
  address u (:func:`mfx.mft.positions`) in m2 state p applies m2's rule
  for the output node at u and turns m2's moves into stay moves to the
  walkers at u.1 and u.2; a call of m1 at u becomes a call of the entry
  state for the called state and p.  Alphabet completion first
  specialises the first transducer's default rules for every symbol the
  second one distinguishes (plus a text-guard copy when the second has
  text rules), so a default rule never hides a label the walker would
  need to know.
* A walker is only ever called at x0 under the guard of its own m1 rule,
  where its one live rule applies, so a call of it can be replaced by its
  body with the arguments in place of its parameters (deforestation).
  The product inlines every walker call except where that could grow it
  or duplicate work: a call stays a call if m2's rule makes the same move
  (variable and state) more than once, which keeps chains of such rules
  polynomial; if it would copy an argument other than the empty forest or
  a bare parameter into a body that reads that parameter more than once,
  which keeps call-by-need sharing; if the walker is on the chain being
  inlined, or the chain is :data:`INLINE_DEPTH` long; or if its body is
  larger than :data:`INLINE_MAX`.
* At most one operand of the product has parameters.  With n the number
  of m2 states, every entry state and walker for (q,p) has rank
  ``1 + (rank1(q) - 1)·n + (rank2(p) - 1)``, where only one term is ever
  non-zero: m1's parameter j, met while walking in the i-th m2 state,
  resolves to copy (j-1)·n + i, and m2's parameters come after the copies.
  A call to a walker passes the m1-parameter copies, then the current m2
  state's parameters (for one of m2's calls, its translated arguments).
  A call into m1 passes one translated argument per (argument, m2 state),
  each a walker over that argument, then m2's parameters.
* The product is built on demand, from the entry state of the two initial
  states outward: a state is named when a finished rule first calls it
  and gets its rules when it leaves a worklist, so every state built is
  reachable and none is built only to be pruned or inlined.

Sizes are tracked in a :class:`CompositionReport` so the
O(|Σ| |M1| |M2|) bounds can be checked empirically.  Its ``size_out`` is
the size of the whole product, every state pair included, counted by
:func:`_full_size` without building the unreachable part.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .forest import CONCAT, NodeKind
from .mft import (Call, DEFAULT, EPS, Guard, Mft, Node, Param, Rhs, Rule,
                  TEXT, is_tree_rhs, map_rhs, positions,
                  rhs_nodes, rhs_size, size, validate)


# ---------------------------------------------------------------------------
# eval decomposition
# ---------------------------------------------------------------------------


def _decompose_item(it) -> object:
    if isinstance(it, Node):
        return Node(it.label, it.kind, decompose_rhs(it.children))
    if isinstance(it, Call):
        return Call(it.state, it.var, tuple(decompose_rhs(a) for a in it.args))
    return it


def decompose_rhs(rhs: Rhs) -> Rhs:
    """Tree-shape an rhs by spending one ``@`` per concatenation."""
    if len(rhs) <= 1:
        return tuple(_decompose_item(it) for it in rhs)
    head = _decompose_item(rhs[0])
    return (Node(CONCAT, NodeKind.ELEMENT, (head,)),) + decompose_rhs(rhs[1:])


def decompose_eval(m: Mft) -> Mft:
    """An equivalent-up-to-eval transducer with tree-shaped right-hand
    sides: running it and then interpreting ``@`` as concatenation gives
    the original's output."""
    rules = {k: Rule(r.state, r.guard, decompose_rhs(r.rhs))
             for k, r in m.rules.items()}
    return Mft(m.states, m.sigma, m.initial, rules)


def recompose_rhs(rhs: Rhs) -> Rhs:
    """Splice the children of every ``@`` node into its place."""
    return map_rhs(rhs, lambda it, rec: rec(it.children)
                   if isinstance(it, Node) and it.label == CONCAT else None)


def recompose_eval(m: Mft) -> Mft:
    """Remove all ``@`` output symbols, interpreting them as concatenation."""
    rules = {k: Rule(r.state, r.guard, recompose_rhs(r.rhs))
             for k, r in m.rules.items()}
    return Mft(m.states, m.sigma - {CONCAT}, m.initial, rules)


def ft_to_mtt(m: Mft) -> Mft:
    """Tree-shape a parameter-free transducer by threading a continuation
    parameter, the output that follows a state's own; behaviourally the
    identity.  A fresh rank-1 initial state passes the empty forest."""
    if any(r != 1 for r in m.states.values()):
        raise ValueError("ft_to_mtt needs a parameter-free transducer")
    init = "t0"
    while init in m.states:
        init += "_"
    states = {q: 2 for q in m.states}
    states[init] = 1

    def enc(rhs: Rhs, kappa: Rhs) -> Rhs:
        if not rhs:
            return kappa
        head, rest = rhs[0], rhs[1:]
        if isinstance(head, Node):
            return (Node(head.label, head.kind, enc(head.children, ())),) \
                + enc(rest, kappa)
        if isinstance(head, Call):
            if rest:
                return (Call(head.state, head.var, (enc(rest, kappa),)),)
            return (Call(head.state, head.var, (kappa,)),)
        raise ValueError("parameter in a parameter-free transducer")

    rules = {k: Rule(r.state, r.guard, enc(r.rhs, (Param(1),)))
             for k, r in m.rules.items()}
    rules[(init, DEFAULT)] = Rule(init, DEFAULT, (Call(m.initial, 0, ((),)),))
    rules[(init, EPS)] = Rule(init, EPS, (Call(m.initial, 0, ((),)),))
    return Mft(states, m.sigma, init, rules)


# ---------------------------------------------------------------------------
# Alphabet completion
# ---------------------------------------------------------------------------


def _instantiate(rhs: Rhs, label: str,
                 kind: NodeKind = NodeKind.ELEMENT) -> Rhs:
    """Replace dynamic-label (``%t``) outputs by a static label of a kind."""
    return map_rhs(rhs, lambda it, rec: (Node(label, kind, rec(it.children)),)
                   if isinstance(it, Node) and it.label is None else None)


def complete_alphabet(m1: Mft, m2: Mft) -> Mft:
    """Add to m1, per state, a symbol rule (instantiated from its default
    rule) for every symbol m2 distinguishes, and a text rule if m2 has
    any; afterwards m1's default rules only fire where m2's do."""
    labels = sorted({g.label for (q, g) in m2.rules if g.kind == "sym"})
    need_text = any(g.kind == "text" for (q, g) in m2.rules)
    m1 = m1.copy()
    for q in list(m1.states):
        dflt = m1.rules[(q, DEFAULT)]
        for a in labels:
            if (q, Guard.sym(a)) not in m1.rules:
                m1.rules[(q, Guard.sym(a))] = Rule(
                    q, Guard.sym(a), _instantiate(dflt.rhs, a))
        if need_text and (q, TEXT) not in m1.rules:
            m1.rules[(q, TEXT)] = Rule(q, TEXT, dflt.rhs)
    m1.sigma = frozenset(m1.sigma | set(labels))
    return m1


def _m2_rule(m2: Mft, p: str, head: Optional[Node],
             guard: Guard) -> Tuple[Tuple[str, Guard], bool]:
    """m2's applicable rule in state p at the output node ``head`` (None at
    a leaf ε) of an m1 rule with the given guard, and whether to instantiate
    it.  A static node takes m2's rule for its label, else (text nodes) m2's
    text rule, else m2's default rule, either with its dynamic copies
    instantiated; a dynamic node takes m2's text rule under a text guard,
    else m2's default rule, either as it is."""
    if head is None:
        return (p, EPS), False
    if head.label is None:
        is_text = guard.kind == "text"
    else:
        if (p, Guard.sym(head.label)) in m2.rules:
            return (p, Guard.sym(head.label)), False
        is_text = head.kind is NodeKind.TEXT
    if is_text and (p, TEXT) in m2.rules:
        return (p, TEXT), head.label is not None
    return (p, DEFAULT), head.label is not None


# ---------------------------------------------------------------------------
# The walker product
# ---------------------------------------------------------------------------


@dataclass
class CompositionReport:
    """Sizes of one composition.  ``size_out`` and ``rules_out`` are those
    of the whole product, every state pair included, as counted by
    :func:`_full_size`; the returned transducer is its reachable part."""

    mode: str
    sigma: int
    size1: int
    size2: int
    size_out: int
    rules_out: int
    seconds: float

    def bound_ratio(self) -> float:
        return self.size_out / max(1, self.sigma * self.size1 * self.size2)


def _require_tree(m: Mft, who: str):
    if not all(is_tree_rhs(r.rhs) for r in m.rules.values()):
        raise ValueError("%s must have tree-shaped right-hand sides" % who)


def _require_rank1(m: Mft, who: str):
    if any(r != 1 for r in m.states.values()):
        raise ValueError("%s must be parameter-free" % who)


def _params(first: int, last: int) -> Tuple[Rhs, ...]:
    return tuple((Param(i),) for i in range(first, last + 1))


def _full_size(m1: Mft, m2: Mft, spliced: bool) -> Tuple[int, int]:
    """Size and rule count of the whole product of the alphabet-completed
    m1 and m2, an entry state for every pair of states and a walker for
    every (m1 rule, address, m2 state), counted without building a rule;
    with ``spliced``, as after :func:`recompose_eval`.  A walker's rhs is
    a parameter (1), a call into m1 (the call, one walker call with c
    copies per argument and m2 state, and m2's parameters), or m2's rhs
    with c copies added to each of its calls."""
    n = len(m2.states)
    stats = {}   # m2 rule -> (rhs size, calls, @ nodes, %t nodes)
    for key, rule in m2.rules.items():
        items = list(rhs_nodes(rule.rhs))
        stats[key] = (rhs_size(rule.rhs),
                      sum(isinstance(it, Call) for it in items),
                      sum(isinstance(it, Node) and it.label == CONCAT
                          for it in items),
                      sum(isinstance(it, Node) and it.label is None
                          for it in items))
    sigma = m1.sigma | m2.sigma
    total = len(sigma - {CONCAT} if spliced else sigma)
    count = 0
    for (q, g), rule in m1.rules.items():
        c = (m1.states[q] - 1) * n
        pat = 1 if g.kind == "eps" else 3
        # pattern sizes (see mft.lhs_size) of the walker's rule and its pads
        pats = [pat] + [3 if pad is DEFAULT else 1
                        for pad in (DEFAULT, EPS) if g.kind != pad.kind]
        for p, k in m2.states.items():
            # the entry rule: its lhs, and one call passing all parameters
            total += pat + 2 * (c + k) + 1
        count += n
        for u, sub in positions(rule.rhs):
            head = sub[0] if sub else None
            for p, k in m2.states.items():
                r = c + k
                total += sum(pats) + len(pats) * r
                count += len(pats)
                if isinstance(head, Param):
                    total += 1
                elif isinstance(head, Call):
                    total += 2 + len(head.args) * n * (2 + c) + (r - 1 - c)
                else:
                    key, inst = _m2_rule(m2, p, head, g)
                    size2, calls, ats, dyn = stats[key]
                    total += size2 + c * calls
                    if spliced:
                        total -= ats + (dyn if inst and head.label == CONCAT
                                        else 0)
    return total, count


#: a walker whose body is larger than this stays a state
INLINE_MAX = 32
#: a walker met this deep in a chain of inlined walkers stays a state, so
#: that building bodies never nears the recursion limit (one level per
#: node of a deeply nested m1 rule)
INLINE_DEPTH = 50


def _pair(m1: Mft, m2: Mft, spliced: bool) -> Tuple[Mft, int, int]:
    """The walker product of two tree-shaped transducers, at most one of
    which has parameters (see the module docstring), with the size and
    rule count of the whole product (:func:`_full_size`).  Only the states
    reachable from the entry state of the two initial states are built:
    a state gets its rules when it leaves the worklist.

    Bodies are built with their callees as keys, ``("c", q, p)`` for an
    entry state and ``("w", m1 rule, address, p)`` for a walker, and a
    walker call is inlined where the policy of the module docstring
    allows; a key becomes a named state only when a finished rule calls
    it, so no state is built that its caller then inlined."""
    _require_tree(m1, "first operand")
    _require_tree(m2, "second operand")
    m1 = complete_alphabet(m1, m2)
    p_list = sorted(m2.states)
    n = len(p_list)
    p_index = {p: i + 1 for i, p in enumerate(p_list)}
    # the identity arguments, shared so that comparing them is cheap
    ys = _params(1, (max(m1.states.values()) - 1) * n
                 + max(m2.states.values()) - 1)
    copies = {q: ys[:(r - 1) * n] for q, r in m1.states.items()}
    by_state: Dict[str, List[Tuple[str, Guard]]] = {}
    for rkey in m1.rules:
        by_state.setdefault(rkey[0], []).append(rkey)
    # m2 rule -> the moves (variable, state) it makes more than once
    shared = {}
    for mkey, rule in m2.rules.items():
        moves = Counter((it.var, it.state) for it in rhs_nodes(rule.rhs)
                        if isinstance(it, Call))
        shared[mkey] = {mv for mv, k in moves.items() if k > 1}
    subs: Dict[Tuple[str, Guard], Dict[Tuple[int, ...], Rhs]] = {}
    bodies: Dict[Tuple, tuple] = {}  # walker key -> walker(key)
    building = set()                # walker keys whose body is being built
    states: Dict[str, int] = {}
    rules: Dict[Tuple[str, Guard], Rule] = {}
    names: Dict[Tuple, str] = {}
    todo: deque = deque()

    def rank(key: Tuple) -> int:
        q, p = (key[1], key[2]) if key[0] == "c" else (key[1][0], key[3])
        return 1 + (m1.states[q] - 1) * n + (m2.states[p] - 1)

    def name(key: Tuple) -> str:
        if key not in names:
            names[key] = w = "%s%d" % (key[0], len(names))
            states[w] = rank(key)
            todo.append(key)
        return names[key]

    def named(it, rec):
        # a key's first call from a finished rule names it
        if not isinstance(it, Call):
            return None
        return (Call(name(it.state), it.var, tuple(map(rec, it.args))),)

    def call(key: Tuple, args: Tuple[Rhs, ...], dup: bool) -> Rhs:
        """A stay call of a walker, or its body with the arguments in
        place of its parameters; ``dup`` for a move m2 makes twice."""
        whole = (Call(key, 0, args),)
        if dup or key in building or len(building) >= INLINE_DEPTH:
            return whole
        body, width, reads = walker(key)
        if width > INLINE_MAX:
            return whole
        for i, k in reads.items():
            a = args[i - 1]
            if k > 1 and a and not (len(a) == 1 and isinstance(a[0], Param)):
                return whole  # keep a shared argument shared
        if args == ys[:len(args)]:
            return body
        return map_rhs(body, lambda it, rec: args[it.index - 1]
                       if isinstance(it, Param) else None)

    def walker(key: Tuple) -> Tuple[Rhs, int, Dict[int, int]]:
        """A walker's body, its size and its reads of each parameter."""
        if key in bodies:
            return bodies[key]
        building.add(key)
        _, rkey, u, p = key
        g = rkey[1]
        cp = copies[rkey[0]]
        if rkey not in subs:
            subs[rkey] = dict(positions(m1.rules[rkey].rhs))
        sub = subs[rkey][u]
        head = sub[0] if sub else None
        if isinstance(head, Param):
            rhs: Rhs = (Param((head.index - 1) * n + p_index[p]),)
        elif isinstance(head, Call):
            args = tuple(call(("w", rkey, u + (j,), pp), cp, False)
                         for j in range(2, len(head.args) + 2)
                         for pp in p_list)
            rhs = (Call(("c", head.state, p), head.var,
                        args + ys[len(cp):rank(key) - 1]),)
        else:
            mkey, inst = _m2_rule(m2, p, head, g)
            rhs = m2.rules[mkey].rhs
            if inst:
                rhs = _instantiate(rhs, head.label, head.kind)
            dup = shared[mkey]

            # m2's moves become walkers at u, u.1 and u.2, and its
            # parameters (only when m1 has none) stay where they are
            def move(it, rec):
                if not isinstance(it, Call):
                    return None
                return call(("w", rkey, u if it.var == 0 else u + (it.var,),
                             it.state), cp + tuple(map(rec, it.args)),
                            (it.var, it.state) in dup)

            rhs = map_rhs(rhs, move)
        building.discard(key)
        reads: Dict[int, int] = {}
        for it in rhs_nodes(rhs):
            if isinstance(it, Param):
                reads[it.index] = reads.get(it.index, 0) + 1
        bodies[key] = got = (rhs, rhs_size(rhs), reads)
        return got

    initial = name(("c", m1.initial, m2.initial))
    while todo:
        key = todo.popleft()
        w = names[key]
        if key[0] == "c":
            _, q, p = key
            ps = ys[:states[w] - 1]
            for rkey in by_state.get(q, ()):
                rules[(w, rkey[1])] = Rule(w, rkey[1], map_rhs(
                    call(("w", rkey, (), p), ps, False), named))
            continue
        g = key[1][1]
        # a walker has exactly one live rule
        rules[(w, g)] = Rule(w, g, map_rhs(walker(key)[0], named))
        for pad in (DEFAULT, EPS):
            if g.kind != pad.kind:
                rules[(w, pad)] = Rule(w, pad, ())
    m = Mft(states, m1.sigma | m2.sigma, initial, rules)
    problems = validate(m)
    if problems:
        raise AssertionError("composition produced an invalid transducer: "
                             + "; ".join(problems))
    return (m,) + _full_size(m1, m2, spliced)


#: mode name -> (first operand parameter-free?, second parameter-free?,
#: encodings of the two operands, recompose the product?); ``mfx compose
#: --mode`` offers these names
MODES = {
    "tt-tt": (True, True, None, None, False),
    "mtt-tt": (False, True, None, None, False),
    "tt-mtt": (True, False, None, None, False),
    "mtt-ft": (False, True, None, decompose_eval, True),
    "tt-ft": (True, True, None, decompose_eval, True),
    "ft-tt": (True, True, ft_to_mtt, None, False),
}


def compose(m1: Mft, m2: Mft, mode: str) -> Tuple[Mft, CompositionReport]:
    """Run one of the composition constructions and report sizes.  The
    result computes ``m2(m1(input))``."""
    if mode not in MODES:
        raise ValueError("unknown mode %r (one of %s)"
                         % (mode, ", ".join(sorted(MODES))))
    t0 = time.perf_counter()
    free1, free2, enc1, enc2, spliced = MODES[mode]
    for m, free, who in ((m1, free1, "first"), (m2, free2, "second")):
        if free:
            _require_rank1(m, who + " operand")
    # the construction builds only the reachable state pairs and counts
    # the whole product's size on the side
    out, size_out, rules_out = _pair(enc1(m1) if enc1 else m1,
                                     enc2(m2) if enc2 else m2, spliced)
    if spliced:
        out = recompose_eval(out)
    dt = time.perf_counter() - t0
    return out, CompositionReport(mode, len(m1.sigma | m2.sigma), size(m1),
                                  size(m2), size_out, rules_out, dt)
