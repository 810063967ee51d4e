"""Transducer compositions: pipeline fusion of two transducers into one.

The binary-tree side of the theory lives entirely inside the ordinary
rule representation here: a binary tree, first-child/next-sibling
encoded, *is* a forest, so a "macro/top-down tree transducer" is just a
transducer whose right-hand sides are tree shaped (:func:`mfx.mft.is_tree_rhs`).

* Only the first operand must be tree shaped: the walker product reads
  its output by position (:func:`_positions`).  It copies the
  second operand's rule bodies into its own without reading them by
  position, so ``tt-ft`` and ``mtt-ft`` pair a forest-shaped second
  operand as it is.
* :func:`ft_to_mtt` rewrites a parameter-free transducer into tree shape
  by threading a continuation parameter ("the rest of my output"), the
  parameter encoding of forest concatenation.  ``ft-tt`` is this encoding
  of its first operand followed by one ``mtt-tt`` pairing.
* Every mode of :data:`MODES` runs one walker product, :func:`_pair`
  (Perst and Seidl's construction for macro forest transducers).  For an
  m1 state q and an m2 state p, the entry state ``(q,p)`` starts, for
  every rule of q, a walker at the root of the rule's right-hand side.
  The walker at position u in m2 state p applies m2's rule for the
  output node at u and turns m2's moves into stay moves to the walkers
  at u.1 and u.2; a call of m1 at u becomes a call of the entry state
  for the called state and p.  Alphabet completion first specialises the
  first transducer's default rules for every symbol the second one
  distinguishes (plus a text-guard copy when the second has text rules),
  so a default rule never hides a label the walker would need to know.
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
  states outward: a callee is named where its call is built, becomes a
  state when a finished rule first calls it (:attr:`mfx.mft.Rule.calls`)
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

from .forest import NodeKind
from .mft import (Call, DEFAULT, EPS, Guard, Mft, Node, Param, Rhs, Rule,
                  TEXT, is_tree_rhs, map_rhs, rhs_size, sequences, size,
                  validate)


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
    kappa = (Param(1),)  # what follows a body: the continuation y1

    def enc(rhs: Rhs) -> Rhs:
        # bottom up, each sequence from its last item back: a call takes
        # what follows it as its argument, and the nodes met since go first
        done: Dict[int, Rhs] = {}  # id of a sequence -> it, encoded
        for seq in reversed(sequences(rhs)):
            out, nodes = kappa if seq is rhs else (), []
            for it in reversed(seq):
                if type(it) is Node:
                    nodes.append(Node(it.label, it.kind,
                                      done[id(it.children)])
                                 if it.children else it)
                elif type(it) is Call:
                    out = (Call(it.state, it.var,
                                (tuple(nodes[::-1]) + out,)),)
                    nodes = []
                else:
                    raise ValueError(
                        "parameter in a parameter-free transducer")
            done[id(seq)] = tuple(nodes[::-1]) + out
        return done[id(rhs)]

    rules = {k: Rule(r.state, r.guard, enc(r.rhs)) for k, r in m.rules.items()}
    rules[(init, DEFAULT)] = Rule(init, DEFAULT, (Call(m.initial, 0, ((),)),))
    rules[(init, EPS)] = Rule(init, EPS, (Call(m.initial, 0, ((),)),))
    return Mft(states, m.sigma, init, rules)


# ---------------------------------------------------------------------------
# Alphabet completion
# ---------------------------------------------------------------------------


def _instantiate(rhs: Rhs, label: str,
                 kind: NodeKind = NodeKind.ELEMENT) -> Rhs:
    """Replace dynamic-label (``%t``) outputs by a static label of a kind."""
    return map_rhs(rhs, lambda it: (Node(label, kind, it.children),)
                   if type(it) is Node and it.label is None else None)


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
        key = (p, Guard("sym", head.label))
        if key in m2.rules:
            return key, False
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


def _positions(rhs: Rhs) -> List[tuple]:
    """A tree-shaped rhs as a binary tree of numbered positions, the root at
    0.  Entry u holds the item at u (None at a leaf ε), then the numbers of
    u.1 and u.2 for a node (its children and its right siblings) or of each
    argument for a call, so that entry[v] is where a move to x<v> goes."""
    table: List[tuple] = [()]
    todo = [(0, rhs, 0)]  # (number, sequence, index of the item at it)
    while todo:
        u, seq, i = todo.pop()
        head = seq[i] if i < len(seq) else None
        t = type(head)
        subs = (((head.children, 0), (seq, i + 1)) if t is Node
                else [(a, 0) for a in head.args] if t is Call else ())
        first = len(table)
        table.extend([()] * len(subs))
        table[u] = (head,) + tuple(range(first, len(table)))
        todo.extend((first + j, sub, at) for j, (sub, at) in enumerate(subs))
    return table


def _full_size(m1: Mft, m2: Mft, tables: Dict[Tuple[str, Guard], List[tuple]]
               ) -> Tuple[int, int]:
    """Size and rule count of the whole product of the alphabet-completed
    m1 and m2, an entry state for every pair of states and a walker for
    every (m1 rule, position, m2 state), counted without building a rule;
    ``tables`` holds the positions of each m1 rule.  A walker's rhs is
    a parameter (1), a call into m1 (the call, one walker call with c
    copies per argument and m2 state, and m2's parameters), or m2's rhs
    with c copies added to each of its calls.  Sums over the m2 states
    are taken in closed form, or once per kind of output node."""
    n = len(m2.states)
    ranks = sum(m2.states.values())  # the sum of k over the m2 states
    # m2 rule -> (rhs size, calls)
    stats = {key: (rhs_size(rule.rhs), len(rule.calls))
             for key, rule in m2.rules.items()}
    # (output node's label and kind, under a text guard) -> the sums over
    # the m2 states of the walker rhs size without copies, and of m2's calls
    node_sums: Dict[tuple, Tuple[int, int]] = {}
    total = len(m1.sigma | m2.sigma)
    count = 0
    for (q, g), table in tables.items():
        c = (m1.states[q] - 1) * n
        pat = 1 if g.kind == "eps" else 3
        # pattern sizes (see mft.lhs_size) of the walker's rule and its pads
        pats = [pat] + [3 if pad is DEFAULT else 1
                        for pad in (DEFAULT, EPS) if g.kind != pad.kind]
        # the entry rules: their lhs, and one call passing all parameters
        total += n * (pat + 2 * c + 1) + 2 * ranks
        count += n
        for entry in table:
            head = entry[0]
            if type(head) is Param:
                total += n
            elif type(head) is Call:
                total += n * (2 + len(head.args) * n * (2 + c)) + ranks - n
            else:
                nk = None if head is None else (head.label, head.kind,
                                                g.kind == "text")
                sums = node_sums.get(nk)
                if sums is None:
                    size2 = calls = 0
                    for p in m2.states:
                        s2, k2 = stats[_m2_rule(m2, p, head, g)[0]]
                        size2 += s2
                        calls += k2
                    sums = node_sums[nk] = (size2, calls)
                total += sums[0] + c * sums[1]
        # the walkers' lhs, pads included
        total += len(table) * (n * sum(pats) + len(pats) * (n * c + ranks))
        count += len(table) * n * len(pats)
    return total, count


#: a walker whose body is larger than this stays a state
INLINE_MAX = 32
#: a walker met this deep in a chain of inlined walkers stays a state, so
#: that building bodies never nears the recursion limit (one level per
#: node of a deeply nested m1 rule)
INLINE_DEPTH = 50


def _pair(m1: Mft, m2: Mft) -> Tuple[Mft, int, int]:
    """The walker product of a tree-shaped m1 and any m2, at most one of
    which has parameters (see the module docstring), with the size and
    rule count of the whole product (:func:`_full_size`).  Only the states
    reachable from the entry state of the two initial states are built:
    a state gets its rules when it leaves the worklist.

    A callee is a key, ``("c", q, p)`` for an entry state and ``("w", m1
    rule, position, p)`` for a walker, named where a call of it is built;
    a walker call is inlined where the policy of the module docstring
    allows.  A name becomes a state only when a finished rule calls it, so
    no state is built that its caller then inlined or dropped."""
    _require_tree(m1, "first operand")
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
        moves = Counter((it.var, it.state) for it in rule.calls)
        shared[mkey] = {mv for mv, k in moves.items() if k > 1}
    tables = {rkey: _positions(rule.rhs) for rkey, rule in m1.rules.items()}
    # walker key -> walker(key), or None while its body is being built
    bodies: Dict[Tuple, Optional[tuple]] = {}
    building = 0                    # how many bodies are being built
    states: Dict[str, int] = {}
    rules: Dict[Tuple[str, Guard], Rule] = {}
    names: Dict[Tuple, str] = {}    # key -> name, and name -> key
    todo: deque = deque()

    def rank(key: Tuple) -> int:
        q, p = (key[1], key[2]) if key[0] == "c" else (key[1][0], key[3])
        return 1 + (m1.states[q] - 1) * n + (m2.states[p] - 1)

    def name(key: Tuple) -> str:
        w = names.get(key)
        if w is None:
            names[key] = w = "%s%d" % (key[0], len(names) // 2)
            names[w] = key
        return w

    def finish(w: str, g: Guard, rhs: Rhs):
        # a callee becomes a state where a finished rule first calls it
        rules[(w, g)] = rule = Rule(w, g, rhs)
        for it in rule.calls:
            if it.state not in states:
                states[it.state] = rank(names[it.state])
                todo.append(it.state)

    def call(key: Tuple, args: Tuple[Rhs, ...], dup: bool) -> Rhs:
        """A stay call of a walker, or its body with the arguments in
        place of its parameters; ``dup`` for a move m2 makes twice."""
        got = bodies.get(key, ())
        if not (dup or got is None or building >= INLINE_DEPTH):
            body, width, reads = got or walker(key)
            # an argument the body reads twice is copied only if bare
            twice = [args[i - 1] for i, k in reads.items() if k > 1]
            if width <= INLINE_MAX and all(
                    not a or len(a) == 1 and type(a[0]) is Param
                    for a in twice):
                return body if args == ys[:len(args)] else map_rhs(
                    body, lambda it: args[it.index - 1]
                    if type(it) is Param else None)
        return (Call(name(key), 0, args),)

    def walker(key: Tuple) -> Tuple[Rhs, int, Dict[int, int]]:
        """A walker's body, its size and its reads of each parameter."""
        nonlocal building
        if bodies.get(key):
            return bodies[key]
        bodies[key] = None
        building += 1
        _, rkey, u, p = key
        g = rkey[1]
        cp = copies[rkey[0]]
        at = tables[rkey][u]
        head = at[0]
        if type(head) is Param:
            rhs: Rhs = (Param((head.index - 1) * n + p_index[p]),)
        elif type(head) is Call:
            args = tuple(call(("w", rkey, at[j], pp), cp, False)
                         for j in range(1, len(at)) for pp in p_list)
            rhs = (Call(name(("c", head.state, p)), head.var,
                        args + ys[len(cp):rank(key) - 1]),)
        else:
            mkey, inst = _m2_rule(m2, p, head, g)
            rhs = m2.rules[mkey].rhs
            if inst:
                rhs = _instantiate(rhs, head.label, head.kind)
            dup = shared[mkey]

            # m2's moves become walkers at u, u.1 and u.2, and its
            # parameters (only when m1 has none) stay where they are
            def move(it):
                if type(it) is not Call:
                    return None
                return call(("w", rkey, at[it.var] if it.var else u,
                             it.state), cp + it.args,
                            (it.var, it.state) in dup)

            rhs = map_rhs(rhs, move)
        building -= 1
        # one walk for the body's size (mft.rhs_size) and its reads
        width = 0
        reads: Dict[int, int] = {}
        seqs = [rhs]
        while seqs:
            for it in seqs.pop():
                t = type(it)
                if t is Node:
                    width += 1
                    if it.children:
                        seqs.append(it.children)
                elif t is Call:
                    width += 2
                    seqs.extend(it.args)
                else:
                    width += 1
                    if t is Param:
                        reads[it.index] = reads.get(it.index, 0) + 1
        bodies[key] = got = (rhs, width, reads)
        return got

    initial = name(("c", m1.initial, m2.initial))
    states[initial] = 1
    todo.append(initial)
    while todo:
        w = todo.popleft()
        key = names[w]
        if key[0] == "c":
            _, q, p = key
            ps = ys[:states[w] - 1]
            for rkey in by_state.get(q, ()):
                finish(w, rkey[1], call(("w", rkey, 0, p), ps, False))
            continue
        g = key[1][1]
        # a walker has exactly one live rule
        finish(w, g, walker(key)[0])
        for pad in (DEFAULT, EPS):
            if g.kind != pad.kind:
                rules[(w, pad)] = Rule(w, pad, ())
    m = Mft(states, m1.sigma | m2.sigma, initial, rules)
    problems = validate(m)
    if problems:
        raise AssertionError("composition produced an invalid transducer: "
                             + "; ".join(problems))
    return (m,) + _full_size(m1, m2, tables)


#: mode name -> (first operand parameter-free?, second parameter-free?,
#: second tree-shaped?, encoding of the first); ``mfx compose --mode``
#: offers these names.  Only the first operand is read by position, so
#: ``tt-ft`` and ``mtt-ft`` pair a forest-shaped second operand as it is
MODES = {
    "tt-tt": (True, True, True, None),
    "mtt-tt": (False, True, True, None),
    "tt-mtt": (True, False, True, None),
    "mtt-ft": (False, True, False, None),
    "tt-ft": (True, True, False, None),
    "ft-tt": (True, True, True, ft_to_mtt),
}


def compose(m1: Mft, m2: Mft, mode: str) -> Tuple[Mft, CompositionReport]:
    """Run one of the composition constructions and report sizes.  The
    result computes ``m2(m1(input))``."""
    if mode not in MODES:
        raise ValueError("unknown mode %r (one of %s)"
                         % (mode, ", ".join(sorted(MODES))))
    t0 = time.perf_counter()
    free1, free2, tree2, enc1 = MODES[mode]
    for m, free, who in ((m1, free1, "first"), (m2, free2, "second")):
        if free:
            _require_rank1(m, who + " operand")
    if tree2:
        _require_tree(m2, "second operand")
    # the construction builds only the reachable state pairs and counts
    # the whole product's size on the side
    out, size_out, rules_out = _pair(enc1(m1) if enc1 else m1, m2)
    dt = time.perf_counter() - t0
    return out, CompositionReport(mode, len(m1.sigma | m2.sigma), size(m1),
                                  size(m2), size_out, rules_out, dt)
