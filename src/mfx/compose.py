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
* The pairing constructions :func:`compose_tt_tt`, :func:`compose_mtt_tt`
  and :func:`compose_tt_mtt` are one walker product (Perst and Seidl's
  construction for macro forest transducers).  For an m1 state q and an
  m2 state p, the entry state ``(q,p)`` starts, for every rule of q, a
  walker at the root of the rule's right-hand side.  The walker at
  address u (:func:`mfx.mft.positions`) in m2 state p applies m2's rule for the output node at u and
  turns m2's moves into stay moves to the walkers at u.1 and u.2, so
  composed rules stay small (no exponential blow-up); a call of m1 at u
  becomes a call of the entry state for the called state and p.  Alphabet
  completion first specialises the first transducer's default rules for
  every symbol the second one distinguishes (plus a text-guard copy when
  the second has text rules), so a default rule never hides a label the
  walker would need to know.
* At most one operand of the product has parameters.  With n the number
  of m2 states, every entry state and walker for (q,p) has rank
  ``1 + (rank1(q) - 1)·n + (rank2(p) - 1)``, where only one term is ever
  non-zero: m1's parameter j, met while walking in the i-th m2 state,
  resolves to copy (j-1)·n + i, and m2's parameters come after the copies.
  A call to a walker passes the m1-parameter copies, then the current m2
  state's parameters (for one of m2's calls, its translated arguments).
  A call into m1 passes one translated argument per (argument, m2 state),
  each a walker over that argument, then m2's parameters.

Sizes are tracked in a :class:`CompositionReport` so the
O(|Σ| |M1| |M2|) bounds can be checked empirically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .forest import CONCAT, NodeKind
from .mft import (Call, DEFAULT, EPS, Guard, Mft, Node, Param, Rhs, Rule,
                  TEXT, _guard_order, is_tree_rhs, map_rhs, positions, size,
                  validate)


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


def _m2_rhs(m2: Mft, p: str, head: Optional[Node], guard: Guard) -> Rhs:
    """m2's applicable rhs in state p at the output node ``head`` (None at
    a leaf ε) of an m1 rule with the given guard.  A static node takes m2's
    rule for its label, else (text nodes) m2's text rule, else m2's default
    rule with its dynamic copies instantiated; a dynamic node takes m2's
    text rule under a text guard, else m2's default rule as it is."""
    if head is None:
        return m2.rules[(p, EPS)].rhs
    if head.label is None:
        is_text = guard.kind == "text"
    else:
        r = m2.rules.get((p, Guard.sym(head.label)))
        if r is not None:
            return r.rhs
        is_text = head.kind is NodeKind.TEXT
    if is_text and (p, TEXT) in m2.rules:
        return m2.rules[(p, TEXT)].rhs
    rhs = m2.rules[(p, DEFAULT)].rhs
    return rhs if head.label is None else _instantiate(rhs, head.label,
                                                        head.kind)


# ---------------------------------------------------------------------------
# The walker product
# ---------------------------------------------------------------------------


@dataclass
class CompositionReport:
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


def _pair(m1: Mft, m2: Mft) -> Mft:
    """The walker product of two tree-shaped transducers, at most one of
    which has parameters (see the module docstring)."""
    _require_tree(m1, "first operand")
    _require_tree(m2, "second operand")
    m1 = complete_alphabet(m1, m2)
    p_list = sorted(m2.states)
    n = len(p_list)
    p_index = {p: i + 1 for i, p in enumerate(p_list)}
    states: Dict[str, int] = {}
    rules: Dict[Tuple[str, Guard], Rule] = {}
    names: Dict[Tuple, str] = {}

    def fresh(key: Tuple, q: str, p: str) -> str:
        if key not in names:
            names[key] = name = "%s%d" % (key[0], len(names))
            states[name] = 1 + (m1.states[q] - 1) * n + (m2.states[p] - 1)
        return names[key]

    def entry(q: str, p: str) -> str:
        return fresh(("c", q, p), q, p)

    def walker(rkey, addr, p) -> str:
        return fresh(("w", rkey, addr, p), rkey[0], p)

    def subst(rhs: Rhs, rkey, u, copies) -> Rhs:
        # rhs comes from m2: its moves become calls to walkers, and its
        # parameters (only when m1 has none) stay where they are.  The
        # walker is made before the arguments, as state names count up.
        def move(it, rec):
            if not isinstance(it, Call):
                return None
            w = walker(rkey, u if it.var == 0 else u + (it.var,), it.state)
            return (Call(w, 0, copies + tuple(rec(a) for a in it.args)),)

        return map_rhs(rhs, move)

    by_state: Dict[str, List[Tuple]] = {}
    order = sorted(m1.rules.items(),
                   key=lambda kv: (kv[0][0],) + _guard_order(kv[0][1]))
    for rkey, rule in order:
        by_state.setdefault(rule.state, []).append((rkey, rule))
    for q, q_rules in by_state.items():
        copies = _params(1, (m1.states[q] - 1) * n)
        for rkey, rule in q_rules:
            g = rule.guard
            for u, sub in positions(rule.rhs):
                head = sub[0] if sub else None
                for p in p_list:
                    w = walker(rkey, u, p)
                    if isinstance(head, Param):
                        rhs: Rhs = (Param((head.index - 1) * n + p_index[p]),)
                    elif isinstance(head, Call):
                        args = tuple((Call(walker(rkey, u + (j,), pp), 0,
                                           copies),)
                                     for j in range(2, len(head.args) + 2)
                                     for pp in p_list)
                        rhs = (Call(entry(head.state, p), head.var,
                                    args + _params(len(copies) + 1,
                                                   states[w] - 1)),)
                    else:
                        rhs = subst(_m2_rhs(m2, p, head, g), rkey, u, copies)
                    # a walker has exactly one live rule
                    rules[(w, g)] = Rule(w, g, rhs)
                    for pad in (DEFAULT, EPS):
                        if g.kind != pad.kind:
                            rules[(w, pad)] = Rule(w, pad, ())
    for q in sorted(m1.states):
        for p in p_list:
            e = entry(q, p)
            for rkey, rule in by_state.get(q, ()):
                rules[(e, rule.guard)] = Rule(
                    e, rule.guard,
                    (Call(walker(rkey, (), p), 0, _params(1, states[e] - 1)),))
    m = Mft(states, m1.sigma | m2.sigma, entry(m1.initial, m2.initial), rules)
    problems = validate(m)
    if problems:
        raise AssertionError("composition produced an invalid transducer: "
                             + "; ".join(problems))
    return m


def compose_tt_tt(m1: Mft, m2: Mft) -> Mft:
    """One transducer running first m1, then m2 over m1's output.  Both
    operands must be parameter-free and tree shaped."""
    _require_rank1(m1, "first operand")
    _require_rank1(m2, "second operand")
    return _pair(m1, m2)


def compose_mtt_tt(m1: Mft, m2: Mft) -> Mft:
    """First a transducer with parameters, then a parameter-free one, both
    tree shaped.  Walkers carry n translated copies of each of m1's
    parameters (n = number of m2 states)."""
    _require_rank1(m2, "second operand")
    return _pair(m1, m2)


def compose_tt_mtt(m1: Mft, m2: Mft) -> Mft:
    """First a parameter-free transducer, then one with parameters, both
    tree shaped.  Walkers carry the current m2 state's own parameters."""
    _require_rank1(m1, "first operand")
    return _pair(m1, m2)


# ---------------------------------------------------------------------------
# Derived compositions
# ---------------------------------------------------------------------------


def compose_mtt_ft(m1: Mft, m2: Mft) -> Mft:
    """Parameters first, parameter-free second: decompose the second into
    tree shape plus concatenation, pair, then re-interpret concatenation."""
    m2tt = decompose_eval(m2)
    return recompose_eval(compose_mtt_tt(m1, m2tt))


def compose_tt_ft(m1: Mft, m2: Mft) -> Mft:
    m2tt = decompose_eval(m2)
    return recompose_eval(compose_tt_tt(m1, m2tt))


def compose_ft_tt(m1: Mft, m2: Mft) -> Mft:
    """Parameter-free first, tree-shaped second: the first operand is
    tree-shaped by :func:`ft_to_mtt`, then paired with the second as in
    ``mtt-tt``."""
    _require_rank1(m1, "first operand")
    return compose_mtt_tt(ft_to_mtt(m1), m2)


#: mode name -> construction; ``mfx compose --mode`` offers these names
MODES = {
    "tt-tt": compose_tt_tt,
    "mtt-tt": compose_mtt_tt,
    "tt-mtt": compose_tt_mtt,
    "mtt-ft": compose_mtt_ft,
    "tt-ft": compose_tt_ft,
    "ft-tt": compose_ft_tt,
}


def compose(m1: Mft, m2: Mft, mode: str) -> Tuple[Mft, CompositionReport]:
    """Run one of the composition constructions and report sizes.  The
    result computes ``m2(m1(input))``."""
    if mode not in MODES:
        raise ValueError("unknown mode %r (one of %s)"
                         % (mode, ", ".join(sorted(MODES))))
    fn = MODES[mode]
    t0 = time.perf_counter()
    out = fn(m1, m2)
    dt = time.perf_counter() - t0
    report = CompositionReport(
        mode=mode,
        sigma=len(m1.sigma | m2.sigma),
        size1=size(m1),
        size2=size(m2),
        size_out=size(out),   # the full product, before pruning
        rules_out=len(out.rules),
        seconds=dt,
    )
    # the constructions build every state pair; unreachable pairs carry no
    # behaviour and are dropped from the returned transducer
    from .optimize import remove_unreachable
    return remove_unreachable(out), report
