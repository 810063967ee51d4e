"""Transducer reductions: unused and constant parameters, stay moves,
unreachable states, iterated to a fixpoint.

The translation introduces one parameter per in-scope variable plus the
if-then-else parameters of predicates, most of which never reach the
output.  Removing them is what makes streaming execution retain less than
the whole input, so ``optimize`` is not cosmetic: an unoptimised
transducer keeps a copy of the document in its first parameter.

All rewrites preserve the evaluated output exactly; that is the property
the test suite hammers on randomized transducers.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .forest import Forest, Tree, coalesce_text
from .mft import (Call, Mft, Node, Param, Rhs, Rule, map_rhs, rhs_nodes,
                  rhs_size)
from .xquery import Element, For, Let, PathExpr, Sequence, StringLit


# ---------------------------------------------------------------------------
# Unused parameters
# ---------------------------------------------------------------------------


def bare_params(rhs: Rhs) -> Set[int]:
    """Parameter indices occurring in the expression outside any call
    argument (output-node children do not shield an occurrence)."""
    out: Set[int] = set()
    stack = list(rhs)
    while stack:
        it = stack.pop()
        if isinstance(it, Param):
            out.add(it.index)
        elif isinstance(it, Node):
            stack.extend(it.children)
    return out


def _calls(rhs: Rhs) -> Iterable[Call]:
    for it in rhs_nodes(rhs):
        if isinstance(it, Call):
            yield it


def necessary_params(m: Mft) -> Set[Tuple[str, int]]:
    """Least set S with: bare rhs occurrences are necessary, and a
    parameter bare inside the i'-th argument of a call to q' is necessary
    whenever (q', i') is.  Computed by the straightforward iteration."""
    S: Set[Tuple[str, int]] = set()
    for rule in m.rules.values():
        for i in bare_params(rule.rhs):
            S.add((rule.state, i))
    changed = True
    while changed:
        changed = False
        for rule in m.rules.values():
            for call in _calls(rule.rhs):
                for idx, arg in enumerate(call.args, start=1):
                    if (call.state, idx) not in S:
                        continue
                    for i in bare_params(arg):
                        if (rule.state, i) not in S:
                            S.add((rule.state, i))
                            changed = True
    return S


def necessary_params_oracle(m: Mft) -> Set[Tuple[str, int]]:
    """Same set via an explicit dependency graph and breadth-first search;
    used to cross-check the fixpoint."""
    edges: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
    seeds: Set[Tuple[str, int]] = set()
    for rule in m.rules.values():
        for i in bare_params(rule.rhs):
            seeds.add((rule.state, i))
        for call in _calls(rule.rhs):
            for idx, arg in enumerate(call.args, start=1):
                for i in bare_params(arg):
                    edges.setdefault((call.state, idx), set()).add(
                        (rule.state, i))
    seen = set(seeds)
    todo = deque(seeds)
    while todo:
        u = todo.popleft()
        for v in edges.get(u, ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def unused_params(m: Mft) -> Mft:
    """Drop every parameter that cannot reach the output."""
    S = necessary_params(m)
    removed = {(q, i) for q, rank in m.states.items()
               for i in range(1, rank) if (q, i) not in S}
    if not removed:
        return m
    return _drop_params(m, removed)


def _drop_params(m: Mft, removed: Set[Tuple[str, int]],
                 replacement: Optional[Dict[Tuple[str, int], Rhs]] = None) -> Mft:
    """Rewrite the transducer with the given parameters deleted; occurrences
    are substituted from ``replacement`` (default: they may not occur)."""
    keep: Dict[str, List[int]] = {}
    new_states: Dict[str, int] = {}
    for q, rank in m.states.items():
        kept = [i for i in range(1, rank) if (q, i) not in removed]
        keep[q] = kept
        new_states[q] = len(kept) + 1
    renum = {q: {old: new + 1 for new, old in enumerate(kept)}
             for q, kept in keep.items()}

    def rw(rhs: Rhs, q: str) -> Rhs:
        def drop(it, rec):
            if isinstance(it, Param):
                if (q, it.index) not in removed:
                    return (Param(renum[q][it.index]),)
                return rec(replacement[(q, it.index)]) if replacement else ()
            if isinstance(it, Call):
                return (Call(it.state, it.var,
                             tuple(rec(a) for idx, a in enumerate(it.args, 1)
                                   if (it.state, idx) not in removed)),)
            return None

        return map_rhs(rhs, drop)

    rules = {key: Rule(r.state, r.guard, rw(r.rhs, r.state))
             for key, r in m.rules.items()}
    return Mft(new_states, m.sigma, m.initial, rules)


# ---------------------------------------------------------------------------
# Constant parameters
# ---------------------------------------------------------------------------


def _ground_forest(rhs: Rhs) -> Optional[Forest]:
    out: List[Tree] = []
    for it in rhs:
        if not isinstance(it, Node) or it.label is None:
            return None
        kids = _ground_forest(it.children)
        if kids is None:
            return None
        out.append(Tree(it.label, it.kind, kids))
    return tuple(out)


def _forest_rhs(f: Forest) -> Rhs:
    return tuple(Node(t.label, t.kind, _forest_rhs(t.children)) for t in f)


def constant_params(m: Mft) -> Mft:
    """Remove parameters that every call instantiates with one fixed ground
    forest (or passes through unchanged within the same state), replacing
    their occurrences by that constant."""
    # candidate value per (state, index): None until seen, False if ruled out
    value: Dict[Tuple[str, int], object] = {}
    for q, rank in m.states.items():
        for i in range(1, rank):
            value[(q, i)] = None
    for rule in m.rules.values():
        for call in _calls(rule.rhs):
            for idx, arg in enumerate(call.args, start=1):
                key = (call.state, idx)
                if value.get(key) is False:
                    continue
                if rule.state == call.state and arg == (Param(idx),):
                    continue  # passed through unchanged
                g = _ground_forest(arg)
                if g is None:
                    value[key] = False
                    continue
                g = coalesce_text(g)
                if value[key] is None:
                    value[key] = g
                elif value[key] != g:
                    value[key] = False
    removed = {k for k, v in value.items()
               if v is not None and v is not False}
    if not removed:
        return m
    replacement = {k: _forest_rhs(value[k]) for k in removed}
    return _drop_params(m, removed, replacement)


# ---------------------------------------------------------------------------
# Stay-move removal
# ---------------------------------------------------------------------------

_INLINE_SIZE_LIMIT = 32


def _stay_body(rules: List[Rule]) -> Optional[Rhs]:
    """The rhs of a pure stay state given its rules: exactly one default and
    one eps rule, identical, x0-only calls, no dynamic-label output."""
    if len(rules) != 2:
        return None
    by_guard = {r.guard.kind: r for r in rules}
    if set(by_guard) != {"default", "eps"}:
        return None
    rhs = by_guard["default"].rhs
    if rhs != by_guard["eps"].rhs:
        return None
    for it in rhs_nodes(rhs):
        if isinstance(it, Call) and it.var != 0:
            return None
        if isinstance(it, Node) and it.label is None:
            return None
    return rhs


def _substitute(body: Rhs, var: int, args: Tuple[Rhs, ...]) -> Rhs:
    def sub(it, rec):
        if isinstance(it, Param):
            return args[it.index - 1]
        if isinstance(it, Call):
            return (Call(it.state, var, tuple(rec(a) for a in it.args)),)
        return None

    return map_rhs(body, sub)


def remove_stay_moves(m: Mft, warn=None) -> Mft:
    """Inline states whose whole behaviour is a single stay rule pair.
    Self- or mutually-recursive stay states are skipped (with a warning
    callback), as are large bodies called from several sites."""
    m = m.copy()
    while True:
        rules_of: Dict[str, List[Rule]] = {}
        for (s, _), r in m.rules.items():
            rules_of.setdefault(s, []).append(r)
        candidates = {q: b for q in m.states if q != m.initial and
                      (b := _stay_body(rules_of.get(q, []))) is not None}
        progress = False
        for q, body in candidates.items():
            if any(c.state in candidates for c in _calls(body)):
                continue  # depends on another pending stay state (or itself)
            sites = [key for key, r in m.rules.items()  # one per call site
                     for c in _calls(r.rhs) if c.state == q]
            if len(sites) > 1 and rhs_size(body) > _INLINE_SIZE_LIMIT:
                continue

            def inline(it, rec):
                if isinstance(it, Call) and it.state == q:
                    return _substitute(body, it.var,
                                       tuple(rec(a) for a in it.args))
                return None

            for key in dict.fromkeys(sites):
                r = m.rules[key]
                m.rules[key] = Rule(r.state, r.guard, map_rhs(r.rhs, inline))
            for r in rules_of[q]:
                del m.rules[(q, r.guard)]
            del m.states[q]
            progress = True
            break
        if not progress:
            for q, body in candidates.items():
                if any(c.state == q for c in _calls(body)) and warn:
                    warn("stay state %s is self-recursive, not inlined" % q)
            return m


# ---------------------------------------------------------------------------
# Unreachable states
# ---------------------------------------------------------------------------


def reachable_states(m: Mft) -> Set[str]:
    by_state: Dict[str, List[Rule]] = {}
    for (s, _), rule in m.rules.items():
        by_state.setdefault(s, []).append(rule)
    seen = {m.initial}
    todo = deque([m.initial])
    while todo:
        q = todo.popleft()
        for rule in by_state.get(q, ()):
            for call in _calls(rule.rhs):
                if call.state not in seen:
                    seen.add(call.state)
                    todo.append(call.state)
    return seen


def remove_unreachable(m: Mft) -> Mft:
    live = reachable_states(m)
    if len(live) == len(m.states):
        return m
    states = {q: r for q, r in m.states.items() if q in live}
    rules = {k: r for k, r in m.rules.items() if k[0] in live}
    return Mft(states, m.sigma, m.initial, rules)


# ---------------------------------------------------------------------------
# The fixpoint
# ---------------------------------------------------------------------------


def optimize(m: Mft, warn=None, max_rounds: int = 50) -> Mft:
    """Apply unreachable / unused / constant / stay-move removal until
    nothing changes."""
    from .mft import print_mft
    last = print_mft(m)
    for _ in range(max_rounds):
        m = remove_unreachable(m)
        m = unused_params(m)
        m = constant_params(m)
        m = remove_stay_moves(m, warn=warn)
        cur = print_mft(m)
        if cur == last:
            return m
        last = cur
    raise RuntimeError("optimizer did not converge in %d rounds" % max_rounds)


# ---------------------------------------------------------------------------
# Syntactic parameter-freeness check
# ---------------------------------------------------------------------------


def check_ft_eligibility(ast) -> bool:
    """True iff the query is guaranteed to optimize to a parameter-free
    transducer: no path predicates anywhere, and no output variable used
    under a for clause deeper than its binder."""

    def steps_ok(steps) -> bool:
        return all(not s.predicates for s in steps)

    ok = True

    def walk(q, depth: int, binders: Dict[str, int]):
        nonlocal ok
        if isinstance(q, Element):
            for c in q.children:
                walk(c, depth, binders)
        elif isinstance(q, StringLit):
            pass
        elif isinstance(q, Sequence):
            for c in q.items:
                walk(c, depth, binders)
        elif isinstance(q, For):
            if not steps_ok(q.path.steps):
                ok = False
            walk(q.body, depth + 1, {**binders, q.var: depth + 1})
        elif isinstance(q, Let):
            walk(q.bound, depth, binders)
            walk(q.body, depth, {**binders, q.var: depth})
        elif isinstance(q, PathExpr):
            if not steps_ok(q.path.steps):
                ok = False
            if not q.path.steps and depth != binders.get(q.path.start, 0):
                ok = False
        else:
            raise TypeError(q)

    walk(ast, 0, {"input": 0})
    return ok
