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

from collections import defaultdict, deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .forest import Forest, Tree, coalesce_text
from .mft import (Call, Mft, Node, Param, Rhs, Rule, map_rhs, rhs_nodes,
                  rhs_size)


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
    callback), as are large bodies called from several sites.  Call sites
    are counted once, then recounted only in the rules an inlining
    rewrites, whose states are the only ones that can become candidates."""
    m = m.copy()
    keys = list(m.rules)  # rules by number: a Guard key hashes slowly
    rules_of: Dict[str, List[int]] = {}
    for i, (s, _) in enumerate(keys):
        rules_of.setdefault(s, []).append(i)
    calls = defaultdict(lambda: defaultdict(int))  # callee -> rule -> calls

    def count(i: int, step: int):
        for c in _calls(m.rules[keys[i]].rhs):
            calls[c.state][i] += step

    def stay_body(q: str) -> Optional[Rhs]:
        """The rhs of a pure stay state: exactly one default and one eps
        rule, identical, x0-only calls, no dynamic-label output."""
        rules = [m.rules[keys[i]] for i in rules_of.get(q, ())]
        if (q == m.initial or len(rules) != 2
                or {r.guard.kind for r in rules} != {"default", "eps"}
                or rules[0].rhs != rules[1].rhs):
            return None
        for it in rhs_nodes(rules[0].rhs):
            if (isinstance(it, Call) and it.var != 0
                    or isinstance(it, Node) and it.label is None):
                return None
        return rules[0].rhs

    bodies = {q: stay_body(q) for q in m.states}  # None: not a candidate
    if any(b is not None for b in bodies.values()):
        for i in range(len(keys)):
            count(i, 1)
    while True:
        for q, body in bodies.items():
            if body is None or any(bodies.get(c.state) is not None
                                   for c in _calls(body)):
                continue  # depends on another pending stay state (or itself)
            sites = [i for i, n in calls[q].items() if n]
            if (sum(calls[q].values()) <= 1
                    or rhs_size(body) <= _INLINE_SIZE_LIMIT):
                break
        else:
            for q, body in bodies.items():
                if (body is not None and warn
                        and any(c.state == q for c in _calls(body))):
                    warn("stay state %s is self-recursive, not inlined" % q)
            return m

        def inline(it, rec):
            if isinstance(it, Call) and it.state == q:
                return _substitute(body, it.var,
                                   tuple(rec(a) for a in it.args))
            return None

        for i in sites:
            count(i, -1)
            r = m.rules[keys[i]]
            m.rules[keys[i]] = Rule(r.state, r.guard, map_rhs(r.rhs, inline))
            count(i, 1)
        for i in rules_of.pop(q):
            count(i, -1)
            del m.rules[keys[i]]
        del m.states[q], bodies[q]
        for s in {keys[i][0] for i in sites} & bodies.keys():
            bodies[s] = stay_body(s)


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


_MAX_ROUNDS = 50


def optimize(m: Mft, warn=None) -> Mft:
    """Apply unreachable / unused / constant / stay-move removal until
    nothing changes."""
    from .mft import print_mft
    last = print_mft(m)
    for _ in range(_MAX_ROUNDS):
        m = remove_unreachable(m)
        m = unused_params(m)
        m = constant_params(m)
        m = remove_stay_moves(m, warn=warn)
        cur = print_mft(m)
        if cur == last:
            return m
        last = cur
    raise RuntimeError("optimizer did not converge in %d rounds" % _MAX_ROUNDS)
