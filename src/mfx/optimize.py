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
from typing import Dict, List, Optional, Set, Tuple

from .forest import coalesce_text, ground
from .mft import (Call, Mft, Node, Param, Rhs, Rule, map_rhs, rhs_nodes,
                  rhs_size)


# ---------------------------------------------------------------------------
# Unused parameters
# ---------------------------------------------------------------------------


def bare_params(rhs: Rhs) -> Set[int]:
    """Parameter indices occurring in the expression outside any call
    argument (output-node children do not shield an occurrence)."""
    out: Set[int] = set()
    seqs = [rhs]
    while seqs:
        for it in seqs.pop():
            t = type(it)
            if t is Param:
                out.add(it.index)
            elif t is Node and it.children:
                seqs.append(it.children)
    return out


def _has_params(m: Mft) -> bool:
    return any(r > 1 for r in m.states.values())


def necessary_params(m: Mft) -> Set[Tuple[str, int]]:
    """Least set S with: bare rhs occurrences are necessary, and a
    parameter bare inside the i'-th argument of a call to q' is necessary
    whenever (q', i') is.  Computed by a worklist: each argument is read
    once, when the parameter it instantiates is found necessary."""
    S: Set[Tuple[str, int]] = set()
    args_of: Dict[Tuple[str, int], List[Tuple[str, Rhs]]] = defaultdict(list)
    for rule in m.rules.values():
        q = rule.state
        for i in bare_params(rule.rhs):
            S.add((q, i))
        for call in rule.calls:
            for idx, arg in enumerate(call.args, start=1):
                if arg:
                    args_of[(call.state, idx)].append((q, arg))
    todo = list(S)
    while todo:
        for q, arg in args_of.get(todo.pop(), ()):
            for i in bare_params(arg):
                if (q, i) not in S:
                    S.add((q, i))
                    todo.append((q, i))
    return S


def unused_params(m: Mft) -> Mft:
    """Drop every parameter that cannot reach the output."""
    if not _has_params(m):
        return m
    S = necessary_params(m)
    removed = {(q, i) for q, rank in m.states.items()
               for i in range(1, rank) if (q, i) not in S}
    if not removed:
        return m
    return _drop_params(m, removed)


def _drop_params(m: Mft, removed: Set[Tuple[str, int]],
                 replacement: Optional[Dict[Tuple[str, int], Rhs]] = None) -> Mft:
    """Rewrite the transducer with the given parameters deleted; occurrences
    are substituted from ``replacement`` (default: they may not occur).
    Only the rules of the affected states and the rules that call them are
    rebuilt; the others are kept as they are."""
    touched = {q for q, _ in removed}
    new_states = dict(m.states)
    renum: Dict[str, Dict[int, int]] = {}
    for q in touched:
        kept = [i for i in range(1, m.states[q]) if (q, i) not in removed]
        new_states[q] = len(kept) + 1
        renum[q] = {old: new + 1 for new, old in enumerate(kept)}

    def rw(rhs: Rhs, q: str) -> Rhs:
        nums = renum.get(q)

        def drop(it):
            t = type(it)
            if t is Param:
                if nums is None or nums.get(it.index) == it.index:
                    return None
                if (q, it.index) not in removed:
                    return (Param(nums[it.index]),)
                return replacement[(q, it.index)] if replacement else ()
            if t is Call and it.state in touched:
                return (Call(it.state, it.var,
                             tuple([a for idx, a in enumerate(it.args, 1)
                                    if (it.state, idx) not in removed])),)
            return None

        return map_rhs(rhs, drop)

    rules = {}
    done: Dict[Tuple[int, str], Rhs] = {}  # rules of a state share bodies
    for key, r in m.rules.items():
        if r.state in touched or any(c.state in touched for c in r.calls):
            rhs = done.get((id(r.rhs), r.state))
            if rhs is None:
                rhs = done[(id(r.rhs), r.state)] = rw(r.rhs, r.state)
            if rhs is not r.rhs:
                r = Rule(r.state, r.guard, rhs)
        rules[key] = r
    return Mft(new_states, m.sigma, m.initial, rules)


# ---------------------------------------------------------------------------
# Constant parameters
# ---------------------------------------------------------------------------


def constant_params(m: Mft) -> Mft:
    """Remove parameters that every call instantiates with one fixed ground
    forest (or passes through unchanged within the same state), replacing
    their occurrences by that constant."""
    if not _has_params(m):
        return m
    # candidate value per (state, index): None until seen, False if ruled out
    value: Dict[Tuple[str, int], object] = {}
    for q, rank in m.states.items():
        for i in range(1, rank):
            value[(q, i)] = None
    for rule in m.rules.values():
        for call in rule.calls:
            for idx, arg in enumerate(call.args, start=1):
                key = (call.state, idx)
                if value.get(key) is False:
                    continue
                if rule.state == call.state and arg == (Param(idx),):
                    continue  # passed through unchanged
                if ground(arg) is None:
                    value[key] = False
                    continue
                g = coalesce_text(arg)
                if value[key] is None:
                    value[key] = g
                elif value[key] != g:
                    value[key] = False
    removed = {k for k, v in value.items()
               if v is not None and v is not False}
    if not removed:
        return m
    return _drop_params(m, removed, {k: value[k] for k in removed})


# ---------------------------------------------------------------------------
# Stay-move removal
# ---------------------------------------------------------------------------

_INLINE_SIZE_LIMIT = 32


def _substitute(body: Rhs, var: int, args: Tuple[Rhs, ...]) -> Rhs:
    def sub(it):
        if type(it) is Param:
            return args[it.index - 1]
        if type(it) is Call:
            return (Call(it.state, var, it.args),)
        return None

    return map_rhs(body, sub)


def remove_stay_moves(m: Mft, warn=None) -> Mft:
    """Inline states whose whole behaviour is a single stay rule pair.
    Self- or mutually-recursive stay states are skipped (with a warning
    callback), as are large bodies called from several sites.  Call sites
    are counted once, then recounted only in the rules an inlining
    rewrites, whose states are the only ones that can become candidates.
    Returns ``m`` itself when there is nothing to inline."""
    states, rules = dict(m.states), dict(m.rules)
    rules_of: Dict[str, List[Tuple]] = {}
    for key in rules:
        rules_of.setdefault(key[0], []).append(key)
    calls = defaultdict(lambda: defaultdict(int))  # callee -> rule -> calls

    def count(key: Tuple, step: int):
        for c in rules[key].calls:
            calls[c.state][key] += step

    def stay_rule(q: str) -> Optional[Rule]:
        """The default rule of a pure stay state: exactly one default and
        one eps rule, identical, x0-only calls, no dynamic-label output."""
        pair = [rules[key] for key in rules_of.get(q, ())]
        if (q == m.initial or len(pair) != 2
                or {r.guard.kind for r in pair} != {"default", "eps"}
                or pair[0].rhs != pair[1].rhs):
            return None
        for it in rhs_nodes(pair[0].rhs):
            t = type(it)
            if t is Call and it.var != 0 or t is Node and it.label is None:
                return None
        return pair[0]

    bodies = {q: stay_rule(q) for q in states}  # None: not a candidate
    if all(b is None for b in bodies.values()):
        return m
    for key in rules:
        count(key, 1)
    while True:
        for q, stay in bodies.items():
            if stay is None or any(bodies.get(c.state) is not None
                                   for c in stay.calls):
                continue  # depends on another pending stay state (or itself)
            sites = [key for key, n in calls[q].items() if n]
            if (sum(calls[q].values()) <= 1
                    or rhs_size(stay.rhs) <= _INLINE_SIZE_LIMIT):
                break
        else:
            for q, stay in bodies.items():
                if (stay is not None and warn
                        and any(c.state == q for c in stay.calls)):
                    warn("stay state %s is self-recursive, not inlined" % q)
            if len(states) == len(m.states):
                return m
            return Mft(states, m.sigma, m.initial, rules)

        def inline(it):
            if type(it) is Call and it.state == q:
                return _substitute(stay.rhs, it.var, it.args)
            return None

        done: Dict[int, Tuple[Rhs, Rhs]] = {}  # id of a body -> it, rewritten
        for key in sites:
            count(key, -1)
            r = rules[key]
            got = done.get(id(r.rhs))
            if got is None:
                got = done[id(r.rhs)] = (r.rhs, map_rhs(r.rhs, inline))
            rules[key] = Rule(r.state, r.guard, got[1])
            count(key, 1)
        for key in rules_of.pop(q):
            count(key, -1)
            del rules[key]
        del states[q], bodies[q]
        for s in {key[0] for key in sites} & bodies.keys():
            bodies[s] = stay_rule(s)


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
            for call in rule.calls:
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
    nothing changes.  ``warn`` gets each warning once per call, however
    many rounds meet it."""
    from .mft import print_mft
    if warn is not None:
        report, warned = warn, set()

        def warn(msg: str):
            if msg not in warned:
                warned.add(msg)
                report(msg)

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
