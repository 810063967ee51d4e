"""Macro forest transducers: representation, validation, evaluation.

A transducer has a ranked state set (rank = 1 + number of accumulating
parameters), a symbol alphabet, an initial state of rank 1, and at most one
rule per (state, guard).  Guards are: a symbol of the alphabet, the text
guard (matching any text node not caught by a symbol rule), the default
guard ``%t`` (any other node), and ``eps`` (the empty forest).  Every state
must carry exactly one default and one eps rule, which is what makes the
machine total and deterministic.

Rule right-hand sides are forest expressions (:data:`mfx.forest.Rhs`):
sequences of output nodes (whose label may be ``%t`` = "copy the current
input label"), parameter leaves ``y<i>``, and state calls ``q(x<i>, arg,
...)`` where ``x0`` is the current position (a stay move), ``x1`` the
children of the matched node and ``x2`` its following siblings.  The term
notation lives in :mod:`mfx.forest`; this module re-exports its types.

Rule selection on a forest g: the eps rule if g is empty, else the symbol
rule for the head label if present, else the text rule if the head is a
text node and the state has one, else the default rule.  Note that symbol
rules match by label regardless of node kind; this is what makes string
comparison guards work, and is a documented limitation for pathological
documents whose text content collides with alphabet symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .forest import (Call, Forest, Node, NodeKind, Param, Rhs,
                     _label_needs_quotes, _quote, _TermScanner, print_term)

# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


def rhs_nodes(rhs: Rhs) -> List[object]:
    """All items of an rhs, including nested ones, in prefix order."""
    out: List[object] = []
    add = out.append
    stack = [iter(rhs)]  # the sequences being walked, innermost last
    while stack:
        for it in stack[-1]:
            add(it)
            t = type(it)
            if t is Node:
                if it.children:
                    stack.append(iter(it.children))
                    break
            elif t is Call and it.args:
                stack.extend([iter(a) for a in it.args[::-1]])
                break
        else:
            stack.pop()
    return out


def sequences(rhs: Rhs) -> List[Rhs]:
    """The rhs and its nested sequences (a node's children, a call's
    arguments but for an empty one and one parameter, which the stream
    compiler plans by its index), each after the one it sits in."""
    seqs = [rhs]
    add = seqs.append
    for seq in seqs:
        for it in seq:
            t = type(it)
            if t is Node:
                if it.children:
                    add(it.children)
            elif t is Call:
                for a in it.args:
                    if len(a) > 1 or a and type(a[0]) is not Param:
                        add(a)
    return seqs


def map_rhs(rhs: Rhs, fn) -> Rhs:
    """Rebuild an rhs bottom up.  ``fn(item)`` gets each item with its
    children and call arguments already rebuilt, and returns the items
    that replace it, or None to keep it.  A sequence in which nothing
    changed is kept, not copied.  One pass meets the items in the order a
    recursive walk would, each after the ones nested in it."""
    # a frame per sequence waiting on a nested one: (its items left, it,
    # its items so far, whether they changed, the node or call rebuilt, or
    # None for an argument); a call's arguments are one more sequence
    frames: List[tuple] = []
    items, seq, out, changed = iter(rhs), rhs, [], False
    while True:
        for it in items:
            t = type(it)
            if t is tuple:  # a call argument
                if len(it) == 1 and type(it[0]) is Param:
                    got = fn(it[0])  # a pass-through, mapped in place
                    if got is not None:
                        it, changed = tuple(got), True
                elif it:
                    frames.append((items, seq, out, changed, None))
                    items, seq, out, changed = iter(it), it, [], False
                    break
                out.append(it)
                continue
            sub = it.children if t is Node else it.args if t is Call else None
            if sub:
                frames.append((items, seq, out, changed, it))
                items, seq, out, changed = iter(sub), sub, [], False
                break
            got = fn(it)
            if got is None:
                out.append(it)
            else:
                out.extend(got)
                changed = True
        else:
            new = tuple(out) if changed else seq
            if not frames:
                return new
            inner = changed
            items, seq, out, changed, it = frames.pop()
            if it is None:  # a call argument
                out.append(new)
                changed = changed or inner
                continue
            if inner:
                it = (Node(it.label, it.kind, new) if type(it) is Node
                      else Call(it.state, it.var, new))
            got = fn(it)
            if got is None:
                out.append(it)
                changed = changed or inner
            else:
                out.extend(got)
                changed = True


def rhs_size(rhs: Rhs) -> int:
    """Node count of an rhs term: output nodes, parameter leaves, and for
    each call the state plus its input variable."""
    total = 0
    seqs = [rhs]
    while seqs:
        for it in seqs.pop():
            t = type(it)
            if t is Node:
                total += 1
                if it.children:
                    seqs.append(it.children)
            elif t is Call:
                total += 2
                seqs.extend(it.args)
            else:
                total += 1
    return total


# ---------------------------------------------------------------------------
# Guards and rules
# ---------------------------------------------------------------------------


class Guard(NamedTuple):
    """A rule's guard.  A tuple, so that the ``(state, guard)`` rule keys
    hash in C: composition and the passes look rules up by key often."""

    kind: str  # "sym" | "text" | "default" | "eps"
    label: Optional[str] = None

    @staticmethod
    def sym(label: str) -> "Guard":
        return Guard("sym", label)

    def __str__(self) -> str:
        if self.kind == "sym":
            return self.label
        return _GUARD_TEXT[self.kind]


_GUARD_TEXT = {"text": "%text", "default": "%t", "eps": "eps"}
TEXT = Guard("text")
DEFAULT = Guard("default")
EPS = Guard("eps")


@dataclass(frozen=True)
class Rule:
    state: str
    guard: Guard
    rhs: Rhs

    @cached_property
    def calls(self) -> Tuple[Call, ...]:
        """The calls of the body, nested ones included, in prefix order.
        Kept on the rule, so that the optimizer's passes, which keep every
        rule they do not rewrite, walk each body once.  The composer makes
        a callee a state where a finished rule's calls first list it;
        :func:`validate` keeps the calls it meets where none are kept."""
        return tuple([it for it in rhs_nodes(self.rhs) if type(it) is Call])

    @cached_property
    def rhs_text(self) -> str:
        """The body in rule-file syntax (see :func:`print_mft`), printed
        once per rule: the optimizer prints its transducer every round."""
        return print_term(self.rhs)


class Mft:
    """A macro forest transducer.  Treat as immutable once validated."""

    def __init__(self, states: Dict[str, int], sigma, initial: str,
                 rules: Dict[Tuple[str, Guard], Rule]):
        self.states = dict(states)      # state name -> rank (>= 1)
        self.sigma = frozenset(sigma)
        self.initial = initial
        self.rules = dict(rules)

    def copy(self) -> "Mft":
        return Mft(self.states, self.sigma, self.initial, self.rules)

    def total_params(self) -> int:
        return sum(r - 1 for r in self.states.values())

    def __repr__(self):
        return "Mft(%d states, %d rules, initial=%s)" % (
            len(self.states), len(self.rules), self.initial)


_GUARD_RANK = {"sym": 0, "text": 1, "default": 2, "eps": 3}


def _guard_order(g: Guard):
    return (_GUARD_RANK[g.kind], g.label or "")


_SLOT = {"text": 1, "default": 2, "eps": 3}


def dispatch_table(m: Mft) -> Dict[str, tuple]:
    """Rule selection as one dict lookup, shared by both interpreters:
    ``state -> (syms, on_text, on_other, on_eps)``.  On a forest with head
    node n the state applies ``syms.get(n.label, on_text if n is a text
    node else on_other)``, on the empty forest ``on_eps``; each is a rule
    body, or None where the state lacks the rule.  Build it per run, since
    ``m.rules`` may still be edited after construction."""
    rows: Dict[str, list] = {}
    for (q, g), rule in m.rules.items():
        row = rows.setdefault(q, [{}, None, None, None])
        if g.kind == "sym":
            row[0][g.label] = rule.rhs
        else:
            row[_SLOT[g.kind]] = rule.rhs
    return {q: (syms, dflt if text is None else text, dflt, eps)
            for q, (syms, text, dflt, eps) in rows.items()}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(m: Mft) -> List[str]:
    """Structural diagnostics; empty list iff the transducer is well formed."""
    out = []
    states = m.states
    if m.initial not in states:
        out.append("initial state %s undeclared" % m.initial)
    elif states[m.initial] != 1:
        out.append("initial state %s must have rank 1" % m.initial)
    for q, rank in states.items():
        if rank < 1:
            out.append("state %s has rank %d < 1" % (q, rank))
    seen_default = dict.fromkeys(states, 0)
    seen_eps = dict.fromkeys(states, 0)
    for (q, g), rule in m.rules.items():
        if q not in states:
            out.append("%s/%s: rule for undeclared state" % (q, g))
            continue
        kind = g.kind
        if kind == "sym":
            if g.label not in m.sigma:
                out.append("%s/%s: guard symbol not in sigma" % (q, g))
        elif kind == "default":
            seen_default[q] += 1
        elif kind == "eps":
            seen_eps[q] += 1
        bad = _check_rhs(states, rule)
        if bad:
            out.extend("%s/%s: %s" % (q, g, why) for why in bad)
    for q in states:
        if seen_default[q] != 1:
            out.append("%s: needs exactly one default rule, has %d"
                       % (q, seen_default[q]))
        if seen_eps[q] != 1:
            out.append("%s: needs exactly one eps rule, has %d"
                       % (q, seen_eps[q]))
    return out


def _check_rhs(states: Dict[str, int], rule: Rule) -> List[str]:
    """The problems of one rule's body, each without the rule's name.  The
    calls it meets are kept as the rule's :attr:`Rule.calls`."""
    out = []
    nparams = states.get(rule.state, 1) - 1
    kind = rule.guard.kind
    allow_copy = kind == "default" or kind == "text"
    calls = []
    stack = [iter(rule.rhs)]  # as in rhs_nodes: calls in prefix order
    while stack:
        for it in stack[-1]:
            t = type(it)
            if t is Call:
                calls.append(it)
                rank = states.get(it.state)
                if rank is None:
                    out.append("call to undeclared state %s" % it.state)
                elif len(it.args) != rank - 1:
                    out.append("call to %s with %d args, expected %d"
                               % (it.state, len(it.args), rank - 1))
                if it.var not in (0, 1, 2):
                    out.append("bad input variable x%d" % it.var)
                elif it.var and kind == "eps":
                    out.append("eps rule may only use x0")
                if it.args:
                    stack.extend([iter(a) for a in it.args[::-1]])
                    break
            elif t is Node:
                if it.label is None and not allow_copy:
                    out.append("%t output outside default/text rule")
                if it.children:
                    stack.append(iter(it.children))
                    break
            elif t is Param and not 1 <= it.index <= nparams:
                out.append("parameter y%d out of range" % it.index)
        else:
            stack.pop()
    rule.__dict__.setdefault("calls", tuple(calls))
    return out


# ---------------------------------------------------------------------------
# Evaluation (the in-memory oracle)
# ---------------------------------------------------------------------------


#: a stay run up to this long never needs the transducer's size
STAY_FLOOR = 100


def stay_budget(m: Mft) -> int:
    """The longest stay run both interpreters allow.  ``size`` walks every
    rule, so they compute it once, when a stay run passes STAY_FLOOR."""
    return max(STAY_FLOOR, 10 * size(m))


class TransducerError(RuntimeError):
    """A run cannot go on: no rule applies, ``%t`` has no current input
    node, or a stay run is too long.  Both interpreters raise it, with the
    same messages."""


#: the messages of TransducerError; NO_RULE takes the state
NO_RULE = "state %s has no rule to apply"
NO_CURRENT_NODE = "%t output with no current input node"


class StayBudgetExceeded(TransducerError):
    def __init__(self, state: str, budget: int):
        super().__init__(
            "stay-move budget exceeded in state %s (%d consecutive "
            "non-consuming steps); the transducer likely loops" % (state, budget))
        self.state = state


class _Thunk:
    """A call argument and its caller's application ``(forest, index,
    params, stay)``; ``value`` is the argument's forest once read."""

    __slots__ = ("rhs", "env", "value")

    def __init__(self, rhs: Rhs, env: tuple):
        self.rhs, self.env, self.value = rhs, env, None


_REST, _CLOSE, _MEMO = range(3)  # the tags of evaluate's tasks
_TEXT = NodeKind.TEXT  # a global: an enum member's lookup is slow


def evaluate(m: Mft, f: Forest) -> Forest:
    """Run the transducer on a forest and return the output forest.

    The evaluator is iterative, so input depth and width are only limited
    by memory.  Its loop expands a body in place and pushes a task only for
    what waits: the rest of a sequence when items remain (a tail call
    pushes nothing), a node's close and a memo.  An input position is a
    forest and an index into it: x1 and x2 copy nothing, so time is linear
    in the width.  Call arguments are evaluated by need, at most once each:
    composed transducers pass many parameter copies that no rule reads,
    and evaluating those eagerly can take time exponential in the input.
    More than ``max(100, 10 * size(m))`` consecutive stay moves raise
    :class:`StayBudgetExceeded`, naming the looping state; a missing rule
    or ``%t`` with no current node raise :class:`TransducerError`.
    """
    budget = None  # stay_budget(m), once a stay run passes STAY_FLOOR
    table = dispatch_table(m)
    out: List[Node] = []
    # (_REST, body, pos, acc, forest, index, params, stay) the rest of a
    # sequence; (_CLOSE, label, kind, children, acc) wrap a node's finished
    # children; (_MEMO, thunk, value, acc) keep a read argument's value
    tasks: List[tuple] = []
    push = tasks.append
    # the run starts as a stay call of the initial state, from stay -1
    body, pos, n, acc = (Call(m.initial, 0),), 0, 1, out
    g, i, params, stay = f, 0, (), -1
    while True:
        while pos < n:
            it = body[pos]
            pos += 1
            t = type(it)
            if t is Call:
                if pos < n:
                    push((_REST, body, pos, acc, g, i, params, stay))
                if it.args:
                    # a bare parameter argument aliases the caller's value:
                    # the pass-through of accumulating parameters must not
                    # copy them
                    env = (g, i, params, stay)
                    params = tuple([
                        () if not a else params[a[0].index - 1]
                        if len(a) == 1 and type(a[0]) is Param
                        else _Thunk(a, env) for a in it.args])
                else:
                    params = ()
                if it.var == 0:
                    stay += 1
                    if stay > STAY_FLOOR:
                        budget = budget or stay_budget(m)
                        if stay > budget:
                            raise StayBudgetExceeded(it.state, budget)
                elif it.var == 1:
                    g, i, stay = g[i].children, 0, 0
                else:
                    i, stay = i + 1, 0
                syms, on_text, on_other, body = table[it.state]
                if i < len(g):
                    head = g[i]
                    body = syms.get(head.label, on_text
                                    if head.kind is _TEXT else on_other)
                if body is None:
                    raise TransducerError(NO_RULE % it.state)
                pos, n = 0, len(body)
            elif t is Node:
                label, kind = it.label, it.kind
                if label is None:
                    if i == len(g):
                        raise TransducerError(NO_CURRENT_NODE)
                    label, kind = g[i].label, g[i].kind
                elif not it.children:
                    acc.append(it)  # a static leaf: terms are never mutated
                    continue
                if pos < n:
                    push((_REST, body, pos, acc, g, i, params, stay))
                child: List[Node] = []
                push((_CLOSE, label, kind, child, acc))
                body, pos, n, acc = it.children, 0, len(it.children), child
            else:
                v = params[it.index - 1]
                if type(v) is _Thunk:
                    if v.value is None:
                        if pos < n:
                            push((_REST, body, pos, acc, g, i, params, stay))
                        value: List[Node] = []
                        push((_MEMO, v, value, acc))
                        body, pos, n, acc = v.rhs, 0, len(v.rhs), value
                        g, i, params, stay = v.env
                        continue
                    v = v.value
                acc.extend(v)
        if not tasks:
            return tuple(out)
        task = tasks.pop()
        if task[0] == _REST:
            _, body, pos, acc, g, i, params, stay = task
            n = len(body)
        elif task[0] == _CLOSE:
            _, label, kind, child, acc = task
            acc.append(Node(label, kind, tuple(child)))
        else:
            _, v, value, acc = task
            v.value, v.env = tuple(value), None
            acc.extend(value)


# ---------------------------------------------------------------------------
# Tree-shaped bodies and size
# ---------------------------------------------------------------------------

def is_tree_rhs(rhs: Rhs) -> bool:
    """True iff the rhs is a single tree whose alphabet nodes are binary in
    the first-child/next-sibling view, a node's children and its right
    siblings being its two subtrees: a call or parameter leaf may not be
    followed by further items (that would need concatenation).  The walker
    product of :mod:`mfx.compose` numbers the positions of this view."""
    seqs = [rhs]
    while seqs:
        seq = seqs.pop()
        last = len(seq) - 1
        for i, it in enumerate(seq):
            t = type(it)
            if t is Node:
                seqs.append(it.children)
            elif i != last:
                return False
            elif t is Call:
                seqs.extend(it.args)
    return True


def lhs_size(m: Mft, rule: Rule) -> int:
    """Node count of a rule's left-hand side: the state, the pattern
    (σ(x1)x2 and friends count 3, eps counts 1), and one per parameter."""
    pat = 1 if rule.guard.kind == "eps" else 3
    return 1 + pat + (m.states[rule.state] - 1)


def size(m: Mft) -> int:
    """|Σ| plus the sum of left- and right-hand-side sizes over all rules."""
    total = len(m.sigma)
    for rule in m.rules.values():
        total += lhs_size(m, rule) + rhs_size(rule.rhs)
    return total


# ---------------------------------------------------------------------------
# Rule-file syntax
# ---------------------------------------------------------------------------
#
# One rule per line:   q(sigma(x1)x2, y1, y2) -> rhs
#   guards:  label(x1)x2   |  %t(x1)x2  |  %text(x1)x2  |  eps  |  %
#   (the % shorthand expands to identical default and eps rules)
# rhs: a rule body in term notation (see mfx.forest).
# An optional header line "# sigma: a b c" declares extra symbols.


class MftSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__("line %d:%d: %s" % (line, col, msg))
        self.line = line


class _RuleScanner(_TermScanner):
    """The term reader, raising :class:`MftSyntaxError` with the line."""

    def __init__(self, s: str, line: int):
        super().__init__(s)
        self.line = line

    def err(self, msg: str):
        raise MftSyntaxError(msg, self.line, self.pos)


def parse_mft(text: str) -> Mft:
    """Parse the rule-file format.  The first rule's state is the initial
    state; sigma is the declared header plus all guard symbols."""
    sigma = set()
    rules: Dict[Tuple[str, Guard], Rule] = {}
    states: Dict[str, int] = {}
    initial = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sigma:"):
                sigma.update(body[len("sigma:"):].split())
            continue
        sc = _RuleScanner(line, lineno)
        state = sc.bare()
        sc.skip_ws()
        sc.expect("(")
        sc.skip_ws()
        guards: List[Guard] = []
        c = sc.peek()
        if c == "%":
            sc.pos += 1
            sc.skip_ws()
            nxt = sc.peek()
            if nxt in (",", ")"):
                guards = [DEFAULT, EPS]  # % shorthand
            else:
                word = sc.bare()
                if word == "t":
                    guards = [DEFAULT]
                elif word == "text":
                    guards = [TEXT]
                else:
                    sc.err("unknown guard %%%s" % word)
        else:
            word = sc.quoted() if c == '"' else sc.bare()
            if word == "eps":
                guards = [EPS]
            else:
                guards = [Guard.sym(word)]
                sigma.add(word)
        if guards[0] is not EPS and guards != [DEFAULT, EPS]:
            sc.skip_ws()
            sc.expect("(")
            sc.skip_ws()
            if sc.bare() != "x1":
                sc.err("guard pattern must be (x1)x2")
            sc.skip_ws()
            sc.expect(")")
            sc.skip_ws()
            if sc.bare() != "x2":
                sc.err("guard pattern must be (x1)x2")
        params = 0
        sc.skip_ws()
        while sc.peek() == ",":
            sc.pos += 1
            sc.skip_ws()
            word = sc.bare()
            if not (word.startswith("y") and word[1:].isdigit()):
                sc.err("expected parameter y<i> in left-hand side")
            params += 1
            if int(word[1:]) != params:
                sc.err("parameters must be y1..yn in order")
            sc.skip_ws()
        sc.expect(")")
        sc.skip_ws()
        if sc.s[sc.pos:sc.pos + 2] != "->":
            sc.err("expected ->")
        sc.pos += 2
        rhs = sc.rhs()
        rank = params + 1
        if state in states and states[state] != rank:
            sc.err("state %s used with ranks %d and %d"
                   % (state, states[state], rank))
        states[state] = rank
        if initial is None:
            initial = state
        for g in guards:
            if (state, g) in rules:
                sc.err("duplicate rule for %s/%s" % (state, g))
            rules[(state, g)] = Rule(state, g, rhs)

    if initial is None:
        raise MftSyntaxError("no rules", 0)
    return Mft(states, sigma, initial, rules)


def print_mft(m: Mft) -> str:
    """Canonical rule-file text: sigma header, initial state's rules first,
    guards in symbol/text/default/eps order."""
    lines = []
    if m.sigma:
        lines.append("# sigma: " + " ".join(sorted(m.sigma)))
    # state -> its rules, each behind its guard's sort key (unique per state)
    rules_of: Dict[str, List[tuple]] = {}
    for (q, g), rule in m.rules.items():
        entry = _guard_order(g) + (rule,)
        got = rules_of.get(q)
        if got is None:
            rules_of[q] = [entry]
        else:
            got.append(entry)
    texts: Dict[int, str] = {}  # a body's text by its id: rules share some
    posts: Dict[int, str] = {}  # rank -> the end of an lhs, parameters on
    for q in [m.initial] + sorted(m.states.keys() - {m.initial}):
        entries = rules_of.get(q)
        if entries is None:
            continue
        entries.sort()
        pre = q + "("
        rank = m.states[q]
        post = posts.get(rank)
        if post is None:
            post = posts[rank] = "".join(
                [", y%d" % i for i in range(1, rank)]) + ") -> "
        for _, _, rule in entries:
            g = rule.guard
            if g.kind == "eps":
                lhs = pre + "eps" + post
            elif g.kind == "sym":
                lhs = (pre + (_quote(g.label) if _label_needs_quotes(g.label)
                              else g.label) + "(x1)x2" + post)
            else:
                lhs = pre + _GUARD_TEXT[g.kind] + "(x1)x2" + post
            text = texts.get(id(rule.rhs))
            if text is None:
                text = texts[id(rule.rhs)] = rule.rhs_text
            lines.append(lhs + text)
    return "\n".join(lines) + "\n"
