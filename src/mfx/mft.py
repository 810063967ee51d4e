"""Macro forest transducers: representation, validation, evaluation.

A transducer has a ranked state set (rank = 1 + number of accumulating
parameters), a symbol alphabet, an initial state of rank 1, and at most one
rule per (state, guard).  Guards are: a symbol of the alphabet, the text
guard (matching any text node not caught by a symbol rule), the default
guard ``%t`` (any other node), and ``eps`` (the empty forest).  Every state
must carry exactly one default and one eps rule, which is what makes the
machine total and deterministic.

Rule right-hand sides are forest expressions: sequences of output nodes
(whose label may be ``%t`` = "copy the current input label"), parameter
leaves ``y<i>``, and state calls ``q(x<i>, arg, ...)`` where ``x0`` is the
current position (a stay move), ``x1`` the children of the matched node and
``x2`` its following siblings.

Rule selection on a forest g: the eps rule if g is empty, else the symbol
rule for the head label if present, else the text rule if the head is a
text node and the state has one, else the default rule.  Note that symbol
rules match by label regardless of node kind; this is what makes string
comparison guards work, and is a documented limitation for pathological
documents whose text content collides with alphabet symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .forest import Forest, NodeKind, Tree, _label_needs_quotes, _quote
from . import forest as F

# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """Output node; ``label=None`` means %t (copy the current input label)."""

    label: Optional[str]
    kind: NodeKind = NodeKind.ELEMENT
    children: "Rhs" = ()


@dataclass(frozen=True)
class Param:
    index: int  # 1-based


@dataclass(frozen=True)
class Call:
    state: str
    var: int  # 0, 1 or 2
    args: Tuple["Rhs", ...] = ()


Rhs = Tuple[object, ...]


def rhs_nodes(rhs: Rhs) -> Iterator[object]:
    """All items of an rhs, including nested ones, in prefix order."""
    stack = list(reversed(rhs))
    while stack:
        it = stack.pop()
        yield it
        if isinstance(it, Node):
            stack.extend(reversed(it.children))
        elif isinstance(it, Call):
            for a in reversed(it.args):
                stack.extend(reversed(a))


def positions(rhs: Rhs) -> Iterator[Tuple[Tuple[int, ...], Rhs]]:
    """An rhs as a binary tree: ``(address, sub-rhs)`` in prefix order, a
    node at u with its children at u.1 and its right siblings at u.2, a
    call at u with its arguments at u.2, u.3, ...  The sub-rhs at u starts
    with the item at u (empty at a leaf ε); not tree-shaped tails after a
    call or parameter have no position."""
    stack = [((), rhs)]
    while stack:
        u, sub = stack.pop()
        yield u, sub
        if not sub:
            continue
        head = sub[0]
        if isinstance(head, Node):
            stack.append((u + (2,), sub[1:]))
            stack.append((u + (1,), head.children))
        elif isinstance(head, Call):
            stack.extend(reversed([(u + (j,), a)
                                   for j, a in enumerate(head.args, 2)]))


def map_rhs(rhs: Rhs, fn) -> Rhs:
    """Rebuild an rhs item by item.  ``fn(item, rec)`` returns the items
    that replace ``item``, or None to keep it with its children and call
    arguments rebuilt by ``rec`` (which maps an rhs the same way)."""

    def rec(seq: Rhs) -> Rhs:
        out: List = []
        for it in seq:
            got = fn(it, rec)
            if got is not None:
                out.extend(got)
            elif type(it) is Node:
                out.append(Node(it.label, it.kind, rec(it.children)))
            elif type(it) is Call:
                out.append(Call(it.state, it.var, tuple(map(rec, it.args))))
            else:
                out.append(it)
        return tuple(out)

    return rec(rhs)


def rhs_size(rhs: Rhs) -> int:
    """Node count of an rhs term: output nodes, parameter leaves, and for
    each call the state plus its input variable."""
    total = 0
    for it in rhs_nodes(rhs):
        total += 2 if isinstance(it, Call) else 1
    return total


# ---------------------------------------------------------------------------
# Guards and rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    kind: str  # "sym" | "text" | "default" | "eps"
    label: Optional[str] = None

    @staticmethod
    def sym(label: str) -> "Guard":
        return Guard("sym", label)

    def __str__(self) -> str:
        if self.kind == "sym":
            return self.label
        return {"text": "%text", "default": "%t", "eps": "eps"}[self.kind]


TEXT = Guard("text")
DEFAULT = Guard("default")
EPS = Guard("eps")


@dataclass(frozen=True)
class Rule:
    state: str
    guard: Guard
    rhs: Rhs


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


def _guard_order(g: Guard):
    k = {"sym": 0, "text": 1, "default": 2, "eps": 3}[g.kind]
    return (k, g.label or "")


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
    if m.initial not in m.states:
        out.append("initial state %s undeclared" % m.initial)
    elif m.states[m.initial] != 1:
        out.append("initial state %s must have rank 1" % m.initial)
    for q, rank in m.states.items():
        if rank < 1:
            out.append("state %s has rank %d < 1" % (q, rank))
    seen_default = {q: 0 for q in m.states}
    seen_eps = {q: 0 for q in m.states}
    for (q, g), rule in m.rules.items():
        where = "%s/%s" % (q, g)
        if q not in m.states:
            out.append("%s: rule for undeclared state" % where)
            continue
        if g.kind == "sym" and g.label not in m.sigma:
            out.append("%s: guard symbol not in sigma" % where)
        if g.kind == "default":
            seen_default[q] += 1
        if g.kind == "eps":
            seen_eps[q] += 1
        out.extend(_check_rhs(m, rule, where))
    for q in m.states:
        if seen_default.get(q, 0) != 1:
            out.append("%s: needs exactly one default rule, has %d"
                       % (q, seen_default.get(q, 0)))
        if seen_eps.get(q, 0) != 1:
            out.append("%s: needs exactly one eps rule, has %d"
                       % (q, seen_eps.get(q, 0)))
    return out


def _check_rhs(m: Mft, rule: Rule, where: str) -> List[str]:
    out = []
    nparams = m.states.get(rule.state, 1) - 1
    allow_copy = rule.guard.kind in ("default", "text")
    for it in rhs_nodes(rule.rhs):
        if isinstance(it, Param):
            if not 1 <= it.index <= nparams:
                out.append("%s: parameter y%d out of range" % (where, it.index))
        elif isinstance(it, Call):
            if it.state not in m.states:
                out.append("%s: call to undeclared state %s" % (where, it.state))
            elif len(it.args) != m.states[it.state] - 1:
                out.append("%s: call to %s with %d args, expected %d"
                           % (where, it.state, len(it.args),
                              m.states[it.state] - 1))
            if it.var not in (0, 1, 2):
                out.append("%s: bad input variable x%d" % (where, it.var))
            elif rule.guard.kind == "eps" and it.var != 0:
                out.append("%s: eps rule may only use x0" % where)
        elif isinstance(it, Node):
            if it.label is None and not allow_copy:
                out.append("%s: %%t output outside default/text rule" % where)
            if it.label is not None and it.label == F.CONCAT \
                    and it.kind is not NodeKind.ELEMENT:
                out.append("%s: @ must be an element" % where)
    return out


# ---------------------------------------------------------------------------
# Evaluation (the in-memory oracle)
# ---------------------------------------------------------------------------


class StayBudgetExceeded(RuntimeError):
    def __init__(self, state: str, budget: int):
        super().__init__(
            "stay-move budget exceeded in state %s (%d consecutive "
            "non-consuming steps); the transducer likely loops" % (state, budget))
        self.state = state


class _Thunk:
    """A call argument and its caller's environment; ``value`` is the
    argument's forest once a rule has read the parameter."""

    __slots__ = ("rhs", "env", "value")

    def __init__(self, rhs: Rhs, env: "_Env"):
        self.rhs, self.env, self.value = rhs, env, None


class _Env:
    """A rule application: input position x0 = forest[index:], unsliced."""

    __slots__ = ("forest", "index", "params", "stay")

    def __init__(self, forest, index, params, stay):
        self.forest = forest
        self.index = index
        self.params = params
        self.stay = stay


def evaluate(m: Mft, f: Forest) -> Forest:
    """Run the transducer on a forest and return the output forest.

    The evaluator is iterative (explicit work stack), so input depth and
    width are only limited by memory.  An input position is a forest and
    an index into it: x1 and x2 copy nothing, so time is linear in the
    width.  Call arguments are evaluated by need, at most once each:
    composed transducers pass many parameter copies that no rule reads,
    and evaluating those eagerly can take time exponential in the input.
    More than ``max(100, 10 * size(m))`` consecutive stay moves raise
    :class:`StayBudgetExceeded`, naming the looping state.
    """
    stay_budget = max(100, 10 * size(m))
    table = dispatch_table(m)

    out: List[Tree] = []
    # ops: ("seq", rhs, env, acc) expand items in order into acc
    #      ("item", item, env, acc) expand one item into acc
    #      ("close", label, kind, child_acc, acc) wrap finished children
    #      ("memo", thunk, value_acc, acc) keep a read argument's value
    #      ("apply", state, g, i, params, acc, stay) enter a rule at g[i]
    stack = [("apply", m.initial, f, 0, (), out, 0)]
    while stack:
        op = stack.pop()
        tag = op[0]
        if tag == "seq":
            _, rhs, env, acc = op
            stack.extend(("item", it, env, acc) for it in reversed(rhs))
        elif tag == "item":
            _, it, env, acc = op
            if isinstance(it, Param):
                v = env.params[it.index - 1]
                if type(v) is _Thunk and v.value is None:
                    value_acc: List[Tree] = []
                    stack.append(("memo", v, value_acc, acc))
                    stack.append(("seq", v.rhs, v.env, value_acc))
                else:
                    acc.extend(v.value if type(v) is _Thunk else v)
            elif isinstance(it, Node):
                if it.label is None:
                    if env.index == len(env.forest):
                        raise ValueError("%t output with no current input node")
                    head = env.forest[env.index]
                    label, kind = head.label, head.kind
                else:
                    label, kind = it.label, it.kind
                child_acc: List[Tree] = []
                stack.append(("close", label, kind, child_acc, acc))
                stack.append(("seq", it.children, env, child_acc))
            else:
                if it.var == 0:
                    g, i, stay = env.forest, env.index, env.stay + 1
                    if stay > stay_budget:
                        raise StayBudgetExceeded(it.state, stay_budget)
                elif it.var == 1:
                    g, i, stay = env.forest[env.index].children, 0, 0
                else:
                    g, i, stay = env.forest, env.index + 1, 0
                # a bare parameter argument aliases the caller's value: the
                # pass-through of accumulating parameters must not copy them
                params = tuple(
                    env.params[arg[0].index - 1]
                    if len(arg) == 1 and isinstance(arg[0], Param)
                    else _Thunk(arg, env) if arg else ()
                    for arg in it.args)
                stack.append(("apply", it.state, g, i, params, acc, stay))
        elif tag == "close":
            _, label, kind, child_acc, acc = op
            acc.append(Tree(label, kind, tuple(child_acc)))
        elif tag == "memo":
            _, thunk, value_acc, acc = op
            thunk.value, thunk.env = tuple(value_acc), None
            acc.extend(value_acc)
        elif tag == "apply":
            _, state, g, i, params, acc, stay = op
            syms, on_text, on_other, on_eps = table[state]
            if i == len(g):
                rhs = on_eps
            else:
                head = g[i]
                rhs = syms.get(head.label, on_text
                               if head.kind is NodeKind.TEXT else on_other)
            if rhs is None:
                raise ValueError("state %s has no rule to apply" % state)
            stack.append(("seq", rhs, _Env(g, i, params, stay), acc))
    return tuple(out)


# ---------------------------------------------------------------------------
# Classification and size
# ---------------------------------------------------------------------------

def is_tree_rhs(rhs: Rhs) -> bool:
    """True iff the rhs is a single tree whose alphabet nodes are binary in
    the first-child/next-sibling view (:func:`positions`): a call or
    parameter leaf may not be followed by further items (that would need
    concatenation)."""
    return all(len(sub) == 1 for _, sub in positions(rhs)
               if sub and not isinstance(sub[0], Node))


def classify(m: Mft) -> str:
    """The smallest of TT ⊂ FT ⊂ MTT ⊂ MFT containing the transducer."""
    rank1 = all(r == 1 for r in m.states.values())
    tree = all(is_tree_rhs(rule.rhs) for rule in m.rules.values())
    if rank1:
        return "TT" if tree else "FT"
    return "MTT" if tree else "MFT"


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
# rhs: space-separated items; q(x0, arg, ...) is a state call (first
# argument must be x0/x1/x2), label(...) an output node, #"..." a text
# node, @name(...) an attribute node, %t(...) copies the current label,
# y<i> a parameter, eps the empty forest.
# An optional header line "# sigma: a b c" declares extra symbols.


class MftSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 0):
        super().__init__("line %d:%d: %s" % (line, col, msg))
        self.line = line


_X_VARS = {"x0": 0, "x1": 1, "x2": 2}


class _RuleScanner(F._TermScanner):
    def __init__(self, s: str, line: int):
        super().__init__(s)
        self.line = line

    def err(self, msg: str):
        raise MftSyntaxError(msg, self.line, self.pos)


def _parse_rhs_items(sc: _RuleScanner, stop: str) -> Rhs:
    items = []
    while True:
        sc.skip_ws()
        c = sc.peek()
        if c == "" or c in stop:
            break
        it = _parse_rhs_item(sc)
        if it != ():  # a bare "eps" contributes nothing
            items.append(it)
    return tuple(items)


def _parse_rhs_item(sc: _RuleScanner):
    c = sc.peek()
    if c == "#":
        sc.pos += 1
        return Node(sc.quoted(), NodeKind.TEXT, ())
    kind = NodeKind.ELEMENT
    copy_label = False
    if c == "@":
        sc.pos += 1
        kind = NodeKind.ATTRIBUTE
        c = sc.peek()
    if c == "%":
        sc.pos += 1
        word = sc.bare()
        if word != "t":
            sc.err("unknown %%%s" % word)
        copy_label = True
        label = None
    elif c == '"':
        label = sc.quoted()
    else:
        word = sc.bare()
        sc.skip_ws()
        if sc.peek() != "(":
            # bare word: parameter or eps
            if word == "eps":
                return ()
            if word.startswith("y") and word[1:].isdigit():
                return Param(int(word[1:]))
            sc.err("bare label %r (parameters are y<i>)" % word)
        label = word
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    # state call if the first token is an input variable
    mark = sc.pos
    if sc.peek() not in ('"', ")", "#", "%", "@"):
        word = sc.bare()
        if word in _X_VARS and not copy_label:
            var = _X_VARS[word]
            args = []
            sc.skip_ws()
            while sc.peek() == ",":
                sc.pos += 1
                args.append(_parse_rhs_items(sc, stop=",)"))
                sc.skip_ws()
            sc.expect(")")
            return Call(label, var, tuple(args))
        sc.pos = mark
    children = _parse_rhs_items(sc, stop=")")
    sc.skip_ws()
    sc.expect(")")
    if copy_label:
        return Node(None, NodeKind.ELEMENT, children)
    return Node(label, kind, children)


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
        rhs = _parse_rhs_items(sc, stop="")
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


def _print_rhs(rhs: Rhs) -> str:
    if not rhs:
        return "eps"
    return " ".join(_print_item(it) for it in rhs)


def _print_item(it) -> str:
    if isinstance(it, Param):
        return "y%d" % it.index
    if isinstance(it, Call):
        parts = ["x%d" % it.var] + [_print_rhs(a) for a in it.args]
        return "%s(%s)" % (it.state, ", ".join(parts))
    if it.label is None:
        return "%%t(%s)" % _print_seq(it.children)
    if it.kind is NodeKind.TEXT:
        return "#" + _quote(it.label)
    name = _quote(it.label) if _label_needs_quotes(it.label) else it.label
    prefix = "@" if it.kind is NodeKind.ATTRIBUTE else ""
    return "%s%s(%s)" % (prefix, name, _print_seq(it.children))


def _print_seq(rhs: Rhs) -> str:
    return " ".join(_print_item(it) for it in rhs)


def print_mft(m: Mft) -> str:
    """Canonical rule-file text: sigma header, initial state's rules first,
    guards in symbol/text/default/eps order."""
    lines = []
    if m.sigma:
        lines.append("# sigma: " + " ".join(sorted(m.sigma)))
    rules_of: Dict[str, List[Rule]] = {}
    for (q, g), rule in sorted(m.rules.items(),
                               key=lambda kv: _guard_order(kv[0][1])):
        rules_of.setdefault(q, []).append(rule)
    state_order = [m.initial] + sorted(q for q in m.states if q != m.initial)
    for q in state_order:
        nparams = m.states[q] - 1
        ys = "".join(", y%d" % i for i in range(1, nparams + 1))
        for rule in rules_of.get(q, ()):
            g = rule.guard
            if g.kind == "eps":
                lhs = "%s(eps%s)" % (q, ys)
            else:
                pat = {"text": "%text", "default": "%t"}.get(g.kind)
                if pat is None:
                    pat = _quote(g.label) if _label_needs_quotes(g.label) else g.label
                lhs = "%s(%s(x1)x2%s)" % (q, pat, ys)
            lines.append("%s -> %s" % (lhs, _print_rhs(rule.rhs)))
    return "\n".join(lines) + "\n"
