"""Shared test helpers: forest and term constructors, byte-level and
step-by-step runners, reference oracles that only the tests use
(automaton-driven path selection, necessary parameters, transducer
classes), query size and printing, a structural check of forests and
random generators.

The generators keep element-name and text-content alphabets disjoint
(text contents double as comparison constants), which is the regime the
compiled guard model is exact in; see the compile module docstring.
Random transducers terminate by construction: calls consume input (x1 or
x2), except stay calls into designated call-free states and, on request,
into states drawn after the caller.
"""

from __future__ import annotations

import io
import random
from collections import deque
from typing import Dict, List, Set, Tuple

from mfx.bench import CORPUS_QUERIES
from mfx.compile import compile_text
from mfx.forest import (Forest, NodeKind, TermError, _TermScanner,
                        coalesce_text, ground)
from mfx.mft import (Call, DEFAULT, EPS, Guard, Mft, Node, Param, Rule, TEXT,
                     _guard_order, evaluate, is_tree_rhs, map_rhs, print_mft,
                     rhs_nodes, validate)
from mfx.optimize import bare_params, optimize
from mfx.paths import Numbering, PathAutomaton
from mfx.stream import Engine, StreamStats, stream_run
from mfx.xmlio import (EOF, StartElement, Text, forest_events,
                       forest_to_bytes, push, read_events, sink_to)
from mfx.xquery import (Element, For, Let, NodeTest, Path, PathExpr, Predicate,
                        Sequence, Step, StringLit)

ELEM_LABELS = ("a", "b", "c")
TEXT_CONTENTS = ("t1", "t2", "t3")


def elem(label: str, *children: Node) -> Node:
    return Node(label, NodeKind.ELEMENT, tuple(children))


def text(content: str) -> Node:
    return Node(content, NodeKind.TEXT, ())


def attr(name: str, value: str) -> Node:
    return Node(name, NodeKind.ATTRIBUTE, (text(value),))


def parse_term(s: str) -> Forest:
    """Parse the term notation of a forest with the rule-body reader;
    ``eps`` or the empty string is ε."""
    f = ground(_TermScanner(s).rhs())
    if f is None:
        raise TermError("a forest has no calls, parameters or %t", 0)
    return f


def classify(m: Mft) -> str:
    """The smallest of TT ⊂ FT ⊂ MTT ⊂ MFT containing the transducer."""
    rank1 = all(r == 1 for r in m.states.values())
    tree = all(is_tree_rhs(rule.rhs) for rule in m.rules.values())
    if rank1:
        return "TT" if tree else "FT"
    return "MTT" if tree else "MFT"


def corpus_transducer(name: str, no_opt: bool = False) -> Mft:
    m = compile_text(CORPUS_QUERIES[name])
    return m if no_opt else optimize(m)


def count_nodes(events) -> int:
    """Element and text nodes of an event stream."""
    return sum(1 for ev in events if type(ev) in (StartElement, Text))


def stream_bytes(m: Mft, xml: bytes) -> Tuple[bytes, StreamStats]:
    """XML bytes in, serialised output bytes and stats out."""
    out = io.BytesIO()
    stats = stream_run(m, read_events(xml), sink_to(out))
    return out.getvalue(), stats


def measure(m: Mft, src) -> StreamStats:
    """Like ``stream_run`` with the output discarded."""
    return stream_run(m, src, lambda batch: None)


def stepped(m: Mft, events: list, force_drive: bool = False):
    """Run ``m`` over an event list, ending at ``Eof``, through
    ``xmlio.push`` and ``Engine.finish``.  Returns the output of each step
    keyed by the index of its input event in the list (``finish``'s under
    the ``Eof``'s), and the engine.  A skipped event has no step, so a run
    that skips dead input compares with one that buffers it.  With
    ``force_drive`` the engine runs its task stack on every event, as if it
    waited on no cell."""
    at = [0]
    steps: Dict[int, list] = {}
    eng = Engine(m, lambda batch: steps.setdefault(at[0], []).extend(batch))
    feed = eng.feed

    def forced(kind, label):
        eng._waiting = None
        return feed(kind, label)

    def source():
        for at[0], ev in enumerate(events):
            yield ev

    push(source(), forced if force_drive else feed)
    eng.finish()
    return steps, eng


def run_bytes(m: Mft, f: Forest) -> bytes:
    return forest_to_bytes(coalesce_text(evaluate(m, f)))


def flat_events(events) -> list:
    """An event stream as its serialisation reads, whether or not that is
    well formed (an attribute may follow content): without ``Eof`` and
    empty text, adjacent text events merged."""
    out: list = []
    for ev in events:
        if ev is EOF or type(ev) is Text and not ev.content:
            continue
        if type(ev) is Text and out and type(out[-1]) is Text:
            out[-1] = Text(out[-1].content + ev.content)
        else:
            out.append(ev)
    return out


def eval_events(m: Mft, f: Forest) -> list:
    return flat_events(forest_events(evaluate(m, f)))


def engine_events(m: Mft, f: Forest) -> list:
    """The engine's output on the events of ``f``, fed without parsing."""
    out: list = []
    stream_run(m, iter(list(forest_events(f)) + [EOF]), out.extend)
    return flat_events(out)


def check_forest(f: Forest) -> list:
    """Structural invariant check; returns a list of violation messages.

    Checked: non-empty labels, text nodes are leaves, attribute nodes have
    exactly one text child, no two adjacent text siblings.
    Text content read from XML attribute values may be empty, so emptiness
    is only enforced for element and attribute labels.
    """
    problems = []
    # one frame per open level: its path and the children left to check
    stack = [("", enumerate(f))]
    prev_text = False
    while stack:
        path, todo = stack[-1]
        for i, t in todo:
            where = "%s[%d]" % (path, i)
            if t.kind is NodeKind.TEXT:
                if t.children:
                    problems.append("%s: text node with children" % where)
                if prev_text:
                    problems.append("%s: adjacent text siblings" % where)
                prev_text = True
                continue
            prev_text = False
            if not t.label:
                problems.append("%s: empty label" % where)
            if t.kind is NodeKind.ATTRIBUTE:
                ok = len(t.children) == 1 and t.children[0].kind is NodeKind.TEXT
                if not ok:
                    problems.append(
                        "%s: attribute must have exactly one text child" % where
                    )
            stack.append((where + "/" + t.label, enumerate(t.children)))
            break
        else:
            stack.pop()
            prev_text = False
    return problems


def oracle_bytes(ast, f: Forest) -> bytes:
    from mfx.xqeval import eval_query
    return forest_to_bytes(coalesce_text(eval_query(ast, f)))


def necessary_params_oracle(m: Mft) -> Set[Tuple[str, int]]:
    """``optimize.necessary_params`` via an explicit dependency graph and
    breadth-first search; used to cross-check the fixpoint."""
    edges: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
    seeds: Set[Tuple[str, int]] = set()
    for rule in m.rules.values():
        for i in bare_params(rule.rhs):
            seeds.add((rule.state, i))
        for call in rhs_nodes(rule.rhs):
            if not isinstance(call, Call):
                continue
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


def canonical_mft(m: Mft) -> str:
    """``print_mft`` of the transducer with its states renamed ``s0``,
    ``s1``, ... in breadth-first order from the initial state, each state's
    rules taken in guard order and each rule's calls in prefix order; two
    transducers print alike iff they are equal up to state names.  Every
    state must be reachable."""
    rules_of: Dict[str, List[Rule]] = {}
    for (q, g), rule in sorted(m.rules.items(),
                               key=lambda kv: _guard_order(kv[0][1])):
        rules_of.setdefault(q, []).append(rule)
    names = {m.initial: "s0"}
    todo = deque([m.initial])
    while todo:
        for rule in rules_of.get(todo.popleft(), ()):
            for it in rhs_nodes(rule.rhs):
                if isinstance(it, Call) and it.state not in names:
                    names[it.state] = "s%d" % len(names)
                    todo.append(it.state)
    if len(names) != len(m.states):
        raise ValueError("unreachable states: %s"
                         % ", ".join(sorted(set(m.states) - set(names))))

    def rename(it):
        if isinstance(it, Call):
            return (Call(names[it.state], it.var, it.args),)
        return None

    rules = {(names[q], g): Rule(names[q], g, map_rhs(r.rhs, rename))
             for (q, g), r in m.rules.items()}
    return print_mft(Mft({names[q]: k for q, k in m.states.items()},
                         m.sigma, "s0", rules))


def automaton_select(auto: PathAutomaton, doc: Numbering,
                     anchor: int = 0) -> List[int]:
    """Selection driven by the automaton alone (predicate-free paths), as
    pre-order numbers of ``doc``: one walk down and along the siblings
    from the anchor, comparable with ``paths.select_ctx``."""
    if any(s.predicates for s in auto.steps):
        raise ValueError("automaton selection requires a predicate-free path")
    trees, end, sigma = doc.trees, doc.end, auto.sigma
    if auto.anchored:
        if anchor == 0:
            raise ValueError("anchored selection needs a real anchor")
        first, stop = anchor, end[doc.parent[anchor]]
    elif auto.k and auto.steps[0].axis == "following-sibling":
        # an unanchored scan seeded by a sibling axis runs over the
        # anchor's following siblings (none for the virtual document node)
        first, stop = end[anchor], end[doc.parent[anchor]]
    else:
        first, stop = anchor + 1, end[anchor]
    out: List[int] = []
    todo = [(auto.initial(), first, stop)]  # (state, next sibling, stop)
    while todo:
        state, j, stop = todo.pop()
        if not state or j >= stop:
            continue
        t = trees[j]
        sel, down, right = auto.move(state, (
            t.label if t.label in sigma else None, t.kind is NodeKind.TEXT))
        if sel:
            out.append(j)
        todo.append((right, end[j], stop))
        todo.append((down, j + 1, end[j]))  # children first: pre-order
    return out


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


# ---------------------------------------------------------------------------
# Query size and printing
# ---------------------------------------------------------------------------


def query_size(q) -> int:
    """Parse-tree node count: one per construct, element, literal, variable
    occurrence, step, node test, predicate and comparison constant."""
    if isinstance(q, Element):
        return 1 + sum(query_size(c) for c in q.children)
    if isinstance(q, StringLit):
        return 1
    if isinstance(q, Sequence):
        return 1 + sum(query_size(c) for c in q.items)
    if isinstance(q, For):
        return 1 + 1 + path_size(q.path) + query_size(q.body)
    if isinstance(q, Let):
        return 1 + 1 + query_size(q.bound) + query_size(q.body)
    if isinstance(q, PathExpr):
        return 1 + path_size(q.path)
    raise TypeError(q)


def path_size(p: Path) -> int:
    return 1 + sum(_step_size(s) for s in p.steps)


def _step_size(s: Step) -> int:
    n = 2  # step + node test
    for pred in s.predicates:
        n += 1 + sum(_step_size(ps) for ps in pred.steps)
        if pred.value is not None:
            n += 1
    return n


def pretty(q) -> str:
    """Parseable text for an AST (axes always explicit)."""
    if isinstance(q, Element):
        inner = []
        for c in q.children:
            if isinstance(c, Element):
                inner.append(pretty(c))
            elif isinstance(c, StringLit):
                inner.append(c.value)
            else:
                inner.append("{ %s }" % pretty(c))
        return "<%s>%s</%s>" % (q.name, "".join(inner), q.name)
    if isinstance(q, StringLit):
        return q.value
    if isinstance(q, For):
        return "for $%s in %s return %s" % (q.var, pretty_path(q.path),
                                            pretty(q.body))
    if isinstance(q, Let):
        return "let $%s := %s return %s" % (q.var, pretty(q.bound),
                                            pretty(q.body))
    if isinstance(q, PathExpr):
        return pretty_path(q.path)
    if isinstance(q, Sequence):
        return "(%s)" % ", ".join(pretty(c) for c in q.items)
    raise TypeError(q)


def pretty_path(p: Path) -> str:
    return "$%s%s" % (p.start, "".join(_pretty_step(s) for s in p.steps))


def _pretty_step(s: Step) -> str:
    preds = "".join("[%s]" % _pretty_pred(p) for p in s.predicates)
    return "/%s::%s%s" % (s.axis, s.test, preds)


def _pretty_pred(p: Predicate) -> str:
    steps = "." + "".join(_pretty_step(s) for s in p.steps)
    if p.kind == "exists":
        return steps
    if p.kind == "empty":
        return "empty(%s)" % steps
    op = "=" if p.kind == "eq" else "!="
    return '%s %s "%s"' % (steps, op, p.value)


# ---------------------------------------------------------------------------
# Random documents
# ---------------------------------------------------------------------------


def random_forest(rng: random.Random, budget: int = 12,
                  labels=ELEM_LABELS, contents=TEXT_CONTENTS,
                  attrs: bool = False) -> Forest:
    """A small well-formed forest (no adjacent text siblings)."""

    def gen(budget: int, depth: int):
        items = []
        last_text = False
        while budget > 0 and rng.random() < 0.7:
            if not last_text and rng.random() < 0.3:
                items.append(text(rng.choice(contents)))
                budget -= 1
                last_text = True
                continue
            last_text = False
            if attrs and items == [] and depth > 0 and rng.random() < 0.2:
                items.append(Node(rng.choice(labels), NodeKind.ATTRIBUTE,
                                  (text(rng.choice(contents)),)))
                budget -= 2
                continue
            kids, budget = ([], budget - 1)
            if depth < 4 and rng.random() < 0.6:
                sub = gen(min(budget, rng.randrange(1, 6)), depth + 1)
                kids = list(sub)
                budget -= sum(1 for _ in sub)
            items.append(elem(rng.choice(labels), *kids))
        return tuple(items)

    return gen(budget, 0)


def random_person_doc(rng: random.Random) -> Forest:
    """Documents shaped like the person example: top-level person
    elements whose children mix p_id, name and noise in random order."""
    persons = []
    for _ in range(rng.randrange(1, 4)):
        kids = []
        for _ in range(rng.randrange(1, 6)):
            k = rng.random()
            if k < 0.35:
                inner = []
                if rng.random() < 0.4:
                    inner.append(elem("a"))
                inner.append(text(rng.choice(("person0", "perso7", "person1"))))
                kids.append(elem("p_id", *inner))
            elif k < 0.7:
                kids.append(elem("name", text(rng.choice(("Jim", "Li", "Ada")))))
            else:
                kids.append(elem("c"))
        persons.append(elem("person", *kids))
    if rng.random() < 0.3:
        persons.append(elem("other", text("noise")))
    return tuple(persons)


# ---------------------------------------------------------------------------
# Random queries (scoped by construction)
# ---------------------------------------------------------------------------


def random_query(rng: random.Random, max_depth: int = 4,
                 predicates: bool = True):
    from mfx.xquery import (Element, For, Let, PathExpr, Sequence, StringLit)

    names = iter("vwxyzuvw%d" % rng.randrange(100))
    counter = [0]

    def fresh_var():
        counter[0] += 1
        return "v%d" % counter[0]

    def gen_test():
        r = rng.random()
        if r < 0.6:
            return NodeTest("name", rng.choice(ELEM_LABELS))
        if r < 0.75:
            return NodeTest("star")
        if r < 0.9:
            return NodeTest("text")
        return NodeTest("node")

    def gen_pred(depth):
        steps = tuple(gen_step(depth + 1, allow_preds=False)
                      for _ in range(rng.randrange(1, 3)))
        r = rng.random()
        if r < 0.4:
            return Predicate("exists", steps)
        if r < 0.6:
            return Predicate("empty", steps)
        kind = "eq" if rng.random() < 0.7 else "neq"
        return Predicate(kind, steps, rng.choice(TEXT_CONTENTS))

    def gen_step(depth, allow_preds=True):
        axis = rng.choice(("child", "child", "descendant",
                           "following-sibling"))
        preds = ()
        if allow_preds and predicates and depth < 3 and rng.random() < 0.25:
            preds = (gen_pred(depth),)
        return Step(axis, gen_test(), preds)

    def gen_path(var, depth):
        steps = tuple(gen_step(depth) for _ in range(rng.randrange(1, 4)))
        return Path(var, steps)

    def gen(depth, nearest, in_scope, in_element=False):
        r = rng.random()
        if depth >= max_depth or r < 0.25:
            # leaves: literal (element content only), output variable, path
            k = rng.random()
            if in_element and k < 0.3:
                return StringLit(rng.choice(("hi", "ho")))
            if k < 0.5 and in_scope:
                return PathExpr(Path(rng.choice(sorted(in_scope))))
            return PathExpr(gen_path(nearest, depth))
        if r < 0.5:
            var = fresh_var()
            return For(var, gen_path(nearest, depth),
                       gen(depth + 1, var, in_scope | {var}))
        if r < 0.65:
            var = fresh_var()
            return Let(var, gen(depth + 1, nearest, in_scope),
                       gen(depth + 1, nearest, in_scope | {var}))
        if r < 0.9:
            kids: list = []
            for _ in range(rng.randrange(0, 3)):
                c = gen(depth + 1, nearest, in_scope, in_element=True)
                if kids and isinstance(c, StringLit) \
                        and isinstance(kids[-1], StringLit):
                    continue  # adjacent literals are textually one
                kids.append(c)
            return Element(rng.choice(("r", "s")), tuple(kids))
        return Sequence(tuple(gen(depth + 1, nearest, in_scope)
                              for _ in range(rng.randrange(2, 4))))

    return gen(0, "input", {"input"})


# ---------------------------------------------------------------------------
# Random transducers
# ---------------------------------------------------------------------------


def random_mft(rng: random.Random, tree_shaped: bool = False,
               max_rank: int = 3, copies: bool = False,
               stays: bool = False) -> Mft:
    """A small valid terminating transducer over sigma = {a, b, c}.  With
    ``copies``, output nodes may also be %t (in default and text rules)
    and an output element may start with an attribute.  With ``stays``, a
    call of a state drawn after the caller may also be an x0 call, so
    stay chains stay acyclic.  Without them no random number is drawn for
    these, so a seed's draw does not change."""
    sigma = ELEM_LABELS
    nstates = rng.randrange(2, 5)
    names = ["m%d" % i for i in range(nstates)]
    ranks = {names[0]: 1}
    for q in names[1:]:
        ranks[q] = 1 if tree_shaped is None else rng.randrange(1, max_rank + 1)
    if tree_shaped:
        ranks = {q: rng.randrange(1, max_rank + 1) for q in names}
        ranks[names[0]] = 1
    # a call-free state stay moves may safely target
    literal = "lit"
    ranks[literal] = 1

    def gen_rhs(q: str, depth: int, eps_rule: bool, copy_rule: bool = False):
        m = ranks[q] - 1
        items = []
        n = rng.randrange(0, 3) if depth else rng.randrange(1, 4)
        for _ in range(n):
            r = rng.random()
            if r < 0.35 and depth < 3:
                label = rng.choice(sigma + ("d", "e"))
                if copy_rule and rng.random() < 0.4:
                    label = None
                kids = gen_rhs(q, depth + 1, eps_rule, copy_rule)
                if copies and label is not None and rng.random() < 0.3:
                    kids = (Node(rng.choice(sigma), NodeKind.ATTRIBUTE, (
                        Node(rng.choice(TEXT_CONTENTS), NodeKind.TEXT),)),
                            ) + kids
                items.append(Node(label, NodeKind.ELEMENT, kids))
            elif r < 0.5:
                items.append(Node(rng.choice(TEXT_CONTENTS), NodeKind.TEXT, ()))
            elif r < 0.65 and m:
                items.append(Param(rng.randrange(1, m + 1)))
            else:
                callee = rng.choice(names + [literal])
                later = stays and callee in names[names.index(q) + 1:]
                var = 0 if callee == literal else rng.choice(
                    (0, 1, 2) if later else (1, 2))
                if eps_rule and var != 0:
                    items.append(Node("z", NodeKind.ELEMENT, ()))
                    continue
                args = tuple(gen_rhs(q, depth + 2, eps_rule, copy_rule)
                             for _ in range(ranks[callee] - 1))
                items.append(Call(callee, var, args))
        return tuple(items)

    def to_tree(rhs):
        # keep only a tree-shaped prefix; leaves may not have continuations
        out = []
        for it in rhs:
            if isinstance(it, Node):
                out.append(Node(it.label, it.kind, to_tree(it.children)))
            else:
                if isinstance(it, Call):
                    it = Call(it.state, it.var,
                              tuple(to_tree(a) for a in it.args))
                out.append(it)
                break
        return tuple(out)

    rules = {}
    for q in names:
        guards = [DEFAULT, EPS]
        for s in sigma:
            if rng.random() < 0.5:
                guards.append(Guard.sym(s))
        if rng.random() < 0.3:
            guards.append(TEXT)
        for g in guards:
            rhs = gen_rhs(q, 0, g is EPS,
                          copies and (g is DEFAULT or g is TEXT))
            if tree_shaped:
                rhs = to_tree(rhs)
            rules[(q, g)] = Rule(q, g, rhs)
    lit_rhs = (Node("lit", NodeKind.ELEMENT, ()),)
    rules[(literal, DEFAULT)] = Rule(literal, DEFAULT, lit_rhs)
    rules[(literal, EPS)] = Rule(literal, EPS, lit_rhs)
    m = Mft(ranks, frozenset(sigma), names[0], rules)
    assert validate(m) == [], validate(m)
    return m


def random_tt(rng: random.Random, copies: bool = False,
              stays: bool = False) -> Mft:
    return random_mft(rng, tree_shaped=True, max_rank=1, copies=copies,
                      stays=stays)


def random_ft(rng: random.Random, copies: bool = False,
              stays: bool = False) -> Mft:
    return random_mft(rng, tree_shaped=False, max_rank=1, copies=copies,
                      stays=stays)
