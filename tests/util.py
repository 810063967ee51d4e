"""Shared test helpers: byte-level runners and random generators.

The generators keep element-name and text-content alphabets disjoint
(text contents double as comparison constants), which is the regime the
compiled guard model is exact in; see the compile module docstring.
Random transducers terminate by construction: calls consume input (x1 or
x2), except stay calls into designated call-free states.
"""

from __future__ import annotations

import random

from mfx.forest import Forest, NodeKind, Tree, coalesce_text, elem, text
from mfx.mft import (Call, DEFAULT, EPS, Guard, Mft, Node, Param, Rule, TEXT,
                     evaluate, validate)
from mfx.xmlio import forest_to_bytes
from mfx.xquery import NodeTest, Path, Predicate, Step

ELEM_LABELS = ("a", "b", "c")
TEXT_CONTENTS = ("t1", "t2", "t3")


def run_bytes(m: Mft, f: Forest) -> bytes:
    return forest_to_bytes(coalesce_text(evaluate(m, f)))


def oracle_bytes(ast, f: Forest) -> bytes:
    from mfx.xqeval import eval_query
    return forest_to_bytes(coalesce_text(eval_query(ast, f)))


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
                items.append(Tree(rng.choice(labels), NodeKind.ATTRIBUTE,
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
               max_rank: int = 3) -> Mft:
    """A small valid terminating transducer over sigma = {a, b, c}."""
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

    def gen_rhs(q: str, depth: int, eps_rule: bool):
        m = ranks[q] - 1
        items = []
        n = rng.randrange(0, 3) if depth else rng.randrange(1, 4)
        for _ in range(n):
            r = rng.random()
            if r < 0.35 and depth < 3:
                items.append(Node(rng.choice(sigma + ("d", "e")),
                                  NodeKind.ELEMENT,
                                  gen_rhs(q, depth + 1, eps_rule)))
            elif r < 0.5:
                items.append(Node(rng.choice(TEXT_CONTENTS), NodeKind.TEXT, ()))
            elif r < 0.65 and m:
                items.append(Param(rng.randrange(1, m + 1)))
            else:
                callee = rng.choice(names + [literal])
                var = 0 if callee == literal else rng.choice((1, 2))
                if eps_rule and var != 0:
                    items.append(Node("z", NodeKind.ELEMENT, ()))
                    continue
                args = tuple(gen_rhs(q, depth + 2, eps_rule)
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
            rhs = gen_rhs(q, 0, eps_rule=(g is EPS))
            if tree_shaped:
                rhs = to_tree(rhs)
            rules[(q, g)] = Rule(q, g, rhs)
    lit_rhs = (Node("lit", NodeKind.ELEMENT, ()),)
    rules[(literal, DEFAULT)] = Rule(literal, DEFAULT, lit_rhs)
    rules[(literal, EPS)] = Rule(literal, EPS, lit_rhs)
    m = Mft(ranks, frozenset(sigma), names[0], rules)
    assert validate(m) == [], validate(m)
    return m


def random_tt(rng: random.Random) -> Mft:
    return random_mft(rng, tree_shaped=True, max_rank=1)


def random_ft(rng: random.Random) -> Mft:
    return random_mft(rng, tree_shaped=False, max_rank=1)
