"""No pass mutates its input.  :class:`~mfx.forest.Node`, ``Call`` and
``Param`` are slotted, not frozen, so nothing but the code itself keeps a
pass from assigning to a term it was given; rule bodies and forests are
shared between transducers, so such an assignment would change them too.
Each pass runs over the corpus queries and random draws, and afterwards
every input transducer prints (``print_mft``) and every input forest
prints (``print_term``) as it did before.  ``print_mft`` reads a rule's
text from the rule's cache, so each rule body is printed afresh too."""

import random

from mfx.bench import CORPUS_QUERIES
from mfx.compose import MODES, compose, ft_to_mtt
from mfx.forest import coalesce_text, print_term
from mfx.gen import generate_bytes
from mfx.mft import evaluate, print_mft
from mfx.optimize import optimize
from mfx.xmlio import bytes_to_forest

from util import (classify, corpus_transducer, random_forest, random_ft,
                  random_mft, random_tt)

#: the benchmark's pipeline pairs, one per compose mode
PIPELINE_PAIRS = (
    ("double", "deepdup", "tt-tt"),
    ("deepdup", "double", "mtt-tt"),
    ("double", "deepdup", "tt-mtt"),
    ("double", "fourstar", "tt-ft"),
    ("deepdup", "fourstar", "mtt-ft"),
    ("q13", "double", "ft-tt"),
)

DRAWS = 100


def _unchanged(run, *inputs):
    """Run ``run(*inputs)`` and check that each input, a transducer or a
    forest, prints as it did before; return what ``run`` returned."""
    def text(x):
        if type(x) is tuple:
            return print_term(x)
        return print_mft(x), [print_term(r.rhs) for r in x.rules.values()]
    before = [text(x) for x in inputs]
    out = run(*inputs)
    assert [text(x) for x in inputs] == before, run.__name__
    return out


def test_optimize_and_ft_to_mtt_leave_their_input_alone():
    rng = random.Random(25)
    corpus = [corpus_transducer(q, no_opt=True) for q in CORPUS_QUERIES]
    draws = [random_mft(rng, tree_shaped=n % 2 == 0, copies=n % 3 == 0,
                        stays=n % 5 == 0) for n in range(DRAWS)]
    optimized = [_unchanged(optimize, m) for m in corpus + draws]
    flat = [m for m in optimized[:len(corpus)]
            if classify(m) in ("TT", "FT")]
    assert flat
    for m in flat + [random_ft(rng, copies=n % 2 == 0)
                     for n in range(DRAWS)]:
        _unchanged(ft_to_mtt, m)


def test_compose_leaves_its_operands_alone():
    assert {mode for _, _, mode in PIPELINE_PAIRS} == set(MODES)
    for a, b, mode in PIPELINE_PAIRS:
        m1, m2 = corpus_transducer(a), corpus_transducer(b)
        _unchanged(lambda x, y: compose(x, y, mode), m1, m2)
    make = {"tt": random_tt, "ft": random_ft,
            "mtt": lambda rng: random_mft(rng, tree_shaped=True)}
    rng = random.Random(25)
    modes = sorted(MODES)
    for n in range(DRAWS):
        mode = modes[n % len(modes)]
        m1, m2 = (make[kind](rng) for kind in mode.split("-"))
        _unchanged(lambda x, y: compose(x, y, mode), m1, m2)


def test_evaluate_and_coalesce_text_leave_their_input_alone():
    doc = bytes_to_forest(generate_bytes("xmark-lite", 500, 0))
    for q in CORPUS_QUERIES:
        m = corpus_transducer(q)
        out = _unchanged(evaluate, m, doc)
        _unchanged(coalesce_text, out)
    rng = random.Random(25)
    for n in range(DRAWS):
        m = random_mft(rng, tree_shaped=n % 2 == 0)
        f = random_forest(rng, budget=16)
        out = _unchanged(evaluate, m, f)
        _unchanged(coalesce_text, out)
