import hashlib
import random
import zlib

import pytest

from mfx.bench import CORPUS_QUERIES
from mfx.compile import compile_query
from mfx.forest import CONCAT, parse_term
from mfx.mft import (Call, Node, classify, evaluate, is_tree_rhs,
                     parse_mft, validate)
from mfx.optimize import optimize, reachable_states, remove_unreachable
from mfx.xquery import parse_query
from mfx.compose import (compose, compose_ft_tt, compose_mtt_tt,
                         compose_tt_ft, compose_tt_mtt, compose_tt_tt,
                         decompose_eval, decompose_rhs, ft_to_mtt,
                         recompose_eval, recompose_rhs)
import mfx.mft as MF

from util import (canonical_mft, random_forest, random_ft, random_mft,
                  random_tt, run_bytes)

CHAIN_TT = """\
q0(a(x1)x2) -> b(b(b(b(q0(x1)))))
q0(%t(x1)x2) -> eps
q0(eps) -> eps
"""

SPAWN_TT = """\
p0(b(x1)x2) -> c(p0(x1)) p0(x1)
p0(%t(x1)x2) -> eps
p0(eps) -> eps
"""

DOUBLING_FT = """\
q(a(x1)x2) -> q(x2) q(x2)
q(%t(x1)x2) -> eps
q(eps) -> a()
"""

IDENTITY_TT = """\
q(%t(x1)x2) -> %t(q(x1)) q(x2)
q(eps) -> eps
"""

# one rank-2 state behind a rank-1 initial state, tree shaped
PARAM_MTT = """\
i(%t(x1)x2) -> q(x1, z())
i(eps) -> eps
q(%t(x1)x2, y1) -> %t(q(x1, y1))
q(eps, y1) -> y1
"""


def _rhs(src: str):
    sc = MF._RuleScanner(src, 1)
    return MF._parse_rhs_items(sc, stop="")


def _pipeline_ok(m1, m2, comp, rng, rounds=5, budget=10):
    for _ in range(rounds):
        f = random_forest(rng, budget=budget)
        direct = run_bytes(m2, evaluate(m1, f))
        if run_bytes(comp, f) != direct:
            return False
    return True


def test_decompose_worked_example():
    rhs = _rhs('q(x1) y1 b()')
    d = decompose_rhs(rhs)
    # one @ per concatenation: @(q(x1), @(y1, b(eps,eps)))
    assert MF._print_rhs(d) == '"@"(q(x1)) "@"(y1) b()'
    assert is_tree_rhs(d)
    assert recompose_rhs(d) == rhs


def test_decompose_tree_rhs_unchanged():
    rhs = _rhs("b(q(x1))")
    assert decompose_rhs(rhs) == rhs


def test_decompose_eval_roundtrip_behaviour():
    rng = random.Random(81)
    for _ in range(20):
        m = random_mft(rng)
        d = decompose_eval(m)
        assert all(is_tree_rhs(r.rhs) for r in d.rules.values())
        assert validate(d) == []
        back = recompose_eval(d)
        for _ in range(3):
            f = random_forest(rng, budget=8)
            assert run_bytes(back, f) == run_bytes(m, f)


def test_decompose_then_eval_equals_original():
    # running the decomposed transducer and interpreting @ afterwards
    # gives the original's output
    from mfx.forest import NodeKind, Tree

    def eval_at(f):
        out = []
        for t in f:
            kids = eval_at(t.children)
            if t.label == CONCAT:
                out.extend(kids)
            else:
                out.append(Tree(t.label, t.kind, kids))
        return tuple(out)

    rng = random.Random(82)
    for _ in range(20):
        m = random_mft(rng)
        d = decompose_eval(m)
        for _ in range(3):
            f = random_forest(rng, budget=8)
            assert eval_at(evaluate(d, f)) == evaluate(m, f)


def test_ft_to_mtt_identity():
    rng = random.Random(84)
    for _ in range(20):
        m = random_ft(rng)
        t = ft_to_mtt(m)
        assert classify(t) in ("MTT", "TT")
        assert validate(t) == []
        for _ in range(3):
            f = random_forest(rng, budget=8)
            assert run_bytes(t, f) == run_bytes(m, f)


def test_chain_spawn_composition():
    m1, m2 = parse_mft(CHAIN_TT), parse_mft(SPAWN_TT)
    comp, rep = compose(m1, m2, "tt-tt")
    assert classify(comp) == "TT"
    assert validate(comp) == []
    # polynomial, not exponential: far below the product bound, and no
    # deep towers inside any right-hand side
    assert rep.size_out < 2 * rep.sigma * rep.size1 * rep.size2

    def height(rhs):
        h = 0
        for it in rhs:
            if isinstance(it, Node):
                h = max(h, 1 + height(it.children))
            elif isinstance(it, Call):
                h = max(h, 1 + max([height(a) for a in it.args], default=0))
            else:
                h = max(h, 1)
        return h

    assert max(height(r.rhs) for r in comp.rules.values()) < 5
    f = parse_term("a(a(a()))")
    assert evaluate(comp, f) == evaluate(m2, evaluate(m1, f))


def test_chain_length_ten_stays_polynomial():
    m1, m2 = parse_mft(CHAIN_TT), parse_mft(SPAWN_TT)
    comp, rep = compose(m1, m2, "tt-tt")
    assert rep.size_out < 2 ** 10


def test_identity_composes_to_identity_behaviour():
    rng = random.Random(85)
    ident = parse_mft(IDENTITY_TT)
    m = parse_mft(CHAIN_TT)
    left, _ = compose(ident, m, "tt-tt")
    right, _ = compose(m, ident, "tt-tt")
    for _ in range(10):
        f = random_forest(rng, budget=8, labels=("a",))
        want = evaluate(m, f)
        assert evaluate(left, f) == want
        assert evaluate(right, f) == want


def test_double_exponential_counterexample():
    m = parse_mft(DOUBLING_FT)
    two = parse_term("a() a()")
    assert len(evaluate(m, two)) == 4
    comp, _ = compose(ft_to_mtt(m), m, "mtt-ft")
    out = evaluate(comp, two)
    assert len(out) == 16
    assert out == evaluate(m, evaluate(m, two))


def test_mtt_tt_parameter_copies():
    # one rank-2 state composed with a two-state second transducer gives
    # walker states carrying 1 + 1*2 = 3 arguments
    m1 = parse_mft(PARAM_MTT)
    m2 = parse_mft("""\
p0(z(x1)x2) -> p1(x1)
p0(%t(x1)x2) -> %t(p0(x1))
p0(eps) -> eps
p1(%t(x1)x2) -> w()
p1(eps) -> eps
""")
    comp = compose_mtt_tt(m1, m2)
    assert validate(comp) == []
    assert max(comp.states.values()) == 3
    rng = random.Random(86)
    assert _pipeline_ok(m1, m2, comp, rng)


@pytest.mark.parametrize("mode,gen1,gen2", [
    ("tt-tt", "tt", "tt"),
    ("mtt-tt", "mtt_tree", "tt"),
    ("tt-mtt", "tt", "mtt_tree"),
    ("mtt-ft", "mtt_tree", "ft"),
    ("tt-ft", "tt", "ft"),
    ("ft-tt", "ft", "tt"),
])
def test_randomized_pipeline_equivalence(mode, gen1, gen2):
    # a stable per-mode seed: hash(mode) would differ with PYTHONHASHSEED
    rng = random.Random(zlib.crc32(mode.encode()))

    def make(kind):
        if kind == "tt":
            return random_tt(rng)
        if kind == "ft":
            return random_ft(rng)
        return random_mft(rng, tree_shaped=True)

    worst_ratio = 0.0
    for _ in range(12):
        m1, m2 = make(gen1), make(gen2)
        comp, rep = compose(m1, m2, mode)
        assert validate(comp) == []
        worst_ratio = max(worst_ratio, rep.bound_ratio())
        assert _pipeline_ok(m1, m2, comp, rng, rounds=4, budget=8), mode
    # measured envelope for the O(|sigma| |M1| |M2|) claims
    assert worst_ratio < 4.0, (mode, worst_ratio)


def test_fused_ft_tt_evaluates_unused_parameter_copies_lazily():
    # draw 7 of random.Random(9), third forest: the fused transducer has
    # 331 states, most of whose parameter copies no rule reads
    rng = random.Random(9)
    for _ in range(8):
        m1, m2 = random_ft(rng), random_tt(rng)
        forests = [random_forest(rng, budget=8) for _ in range(4)]
    comp, _ = compose(m1, m2, "ft-tt")
    assert len(comp.states) == 331
    f = forests[2]
    assert run_bytes(comp, f) == run_bytes(m2, evaluate(m1, f))


def test_composed_classes():
    rng = random.Random(87)
    t1, t2 = random_tt(rng), random_tt(rng)
    assert classify(compose_tt_tt(t1, t2)) == "TT"
    f = random_ft(rng)
    assert classify(compose_tt_ft(t1, f)) in ("TT", "FT")
    mtt = random_mft(rng, tree_shaped=True)
    assert classify(compose_mtt_tt(mtt, t2)) in ("TT", "MTT")
    assert classify(compose_tt_mtt(t1, mtt)) in ("TT", "MTT")
    assert classify(compose_ft_tt(f, t2)) in ("TT", "MTT")


def test_mode_validation():
    rng = random.Random(88)
    mft = random_mft(rng)
    tt = random_tt(rng)
    with pytest.raises(ValueError):
        compose_tt_tt(mft, tt)
    with pytest.raises(ValueError):
        compose(tt, tt, "bogus")
    # each pairing construction, and ft-tt, rejects a wrong-rank operand
    # and an operand that is not tree shaped
    tt = parse_mft(IDENTITY_TT)
    mtt = parse_mft(PARAM_MTT)
    ft = parse_mft(DOUBLING_FT)
    for fn, m1, m2, why in (
            (compose_tt_tt, mtt, tt, "parameter-free"),
            (compose_tt_tt, tt, mtt, "parameter-free"),
            (compose_tt_tt, ft, tt, "tree-shaped"),
            (compose_tt_tt, tt, ft, "tree-shaped"),
            (compose_mtt_tt, mtt, mtt, "parameter-free"),
            (compose_mtt_tt, ft, tt, "tree-shaped"),
            (compose_mtt_tt, mtt, ft, "tree-shaped"),
            (compose_tt_mtt, mtt, mtt, "parameter-free"),
            (compose_tt_mtt, ft, mtt, "tree-shaped"),
            (compose_tt_mtt, tt, ft, "tree-shaped"),
            (compose_ft_tt, mtt, tt, "parameter-free"),
            (compose_ft_tt, tt, mtt, "parameter-free"),
            (compose_ft_tt, tt, ft, "tree-shaped")):
        with pytest.raises(ValueError, match=why):
            fn(m1, m2)


def _sha(m) -> str:
    return hashlib.sha256(canonical_mft(m).encode("utf-8")).hexdigest()


def _corpus_pair(a: str, b: str):
    return tuple(optimize(compile_query(parse_query(CORPUS_QUERIES[q])))
                 for q in (a, b))


# the benchmark's seven fused pairs: (first, second, mode) ->
# (sha256 of canonical_mft, report.size_out, report.rules_out)
CORPUS_FUSED = {
    ("double", "deepdup", "tt-tt"): (
        "ff18991842dafc57f3420d309f705e4d67a11f666585d286e2f933d9a58f88ec",
        1897, 430),
    ("deepdup", "double", "mtt-tt"): (
        "fee4c9e35a46c95fadcc7f5864ec42dd2ca63448312b06d73cc58e0c40633423",
        1690, 376),
    ("double", "deepdup", "tt-mtt"): (
        "ff18991842dafc57f3420d309f705e4d67a11f666585d286e2f933d9a58f88ec",
        1897, 430),
    ("double", "fourstar", "tt-ft"): (
        "677c5893318919f6a45e97d1f4de2f1c391745d9a128c87b136a3403e72a0c25",
        2253, 516),
    ("deepdup", "fourstar", "mtt-ft"): (
        "d8845bbf39b8dca934104020d7381970987ea677f14d99c27c80a277047bef8e",
        2442, 564),
    ("q13", "double", "ft-tt"): (
        "83a3f724f6b197f9152d183c333506d8589a4b4df292d8b2c2a0b692efa89917",
        16686, 1404),
    ("q13", "deepdup", "ft-tt"): (
        "e263268da65ca63e681703fbd4f13caf2e62bef1e37590e18e3734129a781ba7",
        25168, 1755),
}

# pairing constructions on random.Random(n) draws, n = 0, 1, 2: (sha256 of
# canonical_mft of the reachable part, size and rule count of the whole
# product)
RAW_PAIRED = {
    "tt-tt": (
        ("5be5d515a8ba3c7dbabdfec8a7cb07ce4fb041557617e7faaec9f5af78f8a885",
         2876, 624),
        ("dcdb8f1b3995c708d9acd6a5c551eae17a802769374bc058157a9b55bca6a200",
         3684, 880),
        ("2dc2d912268635d8d683330ee02dcec8a834817a957fefbac3751c83ab97763f",
         3339, 810),
    ),
    "mtt-tt": (
        ("b24251fcbb5b44021a90f5ce5c59c53e75f89ff835d865d38b81f0724f54c10f",
         10008, 1341),
        ("ef47e2e3747e6171c4afbdc8d2ed3abfc9e48e19b7c3a7b9d9edd39d2cb50d8b",
         3335, 648),
        ("f09beeabe89fd3d411454ae3da66679a06a2036210f274dbc2ec4f7742642eb1",
         6983, 1165),
    ),
    "tt-mtt": (
        ("6cddf923f0a2c7750364e2450f00162494786509c30c294e08afc4ceea577db3",
         2643, 552),
        ("3424d6afca467435763331adcd22791b834d36bd1fef8034d078c3d39e7de15d",
         3231, 712),
        ("064252e8870a5638b8bfb0b170808413ae14d86c481856ff9e439e0d74ce08e4",
         4292, 810),
    ),
}


def _raw_draws():
    mtt = lambda rng: random_mft(rng, tree_shaped=True)  # noqa: E731
    for mode, fn, g1, g2 in (("tt-tt", compose_tt_tt, random_tt, random_tt),
                             ("mtt-tt", compose_mtt_tt, mtt, random_tt),
                             ("tt-mtt", compose_tt_mtt, random_tt, mtt)):
        for n, want in enumerate(RAW_PAIRED[mode]):
            rng = random.Random(n)
            m1 = g1(rng)
            yield mode, fn, m1, g2(rng), want


def test_composed_rule_files_are_pinned():
    # the rule files up to state names, so a refactoring of the walker
    # product shows any change in what it builds
    for (a, b, mode), want in CORPUS_FUSED.items():
        comp, rep = compose(*_corpus_pair(a, b), mode)
        assert (_sha(comp), rep.size_out, rep.rules_out) == want, (a, b, mode)
    for mode, fn, m1, m2, want in _raw_draws():
        assert _sha(remove_unreachable(fn(m1, m2))) == want[0], mode


def test_walker_product_builds_only_reachable_pairs():
    # the product is built from the initial pair outward, and the report
    # still counts the whole product (sizes pinned from the construction
    # that built every state pair)
    for a, b, mode in CORPUS_FUSED:
        comp, _ = compose(*_corpus_pair(a, b), mode)
        assert reachable_states(comp) == set(comp.states), (a, b, mode)
    for mode, fn, m1, m2, want in _raw_draws():
        comp = fn(m1, m2)
        assert reachable_states(comp) == set(comp.states), mode
        _, rep = compose(m1, m2, mode)
        assert (rep.size_out, rep.rules_out) == want[1:], mode
