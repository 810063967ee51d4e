import hashlib
import random
import zlib

import pytest

from mfx.bench import CORPUS_QUERIES
from mfx.compile import compile_query
from mfx.forest import CONCAT, NodeKind, Tree, parse_term
from mfx.mft import (Call, Node, classify, evaluate, is_tree_rhs,
                     parse_mft, validate)
from mfx.optimize import optimize, reachable_states, remove_unreachable
from mfx.xquery import parse_query
from mfx.compose import (compose, decompose_eval, decompose_rhs, ft_to_mtt,
                         recompose_eval, recompose_rhs)
import mfx.mft as MF

from util import (canonical_mft, necessary_params_oracle, random_forest,
                  random_ft, random_mft, random_tt, run_bytes)

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
    comp = compose(m1, m2, "mtt-tt")[0]
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
    # 18 states, and no rule reads most of their parameter copies
    rng = random.Random(9)
    for _ in range(8):
        m1, m2 = random_ft(rng), random_tt(rng)
        forests = [random_forest(rng, budget=8) for _ in range(4)]
    comp, _ = compose(m1, m2, "ft-tt")
    assert len(comp.states) == 18
    copies = sum(r - 1 for r in comp.states.values())
    assert (copies, len(necessary_params_oracle(comp))) == (51, 12)
    f = forests[2]
    assert run_bytes(comp, f) == run_bytes(m2, evaluate(m1, f))


#: m1 outputs a static text node, m2's text rule copies its label
STATIC_TEXT_TT = """\
q(a(x1)x2) -> b(#"hi")
q(%t(x1)x2) -> eps
q(eps) -> eps
"""
COPY_TEXT_TT = """\
p(b(x1)x2) -> c(p(x1))
p(%text(x1)x2) -> %t()
p(%t(x1)x2) -> eps
p(eps) -> eps
"""


@pytest.mark.parametrize("mode", ["tt-tt", "mtt-tt", "tt-mtt", "mtt-ft",
                                  "tt-ft", "ft-tt"])
def test_static_text_meets_a_copying_text_rule(mode):
    m1, m2 = parse_mft(STATIC_TEXT_TT), parse_mft(COPY_TEXT_TT)
    f = parse_term("a()")
    assert run_bytes(m2, evaluate(m1, f)) == b"<c>hi</c>"
    comp, _ = compose(m1, m2, mode)
    assert run_bytes(comp, f) == b"<c>hi</c>"


def test_walker_inlining_keeps_a_shared_argument_shared():
    # m2 reads y1 twice; the walker that does so gets a built argument
    # (d(e(y1) y1)), so it stays a state and the argument one suspension
    m1 = parse_mft("""\
i(%t(x1)x2) -> a(a(i(x1)))
i(eps) -> eps
""")
    m2 = parse_mft("""\
s(%t(x1)x2) -> p(x1, z())
s(eps) -> eps
p(%t(x1)x2, y1) -> p(x1, d(e(y1) y1))
p(eps, y1) -> y1
""")
    comp, _ = compose(m1, m2, "tt-mtt")

    def chain(n):
        f = ()
        for _ in range(n):
            f = (Tree("a", NodeKind.ELEMENT, f),)
        return f

    f = chain(4)
    assert evaluate(comp, f) == evaluate(m2, evaluate(m1, f))
    # the output is a DAG that shares each argument's value: one z, and a
    # d and an e per a of m1's output (two per input node); inlining the
    # argument into both reads would build three of each per input node
    for n in (100, 2000):
        seen, todo = set(), list(evaluate(comp, chain(n)))
        while todo:
            t = todo.pop()
            if id(t) not in seen:
                seen.add(id(t))
                todo.extend(t.children)
        assert len(seen) == 4 * n - 1


def test_deeply_nested_rule_body_composes():
    # one m1 rule 1,000 nodes deep: the walkers inlined into each other
    # follow its nesting, and building them must stay off the recursion
    # limit
    rhs = (Call("q", 1),)
    for _ in range(1000):
        rhs = (Node("a", children=rhs),)
    m1 = MF.Mft({"q": 1}, {"a"}, "q",
                {("q", MF.DEFAULT): MF.Rule("q", MF.DEFAULT, rhs),
                 ("q", MF.EPS): MF.Rule("q", MF.EPS, ())})
    m2 = parse_mft(IDENTITY_TT)
    comp, _ = compose(m1, m2, "tt-tt")
    f = parse_term("b(c())")
    assert run_bytes(comp, f) == run_bytes(m2, evaluate(m1, f))


# states of the fused corpus pairs, whose walker product inlines stay
# calls: 42, 49, 42, 54, 55, 390 and 480 states without inlining
FUSED_STATES = {
    ("double", "deepdup", "tt-tt"): 8,
    ("deepdup", "double", "mtt-tt"): 5,
    ("double", "deepdup", "tt-mtt"): 8,
    ("double", "fourstar", "tt-ft"): 6,
    ("deepdup", "fourstar", "mtt-ft"): 6,
    ("q13", "double", "ft-tt"): 31,
    ("q13", "deepdup", "ft-tt"): 62,
}


def test_fused_corpus_pairs_inline_their_walkers():
    from mfx.stream import Engine
    for (a, b, mode), want in FUSED_STATES.items():
        comp, _ = compose(*_corpus_pair(a, b), mode)
        assert len(comp.states) == want, (a, b, mode)
        # the copy of a copy is one copy state, which the engine runs as
        # one task; ft-tt threads a continuation through every state
        copies = Engine(comp).rows.copies
        assert len(copies) == (mode != "ft-tt"), (a, b, mode)


def test_composed_classes():
    rng = random.Random(87)
    t1, t2 = random_tt(rng), random_tt(rng)
    assert classify(compose(t1, t2, "tt-tt")[0]) == "TT"
    f = random_ft(rng)
    assert classify(compose(t1, f, "tt-ft")[0]) in ("TT", "FT")
    mtt = random_mft(rng, tree_shaped=True)
    assert classify(compose(mtt, t2, "mtt-tt")[0]) in ("TT", "MTT")
    assert classify(compose(t1, mtt, "tt-mtt")[0]) in ("TT", "MTT")
    assert classify(compose(f, t2, "ft-tt")[0]) in ("TT", "MTT")


def test_mode_validation():
    rng = random.Random(88)
    mft = random_mft(rng)
    tt = random_tt(rng)
    with pytest.raises(ValueError):
        compose(mft, tt, "tt-tt")
    with pytest.raises(ValueError):
        compose(tt, tt, "bogus")
    # each pairing construction, and ft-tt, rejects a wrong-rank operand
    # and an operand that is not tree shaped
    tt = parse_mft(IDENTITY_TT)
    mtt = parse_mft(PARAM_MTT)
    ft = parse_mft(DOUBLING_FT)
    for mode, m1, m2, why in (
            ("tt-tt", mtt, tt, "parameter-free"),
            ("tt-tt", tt, mtt, "parameter-free"),
            ("tt-tt", ft, tt, "tree-shaped"),
            ("tt-tt", tt, ft, "tree-shaped"),
            ("mtt-tt", mtt, mtt, "parameter-free"),
            ("mtt-tt", ft, tt, "tree-shaped"),
            ("mtt-tt", mtt, ft, "tree-shaped"),
            ("tt-mtt", mtt, mtt, "parameter-free"),
            ("tt-mtt", ft, mtt, "tree-shaped"),
            ("tt-mtt", tt, ft, "tree-shaped"),
            ("ft-tt", mtt, tt, "parameter-free"),
            ("ft-tt", tt, mtt, "parameter-free"),
            ("ft-tt", tt, ft, "tree-shaped")):
        with pytest.raises(ValueError, match=why):
            compose(m1, m2, mode)


def _sha(m) -> str:
    return hashlib.sha256(canonical_mft(m).encode("utf-8")).hexdigest()


def _corpus_pair(a: str, b: str):
    return tuple(optimize(compile_query(parse_query(CORPUS_QUERIES[q])))
                 for q in (a, b))


# the benchmark's seven fused pairs: (first, second, mode) ->
# (sha256 of canonical_mft, report.size_out, report.rules_out)
CORPUS_FUSED = {
    ("double", "deepdup", "tt-tt"): (
        "794008ba89dc80c0e25b0123e1cb25196c5935577028f17c94c977b7c2c37adf",
        1897, 430),
    ("deepdup", "double", "mtt-tt"): (
        "9ace87f740ac17a5359af91f4edaaf0c1829867292126e37e81ea64c9fb5be08",
        1690, 376),
    ("double", "deepdup", "tt-mtt"): (
        "794008ba89dc80c0e25b0123e1cb25196c5935577028f17c94c977b7c2c37adf",
        1897, 430),
    ("double", "fourstar", "tt-ft"): (
        "360da56ec4d7693b489f6307137fdf315c3de28c9562ec53d6c44f51b0f429a4",
        2253, 516),
    ("deepdup", "fourstar", "mtt-ft"): (
        "c3e2b0362972d2df2ae76f3ee76b0fef73283f0dd9d53b74c9ee89761fc09e93",
        2442, 564),
    ("q13", "double", "ft-tt"): (
        "cbbfd7eefe142cd88bc657d48f57567f369e1fecf8335515b97a21be1b0abe1c",
        16686, 1404),
    ("q13", "deepdup", "ft-tt"): (
        "e131514e1f7000a0b58db9bb014ac82c1b19c5defe905d085e0ae5b0924917c6",
        25168, 1755),
}

# pairing constructions on random.Random(n) draws, n = 0, 1, 2: (sha256 of
# canonical_mft of the reachable part, size and rule count of the whole
# product)
RAW_PAIRED = {
    "tt-tt": (
        ("f6a9805a6356bb0719ee81b536ad2cfd2188302f01f5fd2f6cbe0d1f1a03330e",
         2876, 624),
        ("612551a5252d61d441f46247aba3d443193b4706980e3966b8fea6b253220810",
         3684, 880),
        ("09141d1d622296239157145b087ee622818217f3104f0a758696e405d5449cb2",
         3339, 810),
    ),
    "mtt-tt": (
        ("dda0d902b4924090de66a4c49ca8b7d8284e8878ed97649269d33c6183a4a1f0",
         10008, 1341),
        ("5213f37a0d245fe855d66d9ee9e96c5b8627ff04cbbf40ce6701d9062f2288cb",
         3335, 648),
        ("90496f0fbb08dfe0679b523c4c1df96fa0260fdcd77127d372cc3dc213a13c2f",
         6983, 1165),
    ),
    "tt-mtt": (
        ("a7f768a20807854b684bf29f0a1c4118ebb9a676811e683dfa0179557d89eab5",
         2643, 552),
        ("e82e828095df62e17fa3e21311195afe51ba244ed71c4d6632ab1c8b0f637089",
         3231, 712),
        ("feace1e2c55da71ff5bbbec6a03bfc51bfba4fc77e615bca20620233fffa2857",
         4292, 810),
    ),
}


def _raw_draws():
    mtt = lambda rng: random_mft(rng, tree_shaped=True)  # noqa: E731
    for mode, g1, g2 in (("tt-tt", random_tt, random_tt),
                         ("mtt-tt", mtt, random_tt),
                         ("tt-mtt", random_tt, mtt)):
        for n, want in enumerate(RAW_PAIRED[mode]):
            rng = random.Random(n)
            m1 = g1(rng)
            yield mode, m1, g2(rng), want


def test_composed_rule_files_are_pinned():
    # the rule files up to state names, so a refactoring of the walker
    # product shows any change in what it builds
    for (a, b, mode), want in CORPUS_FUSED.items():
        comp, rep = compose(*_corpus_pair(a, b), mode)
        assert (_sha(comp), rep.size_out, rep.rules_out) == want, (a, b, mode)
    for mode, m1, m2, want in _raw_draws():
        assert _sha(remove_unreachable(compose(m1, m2, mode)[0])) == want[0], \
            mode


def test_walker_product_builds_only_reachable_pairs():
    # the product is built from the initial pair outward, and the report
    # still counts the whole product (sizes pinned from the construction
    # that built every state pair)
    for a, b, mode in CORPUS_FUSED:
        comp, _ = compose(*_corpus_pair(a, b), mode)
        assert reachable_states(comp) == set(comp.states), (a, b, mode)
    for mode, m1, m2, want in _raw_draws():
        comp, rep = compose(m1, m2, mode)
        assert reachable_states(comp) == set(comp.states), mode
        assert (rep.size_out, rep.rules_out) == want[1:], mode
