import hashlib
import random

from mfx.compose import ft_to_mtt
from mfx.mft import (DEFAULT, EPS, Call, Mft, Node, Param, Rule, evaluate,
                     parse_mft, print_mft, size, validate)
from mfx.optimize import (constant_params, necessary_params, optimize,
                          reachable_states, remove_stay_moves,
                          remove_unreachable, unused_params)
from mfx.xquery import parse_query
from mfx.compile import compile_text
from mfx.bench import CORPUS_QUERIES

from conftest import M_PERSON_TEXT, P_PERSON_TEXT
from util import (check_ft_eligibility, classify, elem,
                  necessary_params_oracle, pretty, random_forest, random_mft,
                  random_query, run_bytes)

# Five-rule parameter-flow example (wrapped in a rank-1 initial state):
# y2 of q is used directly, which makes y1 of q2 used (it is passed as
# q's second argument), which in turn makes y1 of q used (it is passed
# as q2's first argument).  Only y2 of q2 never reaches the output.
FLOW_EXAMPLE = """\
i(%t(x1)x2) -> q(x1, aa(), bb())
i(eps) -> eps
q(sigma(x1)x2, y1, y2) -> delta(q2(x2, y1, y2))
q(%t(x1)x2, y1, y2) -> %t(q2(x2, delta(y2), sigma(y2)))
q(eps, y1, y2) -> sigma(y2)
q2(%t(x1)x2, y1, y2) -> q(x1, eps, y1)
q2(eps, y1, y2) -> eps
"""

CONSTANT_EXAMPLE = """\
i(%t(x1)x2) -> q(x1, eps, q3(x0))
i(eps) -> eps
q(sigma(x1)x2, y1, y2) -> q(x1, eps, y2) delta(q2(x2, y2))
q(%t(x1)x2, y1, y2) -> q(x1, y1, y2) %t(q2(x2, delta(y2)))
q(eps, y1, y2) -> y1
q2(%t(x1)x2, y1) -> delta(q(x1, eps, q2(x2, y1)))
q2(eps, y1) -> eps
q3(%t(x1)x2) -> n()
q3(eps) -> n()
"""

STAY_EXAMPLE = """\
i(%t(x1)x2) -> q(x1, aa(), bb())
i(eps) -> eps
q(%t(x1)x2, y1, y2) -> q2(x0) y1
q(eps, y1, y2) -> q2(x0) y1
q2(%t(x1)x2) -> z(q2(x1))
q2(eps) -> eps
"""


def _random_inputs(rng, n=8):
    return [random_forest(rng, budget=10) for _ in range(n)]


def test_flow_example_unused_set():
    m = parse_mft(FLOW_EXAMPLE)
    S = necessary_params(m)
    assert ("q", 2) in S
    assert ("q2", 1) in S
    # y1 of q flows through q2 back into q's used second parameter, so it
    # is necessary; an input sigma(x) t(y) makes it reach the output
    assert ("q", 1) in S
    assert ("q2", 2) not in S
    out = unused_params(m)
    assert out.states["q2"] == 2 and out.states["q"] == 3


def test_flow_example_first_param_observable():
    # direct witness that q's first parameter reaches the output
    m = parse_mft(FLOW_EXAMPLE)
    out = evaluate(m, (elem("top", elem("sigma"), elem("t")),))
    assert out == (elem("delta", elem("sigma", elem("aa"))),)


def test_unused_fixpoint_matches_reachability_oracle():
    rng = random.Random(61)
    for _ in range(60):
        m = random_mft(rng)
        assert necessary_params(m) == necessary_params_oracle(m)
    for text_ in CORPUS_QUERIES.values():
        m = compile_text(text_)
        assert necessary_params(m) == necessary_params_oracle(m)


def test_unused_identity_on_parameter_free():
    m = parse_mft("""\
q(%t(x1)x2) -> %t(q(x1)) q(x2)
q(eps) -> eps
""")
    assert unused_params(m) is m


def test_unused_preserves_semantics():
    rng = random.Random(62)
    for _ in range(40):
        m = random_mft(rng)
        out = unused_params(m)
        assert validate(out) == []
        for f in _random_inputs(rng, 4):
            assert run_bytes(out, f) == run_bytes(m, f)


def test_constant_example():
    m = parse_mft(CONSTANT_EXAMPLE)
    out = constant_params(m)
    # y1 of q is always the empty forest; it disappears and the eps rule
    # body becomes empty
    assert out.states["q"] == 2
    assert out.rules[("q", parse_mft("x(eps)->eps").rules.popitem()[1].guard)]
    eps_rhs = [r for (s, g), r in out.rules.items()
               if s == "q" and g.kind == "eps"][0].rhs
    assert eps_rhs == ()
    assert out.states["q2"] == 2  # its parameter is not constant
    rng = random.Random(63)
    for f in _random_inputs(rng):
        assert run_bytes(out, f) == run_bytes(m, f)


def test_constant_identity_when_none():
    m = parse_mft(M_PERSON_TEXT)
    assert constant_params(m) is m


def test_constant_preserves_semantics():
    rng = random.Random(64)
    for _ in range(40):
        m = random_mft(rng)
        out = constant_params(m)
        assert validate(out) == []
        for f in _random_inputs(rng, 4):
            assert run_bytes(out, f) == run_bytes(m, f)


def test_stay_example_inlined():
    m = parse_mft(STAY_EXAMPLE)
    out = remove_stay_moves(m)
    assert "q" not in out.states
    rule = out.rules[("i", list(g for (s, g) in out.rules if s == "i")[0])]
    rng = random.Random(65)
    for f in _random_inputs(rng):
        assert run_bytes(out, f) == run_bytes(m, f)


def test_stay_not_inlined_with_symbol_rule():
    m = parse_mft("""\
i(%t(x1)x2) -> q(x1)
i(eps) -> eps
q(sigma(x1)x2) -> hit()
q(%t(x1)x2) -> q2(x0)
q(eps) -> q2(x0)
q2(%t(x1)x2) -> z()
q2(eps) -> eps
""")
    out = remove_stay_moves(m)
    assert "q" in out.states  # q has a symbol-specific rule


def test_self_recursive_stay_skipped():
    m = parse_mft("""\
i(%t(x1)x2) -> q(x1)
i(eps) -> eps
q(%t(x1)x2) -> q(x0)
q(eps) -> q(x0)
""")
    warnings = []
    out = remove_stay_moves(m, warn=warnings.append)
    assert out is m  # nothing to inline: the input itself
    assert warnings and "q" in warnings[0]


# a self-recursive stay state q that two rounds of the fixpoint meet: the
# first round also inlines s and drops its parameter
WARN_TWICE = """\
i(%t(x1)x2) -> s(x0, a()) q(x1)
i(eps) -> eps
s(%t(x1)x2, y1) -> b()
s(eps, y1) -> b()
q(%t(x1)x2) -> q(x0)
q(eps) -> q(x0)
"""


def test_optimize_warns_once_per_state():
    warnings = []
    out = optimize(parse_mft(WARN_TWICE), warn=warnings.append)
    assert warnings == ["stay state q is self-recursive, not inlined"]
    assert set(out.states) == {"i", "q"}


def test_stay_preserves_semantics():
    rng = random.Random(66)
    for text_ in CORPUS_QUERIES.values():
        m = compile_text(text_)
        out = remove_stay_moves(m)
        assert validate(out) == []
        for f in [random_forest(rng, budget=10) for _ in range(3)]:
            assert run_bytes(out, f) == run_bytes(m, f)


def test_remove_unreachable():
    m = parse_mft(M_PERSON_TEXT)
    m2 = m.copy()
    orphan = parse_mft("z(%t(x1)x2) -> eps\nz(eps) -> eps")
    m2.states["z"] = 1
    m2.rules.update(orphan.rules)
    out = remove_unreachable(m2)
    assert "z" not in out.states
    assert print_mft(out) == print_mft(m)
    assert remove_unreachable(m) is m  # fully reachable: identity


def test_reachability_matches_bfs_oracle():
    # independent oracle: brute-force closure over printed call edges
    rng = random.Random(67)
    for _ in range(30):
        m = random_mft(rng)
        edges = {}
        from mfx.mft import Call, rhs_nodes
        for (q, _), rule in m.rules.items():
            for it in rhs_nodes(rule.rhs):
                if isinstance(it, Call):
                    edges.setdefault(q, set()).add(it.state)
        seen = {m.initial}
        frontier = [m.initial]
        while frontier:
            nxt = []
            for q in frontier:
                for t in edges.get(q, ()):
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        assert reachable_states(m) == seen


def test_optimize_person_is_m_person_shaped(m_person, doc1, doc2):
    m = optimize(compile_text(P_PERSON_TEXT))
    assert len(m.states) <= 10
    for doc in (doc1, doc2):
        assert run_bytes(m, doc) == run_bytes(m_person, doc)


def test_optimize_q13_removes_all_parameters():
    m = optimize(compile_text(CORPUS_QUERIES["q13"]))
    assert m.total_params() == 0
    assert classify(m) in ("TT", "FT")


def test_optimize_q2_gives_ft():
    m = optimize(compile_text(CORPUS_QUERIES["q02"]))
    assert m.total_params() == 0
    assert classify(m) in ("TT", "FT")


def test_optimize_idempotent():
    rng = random.Random(68)
    for _ in range(15):
        m = optimize(random_mft(rng))
        assert print_mft(optimize(m)) == print_mft(m)
    for text_ in ("q01", "q13", "double"):
        m = optimize(compile_text(CORPUS_QUERIES[text_]))
        assert print_mft(optimize(m)) == print_mft(m)


def test_optimize_monotone_parameters_and_size():
    rng = random.Random(69)
    for _ in range(25):
        m = random_mft(rng)
        out = optimize(m)
        assert out.total_params() <= m.total_params()


def test_optimize_preserves_semantics():
    rng = random.Random(70)
    for _ in range(30):
        m = random_mft(rng)
        out = optimize(m)
        for f in _random_inputs(rng, 4):
            assert run_bytes(out, f) == run_bytes(m, f)


def test_ft_eligibility():
    assert check_ft_eligibility(parse_query(CORPUS_QUERIES["q02"]))
    assert check_ft_eligibility(parse_query(CORPUS_QUERIES["q13"]))
    assert not check_ft_eligibility(parse_query(P_PERSON_TEXT))
    # output variable under a deeper for clause blocks eligibility
    bad = parse_query("for $a in $input/a return "
                      "for $b in $a/b return $a")
    assert not check_ft_eligibility(bad)
    ok = parse_query("for $a in $input/a return ($a, $a)")
    assert check_ft_eligibility(ok)


def test_eligibility_implies_parameter_free():
    rng = random.Random(71)
    hits = 0
    for _ in range(40):
        ast = random_query(rng, predicates=False)
        if not check_ft_eligibility(ast):
            continue
        hits += 1
        m = optimize(compile_text(pretty(ast)))
        assert m.total_params() == 0, ast
    assert hits >= 5


#: sha256 of print_mft(optimize(compile(q))) per corpus query, so a
#: refactoring of the optimizer passes shows any change in what they build
OPTIMIZED_CORPUS = {
    "q01": "e25fb6c36abbb2afa6b8b6445d858e80ef29bc112f1ae3699d4090506fd0fca5",
    "q02": "60a15512f5b97a84be3041a45973c9d51ebdd85fa0c1f7dffbe9069fe92aa7b6",
    "q04": "a96d9ef379cde50743f08f45970ae6144082f9034d2d48bc36efeff497e466cb",
    "q13": "72849081316f705d0d307747b01a9b681349a7120e9d60cc8f7f25c29eca69fc",
    "q16": "e898d8eeca1eaa61ee440f5a20e7fd680332bf33d25a5084143d4e64fdc46aaa",
    "q17": "c726ea0ea7fdca2890a246a61db10986e6c64e237ee3dd95b2ebdec8eb3c185c",
    "double":
        "9f666fbf30e9dc1e31c5a856dd1f66d55cdde07a0e04b112c0f3eea2204a3970",
    "fourstar":
        "430854173270b7654d24825308f0e8bf5bba3350e4f15e44ee6a0f1610bff65d",
    "deepdup":
        "e17b1882642eed69dac289a43e9e29fa4a21c812f6e5b14972fad8b5210ceb33",
}


def test_optimized_corpus_rule_files_are_pinned():
    assert set(OPTIMIZED_CORPUS) == set(CORPUS_QUERIES)
    for name, want in OPTIMIZED_CORPUS.items():
        text = print_mft(optimize(compile_text(CORPUS_QUERIES[name])))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, name


#: sha256 of print_mft(compile(q)) per corpus query, so a change to the
#: compiler's rule generation shows even where optimize would hide it
COMPILED_CORPUS = {
    "q01": "f13e425e2a89f9c7c060cd9c81093c8b37fc999d2b81ec4ba123867695257877",
    "q02": "73ea9fb5c4f7ba27a2e47b24690527a9b9a7682472e25797ea63637fda0a932f",
    "q04": "6be9ca62eb60a429d0da21ec865daa052a66d7539c7f3e597b01216e0ba232b4",
    "q13": "b92d0d80a557f2c3fd6e981cca054283549bd1e0b79504748089131406b184f2",
    "q16": "198ce8eac345c60e4ee0bf71a5681c735a612529b08b1bbeb6ca8c83a7caae9f",
    "q17": "87619f9c56df24b2693e13e946991456c9a0109829279f84508116f5535e1eb2",
    "double":
        "6753f4e983ee9897a0bbcf3288c666cd55ac9b7c60f8325189cbb879bcdcace9",
    "fourstar":
        "e64e7ac641d15c05d73677a447a1be37349bb92e459b8a01b4bdf57af58a691d",
    "deepdup":
        "9b2066391aa80f40ff9dfb0d148cf621990b16be9e88524a961160d2b9e9df1d",
}


def test_compiled_corpus_rule_files_are_pinned():
    assert set(COMPILED_CORPUS) == set(CORPUS_QUERIES)
    for name, want in COMPILED_CORPUS.items():
        text = print_mft(compile_text(CORPUS_QUERIES[name]))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, name


#: print_mft calls per optimize of a corpus query: the check before round
#: one plus one per round, the last of which confirms the fixpoint
FIXPOINT_CHECKS = {"q01": 3, "q02": 3, "q04": 4, "q13": 3, "q16": 3,
                   "q17": 4, "double": 3, "fourstar": 3, "deepdup": 3}


def test_fixpoint_round_counts_are_pinned(monkeypatch):
    # optimize looks print_mft up on mfx.mft at call time, as the
    # benchmark's tracer relies on
    import mfx.mft
    calls = []
    printer = mfx.mft.print_mft
    monkeypatch.setattr(mfx.mft, "print_mft",
                        lambda m: calls.append(1) or printer(m))
    assert set(FIXPOINT_CHECKS) == set(CORPUS_QUERIES)
    for name, want in FIXPOINT_CHECKS.items():
        m = compile_text(CORPUS_QUERIES[name])
        del calls[:]
        optimize(m)
        assert len(calls) == want, name


def _nested(depth: int) -> Mft:
    """One state whose default rule nests ``depth`` a-nodes around a call."""
    body = (Call("q", 1),)
    for _ in range(depth):
        body = (Node("a", children=body),)
    return Mft({"q": 1}, {"a"}, "q", {("q", DEFAULT): Rule("q", DEFAULT, body),
                                      ("q", EPS): Rule("q", EPS, ())})


def _stay(depth: int) -> Mft:
    """A stay state s behind the initial state, whose default and eps
    bodies are equal, ``depth`` a-nodes deep, and separate objects."""
    def body():
        b = (Node("b"),)
        for _ in range(depth):
            b = (Node("a", children=b),)
        return b
    return Mft({"i": 1, "s": 1}, {"a", "b"}, "i", {
        ("i", DEFAULT): Rule("i", DEFAULT, (Call("s", 0),)),
        ("i", EPS): Rule("i", EPS, (Call("s", 0),)),
        ("s", DEFAULT): Rule("s", DEFAULT, body()),
        ("s", EPS): Rule("s", EPS, body())})


def _constant(depth: int) -> Mft:
    """A parameter of q that its one call site passes a constant forest,
    ``depth`` a-nodes deep, and that q reads and passes on."""
    const = (Node("b"),)
    for _ in range(depth):
        const = (Node("a", children=const),)
    return Mft({"i": 1, "q": 2}, {"a", "b"}, "i", {
        ("i", DEFAULT): Rule("i", DEFAULT, (Call("q", 1, (const,)),)),
        ("i", EPS): Rule("i", EPS, ()),
        ("q", DEFAULT): Rule("q", DEFAULT, (Param(1), Call("q", 2, (
            (Param(1),),)))),
        ("q", EPS): Rule("q", EPS, ())})


def test_print_and_optimize_are_not_limited_by_recursion():
    # bodies nested deeper than the recursion limit allows a recursive
    # printer, reader, comparison or rewriter of bodies (the
    # continuation encoding included), and continuation-encoded rules of
    # 200, 1,000 and 5,000 sibling calls
    for depth in (300, 900, 5000):
        m = _nested(depth)
        want = ("# sigma: a\nq(%%t(x1)x2) -> %sq(x1)%s\nq(eps) -> eps\n"
                % ("a(" * depth, ")" * depth))
        assert print_mft(m) == want
        assert print_mft(optimize(m)) == want
        assert print_mft(parse_mft(print_mft(m))) == print_mft(m)
        body = m.rules[("q", DEFAULT)].rhs
        twin = _nested(depth).rules[("q", DEFAULT)].rhs
        assert body == twin and body != _nested(depth - 1).rules[
            ("q", DEFAULT)].rhs
        assert ("q(%%t(x1)x2, y1) -> %sq(x1, eps)%s y1\n"
                % ("a(" * depth, ")" * depth)) in print_mft(ft_to_mtt(m))
        # s is a stay state too large to inline
        m = _stay(depth)
        assert print_mft(optimize(m)) == print_mft(m)
        assert print_mft(parse_mft(print_mft(m))) == print_mft(m)
    for depth in (2000, 5000):
        # the constant is substituted for the parameter it fills
        assert print_mft(optimize(_constant(depth))) == (
            "# sigma: a b\ni(%%t(x1)x2) -> q(x1)\ni(eps) -> eps\n"
            "q(%%t(x1)x2) -> %sb()%s q(x2)\nq(eps) -> eps\n"
            % ("a(" * depth, ")" * depth))
    for width in (200, 1000, 5000):
        flat = Mft({"q": 1}, {"a"}, "q", {
            ("q", DEFAULT): Rule("q", DEFAULT, (Call("q", 1),) * width),
            ("q", EPS): Rule("q", EPS, ())})
        m = ft_to_mtt(flat)
        nested = "q(x1, " * width + "y1" + ")" * width
        assert "q(%%t(x1)x2, y1) -> %s\n" % nested in print_mft(m)
        assert print_mft(optimize(m)) == print_mft(m)
        assert print_mft(parse_mft(print_mft(m))) == print_mft(m)
