from __future__ import annotations

import dataclasses
import itertools
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relcalc.engine import (GROUND, IDENTITY_ELIM, INVERSE_CANCEL, LR, RL,
                            SYSTEM_NAMES, SYSTEMS, CheckResult, EmptyResult,
                            NoMatch, NotFound, Proof, ProofStep, RewriteError,
                            Rule, SearchConfig, TooLong, apply_rule,
                            check_proof, check_proof_data,
                            hypothesis_rules, make_system, neighbors,
                            normalize, proof_from_dict, proof_to_dict,
                            proof_to_json, prove_equal, reverse_proof)
from relcalc.terms import Atom, Word, parse_equation, parse_word, print_word

W = parse_word


# ---------------------------------------------------------------------------
# systems


def test_make_system_rule_sets():
    assert [r.id for r in make_system("dit").rules] == ["ax6", "ax7"]
    assert [r.id for r in make_system("dit+").rules] == ["ax6", "ax7", "Lzxz"]
    assert [r.id for r in make_system("dits").rules] == ["ax6", "ax7", "Lzxz", "ax7a"]
    assert [r.id for r in make_system("dgs").rules] == ["ax8"]
    assert [r.id for r in make_system("dgs+").rules] == ["ax8", "Lrxr"]
    assert [r.id for r in make_system("dgss").rules] == ["ax8", "Lrxr", "ax9a"]
    assert make_system("DIT+").name == "DIT+"
    with pytest.raises(ValueError):
        make_system("nope")


def test_system_flags():
    assert make_system("dgss").allows_inverses
    assert not make_system("dits").allows_inverses
    assert make_system("dgs").identity_name == "e"
    assert make_system("dit").identity_name is None
    assert make_system("dit").roles == ("x", "y", "z")
    assert make_system("dgss").roles == ("e",)


def test_make_system_looks_up_the_one_table():
    assert make_system("Dit+") is SYSTEMS["dit+"]
    assert make_system(" DGSS ") is SYSTEMS["dgss"]
    assert SYSTEM_NAMES == ("DIT", "DIT+", "DITS", "DGS", "DGS+", "DGSS")
    assert [s.name.lower() for s in SYSTEMS.values()] == list(SYSTEMS)
    assert [s.left_inverses for s in SYSTEMS.values()] == [False] * 3 + [True] * 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        SYSTEMS["dit"].roles = ("x", "y")
    with pytest.raises(dataclasses.FrozenInstanceError):
        SYSTEMS["dgs"].left_inverses = False
    fields = [f.name for f in dataclasses.fields(SYSTEMS["dit"])]
    assert fields == ["name", "rules", "roles", "left_inverses"]


# ---------------------------------------------------------------------------
# single steps


def _rule(system, rid):
    return make_system(system).rule_map()[rid]


def test_apply_rule_ground():
    ax7 = _rule("dit", "ax7")
    assert apply_rule(W("z y y"), ax7, 0) == W("x y")
    assert apply_rule(W("x y"), _rule("dit", "ax6"), 0) == W("y")
    # rl direction reverses the same span
    assert apply_rule(W("x y"), ax7, 0, RL) == W("z y y")
    with pytest.raises(NoMatch):
        apply_rule(W("z y y"), ax7, 1)
    with pytest.raises(NoMatch):
        apply_rule(W("z y"), ax7, 5)


def test_apply_rule_identity_elim():
    ax8 = _rule("dgss", "ax8")
    lrxr = _rule("dgss", "Lrxr")
    assert apply_rule(W("e a"), ax8, 0) == W("a")
    assert apply_rule(W("a e"), lrxr, 1) == W("a")
    with pytest.raises(NoMatch):  # trailing e has no right neighbour
        apply_rule(W("a e"), ax8, 1)
    with pytest.raises(NoMatch):  # leading e has no left neighbour
        apply_rule(W("e a"), lrxr, 0)
    # insertion, the rl reading
    assert apply_rule(W("a b"), ax8, 1, RL) == W("a e b")
    with pytest.raises(NoMatch):
        apply_rule(W("a"), ax8, 1, RL)  # would sit at the end
    for rule in (ax8, lrxr):
        for pos in (-1, 3):  # outside the word "a b", ends included
            with pytest.raises(NoMatch, match="cannot insert"):
                apply_rule(W("a b"), rule, pos, RL)


def test_apply_rule_inverse_cancel():
    ax9a = _rule("dgss", "ax9a")
    assert apply_rule(W("s y y' t"), ax9a, 1) == W("s t")
    assert apply_rule(W("a' a b"), ax9a, 0) == W("b")
    with pytest.raises(NoMatch):
        apply_rule(W("a b"), ax9a, 0)
    with pytest.raises(EmptyResult):
        apply_rule(W("a a'"), ax9a, 0)
    # insertion is not a function of the position
    with pytest.raises(NoMatch):
        apply_rule(W("a"), ax9a, 0, RL)


@pytest.mark.parametrize("kwargs, message", [
    (dict(id=""), "rule id must be non-empty"),
    (dict(id="r", kind=GROUND, lhs=W("x")), "ground rule needs both sides"),
    (dict(id="r", kind=GROUND, rhs=W("x")), "ground rule needs both sides"),
    (dict(id="r", kind=IDENTITY_ELIM, needs="left"), "needs its atom and a side"),
    (dict(id="r", kind=IDENTITY_ELIM, atom=Atom("e")), "needs its atom and a side"),
    (dict(id="r", kind=IDENTITY_ELIM, atom=Atom("e"), needs="up"), "needs its atom and a side"),
    (dict(id="r", kind="commute"), "unknown rule kind 'commute'"),
])
def test_malformed_rules_are_refused(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Rule(**kwargs)


# every rule whose rl reading is a function of the position, plus a hypothesis
_POSITIONAL_RULES = sorted({r for s in SYSTEMS.values() for r in s.rules
                            if r.kind != INVERSE_CANCEL}, key=lambda r: r.id) \
    + hypothesis_rules([(W("a b'"), W("c"))])


def _applied(w, rule, pos, direction):
    try:
        return apply_rule(w, rule, pos, direction)
    except RewriteError:
        return None


@given(st.sampled_from(_POSITIONAL_RULES), st.data())
@settings(max_examples=400, deadline=None)
def test_rl_application_is_the_inverse_of_lr(rule, data):
    # the checker's convention: apply_rule(w, r, p, RL) == w2 exactly when
    # apply_rule(w2, r, p, LR) == w, so an rl step replays forward
    # words hold a side of the rule between random atoms, so that both
    # directions match often; pos is its start or anywhere in -1..n+1
    sides = [rule.lhs.atoms, rule.rhs.atoms] if rule.kind == GROUND else [(rule.atom,), ()]
    names = sorted({a.name for side in sides for a in side} | {"a"})
    atoms = st.lists(st.builds(Atom, st.sampled_from(names),
                               st.sampled_from([False, False, False, True])), max_size=2)
    pre, mid, post = data.draw(atoms), data.draw(st.sampled_from(sides)), data.draw(atoms)
    assume(pre or mid or post)
    w = Word(tuple(pre) + mid + tuple(post))
    pos = data.draw(st.just(len(pre)) | st.integers(-1, len(w) + 1))
    for there, back in ((RL, LR), (LR, RL)):
        w2 = _applied(w, rule, pos, there)
        if w2 is not None:
            assert _applied(w2, rule, pos, back) == w


def test_apply_rule_bounds_and_direction():
    ax7 = _rule("dit", "ax7")
    with pytest.raises(TooLong):
        apply_rule(W("x"), ax7, 0, RL, max_len=1)
    with pytest.raises(ValueError):
        apply_rule(W("x y"), ax7, 0, "sideways")


# ---------------------------------------------------------------------------
# neighbourhoods


def test_neighbors_dit_examples():
    out = neighbors(W("z y"), "dit")
    assert (W("x"), ProofStep("ax7", LR, 0, W("x"))) in out
    out = neighbors(W("y"), "dit")
    assert (W("x y"), ProofStep("ax6", RL, 0, W("x y"))) in out


def test_neighbors_uses_hypotheses():
    hyp = [parse_equation("x = z y")]
    out = neighbors(W("x"), "dit", hyp)
    assert (W("z y"), ProofStep("hyp1", LR, 0, W("z y"))) in out


def test_neighbors_order_is_position_major():
    out = neighbors(W("z y y"), "dit")
    positions = [s.pos for _, s in out]
    assert positions == sorted(positions)
    # at one position, rule ids ascend and lr precedes rl
    at0 = [(s.rule, s.dir) for _, s in out if s.pos == 0]
    assert at0 == sorted(at0)


def test_neighbors_respects_max_len():
    for w2, _ in neighbors(W("x y x y"), "dit", max_len=4):
        assert len(w2) <= 4


def test_neighbors_dgss_insertions():
    out = neighbors(W("a"), "dgss")
    words = {print_word(w2) for w2, _ in out}
    # identity insertion from either elimination rule, each on its own side
    assert {"e a", "a e"} <= words
    # both orders of the cancelling pair at every gap, only names in scope
    assert {"a' a a", "a a' a", "a a a'"} <= words
    assert all("b" not in s for s in words)
    # insertion steps cite the cancel rule in reverse
    assert any(s.rule == "ax9a" and s.dir == RL for _, s in out)


# ---------------------------------------------------------------------------
# reference implementations: the search core must agree with these loops,
# which only ever call apply_rule on Words


def _reference_rules(system, hypotheses):
    return sorted(list(system.rules) + hypothesis_rules(hypotheses), key=lambda r: r.id)


def _reference_neighbors(w, system, hypotheses=(), max_len=16):
    system = make_system(system)
    hypotheses = tuple(hypotheses)
    ident = system.identity_name
    names = {a.name for a in w}
    for l, r in hypotheses:
        names.update(a.name for a in l)
        names.update(a.name for a in r)
    out = []
    for pos in range(len(w) + 1):
        for r in _reference_rules(system, hypotheses):
            for d in (LR, RL):
                if r.kind == INVERSE_CANCEL and d == RL:
                    if len(w) + 2 > max_len:
                        continue
                    for name in sorted(names):
                        if name == ident:
                            continue
                        for first_marked in (False, True):
                            pair = (Atom(name, first_marked), Atom(name, not first_marked))
                            w2 = Word(w.atoms[:pos] + pair + w.atoms[pos:])
                            out.append((w2, ProofStep(r.id, RL, pos, w2)))
                    continue
                try:
                    w2 = apply_rule(w, r, pos, d, max_len=max_len)
                except RewriteError:
                    continue
                out.append((w2, ProofStep(r.id, d, pos, w2)))
    return out


def _reference_normalize(w, system, hypotheses=()):
    # orient each ground rule toward the shortlex-smaller printed side,
    # then rewrite at the leftmost redex with the smallest rule id
    def key(u):
        return (len(u), print_word(u))

    reducers = []
    for r in _reference_rules(make_system(system), tuple(hypotheses)):
        if r.kind != GROUND or key(r.lhs) > key(r.rhs):
            reducers.append((r, LR))
        elif key(r.rhs) > key(r.lhs):
            reducers.append((r, RL))
    steps = []
    while True:
        hit = None
        for pos in range(len(w)):
            for r, d in reducers:
                try:
                    hit = ProofStep(r.id, d, pos, apply_rule(w, r, pos, d))
                    break
                except RewriteError:
                    continue
            if hit:
                break
        if hit is None:
            return w, tuple(steps)
        steps.append(hit)
        w = hit.result


_NAMES = {"dit": "xyza", "dit+": "xyza", "dits": "xyza",
          "dgs": "abe", "dgs+": "abe", "dgss": "abe"}


@st.composite
def _problems(draw):
    system = draw(st.sampled_from(sorted(_NAMES)))
    marks = st.booleans() if system == "dgss" else st.just(False)
    atom = st.builds(Atom, st.sampled_from(_NAMES[system]), marks)

    def word(lo, hi):
        return draw(st.lists(atom, min_size=lo, max_size=hi).map(lambda a: Word(tuple(a))))

    hyps = [(word(1, 3), word(1, 3)) for _ in range(draw(st.integers(0, 2)))]
    return system, word(1, 6), hyps, draw(st.integers(1, 9))


@given(_problems())
@example(("dgss", W("a a'"), [], 4))  # cancelling the whole word is refused
@example(("dgs+", W("e"), [], 1))     # a lone identity has no neighbour to lean on
@settings(max_examples=400, deadline=None)
def test_core_matches_reference_loops(problem):
    system, w, hyps, max_len = problem
    assert neighbors(w, system, hyps, max_len) == _reference_neighbors(w, system, hyps, max_len)
    assert normalize(w, system, hyps) == _reference_normalize(w, system, hyps)


@pytest.mark.parametrize("system, goal, max_len, nodes", [
    ("dits", "x y x = y y", 7, 537),
    ("dgss", "a b a' = b", 6, 322),
    ("dgss", "a b = b a", 6, 684),
    ("dit", "y y = y", 8, 342),
    ("dgs+", "a b c = c b a", 8, 196),
])
def test_exhausting_searches_are_pinned(system, goal, max_len, nodes):
    res = prove_equal(parse_equation(goal), system, config=SearchConfig(max_word_len=max_len))
    assert res == NotFound(nodes, None)


def test_hypothesis_rule_ids_are_positional():
    hyps = [parse_equation("x = y"), parse_equation("y = z")]
    assert [r.id for r in hypothesis_rules(hyps)] == ["hyp1", "hyp2"]
    assert [r.id for r in hypothesis_rules(hyps[:1])] == ["hyp1"]


# ---------------------------------------------------------------------------
# normalisation


def test_normalize_ditplus():
    nf, steps = normalize(W("z x y"), "dit+")
    assert nf == W("x")
    assert [s.rule for s in steps] == ["Lzxz", "ax7"]
    # the step chain is an honest proof of w = nf
    p = Proof("DIT+", (), (W("z x y"), nf), steps)
    assert check_proof(p).ok


def test_normalize_fixpoint():
    nf, steps = normalize(W("y"), "dit+")
    assert nf == W("y") and steps == ()
    nf2, steps2 = normalize(nf, "dit+")
    assert nf2 == nf and steps2 == ()


def test_normalize_orients_hypotheses_to_shrink():
    hyp = [parse_equation("y = y y y")]
    nf, steps = normalize(W("y y y"), "dit+", hyp)
    assert nf == W("y")
    assert steps[0].rule == "hyp1" and steps[0].dir == RL


def _ditplus_forms(w):
    # all normal forms reachable by shrinking rules, any order
    rules = [_rule("dit+", r) for r in ("ax6", "ax7", "Lzxz")]
    reducts = []
    for pos in range(len(w)):
        for r in rules:
            try:
                reducts.append(apply_rule(w, r, pos))
            except NoMatch:
                pass
    if not reducts:
        return {w}
    out = set()
    for r in reducts:
        out |= _ditplus_forms(r)
    return out


def test_ditplus_confluent_up_to_len6():
    alphabet = [Atom("x"), Atom("y"), Atom("z")]
    for n in range(1, 7):
        for combo in itertools.product(alphabet, repeat=n):
            w = Word(combo)
            forms = _ditplus_forms(w)
            assert len(forms) == 1, f"{print_word(w)} has normal forms {forms}"
            assert normalize(w, "dit+")[0] in forms


def test_dits_fast_path_is_incomplete_but_search_is_not():
    # the symmetry rule breaks confluence: two distinct normal forms...
    assert normalize(W("z y"), "dits")[0] == W("x")
    assert normalize(W("y z"), "dits")[0] == W("y z")
    # ...that the breadth-first search still proves equal
    p = prove_equal((W("y z"), W("x")), "dits")
    assert isinstance(p, Proof) and check_proof(p).ok


# ---------------------------------------------------------------------------
# search


def test_prove_reflexivity_is_empty():
    p = prove_equal((W("a"), W("a")), "dgss")
    assert isinstance(p, Proof) and p.steps == ()
    assert check_proof(p).ok


def test_prove_one_step_ax7():
    p = prove_equal((W("z y"), W("x")), "dit")
    assert isinstance(p, Proof)
    assert len(p.steps) == 1 and p.steps[0].rule == "ax7"
    assert check_proof(p).ok


def test_prove_with_hypothesis():
    # x = z follows from x y = z y with the return rule admitted
    goal = parse_equation("x = z")
    p = prove_equal(goal, "dit+", [parse_equation("x y = z y")])
    assert isinstance(p, Proof)
    assert check_proof(p).ok
    assert any(s.rule == "hyp1" for s in p.steps)


def test_prove_dgss_identity_insertion():
    # a' a equals the identity, but the engine may not cancel a word
    # away entirely, so the proof has to grow before it shrinks
    p = prove_equal((W("e"), W("a' a")), "dgss")
    assert isinstance(p, Proof) and len(p.steps) >= 2
    assert check_proof(p).ok


def test_prove_not_found_exhausts_component():
    # the single atom z rewrites to nothing at all under DIT
    res = prove_equal((W("z x"), W("z")), "dit")
    assert isinstance(res, NotFound)
    assert res.bound_hit is None
    assert res.nodes_expanded > 0


def test_prove_not_found_reports_bound():
    res = prove_equal((W("x"), W("y y y y")), "dit",
                      config=SearchConfig(max_word_len=6, max_nodes=5))
    assert isinstance(res, NotFound)
    assert res.bound_hit == "max_nodes"
    res = prove_equal((W("x"), W("y y y y")), "dit",
                      config=SearchConfig(max_word_len=5, max_depth=1))
    assert isinstance(res, NotFound)
    assert res.bound_hit == "max_depth"


def test_prove_rejects_marks_outside_dgss():
    with pytest.raises(ValueError):
        prove_equal((W("a'"), W("a")), "dit")
    with pytest.raises(ValueError):
        prove_equal((W("x"), W("x")), "dits", [parse_equation("a' = x")])


def test_prove_rejects_overlong_input():
    cfg = SearchConfig(max_word_len=3)
    with pytest.raises(ValueError):
        prove_equal((W("x y x y"), W("y")), "dit", config=cfg)


def test_reverse_proof_checks():
    for system, goal, hyps in [
        ("dit", "z y = x", []),
        ("dit+", "x = z", ["x y = z y"]),
        ("dgss", "e = a' a", []),
        ("dits", "x x = x", []),
    ]:
        p = prove_equal(parse_equation(goal), system,
                        [parse_equation(h) for h in hyps])
        assert isinstance(p, Proof)
        r = reverse_proof(p)
        assert r.goal == (p.goal[1], p.goal[0])
        assert check_proof(r).ok


def test_hypothesis_monotonicity():
    goal = parse_equation("x = z")
    h1 = parse_equation("x y = z y")
    p = prove_equal(goal, "dit+", [h1])
    assert isinstance(p, Proof)
    widened = Proof(p.system, (h1, parse_equation("y = y y")), p.goal, p.steps)
    assert check_proof(widened).ok


# ---------------------------------------------------------------------------
# checking


def _proved(goal_text, system="dit", hyps=()):
    p = prove_equal(parse_equation(goal_text), system,
                    [parse_equation(h) for h in hyps])
    assert isinstance(p, Proof)
    return p


def test_check_rejects_corrupt_position():
    p = _proved("z y = x")
    bad = Proof(p.system, p.hypotheses, p.goal,
                (ProofStep(p.steps[0].rule, p.steps[0].dir, p.steps[0].pos + 1,
                           p.steps[0].result),))
    res = check_proof(bad)
    assert not res.ok and res.failed_step == 0


def test_check_rejects_unknown_rule():
    p = _proved("z y = x")
    bad = Proof(p.system, p.hypotheses, p.goal,
                (ProofStep("ax7a", LR, 0, p.steps[0].result),))
    res = check_proof(bad)
    assert not res.ok and res.failed_step == 0
    assert "unknown rule" in res.reason


def test_check_rejects_wrong_final_word():
    p = _proved("z y = x")
    bad = Proof(p.system, p.hypotheses, (p.goal[0], W("y")), p.steps)
    res = check_proof(bad)
    assert not res.ok and res.failed_step is None
    assert "chain ends" in res.reason


def test_check_rejects_empty_proof_of_distinct_words():
    res = check_proof(Proof("DIT", (), (W("x"), W("y")), ()))
    assert not res.ok


def test_check_rejects_bad_direction_and_system():
    p = _proved("z y = x")
    bad = Proof(p.system, p.hypotheses, p.goal,
                (ProofStep("ax7", "up", 0, p.steps[0].result),))
    assert not check_proof(bad).ok
    assert not check_proof(Proof("zzz", (), (W("x"), W("x")), ())).ok


def test_check_rejects_marks_under_markless_system():
    res = check_proof(Proof("DIT", (), (W("a'"), W("a'")), ()))
    assert not res.ok


def test_check_result_truth_is_its_verdict():
    assert bool(check_proof(_proved("z y = x"))) is True
    assert bool(CheckResult(False, 0, "why")) is False


def _script(system, goal, steps):
    return Proof(system, (), parse_equation(goal),
                 tuple(ProofStep(r, d, pos, W(res)) for r, d, pos, res in steps))


@pytest.mark.parametrize("system, goal, steps, expected", [
    ("DIT", "z y = x", [("ax7a", LR, 0, "x")],
     (False, 0, "unknown rule 'ax7a' under DIT")),
    ("DIT", "z y = x", [("ax7a", "up", 0, "x")],  # the rule is looked up first
     (False, 0, "unknown rule 'ax7a' under DIT")),
    ("DIT", "z y = x", [("ax7", "up", 0, "x")],
     (False, 0, "bad direction 'up'")),
    ("DIT", "z y = x", [("ax7", LR, 1, "x")],
     (False, 0, "ax7: no lr match at 1")),
    ("DIT", "z y y = y", [("ax7", LR, 0, "x y"), ("ax6", LR, 1, "y")],
     (False, 1, "ax6: no lr match at 1")),
    ("DIT", "z y = y", [("ax7", LR, 0, "y")],
     (False, 0, "recomputed 'x', step records 'y'")),
    ("DIT", "x = y y", [("ax7", RL, 0, "y y")],
     (False, 0, "reverse step does not replay: ax7: no lr match at 0")),
    ("DIT", "y = z y", [("ax7", RL, 0, "z y")],
     (False, 0, "applying ax7 forward on the result gives 'x', not the previous word")),
    ("DGSS", "a a' = b", [("ax9a", LR, 0, "b")],
     (False, 0, "cancelling the whole word would leave nothing")),
    ("DGSS", "b = a a'", [("ax9a", RL, 0, "a a'")],
     (False, 0, "reverse step does not replay: cancelling the whole word would leave nothing")),
    ("DIT", "z y = y", [("ax7", LR, 0, "x")],
     (False, None, "chain ends at 'x', goal right-hand side is 'y'")),
    ("zzz", "x = x", [],
     (False, None, "unknown system 'zzz' (expected one of DIT, DIT+, DITS, DGS, DGS+, DGSS)")),
    ("DIT", "a' = a'", [],
     (False, None, "inverse marks in \"a'\" need a system with the inverse-cancel rule, not DIT")),
])
def test_check_reasons_are_pinned(system, goal, steps, expected):
    res = check_proof(_script(system, goal, steps))
    assert (res.ok, res.failed_step, res.reason) == expected


# ---------------------------------------------------------------------------
# proof scripts


def test_script_round_trip():
    p = _proved("x = z", "dit+", ["x y = z y"])
    data = json.loads(proof_to_json(p))
    assert check_proof_data(data).ok
    assert proof_from_dict(data) == p


def test_script_rejects_non_canonical_result():
    p = _proved("z y = x")
    data = proof_to_dict(p)
    data["steps"][0]["result"] = " x"  # same word, wrong spelling
    res = check_proof_data(data)
    assert (res.ok, res.failed_step, res.reason) == \
        (False, 0, "result text ' x' is not canonical")


def test_script_structural_errors():
    p = _proved("z y = x")
    good = proof_to_dict(p)
    for corrupt in [
        42,
        {k: v for k, v in good.items() if k != "goal"},
        {**good, "steps": [{"rule": "ax7"}]},
        {**good, "steps": [{**good["steps"][0], "pos": "0"}]},
        {**good, "steps": [{**good["steps"][0], "pos": True}]},  # bool, though True == 1
        {**good, "hypotheses": [1]},
    ]:
        with pytest.raises(ValueError):
            proof_from_dict(corrupt)


# ---------------------------------------------------------------------------
# properties


_tris = st.sampled_from(["x", "y", "z"])
_tri_words = st.builds(
    lambda names: Word(tuple(Atom(n) for n in names)),
    st.lists(_tris, min_size=1, max_size=4))


@given(_tri_words, _tri_words, st.sampled_from(["dit", "dit+", "dits"]))
@settings(max_examples=60, deadline=None)
def test_found_proofs_always_check(u, v, system):
    cfg = SearchConfig(max_word_len=8, max_nodes=3000, max_depth=8)
    res = prove_equal((u, v), system, config=cfg)
    if isinstance(res, Proof):
        assert check_proof(res).ok
        assert check_proof(reverse_proof(res)).ok


@given(_tri_words)
@settings(max_examples=60, deadline=None)
def test_steps_touch_only_their_span(w):
    system = make_system("dit+")
    rules = system.rule_map()
    for w2, step in neighbors(w, system, max_len=8):
        r = rules[step.rule]
        pat = r.lhs if step.dir == LR else r.rhs
        rep = r.rhs if step.dir == LR else r.lhs
        assert w2.atoms[:step.pos] == w.atoms[:step.pos]
        assert w2.atoms[step.pos:step.pos + len(rep)] == rep.atoms
        assert w2.atoms[step.pos + len(rep):] == w.atoms[step.pos + len(pat):]


@given(_tri_words, _tri_words)
@settings(max_examples=40, deadline=None)
def test_normalize_agrees_with_search_on_ditplus(u, v):
    # DIT+ is confluent, so equal normal forms and provable equality
    # are the same relation (within comfortable bounds)
    cfg = SearchConfig(max_word_len=8, max_nodes=8000, max_depth=8)
    same_nf = normalize(u, "dit+")[0] == normalize(v, "dit+")[0]
    res = prove_equal((u, v), "dit+", config=cfg)
    assert same_nf == isinstance(res, Proof)
