from __future__ import annotations

import ast
import dataclasses
import hashlib
import itertools
import json
import pathlib
import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import relcalc
import relcalc.suites
from relcalc import engine
from relcalc.engine import (CheckResult, EmptyResult, NoMatch, NotFound, RewriteError,
                            SearchConfig, apply_rule, check_proof, check_proof_data,
                            neighbors, normalize, proof_from_dict, proof_to_dict,
                            proof_to_json, prove_equal)
from relcalc.systems import (AX6, GROUND, IDENTITY_ELIM, INVERSE_CANCEL, LR, RL,
                             SYSTEM_NAMES, SYSTEMS, Proof, ProofStep, Rule, RuleSystem,
                             hypothesis_rules, make_system)
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


@pytest.mark.parametrize("system", [3, None, ("dit",)])
def test_make_system_refuses_a_non_str_id(system):
    with pytest.raises(ValueError) as exc:
        make_system(system)
    assert str(exc.value) == (f"unknown system {system!r} "
                              "(expected one of DIT, DIT+, DITS, DGS, DGS+, DGSS)")


_X, _Y = W("x"), W("y")


@pytest.mark.parametrize("call, message", [
    (lambda: prove_equal((_X, _Y), "dit", [_X]),
     f"a hypothesis must be a pair of words, got {_X!r}"),
    (lambda: prove_equal((_X, _Y), "dit", [(_X, _Y, _X)]),
     f"a hypothesis must be a pair of words, got {(_X, _Y, _X)!r}"),
    (lambda: prove_equal((_X, _Y), "dit", [[_X, _Y]]),
     f"a hypothesis must be a pair of words, got {[_X, _Y]!r}"),
    (lambda: prove_equal(("x", _Y), "dit"), "expected a Word, got 'x'"),
    (lambda: neighbors(W("x y"), "dit", [("x", "y")]), "expected a Word, got 'x'"),
    (lambda: neighbors("x y", "dit"), "expected a Word, got 'x y'"),
    (lambda: normalize(_X, "dit", [(_X, Atom("y"))]),
     f"expected a Word, got {Atom('y')!r}"),
    (lambda: prove_equal("x = y", "dit"), "a goal must be a pair of words, got 'x = y'"),
    (lambda: prove_equal((_X,), "dit"), f"a goal must be a pair of words, got {(_X,)!r}"),
    (lambda: prove_equal([_X, _Y], "dit"), f"a goal must be a pair of words, got {[_X, _Y]!r}"),
])
def test_problem_words_must_be_words(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call", [
    lambda: prove_equal((_X, _Y), "dit", 5),
    lambda: neighbors(_X, "dit", 5),
    lambda: normalize(_X, "dit", 5),
], ids=["prove_equal", "neighbors", "normalize"])
def test_hypotheses_that_are_not_iterable_are_refused(call):
    # each was a bare TypeError from tuple() in the search core
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "hypotheses must be an iterable of equations, got 5"


def test_check_proof_rejects_a_malformed_hypothesis():
    p = _proved("z y = x")
    res = check_proof(Proof(p.system, (W("x"),), p.goal, p.steps))
    assert not res.ok and res.failed_step is None
    assert res.reason.startswith("a hypothesis must be a pair of words, got Word(")


def test_check_proof_rejects_a_malformed_goal():
    p = _proved("z y = x")
    res = check_proof(Proof(p.system, p.hypotheses, list(p.goal), p.steps))
    assert res == CheckResult(False, None, f"a goal must be a pair of words, got {list(p.goal)!r}")


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
    mine = RuleSystem("MINE", (AX6,), ("x", "y", "z"))
    assert make_system(mine) is mine  # a system passes through unchanged
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
    (dict(id=1, kind=INVERSE_CANCEL), "rule id must be a str, got 1"),
])
def test_malformed_rules_are_refused(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Rule(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    # before, prove_equal met these as 'str' object has no attribute 'atoms'
    (dict(lhs="x y", rhs=W("y")), "lhs must be a Word, got 'x y'"),
    (dict(lhs=W("x y"), rhs="y"), "rhs must be a Word, got 'y'"),
    # and this as 'str' object has no attribute 'name'
    (dict(kind=IDENTITY_ELIM, atom="e", needs="right"),
     "identity-elim rule needs its atom and a side"),
])
def test_rule_sides_and_atoms_must_be_terms(kwargs, message):
    with pytest.raises(ValueError) as exc:
        Rule("r", **kwargs)
    assert str(exc.value) == message


def test_an_identity_rule_refuses_a_marked_atom():
    # prove_equal read it as "delete e'", count_models as "e is a left identity"
    with pytest.raises(ValueError) as exc:
        Rule("d", IDENTITY_ELIM, atom=Atom("e", True), needs="right")
    assert str(exc.value) == "identity-elim rule needs an unmarked atom, got e'"


_PAIR = W("a a'")


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind=GROUND, lhs=W("x y"), rhs=W("y"), atom=Atom("q"), needs="up"),
     f"ground rule takes no atom, got {Atom('q')!r}"),
    (dict(kind=GROUND, lhs=W("x y"), rhs=W("y"), needs="left"),
     "ground rule takes no needs, got 'left'"),
    (dict(kind=IDENTITY_ELIM, atom=Atom("e"), needs="right", rhs=W("e")),
     f"identity-elim rule takes no rhs, got {W('e')!r}"),
    (dict(kind=INVERSE_CANCEL, lhs=_PAIR, rhs=W("e")),
     f"inverse-cancel rule takes no lhs, got {_PAIR!r}"),
    (dict(kind=INVERSE_CANCEL, needs="left"), "inverse-cancel rule takes no needs, got 'left'"),
])
def test_rules_refuse_fields_their_kind_never_reads(kwargs, message):
    with pytest.raises(ValueError) as exc:
        Rule("r", **kwargs)
    assert str(exc.value) == message


def test_the_built_in_rules_read_only_their_fields():
    rules = [r for s in SYSTEMS.values() for r in s.rules] \
        + hypothesis_rules([(W("x y"), W("y")), (W("a'"), W("e"))])
    assert all(dataclasses.replace(r) == r for r in rules)


@pytest.mark.parametrize("args, message", [
    ((1, (AX6,), ("x", "y")), "system name must be a str, got 1"),
    (("M", [AX6], ("x", "y")), f"rules must be a tuple of Rules, got {[AX6]!r}"),
    (("M", ("ax6",), ("x", "y")), "rules must be a tuple of Rules, got ('ax6',)"),
    # a str of roles was read one character at a time, a blank among them
    (("M", (AX6,), "x y"), "roles must be a tuple of distinct atom names, got 'x y'"),
    (("M", (AX6,), ("x", "y", "x")),
     "roles must be a tuple of distinct atom names, got ('x', 'y', 'x')"),
    (("M", (AX6,), ("x", " ")), "bad atom name ' '"),
    (("M", (AX6,), ("x", 1)), "bad atom name 1"),
    (("M", (AX6,), ("x", "y"), 1), "left_inverses must be a bool, got 1"),
])
def test_malformed_systems_are_refused(args, message):
    with pytest.raises(ValueError) as exc:
        RuleSystem(*args)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("max_len, message", [
    ("3", "max_word_len must be an int, got '3'"),
    (True, "max_word_len must be an int, got True"),
    (0, "max_word_len must be at least 1, got 0"),
])
def test_neighbors_checks_max_len_as_search_config_does(max_len, message):
    with pytest.raises(ValueError) as exc:
        neighbors(W("x y"), "dit", max_len=max_len)
    assert str(exc.value) == message


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
                    w2 = apply_rule(w, r, pos, d)
                except RewriteError:
                    continue
                if len(w2) > max_len:
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


def _names(prefix, lo, hi):
    # the word of the atoms prefix<lo> ... prefix<hi - 1>, each a name of its own
    return Word(tuple(Atom(f"{prefix}{i}") for i in range(lo, hi)))


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
# hypothesis patterns that start with the identity and with a marked atom
# share their table rows with the rule matchers filed under those atoms
@example(("dgs+", W("a e b e"), [(W("e b"), W("a"))], 6))
@example(("dgss", W("a' b a"), [(W("a' b"), W("e")), (W("b"), W("a' a"))], 7))
# packed words past one machine word: 71 names take 8 bits an atom, and
# words of 24 and 40 atoms run to several 30-bit limbs
@example(("dgss", _names("n", 0, 40), [(_names("m", 0, 15), _names("m", 15, 30))], 42))
@example(("dits", W(" ".join(["x y z"] * 8)), [(W("x y"), W("z z z"))], 26))
@example(("dgss", W(" ".join(["a b' e a'"] * 5)), [(W("a b"), W("b' e"))], 24))
@settings(max_examples=400, deadline=None)
def test_core_matches_reference_loops(problem):
    system, w, hyps, max_len = problem
    assert neighbors(w, system, hyps, max_len) == _reference_neighbors(w, system, hyps, max_len)
    assert normalize(w, system, hyps) == _reference_normalize(w, system, hyps)


@given(st.lists(st.builds(Atom, st.sampled_from("abe"), st.booleans()), min_size=1, max_size=40))
@example([Atom("e")])
@example([Atom(f"n{i}", i % 2 == 1) for i in range(70)] + [Atom("e")])
def test_encode_and_decode_are_inverse(atoms):
    w = Word(tuple(atoms))
    core = engine._Core("dgss", (), (w, w))
    packed = core.encode(w.atoms)
    assert isinstance(packed, int) and core.decode(packed) == w
    assert -(-packed.bit_length() // core._bits) == len(w)


_STOPS = [  # system, goal, max_len, the other bounds, nodes, bound hit
    ("dits", "x y x = y y", 7, {}, 537, None),
    ("dgss", "a b a' = b", 6, {}, 322, None),
    ("dgss", "a b = b a", 6, {}, 684, None),
    ("dit", "y y = y", 8, {}, 342, None),
    ("dgs+", "a b c = c b a", 8, {}, 196, None),
    # a max_nodes stop counts the node that went past the budget
    ("dit+", "x y x = y y", 6, {"max_nodes": 5}, 6, "max_nodes"),
    ("dit+", "x y x = y y", 6, {"max_depth": 1}, 2, "max_depth"),
    ("dit+", "x y x = y y", 6, {"max_depth": 2}, 8, "max_depth"),
    ("dgss", "a b a' = b", 6, {"max_nodes": 100}, 101, "max_nodes"),
    ("dgss", "a b a' = b", 6, {"max_depth": 3}, 137, "max_depth"),
    ("dit", "x y = y x", 8, {"max_nodes": 50}, 51, "max_nodes"),
    ("dits", "x y x = y y", 7, {"max_depth": 4}, 71, "max_depth"),
]


def _stop_id(row):
    system, goal, max_len, bounds, nodes, _ = row
    return "-".join([system, goal, str(max_len), str(nodes), *(f"{k}={v}" for k, v in bounds.items())])


@pytest.mark.parametrize("system, goal, max_len, bounds, nodes, bound", _STOPS,
                         ids=[_stop_id(row) for row in _STOPS])
def test_exhausting_searches_are_pinned(system, goal, max_len, bounds, nodes, bound):
    config = SearchConfig(max_word_len=max_len, **bounds)
    assert prove_equal(parse_equation(goal), system, config=config) == NotFound(nodes, bound)


_HARD_GOALS = [  # system, goal, max_len: each side's search runs until it is exhausted
    ("dits", "x y x = y y", 7), ("dits", "x y x = y y", 8), ("dits", "y y = y", 7),
    ("dgss", "a b a' = b", 6), ("dgss", "a b a' = b", 7),
    ("dgss", "a b = b a", 6), ("dgss", "a b = b a", 7), ("dgss", "a = b", 6),
    ("dit", "x y x = y y", 8), ("dit", "y y = y", 8), ("dit", "y x = x", 8),
    ("dit+", "x y x = y y", 8), ("dit+", "y y = y", 8), ("dit+", "x y z = z", 8),
    ("dgs+", "a b = b a", 8), ("dgs+", "a b c = c b a", 8),
]

_HYPOTHESIS_GOALS = [  # system, hypotheses, goal, max_len, the other bounds
    ("dit", ("x = y y",), "x y = y", 8, {}),
    ("dit+", ("x y = z y",), "x = z", 16, {}),
    ("dits", ("x x = y",), "y x = x y", 7, {}),
    ("dgs", ("a b = e",), "b a = e", 6, {}),
    ("dgs+", ("a b = b a", "b c = e"), "a c b = a", 7, {}),
    ("dgss", ("a b = b a",), "a b a' = b", 6, {}),
    ("dgss", ("a a = e",), "a' = a", 6, {"max_nodes": 300}),
    ("dit", ("x y = y x",), "x x y = y", 7, {"max_depth": 3}),
]

_NEIGHBOR_WORDS = [  # system, hypotheses, word, max_len
    ("dit", (), "x y z x", 16), ("dit", (), "x y z x", 4), ("dit", (), "x y z", 3),
    ("dit+", (), "z x z y x", 6), ("dits", (), "y z x y", 5),
    ("dits", ("x y = z z z",), "x y x y", 6), ("dits", ("x y = z z z",), "x y x y", 4),
    ("dgs", (), "e a e b e", 7), ("dgs", (), "e", 1), ("dgs", ("e a = b",), "a b e", 4),
    ("dgs+", (), "a e b e", 5), ("dgs+", (), "e e", 2), ("dgs+", ("e b = a",), "a e b e", 6),
    ("dgss", (), "a a' b", 5), ("dgss", (), "a a' b", 3), ("dgss", (), "a' e a", 16),
    ("dgss", ("c = b' a",), "a b' e", 6), ("dgss", ("a' b = e", "b = a' a"), "a' b a", 7),
]


def _search_outputs():
    """prove_equal on the hard goals, the proof suites' goals and goals with
    hypotheses, then neighbors on a corpus of words, in that order."""
    for system, goal, max_len in _HARD_GOALS:
        yield prove_equal(parse_equation(goal), system,
                          config=SearchConfig(max_word_len=max_len))
    for system, rows in relcalc.suites._PROOF_SUITES.values():
        for _, hyps, goal in rows:
            yield prove_equal(parse_equation(goal), system, [parse_equation(h) for h in hyps])
    for system, hyps, goal, max_len, bounds in _HYPOTHESIS_GOALS:
        yield prove_equal(parse_equation(goal), system, [parse_equation(h) for h in hyps],
                          SearchConfig(max_word_len=max_len, **bounds))
    for system, hyps, w, max_len in _NEIGHBOR_WORDS:
        yield neighbors(W(w), system, [parse_equation(h) for h in hyps], max_len)


SEARCH_DIGEST = "b5c50c51d58e8cb8d3059e8383872ae5140753a0a93359dbe57c36304c44ccae"


def test_search_outputs_are_pinned():
    # a regression pin: proofs, node counts and neighbour lists, in order;
    # any change to the search's order, its bounds or its steps moves it
    digest = hashlib.sha256()
    for out in _search_outputs():
        digest.update(repr(out).encode())
        digest.update(repr(getattr(out, "nodes_expanded", None)).encode())
    assert digest.hexdigest() == SEARCH_DIGEST


def _count_tables(monkeypatch):
    # the room of each matcher table the search core compiles
    built = []
    original = engine._Core._table

    def counting(core, moves, room):
        built.append(room)
        return original(core, moves, room)
    monkeypatch.setattr(engine._Core, "_table", counting)
    return built


def test_a_settled_goal_compiles_no_move_table(monkeypatch):
    built = _count_tables(monkeypatch)
    p = prove_equal(parse_equation("z x y = x"), "dit+")
    assert isinstance(p, Proof) and p.nodes_expanded == 0
    assert built == [0]  # the reducers only


def test_a_searched_goal_compiles_the_move_table_once(monkeypatch):
    built = _count_tables(monkeypatch)
    p = prove_equal(parse_equation("y z = x"), "dits")
    assert isinstance(p, Proof) and p.nodes_expanded > 1
    # the reducers, then the moves at the first expansion; no move adds more
    # than one atom, so every word with room for one shares the room-1 table
    assert built == [0, 1]
    del built[:]
    config = SearchConfig(max_word_len=7)
    assert prove_equal(parse_equation("x y x = y y"), "dits", config=config) == NotFound(537, None)
    # words of 7 atoms, at the bound, take a room-0 table of their own, built once
    assert built == [0, 1, 0]


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
    p = Proof(make_system("dit+"), (), (W("z x y"), nf), steps)
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
    assert res == NotFound(6, "max_nodes")
    res = prove_equal((W("x"), W("y y y y")), "dit",
                      config=SearchConfig(max_word_len=5, max_depth=1))
    assert res == NotFound(2, "max_depth")


def test_prove_rejects_marks_outside_dgss():
    with pytest.raises(ValueError):
        prove_equal((W("a'"), W("a")), "dit")
    with pytest.raises(ValueError):
        prove_equal((W("x"), W("x")), "dits", [parse_equation("a' = x")])


@pytest.mark.parametrize("call", [
    lambda w, hyps: neighbors(w, "dit", hyps),
    lambda w, hyps: normalize(w, "dit", hyps),
    lambda w, hyps: prove_equal((w, W("x")), "dit", hyps),
])
def test_marks_outside_dgss_are_refused_alike(call):
    message = "inverse marks in \"x'\" need a system with the inverse-cancel rule, not DIT"
    with pytest.raises(ValueError) as exc:
        call(W("x'"), ())
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        call(W("x"), [parse_equation("x' = y")])
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("max_word_len", True, "max_word_len must be an int, got True"),
    ("max_nodes", 2.5, "max_nodes must be an int, got 2.5"),
    ("max_depth", "3", "max_depth must be an int, got '3'"),
    ("max_nodes", None, "max_nodes must be an int, got None"),
])
def test_search_config_bounds_are_ints(field, value, message):
    with pytest.raises(ValueError) as exc:
        SearchConfig(**{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("config", [(1, 2, 3), 0, {"max_word_len": 3}])
def test_prove_refuses_a_config_that_is_not_a_search_config(config):
    with pytest.raises(ValueError) as exc:
        prove_equal((W("x y"), W("y")), "dit", config=config)
    assert str(exc.value) == f"config must be a SearchConfig, got {config!r}"


def test_prove_rejects_overlong_input():
    cfg = SearchConfig(max_word_len=3)
    with pytest.raises(ValueError):
        prove_equal((W("x y x y"), W("y")), "dit", config=cfg)


def _reversed(p: Proof) -> Proof:
    # the same derivation read right to left, which proves the swapped goal
    return Proof(p.system, p.hypotheses, (p.goal[1], p.goal[0]),
                 tuple(engine._invert_chain(p.goal[0], p.steps)))


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
        r = _reversed(p)
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
    res = check_proof(Proof(make_system("dit"), (), (W("x"), W("y")), ()))
    assert not res.ok


def test_check_rejects_bad_direction_and_system():
    p = _proved("z y = x")
    bad = Proof(p.system, p.hypotheses, p.goal,
                (ProofStep("ax7", "up", 0, p.steps[0].result),))
    assert not check_proof(bad).ok
    with pytest.raises(ValueError, match="^unknown system 'zzz'"):
        proof_from_dict({**proof_to_dict(p), "system": "zzz"})


def test_apply_rule_refuses_a_position_that_is_not_an_int():
    for pos in (False, "0", 0.0):
        with pytest.raises(ValueError) as exc:
            apply_rule(W("x y"), AX6, pos)
        assert str(exc.value) == f"pos must be an int, got {pos!r}"
    assert apply_rule(W("x y"), AX6, 0) == W("y")


def test_apply_rule_refuses_a_word_or_rule_of_the_wrong_type():
    with pytest.raises(ValueError) as exc:
        apply_rule("x y", AX6, 0)
    assert str(exc.value) == "w must be a Word, got 'x y'"
    with pytest.raises(ValueError) as exc:
        apply_rule(W("x y"), "ax6", 0)
    assert str(exc.value) == "rule must be a Rule, got 'ax6'"


def test_check_proof_refuses_what_is_not_a_proof():
    with pytest.raises(ValueError) as exc:
        check_proof("x")
    assert str(exc.value) == "p must be a Proof, got 'x'"


@pytest.mark.parametrize("call", [proof_to_dict, proof_to_json])
def test_proof_readers_refuse_what_is_not_a_proof(call):
    with pytest.raises(ValueError) as exc:
        call("p")
    assert str(exc.value) == "p must be a Proof, got 'p'"


def _replace_step(p, i, step=None, **fields):
    # step i replaced by `step`, or by a copy with `fields` changed
    if step is None:
        step = dataclasses.replace(p.steps[i], **fields)
    return dataclasses.replace(p, steps=p.steps[:i] + (step,) + p.steps[i + 1:])


@pytest.mark.parametrize("corrupt, expected", [
    (lambda p: dataclasses.replace(p, system="dit"),
     (False, None, "expected a RuleSystem, got 'dit'")),
    (lambda p: _replace_step(p, 0, step="x"), (False, 0, "expected a ProofStep, got 'x'")),
    (lambda p: _replace_step(p, 1, step=("ax6", LR, 0, "y")),
     (False, 1, "expected a ProofStep, got ('ax6', 'lr', 0, 'y')")),
    (lambda p: _replace_step(p, 0, result="x y"), (False, 0, "result must be a Word, got 'x y'")),
    (lambda p: _replace_step(p, 1, result="y"), (False, 1, "result must be a Word, got 'y'")),
    (lambda p: _replace_step(p, 0, pos="0"), (False, 0, "pos must be an int, got '0'")),
    (lambda p: _replace_step(p, 1, pos=False), (False, 1, "pos must be an int, got False")),
    # the rule is looked up first, as before
    (lambda p: _replace_step(p, 0, rule="ax9", result="x y"),
     (False, 0, "unknown rule 'ax9' under DIT")),
    (lambda p: dataclasses.replace(p, hypotheses=3),
     (False, None, "hypotheses must be a tuple or list, got 3")),
    (lambda p: dataclasses.replace(p, steps=3),
     (False, None, "steps must be a tuple or list, got 3")),
    (lambda p: _replace_step(p, 1, rule=["ax6"]),
     (False, 1, "rule must be a rule id, got ['ax6']")),
])
def test_check_proof_rejects_parts_of_the_wrong_type(corrupt, expected):
    p = _proved("z y y = y")  # ax7 lr 0 to 'x y', then ax6 lr 0 to 'y'
    assert [(s.rule, s.dir, s.pos, print_word(s.result)) for s in p.steps] == \
        [("ax7", LR, 0, "x y"), ("ax6", LR, 0, "y")]
    res = check_proof(corrupt(p))
    assert (res.ok, res.failed_step, res.reason) == expected


def test_check_rejects_marks_under_markless_system():
    res = check_proof(Proof(make_system("dit"), (), (W("a'"), W("a'")), ()))
    assert not res.ok


def test_check_result_truth_is_its_verdict():
    assert bool(check_proof(_proved("z y = x"))) is True
    assert bool(CheckResult(False, 0, "why")) is False


def _script(system, goal, steps):
    return Proof(make_system(system), (), parse_equation(goal),
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
    ("DIT", "x = y", [("hyp1", LR, 0, "y")],  # a hypothesis the proof does not state
     (False, 0, "unknown rule 'hyp1' under DIT")),
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


def test_script_names_a_built_in_system():
    data = {**proof_to_dict(_proved("z y = x")), "system": "zzz"}
    why = "^unknown system 'zzz' \\(expected one of DIT, DIT\\+, DITS, DGS, DGS\\+, DGSS\\)$"
    with pytest.raises(ValueError, match=why):
        proof_from_dict(data)
    with pytest.raises(ValueError, match=why):
        check_proof_data(data)


# ---------------------------------------------------------------------------
# script reading: a pinned corpus of malformed scripts, and a differential
# test against a reader that parses every text and prints every result back


_BASES = {  # scripts as `relcalc prove --format json` writes them
    "dit": {"system": "DIT", "hypotheses": [], "goal": "z y = x",
            "steps": [{"rule": "ax7", "dir": "lr", "pos": 0, "result": "x"}]},
    "hyp": {"system": "DIT+", "hypotheses": ["x y = z y"], "goal": "x = z",
            "steps": [{"rule": "ax7", "dir": "rl", "pos": 0, "result": "z y"},
                      {"rule": "Lzxz", "dir": "rl", "pos": 0, "result": "z x y"},
                      {"rule": "hyp1", "dir": "lr", "pos": 1, "result": "z z y"},
                      {"rule": "ax7", "dir": "lr", "pos": 1, "result": "z x"},
                      {"rule": "Lzxz", "dir": "lr", "pos": 0, "result": "z"}]},
}


def _edited(base, steps=(), **fields):
    """A copy of the script `_BASES[base]` with `fields` replaced, and
    each (index, field, value) of `steps` set in that step."""
    data = json.loads(json.dumps(_BASES[base]))
    data.update(fields)
    for i, key, value in steps:
        data["steps"][i][key] = value
    return data


def _outcome(fn, data):
    """What `fn(data)` returns, or the type name and text of what it raised."""
    try:
        return fn(data)
    except Exception as e:
        return type(e).__name__, str(e)


_OK = CheckResult(True)


@pytest.mark.parametrize("data, expected", [
    (_edited("dit"), _OK),
    (_edited("hyp"), _OK),
    # ParseError offsets count from the start of the text, on either side of '='
    (_edited("hyp", goal="x ( = z"), ("ParseError", "offset 2: unclosed group")),
    (_edited("hyp", goal="x = z )"), ("ParseError", "offset 6: unmatched ')'")),
    (_edited("hyp", goal="x = 'z"),
     ("ParseError", "offset 4: inversion mark must follow an atom")),
    (_edited("hyp", goal="x  =  z''"), ("ParseError", "offset 8: doubled inversion mark")),
    (_edited("hyp", goal="x = "), ("ParseError", "offset 3: empty input")),
    (_edited("hyp", goal="x z"), ("ParseError", "offset 3: expected '=' between two terms")),
    (_edited("hyp", goal="x = z = y"), ("ParseError", "offset 6: more than one '='")),
    (_edited("hyp", hypotheses=["x y = z [y"]), ("ParseError", "offset 8: unclosed group")),
    (_edited("hyp", hypotheses=["x;y = z y"]),
     ("ParseError", "offset 1: unexpected character ';'")),
    (_edited("hyp", steps=[(3, "result", "z (x")]), ("ParseError", "offset 2: unclosed group")),
    (_edited("hyp", steps=[(1, "result", "z x'' y")]),
     ("ParseError", "offset 4: doubled inversion mark")),
    (_edited("hyp", steps=[(2, "result", "")]), ("ParseError", "offset 0: empty input")),
    (_edited("hyp", steps=[(2, "result", "z = y")]),
     ("ParseError", "offset 2: unexpected character '='")),
    # a result text must be the canonical print of its word
    (_edited("dit", steps=[(0, "result", " x")]),
     CheckResult(False, 0, "result text ' x' is not canonical")),
    (_edited("dit", steps=[(0, "result", "x ")]),
     CheckResult(False, 0, "result text 'x ' is not canonical")),
    (_edited("dit", steps=[(0, "result", "(x)")]),
     CheckResult(False, 0, "result text '(x)' is not canonical")),
    (_edited("hyp", steps=[(0, "result", "z  y")]),
     CheckResult(False, 0, "result text 'z  y' is not canonical")),
    (_edited("hyp", steps=[(0, "result", "z\ty")]),
     CheckResult(False, 0, "result text 'z\\ty' is not canonical")),
    (_edited("hyp", steps=[(3, "result", "z'x")]),
     CheckResult(False, 3, "result text \"z'x\" is not canonical")),
    # precedence: every parse and shape fault, then the system, then spelling, then the replay
    (_edited("hyp", steps=[(0, "result", " z y"), (2, "result", "z z (")]),
     ("ParseError", "offset 4: unclosed group")),
    (_edited("hyp", system="zzz", goal="x = ("), ("ParseError", "offset 4: unclosed group")),
    (_edited("hyp", system="zzz", steps=[(0, "result", " z y")]),
     ("ValueError", "unknown system 'zzz' (expected one of DIT, DIT+, DITS, DGS, DGS+, DGSS)")),
    (_edited("hyp", hypotheses=["x y = (z y"], goal="x = z )"),
     ("ParseError", "offset 6: unclosed group")),
    (_edited("hyp", steps=[(0, "result", "("), (2, "pos", "1")]),
     ("ParseError", "offset 0: unclosed group")),
    (_edited("hyp", steps=[(0, "pos", "0"), (2, "result", "(")]),
     ("ValueError", "step 0 field has the wrong shape")),
    (_edited("hyp", steps=[(1, "result", " z x y"), (4, "rule", "zzz")]),
     CheckResult(False, 1, "result text ' z x y' is not canonical")),
    (_edited("hyp", steps=[(4, "result", "z'")]),
     CheckResult(False, 4, "recomputed 'z', step records \"z'\"")),
    (_edited("hyp", steps=[(3, "result", "z y")]),
     CheckResult(False, 3, "recomputed 'z x', step records 'z y'")),
    # goals and hypotheses need only parse: they are not compared with a print
    (_edited("dit", goal="(z y) = x"), _OK),
    (_edited("dit", goal="z  y=x"), _OK),
    (_edited("dit", goal="\tz y = [x]\n"), _OK),
    (_edited("hyp", hypotheses=["x y=z y"]), _OK),
    (_edited("hyp", goal="x' = z"), CheckResult(False, None, "inverse marks in \"x'\" need a "
                                                "system with the inverse-cancel rule, not DIT+")),
])
def test_malformed_script_outcomes_are_pinned(data, expected):
    assert _outcome(check_proof_data, data) == expected


def _reference_proof_from_dict(data: dict) -> Proof:
    """Build a Proof from script data.  Raises ValueError on structural
    faults and on a system that is not built in; word-level faults
    surface later in check_proof_data."""
    if not isinstance(data, dict):
        raise ValueError("proof script must be a JSON object")
    try:
        system = data["system"]
        hyp_texts = data["hypotheses"]
        goal_text = data["goal"]
        step_items = data["steps"]
    except KeyError as e:
        raise ValueError(f"proof script is missing the {e.args[0]!r} field") from None
    if not isinstance(system, str) or not isinstance(hyp_texts, list) \
            or not all(isinstance(t, str) for t in hyp_texts) \
            or not isinstance(goal_text, str) or not isinstance(step_items, list):
        raise ValueError("proof script field has the wrong shape")
    hypotheses = tuple(parse_equation(t) for t in hyp_texts)
    goal = parse_equation(goal_text)
    steps = []
    for i, item in enumerate(step_items):
        try:
            rule, d, pos, result = item["rule"], item["dir"], item["pos"], item["result"]
        except (TypeError, KeyError):
            raise ValueError(f"step {i} is missing a field") from None
        # bool is an int subclass, but "pos": true is not a position
        if not isinstance(rule, str) or not isinstance(d, str) or not isinstance(pos, int) \
                or isinstance(pos, bool) or not isinstance(result, str):
            raise ValueError(f"step {i} field has the wrong shape")
        steps.append(ProofStep(rule, d, pos, parse_word(result)))
    return Proof(make_system(system), hypotheses, goal, tuple(steps))


def _reference_check_proof_data(data: dict) -> CheckResult:
    """Check a proof script.  Result texts are compared textually: each
    must be the canonical print of its word, then the replay must
    reproduce it."""
    p = _reference_proof_from_dict(data)
    for i, item in enumerate(data["steps"]):
        if print_word(p.steps[i].result) != item["result"]:
            return CheckResult(False, i,
                               f"result text {item['result']!r} is not canonical")
    return check_proof(p)


# texts and values a mutation puts in a field, and respellings of its text
_TEXTS = ["", " ", "x", "x'", "x''", "'x", "x'y", " x", "x ", "x  y", "x\ty", "x\ny",
          "(x)", "[x y]", "(x", "x)", "x = y", "x=y", "x == y", "= x", "x =", "z y",
          "z x y", "z z y", "z x", "e a a'", "a a'", "e", "x y = z y", "(z y) = x",
          "z  y=x", "x = z )", "x = (z", "x ( = z", "x;y", "é", "x = z'", "dit",
          "DIT+", "dgss", "zzz", "lr", "rl", "up", "ax7", "ax6", "hyp1", "hyp2", "Lzxz",
          "ax7a", "ax8", "ax9a", "0"]
_VALUES = _TEXTS + [None, 0, 1, 2, -1, True, 1.5, [], {}, ["x = y"], [1],
                    {"rule": "ax7"}]
_RESPELL = [lambda t: " " + t, lambda t: t + " ", lambda t: t.replace(" ", "  ", 1),
            lambda t: t.replace(" ", "\t", 1), lambda t: f"({t})", lambda t: f"[{t}]",
            lambda t: t + "'", lambda t: t.replace(" ", "", 1), lambda t: t.replace(" = ", "="),
            lambda t: t.replace(" ", "' ", 1), lambda t: t[:-1], lambda t: t[1:],
            lambda t: t.upper()]


def _mutate(rng, data):
    # one change at a random place, most often a word text: a field
    # dropped, a text respelled, or a field, hypothesis or step replaced
    slots = [(data, k) for k in data]
    if isinstance(data.get("hypotheses"), list):
        slots += [(data["hypotheses"], i) for i in range(len(data["hypotheses"]))]
    if isinstance(data.get("steps"), list):
        for i, item in enumerate(data["steps"]):
            slots.append((data["steps"], i))
            if isinstance(item, dict):
                slots += [(item, k) for k in item]
    if not slots:
        return
    texts = [(owner, key) for owner, key in slots if isinstance(owner[key], str)
             and (owner is not data or key == "goal") and key not in ("rule", "dir")]
    owner, key = rng.choice(texts if texts and rng.random() < 0.7 else slots)
    r = rng.random()
    if isinstance(owner, dict) and r < 0.03:
        del owner[key]
    elif isinstance(owner[key], str) and r < 0.7:
        owner[key] = rng.choice(_RESPELL)(owner[key])
    elif r < 0.9:
        owner[key] = rng.choice(_TEXTS)
    else:
        owner[key] = rng.choice(_VALUES)


def test_script_reading_agrees_with_the_reference_reader():
    problems = [("z y = x", "dit", ()), ("z y y = y", "dit", ()),
                ("x = z", "dit+", ("x y = z y",)), ("x y = y x", "dits", ()),
                ("a e b e = a b", "dgs+", ()), ("a b b' a' = e", "dgss", ()),
                ("a c = b c", "dgs", ("a = b",))]
    bases = [proof_to_dict(_proved(goal, system, hyps)) for goal, system, hyps in problems]
    rng = random.Random(24)
    differ, kinds = [], set()
    for _ in range(2000):
        data = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, data)
        want = _outcome(_reference_check_proof_data, data)
        if _outcome(check_proof_data, data) != want \
                or _outcome(proof_from_dict, data) != _outcome(_reference_proof_from_dict, data):
            differ.append(data)
        kinds.add(want[0] if isinstance(want, tuple) else
                  "not canonical" if "not canonical" in str(want.reason) else want.ok)
    assert differ[:5] == []  # the first few scripts read differently, if any
    # the mutants reach every kind of outcome
    assert kinds == {True, False, "not canonical", "ParseError", "ValueError"}


# ---------------------------------------------------------------------------
# user-stated systems: a proof is checked under the system it was found under


def test_proof_under_a_custom_system_checks():
    mine = RuleSystem("MINE", (AX6,), ("x", "y", "z"))
    p = prove_equal(parse_equation("x y = y"), mine)
    assert isinstance(p, Proof) and p.system is mine and len(p.steps) == 1
    assert check_proof(p).ok
    # a script names only the system, and no built-in system is MINE
    with pytest.raises(ValueError, match="'MINE'"):
        proof_to_dict(p)


@pytest.mark.parametrize("rules, message", [
    ((Rule("hyp1", GROUND, lhs=W("x y"), rhs=W("y")),), "rule id 'hyp1' in MINE is a hypothesis id"),
    ((AX6, Rule("ax6", GROUND, lhs=W("y x"), rhs=W("x"))), "rule id 'ax6' is repeated in MINE"),
])
def test_rule_ids_that_collide_are_refused(rules, message):
    """The search sorts rules by id and the checker keys them by id, so
    with a rule hyp1 and the hypothesis a = b, the proof of x y = y that
    the search found cited hyp1, and the checker replayed a = b there."""
    with pytest.raises(ValueError) as exc:
        RuleSystem("MINE", rules, ("x", "y"))
    assert str(exc.value) == message


def test_a_rule_id_that_is_not_hyp_and_digits_is_kept():
    mine = RuleSystem("MINE", (Rule("hyp", GROUND, lhs=W("x y"), rhs=W("y")),), ("x", "y"))
    p = prove_equal(parse_equation("x y = y"), mine, [parse_equation("a = b")])
    assert isinstance(p, Proof) and [s.rule for s in p.steps] == ["hyp"]
    assert check_proof(p).ok


def test_custom_system_named_dit_is_checked_against_its_own_rules():
    mine = RuleSystem("DIT", SYSTEMS["dgss"].rules, ("e",), left_inverses=True)
    p = prove_equal(parse_equation("a a' b = b"), mine)
    assert isinstance(p, Proof) and p.system is mine
    assert check_proof(p).ok
    # the same steps under the built-in DIT are rejected
    res = check_proof(dataclasses.replace(p, system=SYSTEMS["dit"]))
    assert not res.ok and "inverse-cancel" in res.reason
    # so no script may name it as DIT
    with pytest.raises(ValueError, match="'DIT' is not the built-in system"):
        proof_to_json(p)


def test_no_module_imports_a_private_name_from_a_sibling():
    src = pathlib.Path(relcalc.__file__).parent
    private = [(path.name, alias.name)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _sites(found) -> list[tuple[str, str]]:
    """(module, enclosing class and def) of each node of the package's
    source for which `found` holds, in source order."""
    out = []

    def visit(node, where, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}".lstrip("."), module)
                continue
            if found(child):
                out.append((module, where))
            visit(child, where, module)

    for path in sorted(pathlib.Path(relcalc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return out


def test_each_boundary_check_is_made_in_one_place():
    # "<name> must be a Word, got ...", "... an Atom or a Node, got ...",
    # and the int, atom name and model size forms; check_is's own text is
    # the bare " must be " of f"{name} must be {what}, got {value!r}"
    says = re.compile(r" must be (an? \w+( or an? \w+)*, got |an int of |an atom name)|^ must be $")
    texts = _sites(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and says.search(n.value) is not None)
    # a rule id is exactly a str, not a subclass; Model keeps its own: its
    # checks run once for every model the enumerator emits
    assert texts == [("models.py", "Model.__post_init__"), ("systems.py", "Rule.__post_init__"),
                     ("terms.py", "check_count"), ("terms.py", "check_is"),
                     ("terms.py", "check_name")]
    calls = _sites(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_validate_problem")
    # the checker stays independent of the search core
    assert calls == [("engine.py", "_Core.__init__"), ("engine.py", "check_proof")]


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
        assert check_proof(_reversed(res)).ok


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
