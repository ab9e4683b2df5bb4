from __future__ import annotations

import time

import pytest

from relcalc.engine import SearchConfig
from relcalc.models import Model, ModelQuery, iter_models
from relcalc.relsets import (UNDECIDED, element_of, eval_word, is_function_rel,
                             is_member, is_subset, members, russell_report,
                             subset_report)
from relcalc.systems import SYSTEMS
from relcalc.terms import Atom, parse_word

W = parse_word
Z3 = Model(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), {"e": 0})


def test_element_of():
    assert element_of(Atom("e"), Z3) == 0
    assert element_of(Atom("2"), Z3) == 2
    assert element_of(2, Z3) == 2
    with pytest.raises(LookupError):
        element_of(Atom("3"), Z3)
    with pytest.raises(LookupError):
        element_of(Atom("q"), Z3)
    with pytest.raises(LookupError):
        element_of(Atom("e", inverted=True), Z3)


@pytest.mark.parametrize("x, message", [
    (-1, "element -1 outside carrier 0..2"),  # no negative indexing
    (3, "element 3 outside carrier 0..2"),
    (True, "True is neither an atom nor a carrier index"),
    (1.0, "1.0 is neither an atom nor a carrier index"),
    ("e", "'e' is neither an atom nor a carrier index"),
    # a digit name is an index only as str(k) writes it
    (Atom("01"), "unmapped atom 01 in model of size 3"),
    (Atom("00"), "unmapped atom 00 in model of size 3"),
])
def test_element_of_reads_only_atoms_and_indices_in_range(x, message):
    with pytest.raises(LookupError) as exc:
        element_of(x, Z3)
    assert exc.value.args[0] == message
    # every element argument goes through element_of
    for call in (lambda: members(x, Z3),
                 lambda: is_function_rel(x, Z3), lambda: is_function_rel(0, Z3, a=x),
                 lambda: is_function_rel(0, Z3, b=x), lambda: is_subset(x, 0, Z3),
                 lambda: is_subset(0, x, Z3), lambda: subset_report(x, 0, Z3),
                 lambda: subset_report(0, x, Z3)):
        with pytest.raises(LookupError) as exc:
            call()
        assert exc.value.args[0] == message


def test_eval_word():
    assert eval_word(W("1 1 1"), Z3) == 0
    assert eval_word(W("e 2"), Z3) == 2
    assert eval_word(W("2 2"), Z3) == 1


def test_relset_members_in_a_model():
    # the set a quality names is the tuple of c with q c = c
    assert members(Atom("e"), Z3) == (0, 1, 2)
    assert members(Atom("1"), Z3) == ()
    assert members(0, Z3) == (0, 1, 2)
    m = Model(2, ((0, 1), (1, 1)), {"k": 1})
    assert members(Atom("k"), m) == (1,)
    assert members(0, m) == (0, 1)


def test_relset_guards():
    # a marked quality has no model reading, the same as every element argument
    with pytest.raises(LookupError) as exc:
        members(Atom("e", inverted=True), Z3)
    assert exc.value.args[0] == "unmapped atom e': inverse marks have no model reading here"
    with pytest.raises(LookupError):
        members(Atom("q"), Z3)


@pytest.mark.parametrize("universe", ["symbolic", Z3])
@pytest.mark.parametrize("x", ["x", Atom("x"), ("x",), None])
def test_is_member_needs_a_word(universe, x):
    with pytest.raises(ValueError) as exc:
        is_member(Atom("q"), x, universe)
    assert str(exc.value) == f"x must be a Word, got {x!r}"


@pytest.mark.parametrize("universe", ["symbolic", Z3], ids=["symbolic", "model"])
@pytest.mark.parametrize("q", ["q", None, 1.0, object(), True])
def test_is_member_refuses_a_quality_that_is_neither_an_atom_nor_an_int(universe, q):
    # a bool is an int to isinstance, but no quality in either universe
    with pytest.raises(ValueError) as exc:
        is_member(q, W("1"), universe)
    assert str(exc.value) == f"q must be an Atom or an int, got {q!r}"


@pytest.mark.parametrize("q", [0, "q", None, Atom("q", inverted=True)])
def test_symbolic_quality_must_be_a_plain_atom(q):
    with pytest.raises(ValueError) as exc:
        is_member(q, W("x"))
    # what is neither an Atom nor an int is refused before the universe is read
    why = ("a set quality must be a plain atom" if isinstance(q, (Atom, int))
           else "q must be an Atom or an int")
    assert str(exc.value) == f"{why}, got {q!r}"
    with pytest.raises(ValueError):
        is_member(q, W("x"), system="dit")


def test_model_quality_is_read_by_element_of():
    # in a model an int quality is an index; a marked or unmapped atom, an
    # index outside the carrier and a bool have no reading
    assert is_member(0, W("1"), Z3) is True
    for q in (Atom("e", inverted=True), Atom("q"), 3):
        with pytest.raises(LookupError):
            is_member(q, W("1"), Z3)
    with pytest.raises(LookupError):
        members(True, Z3)


@pytest.mark.parametrize("universe", ["symbolc", 3, None])
def test_is_member_refuses_an_unknown_universe(universe):
    with pytest.raises(ValueError) as exc:
        is_member(Atom("e"), W("x"), universe)
    assert str(exc.value) == f"universe must be a Model or 'symbolic', got {universe!r}"


@pytest.mark.parametrize("universe", ["symbolic", Z3], ids=["symbolic", "model"])
def test_is_member_refuses_an_unknown_system_or_config_in_either_universe(universe):
    # both are read before the universe is, so a model does not hide them
    with pytest.raises(ValueError) as exc:
        is_member(Atom("e"), W("e"), universe, system=5)
    assert str(exc.value) == "unknown system 5 (expected one of DIT, DIT+, DITS, DGS, DGS+, DGSS)"
    for system in ("dgss", "dit"):   # the decider and the bounded search
        with pytest.raises(ValueError) as exc:
            is_member(Atom("e"), W("e"), universe, system=system, config="x")
        assert str(exc.value) == "config must be a SearchConfig, got 'x'"


def test_is_member_in_a_model_is_definite():
    assert is_member(Atom("e"), W("1"), Z3) is True
    assert is_member(Atom("1"), W("1"), Z3) is False


def test_is_member_symbolic_proof():
    assert is_member(Atom("e"), W("a' a")) is True


def test_is_member_under_dgss_is_decided():
    t0 = time.perf_counter()
    assert is_member(Atom("q"), W("x")) is False
    assert time.perf_counter() - t0 < 0.5


def test_is_member_symbolic_undecided():
    # dgss answers exactly; the bounded search stays for the other systems
    cfg = SearchConfig(max_word_len=6, max_nodes=2000, max_depth=6)
    got = is_member(Atom("q"), W("x"), system="dit+", config=cfg)
    assert got is UNDECIDED
    assert repr(got) == "Undecided"
    assert got is not True and got is not False


def test_is_subset():
    # the e-set is the whole carrier; the 1-set is empty
    assert is_subset(Atom("1"), Atom("e"), Z3)
    assert not is_subset(Atom("e"), 1, Z3)
    assert is_subset(0, 0, Z3)


def test_subset_report_lines():
    lines = subset_report(Atom("1"), Atom("e"), Z3)
    assert lines[0] == "subset 1 <= 0: holds"
    assert lines[1] == "case x=a: 1*0=1 0*0=0 -> ok"
    assert lines[2] == "case x=b: 1*1=2 0*1=1 -> ok"
    assert len(lines) == 3

    same = subset_report(0, 0, Z3)
    assert same[0] == "subset 0 <= 0: holds"
    assert same[-1] == "case x=a=b: 0*0=0 0*0=0 -> ok"

    bad = subset_report(Atom("e"), Atom("1"), Z3)
    assert bad[0] == "subset 0 <= 1: fails"
    assert any(line.endswith("-> violated") for line in bad)


def test_is_function_rel():
    # every row of a group table cancels
    for f in range(3):
        assert is_function_rel(f, Z3)
    # constant rows do not
    m = Model(2, ((0, 0), (1, 1)), {})
    assert not is_function_rel(0, m)
    with pytest.raises(LookupError):
        is_function_rel(5, Z3)


def test_is_function_rel_respects_domain_sets():
    # restricted to the empty 1-set the criterion holds vacuously
    assert is_function_rel(0, Z3, a=1)
    # atoms read as their elements, the same as the indices
    assert is_function_rel(Atom("e"), Z3, a=Atom("1"), b=Atom("e"))
    m = Model(2, ((0, 0), (1, 1)), {"k": 0})
    assert is_function_rel(Atom("k"), m) is is_function_rel(0, m) is False


def test_is_function_rel_is_pairwise_cancellation():
    # the reference: no two distinct y, z of the b-set with f x y = f x z
    def cancels(f, m, a, b):
        dom = range(m.size) if a is None else members(a, m)
        cod = range(m.size) if b is None else members(b, m)
        return not any(m.apply(m.apply(f, x), y) == m.apply(m.apply(f, x), z)
                       for x in dom for y in cod for z in cod if y != z)

    for m in _small_models():
        for f in range(m.size):
            for a in (None, *range(m.size)):
                for b in (None, *range(m.size)):
                    assert is_function_rel(f, m, a, b) is cancels(f, m, a, b)


def _small_models():
    for system in SYSTEMS:
        for n in (1, 2, 3):
            yield from iter_models(ModelQuery(system, n))


def test_russell_split_is_the_self_quality_sets():
    # c is self-membered exactly when c is in the set c names
    seen = 0
    for m in _small_models():
        rep = russell_report(m)
        yes = tuple(c for c in range(m.size) if c in members(c, m))
        assert rep.self_membered == yes
        assert rep.not_self_membered == tuple(c for c in range(m.size) if c not in yes)
        seen += 1
    assert seen == 42  # every model of the six systems at n = 1..3


def test_russell_report():
    rep = russell_report(Z3)
    assert rep.self_membered == (0,)
    assert rep.not_self_membered == (1, 2)
    assert rep.lines() == [
        "0: self-membered",
        "1: not self-membered",
        "2: not self-membered",
        "self-membered count: 1",
    ]


@pytest.mark.parametrize("call, message", [
    (lambda: members(Atom("e"), "m"), "m must be a Model, got 'm'"),
    (lambda: is_subset(0, 0, None), "m must be a Model, got None"),
    (lambda: subset_report(0, 0, "m"), "m must be a Model, got 'm'"),
    (lambda: russell_report(None), "m must be a Model, got None"),
    (lambda: is_function_rel(0, 3), "m must be a Model, got 3"),
    (lambda: eval_word(W("x"), "m"), "m must be a Model, got 'm'"),
])
def test_set_readers_refuse_what_is_not_a_model(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_eval_word_refuses_what_is_not_a_word():
    m = next(iter_models(ModelQuery("dgs", 2)))
    with pytest.raises(ValueError) as exc:
        eval_word("x y", m)
    assert str(exc.value) == "w must be a Word, got 'x y'"
