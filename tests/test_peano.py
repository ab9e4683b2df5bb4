from __future__ import annotations

import re

import pytest

import relcalc.peano as peano
from relcalc.freegroup import free_reduce as _free_reduce
from relcalc.peano import (ONE, as_numeral, eval_zero, numeral, succ,
                           verify_peano, zero_contradiction_demo)
from relcalc.terms import Word, parse_word

W = parse_word


def test_numeral_basics():
    assert numeral(1) == W("1")
    assert numeral(3) == W("1 1 1")
    assert as_numeral(numeral(3)) == 3
    assert str(numeral(2)) == "1 1"
    with pytest.raises(ValueError) as exc:
        numeral(0)
    assert str(exc.value) == "k must be at least 1, got 0"
    with pytest.raises(ValueError) as exc:
        numeral(-2)
    assert str(exc.value) == "k must be at least 1, got -2"


def test_as_numeral():
    assert as_numeral(W("1 1")) == 2
    assert [as_numeral(numeral(k)) for k in range(1, 6)] == [1, 2, 3, 4, 5]
    assert as_numeral(W("1 0")) is None
    assert as_numeral(W("x")) is None


def test_succ_prepends():
    assert succ(W("1 1")) == W("1 1 1")
    assert succ(W("0")) == W("1 0")


def test_eval_zero():
    assert eval_zero(W("0 1 0 1")) == W("1 1")
    assert eval_zero(W("1 1")) == W("1 1")
    assert eval_zero(W("0 0")) == W("0")


@pytest.mark.parametrize("call, arg", [
    (succ, "1 1"), (eval_zero, "1 1"), (as_numeral, "1"), (as_numeral, "1 1"), (as_numeral, ["1"]),
], ids=["succ", "eval_zero", "as_numeral-1", "as_numeral-1 1", "as_numeral-list"])
def test_numeral_functions_take_only_words(call, arg):
    with pytest.raises(ValueError) as exc:
        call(arg)
    assert str(exc.value) == f"w must be a Word, got {arg!r}"


def test_eval_zero_rejects_inverse_marks():
    with pytest.raises(ValueError):
        eval_zero(W("1'"))


def test_verify_peano_passes():
    rep = verify_peano(16)
    assert rep.all_passed
    assert [it.number for it in rep.items] == [1, 2, 3, 4, 5]
    lines = rep.lines()
    assert lines[0] == "numeral checks up to 16"
    assert lines[-1] == "5/5 passed"
    assert all(": pass (" in ln for ln in lines[1:-1])
    assert re.search(r"\d+ tables, \d+ rejected as non-closed", lines[5])


def test_verify_peano_rejects_tiny_bound():
    with pytest.raises(ValueError) as exc:
        verify_peano(1)
    assert str(exc.value) == "k_max must be within 2..256, got 1"


@pytest.mark.parametrize("k", [True, 3.0, "3", None])
def test_counts_must_be_ints(k):
    with pytest.raises(ValueError) as exc:
        verify_peano(k)
    assert str(exc.value) == f"k_max must be an int, got {k!r}"
    with pytest.raises(ValueError) as exc:
        numeral(k)
    assert str(exc.value) == f"k must be an int, got {k!r}"


def test_broken_successor_is_caught(monkeypatch):
    # behaves normally except the top numeral collapses back to 1,
    # which is exactly what property 4 forbids
    top = numeral(8)

    def bad_succ(w: Word) -> Word:
        if w == top:
            return numeral(1)
        return Word((ONE,) + w.atoms)

    monkeypatch.setattr(peano, "succ", bad_succ)
    rep = peano.verify_peano(8)
    assert not rep.all_passed
    assert [it.ok for it in rep.items] == [True, True, True, False, True]


@pytest.mark.parametrize("name, fake, oks", [
    # the top numeral is its own successor, so successor is not injective
    ("peano.succ", lambda w: w if len(w) == 8 else Word((ONE,) + w.atoms),
     [True, True, False, True, True]),
    # a reduction that cuts words to two atoms, so 1 and 1 1 have equal
    # successors; eval_zero's calls, with identity 0, reduce as before
    ("freegroup.free_reduce",
     lambda w, identity="e": _free_reduce(w, identity) if identity == "0" else Word(w.atoms[:2]),
     [True, True, False, True, True]),
    # an induction test that holds for every table, or for none
    ("peano._induction_hypothesis", lambda t: True, [True, True, True, True, False]),
    ("peano._induction_hypothesis", lambda t: False, [True, True, True, True, False]),
], ids=["succ", "free_reduce", "hypothesis_always", "hypothesis_never"])
def test_a_broken_helper_fails_its_property(monkeypatch, name, fake, oks):
    monkeypatch.setattr(f"relcalc.{name}", fake)
    assert [it.ok for it in verify_peano(8).items] == oks


def test_induction_rejects_open_tables():
    rep = verify_peano(8)
    item5 = rep.items[4]
    assert item5.ok
    tested, rejected = map(int, re.match(r"(\d+) tables, (\d+) rejected", item5.detail).groups())
    assert tested == 1000 + 8 + 1
    # only the all-true table can satisfy the hypothesis
    assert tested - rejected >= 1


def test_zero_demo_raises_when_its_conclusion_fails(monkeypatch):
    # an explicit raise, so `python -O` keeps the check
    monkeypatch.setattr(peano, "eval_zero", lambda w: w)
    with pytest.raises(RuntimeError) as exc:
        zero_contradiction_demo()
    assert str(exc.value) == "succ(0) evaluates to 1 0, not to numeral 1 = 1"


def test_zero_contradiction_demo():
    assert zero_contradiction_demo() == [
        "succ(0) = 1 0",
        "evaluates to 1",
        "numeral 1 = 1",
        "so 1 0 = 1, but numerals satisfy 1 x != 1 (property 4)",
        "hence 0 cannot be a numeral",
    ]
