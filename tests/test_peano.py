from __future__ import annotations

import re

import pytest

import relcalc.peano as peano
from relcalc.peano import (ONE, Numeral, as_numeral, eval_zero, numeral, succ,
                           verify_peano, zero_contradiction_demo)
from relcalc.terms import Word, parse_word

W = parse_word


def test_numeral_basics():
    assert numeral(1).word == W("1")
    assert numeral(3).word == W("1 1 1")
    assert numeral(3).value == 3
    assert str(numeral(2)) == "1 1 (= 2)"
    with pytest.raises(ValueError):
        numeral(0)
    with pytest.raises(ValueError):
        numeral(-2)


def test_as_numeral():
    assert as_numeral(W("1 1")) == Numeral(2, W("1 1"))
    assert as_numeral(W("1 0")) is None
    assert as_numeral(W("x")) is None


def test_succ_prepends():
    assert succ(W("1 1")) == W("1 1 1")
    assert succ(W("0")) == W("1 0")


def test_eval_zero():
    assert eval_zero(W("0 1 0 1")) == W("1 1")
    assert eval_zero(W("1 1")) == W("1 1")
    assert eval_zero(W("0 0")) == W("0")


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
    with pytest.raises(ValueError):
        verify_peano(1)


def test_broken_successor_is_caught(monkeypatch):
    # behaves normally except the top numeral collapses back to 1,
    # which is exactly what property 4 forbids
    top = numeral(8).word

    def bad_succ(w: Word) -> Word:
        if w == top:
            return numeral(1).word
        return Word((ONE,) + w.atoms)

    monkeypatch.setattr(peano, "succ", bad_succ)
    rep = peano.verify_peano(8, random_tables=50)
    assert not rep.all_passed
    assert [it.ok for it in rep.items] == [True, True, True, False, True]


def test_induction_rejects_open_tables():
    rep = verify_peano(8, random_tables=50, seed=1)
    item5 = rep.items[4]
    assert item5.ok
    tested, rejected = map(int, re.match(r"(\d+) tables, (\d+) rejected", item5.detail).groups())
    assert tested == 50 + 8 + 1
    # only the all-true table can satisfy the hypothesis
    assert tested - rejected >= 1


def test_zero_contradiction_demo():
    assert zero_contradiction_demo() == [
        "succ(0) = 1 0",
        "evaluates to 1",
        "numeral 1 = 1",
        "so 1 0 = 1, but numerals satisfy 1 x != 1 (property 4)",
        "hence 0 cannot be a numeral",
    ]
