"""Numerals as words: `numeral(k)` is k copies of the atom `1`, and
`as_numeral` reads such a word back as k.  Successor prepends a `1`,
and `0` acts as a deletable identity mark.  The five usual
natural-number properties become finite checks on word lengths, with
successor injectivity cross-checked against the free-reduction decider.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .freegroup import equal_dgss, free_reduce
from .terms import Atom, Word, check_count, check_is

ONE = Atom("1")
ZERO = Atom("0")

# verify_peano's cost grows about cubically in k_max: 0.23 s at 64 and
# 8.5 s at 256 on a 2-vCPU machine, so a larger bound would run for minutes
K_MAX_CEILING = 256


def numeral(k: int) -> Word:
    return Word((ONE,) * check_count("k", k))


def as_numeral(w: Word) -> int | None:
    """The number a word of `1`s stands for, or None if any atom is not `1`."""
    if all(a == ONE for a in check_is(w, Word, "w")):
        return len(w)
    return None


def succ(w: Word) -> Word:
    return Word((ONE,) + check_is(w, Word, "w").atoms)


def eval_zero(w: Word) -> Word:
    """Delete `0` atoms; a word of nothing but zeros keeps a single one.
    Zero is the identity that free reduction deletes; numerals carry no
    inverse marks, so a marked atom is a ValueError."""
    if any(a.inverted for a in check_is(w, Word, "w")):
        raise ValueError(f"numeral words carry no inverse marks: {w}")
    return free_reduce(w, ZERO.name)


# ---------------------------------------------------------------------------
# the five properties


@dataclass(frozen=True)
class PeanoItem:
    number: int
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class PeanoReport:
    k_max: int
    items: tuple[PeanoItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(it.ok for it in self.items)

    def lines(self) -> list[str]:
        out = [f"numeral checks up to {self.k_max}"]
        for it in self.items:
            out.append(f"  {it.number}. {it.name}: {'pass' if it.ok else 'FAIL'} ({it.detail})")
        out.append(f"{sum(it.ok for it in self.items)}/{len(self.items)} passed")
        return out


def _induction_hypothesis(table: list[bool]) -> bool:
    # table[k-1] is P(k)
    return table[0] and all(table[k + 1] for k in range(len(table) - 1) if table[k])


def verify_peano(k_max: int) -> PeanoReport:
    """Check the five properties on numerals 1..k_max, for k_max within
    2..K_MAX_CEILING.

    1  the base numeral is a member under the zero quality
    2  successor stays inside the numerals
    3  successor is injective (word equality, plus the decider's view)
    4  nothing has successor 1
    5  induction: any predicate table containing 1 and closed under
       successor covers everything; staircase tables that break closure
       must be rejected, as must 1000 seeded random tables (none of
       which can satisfy the hypothesis without being all-true)

    Property 5 checks `_induction_hypothesis` on boolean tables indexed
    by k, not on numerals: no word is built or reduced for it.
    """
    ns = [numeral(k) for k in range(1, check_count("k_max", k_max, 2, K_MAX_CEILING) + 1)]
    items = []

    one = ns[0]
    ok1 = eval_zero(Word((ZERO,) + one.atoms)) == one
    items.append(PeanoItem(1, "membership of 1", ok1, f"0-extended base word evaluates to {one}"))

    ok2 = all(as_numeral(succ(n)) == k + 1 for k, n in enumerate(ns[:-1], 1))
    ok2 = ok2 and all(succ(n).atoms == n.atoms + (ONE,) for n in ns[:-1])
    items.append(PeanoItem(2, "closure under successor", ok2,
                           f"prepend agrees with append on all {k_max - 1} steps"))

    ok3 = True
    for u in ns:
        for v in ns:
            if (succ(u) == succ(v)) != (u == v):
                ok3 = False
            if equal_dgss(succ(u), succ(v)) != equal_dgss(u, v):
                ok3 = False
    items.append(PeanoItem(3, "successor injective", ok3,
                           f"{k_max}^2 pairs, word equality and decider agree"))

    ok4 = all(succ(n) != one for n in ns)
    items.append(PeanoItem(4, "1 is no successor", ok4, "lengths exceed 1 after succ"))

    tables = [[i < m for i in range(k_max)] for m in range(k_max + 1)]
    rng = random.Random(0)
    for _ in range(1000):
        tables.append([rng.random() < 0.5 for _ in range(k_max)])
    # a table meets the hypothesis exactly when it is all true
    closed = [_induction_hypothesis(t) for t in tables]
    ok5 = closed == [all(t) for t in tables]
    items.append(PeanoItem(5, "induction closure", ok5,
                           f"{len(tables)} tables, {closed.count(False)} rejected as non-closed"))

    return PeanoReport(k_max, tuple(items))


def zero_contradiction_demo() -> list[str]:
    """Why 0 stays outside the numerals: its successor collapses to 1,
    clashing with property 4."""
    zero = Word((ZERO,))
    s = succ(zero)
    ev = eval_zero(s)
    one = numeral(1)
    lines = [
        f"succ(0) = {s}",
        f"evaluates to {ev}",
        f"numeral 1 = {one}",
        "so 1 0 = 1, but numerals satisfy 1 x != 1 (property 4)",
        "hence 0 cannot be a numeral",
    ]
    assert ev == one
    return lines
