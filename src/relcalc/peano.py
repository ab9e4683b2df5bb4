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
from .terms import Atom, Word

ONE = Atom("1")
ZERO = Atom("0")

# verify_peano's cost grows about cubically in k_max: 0.23 s at 64 and
# 8.5 s at 256 on a 2-vCPU machine, so a larger bound would run for minutes
K_MAX_CEILING = 256


def numeral(k: int) -> Word:
    if type(k) is not int:  # bool is an int subclass, but not a count
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 1:
        raise ValueError(f"numerals start at 1, got {k}")
    return Word((ONE,) * k)


def as_numeral(w: Word) -> int | None:
    """The number a word of `1`s stands for, or None if any atom is not `1`."""
    if not isinstance(w, Word):
        raise ValueError(f"w must be a Word, got {w!r}")
    if all(a == ONE for a in w):
        return len(w)
    return None


def succ(w: Word) -> Word:
    if not isinstance(w, Word):
        raise ValueError(f"w must be a Word, got {w!r}")
    return Word((ONE,) + w.atoms)


def eval_zero(w: Word) -> Word:
    """Delete `0` atoms; a word of nothing but zeros keeps a single one.
    Zero is the identity that free reduction deletes; numerals carry no
    inverse marks, so a marked atom is a ValueError."""
    if not isinstance(w, Word):
        raise ValueError(f"w must be a Word, got {w!r}")
    if any(a.inverted for a in w):
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
    if not table[0]:
        return False
    return all(table[k + 1] for k in range(len(table) - 1) if table[k])


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
    """
    if type(k_max) is not int:  # bool is an int subclass, but not a bound
        raise ValueError(f"k_max must be an int, got {k_max!r}")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if k_max > K_MAX_CEILING:
        raise ValueError(f"k_max must be at most {K_MAX_CEILING}, got {k_max}")
    ns = [numeral(k) for k in range(1, k_max + 1)]
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

    tested = 0
    rejected = 0
    ok5 = True
    tables = [[i < m for i in range(k_max)] for m in range(k_max + 1)]
    rng = random.Random(0)
    for _ in range(1000):
        tables.append([rng.random() < 0.5 for _ in range(k_max)])
    for t in tables:
        tested += 1
        if _induction_hypothesis(t):
            if not all(t):
                ok5 = False
        else:
            rejected += 1
            if all(t):  # the all-true table does satisfy the hypothesis
                ok5 = False
    items.append(PeanoItem(5, "induction closure", ok5,
                           f"{tested} tables, {rejected} rejected as non-closed"))

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
