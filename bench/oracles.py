"""Reference answers for the benchmark, written without relcalc.

Nothing here imports the package under test.  Words are tuples of
``(name, marked)`` pairs read from text by ``tokens``; tables are tuples
of row tuples.  Each reference is a different means to the same answer
the program gives:

- ``reduce_leftmost``: free reduction by repeated leftmost deletion of an
  identity atom or a cancelling pair (relcalc uses a single stack pass);
- ``dgs_canonical``: the normal form of the identity-only systems, from
  the invariants the rules preserve;
- ``check_table`` and ``evaluate``: a model checker and word evaluator,
  so a table in which two words differ refutes their equality;
- ``brute_force_models``: every ``n^(n*n)`` table filtered by
  ``check_table``, feasible for n <= 3;
- ``GROUP_COUNTS``: labelled group tables with a designated identity,
  sum over isomorphism types G of n!/|Aut G|.
"""

from __future__ import annotations

import itertools
import math
import random

IDENTITY = "e"
DIT_FAMILY = ("dit", "dit+", "dits")
GROUP_FAMILY = ("dgs", "dgs+", "dgss")

# ---------------------------------------------------------------------------
# words


def tokens(text: str) -> tuple[tuple[str, bool], ...]:
    """Read a flat word: atoms separated by blanks, ``'`` marks an inverse."""
    out = []
    for tok in text.split():
        if tok.endswith("'"):
            out.append((tok[:-1], True))
        else:
            out.append((tok, False))
    return tuple(out)


def show(word) -> str:
    return " ".join(name + ("'" if marked else "") for name, marked in word)


def reduce_leftmost(word, identity: str = IDENTITY):
    """Delete the leftmost identity atom or cancelling pair until none is
    left.  After a deletion at i only the pair (i-1, i) can be new, so the
    scan resumes there instead of at the start."""
    w = list(word)
    i = 0
    while i < len(w):
        if w[i][0] == identity:
            del w[i]
            i = max(i - 1, 0)
        elif i + 1 < len(w) and w[i][0] == w[i + 1][0] and w[i][1] != w[i + 1][1]:
            del w[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(w) if w else ((identity, False),)


def dgs_canonical(word, system: str):
    """Normal form under ``dgs`` or ``dgs+``.

    Both rules only insert or delete the identity, so the other atoms in
    order are invariant.  Under ``dgs`` an identity may be deleted or
    inserted only with something after it, so whether the word ends in
    the identity is invariant too; under ``dgs+`` every identity of a
    longer word may go."""
    rest = tuple(a for a in word if a[0] != IDENTITY)
    if not rest:
        return ((IDENTITY, False),)
    if system == "dgs" and word[-1][0] == IDENTITY:
        return rest + ((IDENTITY, False),)
    return rest


# ---------------------------------------------------------------------------
# rewriting on name tuples, used to generate goals that are equal by
# construction

DIT_RULES = {
    "dit": ((("x", "y"), ("y",)), (("z", "y"), ("x",))),
    "dit+": ((("x", "y"), ("y",)), (("z", "y"), ("x",)), (("z", "x"), ("z",))),
    "dits": ((("x", "y"), ("y",)), (("z", "y"), ("x",)), (("z", "x"), ("z",)),
             (("y", "z"), ("z", "y"))),
}


def one_step(word, system: str, hypotheses=(), max_len: int = 8,
             names=("a", "b")) -> list:
    """Every word one rule application away from ``word`` (either
    direction, any position) within ``max_len`` atoms.  Hypotheses are
    pairs of name tuples; pair insertion under ``dgss`` draws from
    ``names``."""
    out = []
    n = len(word)
    plain = tuple(a for a, _ in word)
    for lhs, rhs in DIT_RULES.get(system, ()) + tuple(hypotheses):
        for src, dst in ((lhs, rhs), (rhs, lhs)):
            k = len(src)
            for i in range(n - k + 1):
                if plain[i:i + k] == src and n - k + len(dst) <= max_len:
                    out.append(word[:i] + tuple((a, False) for a in dst) + word[i + k:])
    if system in DIT_FAMILY:
        return out
    e = (IDENTITY, False)
    for i in range(n):
        if word[i] == e and n > 1 and (i < n - 1 or system != "dgs"):
            out.append(word[:i] + word[i + 1:])
    if n < max_len:
        for i in range(n + 1 if system != "dgs" else n):
            out.append(word[:i] + (e,) + word[i:])
    if system == "dgss":
        for i in range(n - 1):
            (p, pm), (q, qm) = word[i], word[i + 1]
            if p == q and pm != qm and p != IDENTITY and n > 2:
                out.append(word[:i] + word[i + 2:])
        if n + 2 <= max_len:
            for i in range(n + 1):
                for name in names:
                    for first in (False, True):
                        out.append(word[:i] + ((name, first), (name, not first)) + word[i:])
    return out


def random_walk(rng: random.Random, word, system: str, steps: int, hypotheses=(),
                max_len: int = 8):
    for _ in range(steps):
        nxt = one_step(word, system, hypotheses, max_len)
        if not nxt:
            break
        word = rng.choice(nxt)
    return word


# ---------------------------------------------------------------------------
# finite models


def check_table(system: str, table, designated: dict) -> list[str]:
    """Problems that keep ``table`` from being a model of ``system``;
    empty means it is one."""
    n = len(table)
    t = table
    problems = []
    if any(len(row) != n or any(not 0 <= v < n for v in row) for row in t):
        return ["table is not n x n over 0..n-1"]
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            problems.append(f"not associative at {(a, b, c)}")
            break
    if system in DIT_FAMILY:
        x, y, z = designated["x"], designated["y"], designated["z"]
        if len({x, y, z}) != 3:
            problems.append("x, y, z not distinct")
        if t[x][y] != y:
            problems.append("x*y != y")
        if t[z][y] != x:
            problems.append("z*y != x")
        if system in ("dit+", "dits") and t[z][x] != z:
            problems.append("z*x != z")
        if system == "dits" and t[y][z] != t[z][y]:
            problems.append("y*z != z*y")
        return problems
    e = designated["e"]
    if any(t[e][v] != v for v in range(n)):
        problems.append("e is not a left identity")
    if any(all(t[u][v] != e for u in range(n)) for v in range(n)):
        problems.append("some element has no left inverse")
    if system in ("dgs+", "dgss") and any(t[v][e] != v for v in range(n)):
        problems.append("e is not a right identity")
    if system == "dgss" and any(all(t[u][v] != e or t[v][u] != e for u in range(n))
                                for v in range(n)):
        problems.append("some element has no two-sided inverse")
    return problems


def designations(system: str, n: int) -> list[dict]:
    """Designations in relcalc's documented emission order."""
    if system in DIT_FAMILY:
        return [{"x": x, "y": y, "z": z}
                for x, y, z in itertools.product(range(n), repeat=3)
                if len({x, y, z}) == 3]
    return [{"e": e} for e in range(n)]


def emission_key(table, designated: dict):
    """Designation-major, then the flattened table: the documented order."""
    roles = ("x", "y", "z") if "x" in designated else ("e",)
    return (tuple(designated[r] for r in roles), tuple(v for row in table for v in row))


def associative_tables(n: int) -> list:
    """Every associative table among all n^(n*n)."""
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        table = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if all(table[table[a][b]][c] == table[a][table[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3)):
            out.append(table)
    return out


def brute_force_models(system: str, tables) -> list:
    """(table, designation) pairs among ``tables`` that model ``system``."""
    return [(table, d) for table in tables for d in designations(system, len(table))
            if not check_table(system, table, d)]


def evaluate(word, table, designated: dict) -> int:
    """The element a word over designated atoms denotes in a model."""
    val = designated[word[0][0]]
    for name, _ in word[1:]:
        val = table[val][designated[name]]
    return val


# |Aut G| for each isomorphism type of group of order n, n <= 5
_GROUP_AUTS = {1: (1,), 2: (1,), 3: (2,), 4: (2, 6), 5: (4,)}

GROUP_COUNTS = {n: sum(math.factorial(n) // aut for aut in auts)
                for n, auts in _GROUP_AUTS.items()}

# Counts at n = 4, 5 for the distinctness family come from relcalc itself
# at the commit that introduced the benchmark: regression pins, not
# independent references.  n <= 3 is brute-forced at run time.
DIT_PINNED = {
    ("dit", 4): 408,
    ("dit+", 4): 144, ("dit+", 5): 5400,
    ("dits", 4): 144, ("dits", 5): 5400,
}
