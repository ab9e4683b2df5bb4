"""Finite models: operation tables checked against each rule system,
plus a backtracking enumerator.

A model is a total binary operation on {0..n-1} with a designation map
naming the elements that play the system's roles (`RuleSystem.roles`:
x y z, or e), which must be pairwise distinct.  A table models a system
when it is associative and satisfies each rule read as an equation: a
ground rule p q -> c pins the cell p*q to c, y z <-> z y ties two
cells, identity-elim makes row e (needs="right") or column e
(needs="left") the identity, and inverse-cancel asks two-sided
inverses.  A system with `left_inverses` also asks that every y has
some z with z*y = e, which no rule states.

The enumerator iterates designation assignments in ascending order and
fills table cells row-major, propagating forced values: equations pin
or tie cells, and any associativity instance with three of its four
products known either checks or forces the fourth.  Emission order is
therefore designation-major, then lexicographic in the flattened
table, and it is deterministic.  The search space may be partitioned
by designation or first-row prefix across workers without changing the
merged result; this implementation just runs the partitions in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .engine import GROUND, IDENTITY_ELIM, SYSTEMS, RuleSystem, _as_system

SIZE_CEILING = 6


@dataclass
class Model:
    size: int
    table: tuple[tuple[int, ...], ...]  # table[a][b] is a*b
    designated: dict[str, int]

    def __post_init__(self):
        n = self.size
        if n < 1:
            raise ValueError("model size must be at least 1")
        rows = tuple(tuple(row) for row in self.table)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"malformed table: expected {n}x{n}")
        # type, not isinstance: bool is an int subclass, but False is not 0
        for r in rows:
            for v in r:
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(f"malformed table: entry {v!r} outside 0..{n - 1}")
        object.__setattr__(self, "table", rows)
        for k, v in self.designated.items():
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"designated {k}={v!r} outside 0..{n - 1}")

    def key(self):
        """Hashable identity, for set comparisons in tests."""
        return (self.size, self.table, tuple(sorted(self.designated.items())))

    def apply(self, a: int, b: int) -> int:
        return self.table[a][b]


@dataclass(frozen=True)
class Violation:
    kind: str          # assoc | equation | identity | inverse | distinct | designation
    where: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass
class ModelQuery:
    system: str | RuleSystem
    size: int
    limit: int | None = None


def _read(system: RuleSystem) -> list[tuple[str, tuple[str, ...]]]:
    """Each rule of `system` read as an equation on tables, in rule order:
    ("pin", (p, q, c)) for ground p q -> c, ("tie", (p, q, r, s)) for
    ground p q -> r s, ("row", (e,)) or ("col", (e,)) for identity-elim
    needing a right or a left neighbour, ("inverse", (e,)) for
    inverse-cancel.  With `left_inverses`, ("left", (e,)) follows the
    row rule, the one that makes e a left identity."""
    e = system.identity_name
    out = []
    for r in system.rules:
        if r.kind == GROUND:
            atoms = r.lhs.atoms + r.rhs.atoms
            names = tuple([a.name for a in atoms if not a.inverted])
            if len(r.lhs.atoms) != 2 or len(names) != len(atoms) or len(atoms) > 4:
                raise ValueError(f"rule {r.id} of {system.name} is not a table equation")
            out.append(("pin" if len(atoms) == 3 else "tie", names))
        elif r.kind == IDENTITY_ELIM:
            out.append(("row" if r.needs == "right" else "col", (r.atom.name,)))
            if r.needs == "right" and system.left_inverses:
                out.append(("left", (e,)))
        else:
            out.append(("inverse", (e,)))
    if system.left_inverses and ("left", (e,)) not in out \
            or not {a for _, names in out for a in names} <= set(system.roles):
        raise ValueError(f"the rules of {system.name} do not read as equations on its roles")
    return out


def check_model(m: Model, system, *, _reading=None) -> list[Violation]:
    """Every violated constraint instance, one Violation each; empty
    means the table is a model of the system.  The enumerator passes
    `_reading`, so it reads the rules once and each leaf still comes here."""
    system = _as_system(system)
    roles, reading = system.roles, _reading or _read(system)
    n, t, d = m.size, m.table, m.designated
    v: list[Violation] = []
    for a, ta in enumerate(t):
        for b, tb in enumerate(t):
            tab = t[ta[b]]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    v.append(Violation("assoc", (a, b, c),
                                       f"({a}*{b})*{c}={tab[c]} but {a}*({b}*{c})={ta[tb[c]]}"))
    missing = [k for k in roles if k not in d]
    if missing:
        v.append(Violation("designation", tuple(missing), "missing designated element"
                           f"{'(s)' if len(roles) > 1 else ''}: {', '.join(missing)}"))
        return v
    for p, q in combinations(roles, 2):
        if d[p] == d[q]:
            v.append(Violation("distinct", (p, q), f"{p} and {q} both denote {d[p]}"))
    for kind, names in reading:
        if kind == "pin":
            p, q, c = names
            pq = t[d[p]][d[q]]
            if pq != d[c]:
                v.append(Violation("equation", (d[p], d[q]), f"{p}*{q}={pq}, expected {c}={d[c]}"))
        elif kind == "tie":
            p, q, r, s = names
            pq, rs = t[d[p]][d[q]], t[d[r]][d[s]]
            if pq != rs:
                v.append(Violation("equation", (d[p], d[q]), f"{p}*{q}={pq} but {r}*{s}={rs}"))
        else:
            (name,), e, cols = names, d[names[0]], tuple(zip(*t))
            for y in range(n):
                if kind == "row" and t[e][y] != y:
                    v.append(Violation("identity", (y,), f"{name}*{y}={t[e][y]}, expected {y}"))
                elif kind == "col" and t[y][e] != y:
                    v.append(Violation("identity", (y,), f"{y}*{name}={t[y][e]}, expected {y}"))
                elif kind == "left" and e not in cols[y]:
                    v.append(Violation("inverse", (y,), f"no z with z*{y}={name}"))
                elif kind == "inverse" and (e, e) not in zip(cols[y], t[y]):
                    v.append(Violation("inverse", (y,), f"no z with z*{y}={y}*z={name}"))
    return v


# ---------------------------------------------------------------------------
# enumeration


class _Stop(Exception):
    pass


def _designations(roles: tuple[str, ...], n: int):
    """Every assignment of pairwise distinct elements to `roles`, in
    ascending lexicographic order."""
    return (dict(zip(roles, values)) for values in permutations(range(n), len(roles)))


def _propagate(t: list[list[int | None]], n: int, trail: list[tuple[int, int]],
               ties: list[tuple[tuple[int, int], tuple[int, int]]]) -> bool:
    """Close the partial table under forced consequences: associativity,
    and cells tied equal.  Returns False on contradiction.  Every
    placement is pushed on `trail` so the caller can undo."""

    def put(i: int, j: int, val: int) -> bool:
        cur = t[i][j]
        if cur is not None:
            return cur == val
        t[i][j] = val
        trail.append((i, j))
        return True

    changed = True
    while changed:
        changed = False
        for a in range(n):
            ra = t[a]
            for b in range(n):
                ab = ra[b]
                for c in range(n):
                    bc = t[b][c]
                    left = t[ab][c] if ab is not None else None
                    right = ra[bc] if bc is not None else None
                    if left is not None and right is not None:
                        if left != right:
                            return False
                    elif left is not None and bc is not None:
                        if not put(a, bc, left):
                            return False
                        changed = True
                    elif right is not None and ab is not None:
                        if not put(ab, c, right):
                            return False
                        changed = True
        for (i1, j1), (i2, j2) in ties:
            u, w = t[i1][j1], t[i2][j2]
            if u is not None and w is None:
                put(i2, j2, u)
                changed = True
            elif w is not None and u is None:
                put(i1, j1, w)
                changed = True
            elif u != w:
                return False
    return True


def _pin(t, n, reading, d: dict[str, int]) -> list | None:
    """Place the cells the equations pin under designation `d` and return
    the pairs of cells tied equal, or None if two pins disagree."""
    cells, ties = [], []
    for kind, names in reading:
        if kind == "pin":
            p, q, c = names
            cells.append((d[p], d[q], d[c]))
        elif kind == "tie":
            p, q, r, s = names
            ties.append(((d[p], d[q]), (d[r], d[s])))
        elif kind == "row":
            e = d[names[0]]
            cells += [(e, k, k) for k in range(n)]
        elif kind == "col":
            e = d[names[0]]
            cells += [(k, e, k) for k in range(n)]
    for i, j, val in cells:
        if t[i][j] not in (None, val):
            return None
        t[i][j] = val
    return ties


def enumerate_models(q: ModelQuery, ceiling: int = SIZE_CEILING) -> list[Model]:
    """All models of the queried system and size, in designation-major,
    table-lexicographic order.  `limit`, when given, must be at least 1
    and keeps only the first `limit` models."""
    system = _as_system(q.system)
    n = q.size
    if not 1 <= n <= ceiling:
        raise ValueError(f"size {n} outside 1..{ceiling}")
    if q.limit is not None and q.limit < 1:
        raise ValueError(f"limit must be at least 1, got {q.limit}")
    reading = _read(system)
    out: list[Model] = []

    def emit(table, designated):
        m = Model(n, tuple(tuple(row) for row in table), dict(designated))
        if check_model(m, system, _reading=reading):  # propagation never replaces the final check
            return
        out.append(m)
        if q.limit is not None and len(out) >= q.limit:
            raise _Stop

    try:
        for d in _designations(system.roles, n):
            t: list[list[int | None]] = [[None] * n for _ in range(n)]
            ties = _pin(t, n, reading, d)
            if ties is not None and _propagate(t, n, [], ties):
                _fill(t, n, 0, ties, emit, d)
    except _Stop:
        pass
    return out


def _fill(t, n, cell, ties, emit, designated):
    while cell < n * n and t[cell // n][cell % n] is not None:
        cell += 1
    if cell == n * n:
        emit(t, designated)
        return
    i, j = cell // n, cell % n
    for val in range(n):
        trail = [(i, j)]
        t[i][j] = val
        if _propagate(t, n, trail, ties):
            _fill(t, n, cell + 1, ties, emit, designated)
        for (a, b) in trail:
            t[a][b] = None


def count_models(system, n: int, ceiling: int = SIZE_CEILING) -> int:
    return len(enumerate_models(ModelQuery(system, n), ceiling))


def find_min_model(system, n_max: int) -> tuple[int, Model] | None:
    """The smallest size admitting a model, with the first model in
    enumeration order, or None up to n_max."""
    for n in range(1, n_max + 1):
        found = enumerate_models(ModelQuery(system, n, limit=1))
        if found:
            return n, found[0]
    return None


_DESIGNATION_ORDER = tuple(dict.fromkeys(r for s in SYSTEMS.values() for r in s.roles))


def format_model(m: Model) -> str:
    lines = [f"n={m.size}"]
    for row in m.table:
        lines.append(" ".join(str(v) for v in row))
    parts = [f"{k}={m.designated[k]}" for k in _DESIGNATION_ORDER if k in m.designated]
    lines.append("designated: " + " ".join(parts))
    return "\n".join(lines)
