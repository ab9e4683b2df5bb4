"""Finite models: operation tables checked against each rule system,
plus a backtracking enumerator.

A model is a total binary operation on {0..n-1} with a designation map
naming which elements play the reserved-atom roles.  What each system
demands of a table:

    DIT    associativity, designated x y z pairwise distinct,
           x*y = y and z*y = x
    DIT+   DIT and z*x = z
    DITS   DIT+ and y*z = z*y
    DGS    associativity, designated e with e*y = y for every y,
           and every y has some z with z*y = e
    DGS+   DGS and y*e = y for every y
    DGSS   DGS+ and every y has some z with z*y = y*z = e

The enumerator iterates designation assignments in ascending order and
fills table cells row-major, propagating forced values: equations pin
cells up front, and any associativity instance with three of its four
products known either checks or forces the fourth.  Emission order is
therefore designation-major, then lexicographic in the flattened
table, and it is deterministic.  The search space may be partitioned
by designation or first-row prefix across workers without changing the
merged result; this implementation just runs the partitions in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import _as_system

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
        for r in rows:
            for v in r:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError(f"malformed table: entry {v!r} outside 0..{n - 1}")
        object.__setattr__(self, "table", rows)
        for k, v in self.designated.items():
            if not 0 <= v < n:
                raise ValueError(f"designated {k}={v} outside 0..{n - 1}")

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
    system: str
    size: int
    limit: int | None = None


_DIT_FAMILY = {"DIT", "DIT+", "DITS"}


def check_model(m: Model, system) -> list[Violation]:
    """Every violated constraint instance, one Violation each; empty
    means the table is a model of the system."""
    name = _as_system(system).name
    n, t = m.size, m.table
    v: list[Violation] = []
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    v.append(Violation("assoc", (a, b, c),
                                       f"({a}*{b})*{c}={t[ab][c]} but {a}*({b}*{c})={t[a][t[b][c]]}"))
    if name in _DIT_FAMILY:
        missing = [k for k in ("x", "y", "z") if k not in m.designated]
        if missing:
            v.append(Violation("designation", tuple(missing),
                               f"missing designated element(s): {', '.join(missing)}"))
            return v
        x, y, z = m.designated["x"], m.designated["y"], m.designated["z"]
        for p, q in (("x", "y"), ("x", "z"), ("y", "z")):
            if m.designated[p] == m.designated[q]:
                v.append(Violation("distinct", (p, q),
                                   f"{p} and {q} both denote {m.designated[p]}"))
        if t[x][y] != y:
            v.append(Violation("equation", (x, y), f"x*y={t[x][y]}, expected y={y}"))
        if t[z][y] != x:
            v.append(Violation("equation", (z, y), f"z*y={t[z][y]}, expected x={x}"))
        if name in ("DIT+", "DITS") and t[z][x] != z:
            v.append(Violation("equation", (z, x), f"z*x={t[z][x]}, expected z={z}"))
        if name == "DITS" and t[y][z] != t[z][y]:
            v.append(Violation("equation", (y, z), f"y*z={t[y][z]} but z*y={t[z][y]}"))
        return v
    # identity-based family
    if "e" not in m.designated:
        v.append(Violation("designation", ("e",), "missing designated element: e"))
        return v
    e = m.designated["e"]
    for y in range(n):
        if t[e][y] != y:
            v.append(Violation("identity", (y,), f"e*{y}={t[e][y]}, expected {y}"))
    for y in range(n):
        if all(t[z][y] != e for z in range(n)):
            v.append(Violation("inverse", (y,), f"no z with z*{y}=e"))
    if name in ("DGS+", "DGSS"):
        for y in range(n):
            if t[y][e] != y:
                v.append(Violation("identity", (y,), f"{y}*e={t[y][e]}, expected {y}"))
    if name == "DGSS":
        for y in range(n):
            if all(t[z][y] != e or t[y][z] != e for z in range(n)):
                v.append(Violation("inverse", (y,), f"no z with z*{y}={y}*z=e"))
    return v


# ---------------------------------------------------------------------------
# enumeration


class _Stop(Exception):
    pass


def _designations(name: str, n: int):
    if name in _DIT_FAMILY:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if x != y and y != z and x != z:
                        yield {"x": x, "y": y, "z": z}
    else:
        for e in range(n):
            yield {"e": e}


def _forced_cells(name: str, n: int, d: dict[str, int]) -> dict[tuple[int, int], int]:
    cells: dict[tuple[int, int], int] = {}
    if name in _DIT_FAMILY:
        x, y, z = d["x"], d["y"], d["z"]
        cells[(x, y)] = y
        cells[(z, y)] = x
        if name in ("DIT+", "DITS"):
            cells[(z, x)] = z
    else:
        e = d["e"]
        for k in range(n):
            cells[(e, k)] = k
        if name in ("DGS+", "DGSS"):
            for k in range(n):
                cells[(k, e)] = k
    return cells


def _propagate(t: list[list[int | None]], n: int, trail: list[tuple[int, int]],
               sym_pair: tuple[tuple[int, int], tuple[int, int]] | None) -> bool:
    """Close the partial table under forced consequences.  Returns False
    on contradiction.  Every placement is pushed on `trail` so the
    caller can undo."""

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
        if sym_pair is not None:
            (i1, j1), (i2, j2) = sym_pair
            if t[i1][j1] is not None and t[i2][j2] is None:
                if not put(i2, j2, t[i1][j1]):
                    return False
                changed = True
            elif t[i2][j2] is not None and t[i1][j1] is None:
                if not put(i1, j1, t[i2][j2]):
                    return False
                changed = True
            elif t[i1][j1] is not None and t[i2][j2] is not None \
                    and t[i1][j1] != t[i2][j2]:
                return False
    return True


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
    name = system.name
    out: list[Model] = []

    def emit(table, designated):
        m = Model(n, tuple(tuple(row) for row in table), dict(designated))
        if check_model(m, system):  # propagation never replaces the final check
            return
        out.append(m)
        if q.limit is not None and len(out) >= q.limit:
            raise _Stop

    try:
        for d in _designations(name, n):
            t: list[list[int | None]] = [[None] * n for _ in range(n)]
            trail: list[tuple[int, int]] = []
            for (i, j), val in _forced_cells(name, n, d).items():
                t[i][j] = val
                trail.append((i, j))
            sym_pair = None
            if name == "DITS":
                sym_pair = ((d["y"], d["z"]), (d["z"], d["y"]))
            if not _propagate(t, n, trail, sym_pair):
                for (i, j) in trail:
                    t[i][j] = None
                continue
            _fill(t, n, 0, sym_pair, emit, d)
    except _Stop:
        pass
    return out


def _fill(t, n, cell, sym_pair, emit, designated):
    while cell < n * n and t[cell // n][cell % n] is not None:
        cell += 1
    if cell == n * n:
        emit(t, designated)
        return
    i, j = cell // n, cell % n
    for val in range(n):
        trail = [(i, j)]
        t[i][j] = val
        if _propagate(t, n, trail, sym_pair):
            _fill(t, n, cell + 1, sym_pair, emit, designated)
        for (a, b) in trail:
            t[a][b] = None


def count_models(system, n: int, ceiling: int = SIZE_CEILING) -> int:
    return len(enumerate_models(ModelQuery(_as_system(system).name, n), ceiling))


def find_min_model(system, n_max: int) -> tuple[int, Model] | None:
    """The smallest size admitting a model, with the first model in
    enumeration order, or None up to n_max."""
    for n in range(1, n_max + 1):
        found = enumerate_models(ModelQuery(_as_system(system).name, n, limit=1))
        if found:
            return n, found[0]
    return None


_DESIGNATION_ORDER = ("x", "y", "z", "e")


def format_model(m: Model) -> str:
    lines = [f"n={m.size}"]
    for row in m.table:
        lines.append(" ".join(str(v) for v in row))
    parts = [f"{k}={m.designated[k]}" for k in _DESIGNATION_ORDER if k in m.designated]
    lines.append("designated: " + " ".join(parts))
    return "\n".join(lines)
