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
table, and it is deterministic.

Propagation works off a queue of the cells just placed, as SEM and
Mace4 do: a cell i*j = v rechecks only the associativity instances
that mention it, as a*b, as b*c, or as the looked-up product (a*b)*c
or a*(b*c), and its tied cells.  Each goes through one forcing rule,
`_equate`: a known cell fills an empty cell it must equal and queues
it, and two known cells that differ clash.  Associativity sites skip
equal cells, the common case, without a call.  Propagation also prunes
the two existential obligations as soon as they can no longer hold: a
column with no cell left that is empty or e, under `left_inverses`,
and an element y with no z left whose z*y and y*z are both empty or e,
under inverse-cancel.  Pruning only cuts subtrees without models;
`check_model` still judges every complete table before it is emitted.

Only the first designation, roles -> 0..k-1, is searched; every later
one gets its models by relabelling.  `_read` admits only equations on
the roles, so a permutation pi of the carrier that sends the first
designation to designation v (pi = v followed by the other elements in
ascending order) preserves pins, ties, identity rows and columns, left
and two-sided inverses and associativity: T is a model under the first
designation exactly when T'[a][b] = pi[T[pi^-1 a][pi^-1 b]] is one
under v, and pi is a bijection on tables.  Each designation's
relabelled tables are sorted, which keeps the order designation-major,
then table-lexicographic, and `check_model` still judges every one of
them before it is emitted.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, islice, permutations

from .engine import GROUND, IDENTITY_ELIM, SYSTEMS, RuleSystem, _as_system

SIZE_CEILING = 6


@dataclass
class Model:
    size: int
    table: tuple[tuple[int, ...], ...]  # table[a][b] is a*b
    designated: dict[str, int]

    def __post_init__(self):
        n = self.size
        if type(n) is not int or n < 1:
            raise ValueError(f"model size must be an int of at least 1, got {n!r}")
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


@dataclass(frozen=True)  # checked once, at construction
class ModelQuery:
    system: str | RuleSystem
    size: int
    limit: int | None = None

    def __post_init__(self):
        # type, not isinstance: True would otherwise pass as 1, and 1.5 as a limit
        if type(self.size) is not int:
            raise ValueError(f"size must be an int, got {self.size!r}")
        if self.limit is not None and type(self.limit) is not int:
            raise ValueError(f"limit must be an int, got {self.limit!r}")
        if not 1 <= self.size <= SIZE_CEILING:
            raise ValueError(f"size {self.size} outside 1..{SIZE_CEILING}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be at least 1, got {self.limit}")


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


def _designations(roles: tuple[str, ...], n: int):
    """Every assignment of pairwise distinct elements to `roles`, in
    ascending lexicographic order."""
    return (dict(zip(roles, values)) for values in permutations(range(n), len(roles)))


def _equate(t, trail, p: int, q: int, r: int, s: int) -> bool:
    """Cells p*q and r*s of `t` must agree: a known one fills an empty one,
    which is queued on `trail`; False if both are known and differ."""
    x, y = t[p][q], t[r][s]
    if x is None:
        if y is not None:
            t[p][q] = y
            trail.append((p, q))
    elif y is None:
        t[r][s] = x
        trail.append((r, s))
    elif x != y:
        return False
    return True


def _propagate(t: list[list[int | None]], n: int, trail: list[tuple[int, int]],
               watch: tuple) -> bool:
    """Close the partial table under forced consequences, working off
    `trail` as a queue: each cell on it is checked against the
    associativity triples that mention it, its tied cells and the
    existential obligations, and every cell this places is pushed on
    `trail` in turn, so the caller can undo them.  Returns False on
    contradiction, or as soon as an element is left without the inverse
    `watch` asks for.  The set of cells forced does not depend on the
    order the queue is worked in."""
    ties, left, inverse = watch
    rows = range(n)
    for i, j in trail:          # also visits the cells pushed meanwhile
        ri, rj = t[i], t[j]
        v = ri[j]
        rv = t[v]
        for c in rows:          # (i*j)*c = v*c against i*(j*c)
            jc = rj[c]
            if jc is not None and rv[c] != ri[jc] and not _equate(t, trail, v, c, i, jc):
                return False
        for a in rows:          # (a*i)*j against a*(i*j) = a*v
            ra = t[a]
            ai = ra[i]
            if ai is not None and t[ai][j] != ra[v] and not _equate(t, trail, ai, j, a, v):
                return False
        for a in rows:          # v as a looked-up product
            ra = t[a]
            for b in rows:
                ab = ra[b]
                if ab == i:     # (a*b)*j = v against a*(b*j)
                    bj = t[b][j]
                    if bj is not None and ra[bj] != v and not _equate(t, trail, a, bj, i, j):
                        return False
                if ab == j:     # i*(a*b) = v against (i*a)*b
                    ia = ri[a]
                    if ia is not None and t[ia][b] != v and not _equate(t, trail, ia, b, i, j):
                        return False
        for p, q in ties.get((i, j), ()):
            if not _equate(t, trail, p, q, i, j):
                return False
        if v != left and left is not None:     # some z*j may still be e
            for r in t:
                if r[j] is None or r[j] == left:
                    break
            else:
                return False
        if v != inverse and inverse is not None:   # some z with z*y = y*z = e
            for y in {i, j}:
                ry = t[y]
                for z in rows:
                    if (t[z][y] is None or t[z][y] == inverse) \
                            and (ry[z] is None or ry[z] == inverse):
                        break
                else:
                    return False
    return True


def _pin(t, n, reading, d: dict[str, int]) -> tuple | None:
    """Place the cells the equations pin under designation `d`, or return
    None if two pins disagree.  Otherwise return what `_propagate`
    watches: a map from each tied cell to the cells tied to it, the e
    that every column must still be able to hold ("left"), and the e
    that every element needs a two-sided inverse for ("inverse"); either
    e is None when the reading does not ask for it."""
    cells, ties, left, inverse = [], {}, None, None
    for kind, names in reading:
        if kind == "pin":
            p, q, c = names
            cells.append((d[p], d[q], d[c]))
        elif kind == "tie":
            p, q, r, s = names
            u, w = (d[p], d[q]), (d[r], d[s])
            ties.setdefault(u, []).append(w)
            ties.setdefault(w, []).append(u)
        elif kind == "row":
            e = d[names[0]]
            cells += [(e, k, k) for k in range(n)]
        elif kind == "col":
            e = d[names[0]]
            cells += [(k, e, k) for k in range(n)]
        elif kind == "left":
            left = d[names[0]]
        else:
            inverse = d[names[0]]
    for i, j, val in cells:
        if t[i][j] not in (None, val):
            return None
        t[i][j] = val
    return ties, left, inverse


def iter_models(q: ModelQuery) -> Iterator[Model]:
    """The models of `q`, lazily, in designation-major, table-lexicographic
    order, and at most `limit` of them; the one source of models.  Not a
    generator function, so an unknown system raises at the call."""
    system = _as_system(q.system)
    return islice(_search(system, q.size, _read(system)), q.limit)


def _search(system: RuleSystem, n: int, reading) -> Iterator[Model]:
    """Search the first designation, then relabel its models for each
    later one (see the module docstring); yield every table that
    `check_model` passes."""
    designations = _designations(system.roles, n)
    first = next(designations, None)
    if first is None:
        return
    t: list[list[int | None]] = [[None] * n for _ in range(n)]
    watch = _pin(t, n, reading, first)
    if watch is None or not _propagate(t, n, [(i, j) for i in range(n) for j in range(n)
                                             if t[i][j] is not None], watch):
        return
    tables = []
    for table in _fill(t, n, 0, watch):
        m = Model(n, table, dict(first))
        if not check_model(m, system, _reading=reading):  # propagation never replaces the final check
            tables.append(table)
            yield m
    for d in designations:
        values = tuple(d.values())
        pi = values + tuple(a for a in range(n) if a not in values)
        inv = sorted(range(n), key=pi.__getitem__)
        for table in sorted(tuple(tuple([pi[tab[a][b]] for b in inv]) for a in inv)
                            for tab in tables):
            m = Model(n, table, dict(d))
            if not check_model(m, system, _reading=reading):
                yield m


def _fill(t, n, cell, watch) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every completion of `t` that propagation admits, as tuples, in
    table-lexicographic order; lazily, so a `limit` stops the search."""
    while cell < n * n and t[cell // n][cell % n] is not None:
        cell += 1
    if cell == n * n:
        yield tuple(map(tuple, t))
        return
    i, j = cell // n, cell % n
    for val in range(n):
        trail = [(i, j)]
        t[i][j] = val
        if _propagate(t, n, trail, watch):
            yield from _fill(t, n, cell + 1, watch)
        for (a, b) in trail:
            t[a][b] = None


def enumerate_models(q: ModelQuery) -> list[Model]:
    """`iter_models(q)` as a list."""
    return list(iter_models(q))


def count_models(system, n: int) -> int:
    """How many models `enumerate_models` would return, counted as they
    are generated and checked, without keeping them."""
    return sum(1 for _ in iter_models(ModelQuery(system, n)))


def find_min_model(system, n_max: int) -> tuple[int, Model] | None:
    """The smallest size admitting a model, with the first model in
    enumeration order, or None up to n_max."""
    for n in range(1, n_max + 1):
        m = next(iter_models(ModelQuery(system, n, limit=1)), None)
        if m is not None:
            return n, m
    return None


_DESIGNATION_ORDER = tuple(dict.fromkeys(r for s in SYSTEMS.values() for r in s.roles))


def format_model(m: Model) -> str:
    lines = [f"n={m.size}"]
    for row in m.table:
        lines.append(" ".join(str(v) for v in row))
    roles = [k for k in _DESIGNATION_ORDER if k in m.designated]
    rest = sorted(k for k in m.designated if k not in _DESIGNATION_ORDER)
    parts = [f"{k}={m.designated[k]}" for k in roles + rest]
    lines.append("designated: " + " ".join(parts))
    return "\n".join(lines)
