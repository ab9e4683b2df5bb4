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

`check_model` decides associativity a row at a time with whole-row
string operations, with element k as the character chr(k): each row is
formatted once into a string, and the row strings are the translation
tables on both sides.  Put through row a, the whole table reads a*(b*c)
for every b and c, and row a put through the row strings reads
(a*b)*c.  All rows are compared at once first, and the triple loop that
reports each violation runs only over the rows that differ, so an
associative table costs n format calls and n + 1 translations instead
of n**3 interpreted steps.  Characters run far past 255, so the test
has no size limit; past 127, though, `str.translate` leaves its cached
ASCII path, and the test costs about what the loop does.

The enumerator takes designation assignments in ascending order and
fills table cells row-major, propagating forced values: equations pin
or tie cells, and any associativity instance with three of its four
products known either checks or forces the fourth.  Emission order is
therefore designation-major, then lexicographic in the flattened
table, and it is deterministic.  `_pin` closes the table from the
cells it pins, so no pass rescans the table for placed cells.

Propagation works off a queue of the cells just placed, as SEM and
Mace4 do: a cell i*j = v rechecks only the associativity instances
that mention it, as a*b, as b*c, or as the looked-up product (a*b)*c
or a*(b*c), and its tied cells.  Each goes through one forcing rule,
`_equate`: a known cell fills an empty cell it must equal and queues
it, and two known cells that differ clash.  Associativity sites skip
equal cells, the common case, without a call.  Propagation also prunes
on one derived constraint, the Latin rule, when the reading holds
("left", (e,)) or ("inverse", (e,)).  Its models are then groups, by
the theorem that a semigroup with a one-sided identity e, in which
every element has an inverse on that same side with respect to e, is
a group: `_read` gives "left" right after the row rule that makes e a
left identity, and "inverse", whose inverses are two-sided, only
beside the identity rule that names e.  A group's rows and columns are
permutations, so a cell i*j = v fails as soon as v stands elsewhere in
row i or column j.  A full table that passes it is an associative
Latin square, hence a group, so the rule also covers every inverse
obligation.  Pruning only cuts subtrees without models;
`check_model` still judges every complete table before it is emitted.

Only the first designation, roles -> 0..k-1, is searched, by
`_first_tables`; `_search` relabels its models for every later one.
`_read` admits only equations on the roles, so a permutation pi of the
carrier that sends the first designation to designation v (pi = v
followed by the other elements in ascending order) preserves pins,
ties, identity rows and columns, left and two-sided inverses and
associativity: T is a model under the first designation exactly when
T'[a][b] = pi[T[pi^-1 a][pi^-1 b]] is one under v, and pi is a
bijection on tables.  The first designation's tables have few distinct
rows (111 in the 90 `dits` tables at n=5), so each distinct row is
numbered once and kept as an itemgetter, and each table as a getter of
its row numbers.  A later designation relabels every distinct row once,
two C-level calls each, and builds each table with two more: its getter
picks the relabelled rows and pi^-1 puts them in order, so all the
designation's tables share their row tuples.  Each designation's
relabelled tables are sorted, which keeps the order designation-major,
then table-lexicographic, and `Model` validates and `check_model`
judges every one of them before it is emitted.  Those two calls are
most of what an emitted model costs: on `dits` at n=5 about 2.9 and
5.1 µs of about 9 µs, against about 1 µs of relabelling (2 shared
vCPUs, Python 3.11.7).  A designation's own set-up (its map, pi, pi^-1,
the relabelled rows and the sort) is about 3 µs and is shared by all
its tables: 90 at `dits` n=5, but one at `dgs+` n=3.

Counting builds no relabelled table.  Since pi is a bijection, every
designation has as many models as the first, so `count_models` builds
and checks the first designation's models alone and multiplies their
number by P(n, k), the number of designations of the k roles: 90 checks
instead of 5,400 at `dits` n=5, and `dit` at n=6 counts 16,578 models
times 120 in about a second (2 vCPUs, Python 3.11.7).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, islice, permutations, starmap
from operator import itemgetter

from . import systems
from .systems import GROUND, IDENTITY_ELIM, SYSTEMS, RuleSystem
from .terms import check_count, check_is

SIZE_CEILING = 6


@dataclass(frozen=True, init=False)
class Model:
    """Frozen, so a table is validated once and cannot be swapped after.
    `designated` is a dict, so the generated hash would fail on it;
    `key()` is the hashable identity.  The one constructor validates
    every argument and then sets each field once."""

    size: int
    table: tuple[tuple[int, ...], ...]  # table[a][b] is a*b
    designated: dict[str, int]

    def __init__(self, size: int, table, designated: dict[str, int]):
        n = size
        if type(n) is not int or n < 1:
            raise ValueError(f"model size must be an int of at least 1, got {n!r}")
        try:
            rows = tuple(map(tuple, table))
        except TypeError:  # the table or a row is not iterable
            rows = ()
        if len(rows) != n or set(map(len, rows)) != {n}:
            raise ValueError(f"malformed table: expected {n}x{n}")
        # type, not isinstance: bool is an int subclass, but False is not 0
        for r in rows:
            for v in r:
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(f"malformed table: entry {v!r} outside 0..{n - 1}")
        # a copy, so the caller cannot change it once checked
        d = dict(check_is(designated, dict, "designated"))
        for k, v in d.items():
            if type(k) is not str:
                raise ValueError(f"designated key {k!r} is not a name")
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"designated {k}={v!r} outside 0..{n - 1}")
        # each field once, past the frozen __setattr__; not through
        # self.__dict__, which would give every model a dict of its own
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "designated", d)

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


@dataclass(frozen=True)
class ModelQuery:
    """The one place a query is checked, at construction: a bad size or
    limit or an unknown system id raises here.  `system` is kept as the
    RuleSystem it names."""

    system: str | RuleSystem
    size: int
    limit: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "system", systems.make_system(self.system))
        check_count("size", self.size, 1, SIZE_CEILING)
        if self.limit is not None:
            check_count("limit", self.limit)


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


def _nonassociative_rows(t) -> list[int]:
    """The rows a of table `t` that hold some (a*b)*c != a*(b*c), by the
    string test of the module docstring: with element k as the
    character chr(k) (`"%c" % k`), the table put through row a reads
    a*(b*c) for every b and c, and row a put through the row strings,
    which map k to row k, reads (a*b)*c.  The row strings are the
    translation tables on both sides.  Every table the enumerator emits
    is associative, so all rows are compared at once first."""
    rows = list(map(("%c" * len(t)).__mod__, t))
    flat = "".join(rows)
    if flat.translate(rows) == "".join(map(flat.translate, rows)):
        return []
    return [a for a, r in enumerate(rows) if r.translate(rows) != flat.translate(r)]


def check_model(m: Model, system, *, _reading=None) -> list[Violation]:
    """Every violated constraint instance, one Violation each; empty
    means the table is a model of the system.  Associativity is decided
    a row at a time by `_nonassociative_rows`, and the triple loop that
    reports each violation runs only over the rows it names.  The roles'
    elements are gathered into one set first, and the loops that name
    missing or shared roles run only when it shows one.  The enumerator
    passes `_reading`, so it reads the rules once and each leaf still
    comes here."""
    check_is(m, Model, "m")
    system = systems.make_system(system)
    roles, reading = system.roles, _reading or _read(system)
    n, t, d = m.size, m.table, m.designated
    v: list[Violation] = []
    for a in _nonassociative_rows(t):     # only these rows can hold violations
        ta = t[a]
        for b, tb in enumerate(t):
            tab = t[ta[b]]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    v.append(Violation("assoc", (a, b, c),
                                       f"({a}*{b})*{c}={tab[c]} but {a}*({b}*{c})={ta[tb[c]]}"))
    named = set(map(d.get, roles))      # None stands for a missing role
    if None in named or len(named) < len(roles):
        missing = [k for k in roles if k not in d]
        if missing:
            v.append(Violation("designation", tuple(missing), "missing designated element"
                               f"{'(s)' if len(roles) > 1 else ''}: {', '.join(missing)}"))
            return v
        for p, q in combinations(roles, 2):
            if d[p] == d[q]:
                v.append(Violation("distinct", (p, q), f"{p} and {q} both denote {d[p]}"))
    cols = ()
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
            (name,), e, cols = names, d[names[0]], cols or tuple(zip(*t))
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
    `trail` as a queue: each cell on it is checked against its row and
    column when `watch` says every model is a group, then against the
    associativity triples that mention it and its tied cells, and every
    cell this places is pushed on `trail` in turn, so the caller can
    undo them.  Returns False on contradiction: a repeated value in a
    row or column of a group, or two cells that must agree and differ.
    The set of cells forced does not depend on the order the queue is
    worked in."""
    ties, group = watch
    rows = range(n)
    for i, j in trail:          # also visits the cells pushed meanwhile
        ri, rj = t[i], t[j]
        v = ri[j]
        rv = t[v]
        if group and (ri.count(v) > 1 or [r[j] for r in t].count(v) > 1):
            return False        # a group's rows and columns are permutations
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
    return True


def _pin(t, n, reading, d: dict[str, int]) -> tuple | None:
    """Place the cells the equations pin under designation `d` and close
    the table from them; None if they clash.  Otherwise return what
    `_propagate` watches: a map from each tied cell to the cells tied to
    it, and whether every model is a group (see the module docstring)."""
    cells, ties, group = {}, {}, False     # cells as an ordered set: row and column e share e*e
    for kind, names in reading:
        if kind == "pin":
            p, q, c = names
            cells[d[p], d[q], d[c]] = None
        elif kind == "tie":
            p, q, r, s = names
            u, w = (d[p], d[q]), (d[r], d[s])
            ties.setdefault(u, []).append(w)
            ties.setdefault(w, []).append(u)
        elif kind == "row":
            cells |= dict.fromkeys((d[names[0]], k, k) for k in range(n))
        elif kind == "col":
            cells |= dict.fromkeys((k, d[names[0]], k) for k in range(n))
        else:                   # "left" or "inverse"
            group = True
    for i, j, val in cells:
        if t[i][j] not in (None, val):
            return None
        t[i][j] = val
    return (ties, group) if _propagate(t, n, [c[:2] for c in cells], (ties, group)) else None


def iter_models(q: ModelQuery) -> Iterator[Model]:
    """The models of `q`, lazily, in designation-major, table-lexicographic
    order, and at most `limit` of them; the one source of models."""
    check_is(q, ModelQuery, "q")
    return islice(_search(q.system, q.size, _read(q.system)), q.limit)


def _first_tables(system: RuleSystem, n: int, reading) -> Iterator[Model]:
    """The first designation's models, roles -> 0..k-1, lazily and in
    `_fill` order; none when the k roles outnumber the n elements."""
    first = dict(zip(system.roles, range(n)))
    t: list[list[int | None]] = [[None] * n for _ in range(n)]
    watch = _pin(t, n, reading, first) if len(first) == len(system.roles) else None
    for table in _fill(t, n, 0, watch) if watch is not None else ():
        m = Model(n, table, first)
        if not check_model(m, system, _reading=reading):  # propagation never replaces the final check
            yield m


def _search(system: RuleSystem, n: int, reading) -> Iterator[Model]:
    """`_first_tables`, then its models relabelled for each later designation."""
    index, tables = {}, []      # each distinct row's number; each model's row numbers as a getter
    for m in _first_tables(system, n, reading):
        tables.append(itemgetter(*[index.setdefault(row, len(index)) for row in m.table]))
        yield m
    rows = list(starmap(itemgetter, index))     # each distinct row as a getter
    for values in islice(permutations(range(n), len(system.roles)), 1, None):
        d = dict(zip(system.roles, values))
        pi = values + tuple(a for a in range(n) if a not in values)
        inv = itemgetter(*map(pi.index, range(n)))     # pi^-1: b -> the a with pi[a] = b
        # a row r relabelled is pi[r[inv b]] for every b: its getter reads its
        # values off pi and inv puts them in column order (a tuple, as a later
        # designation needs n > 1); row a of a table is row inv a of T relabelled
        relabelled = [inv(row(pi)) for row in rows]
        for table in sorted(inv(rows_of(relabelled)) for rows_of in tables):
            m = Model(n, table, d)
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
    """How many models `enumerate_models` would return: the first
    designation's models, each built and checked, times P(n, k), the
    number of designations of the k roles.  By the relabelling bijection
    of the module docstring every designation has as many models as the
    first, so no relabelled table is built."""
    s = ModelQuery(system, n).system
    return sum(1 for _ in _first_tables(s, n, _read(s))) * math.perm(n, len(s.roles))


def find_min_model(system, n_max: int) -> tuple[int, Model] | None:
    """The smallest size admitting a model, with the first model in
    enumeration order, or None up to n_max."""
    for n in range(1, check_count("n_max", n_max, 1, SIZE_CEILING) + 1):
        m = next(iter_models(ModelQuery(system, n, limit=1)), None)
        if m is not None:
            return n, m
    return None


_DESIGNATION_ORDER = tuple(dict.fromkeys(r for s in SYSTEMS.values() for r in s.roles))


def format_model(m: Model) -> str:
    check_is(m, Model, "m")
    lines = [f"n={m.size}"]
    for row in m.table:
        lines.append(" ".join(str(v) for v in row))
    roles = [k for k in _DESIGNATION_ORDER if k in m.designated]
    rest = sorted(k for k in m.designated if k not in _DESIGNATION_ORDER)
    parts = [f"{k}={m.designated[k]}" for k in roles + rest]
    lines.append("designated: " + " ".join(parts))
    return "\n".join(lines)
