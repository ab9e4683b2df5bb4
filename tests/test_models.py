from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import models
from relcalc.cli import main
from relcalc.engine import (AX6, AX9A, GROUND, LRXR, SYSTEMS, Rule, RuleSystem,
                            make_system)
from relcalc.models import (Model, ModelQuery, Violation, _designations, _fill, _pin,
                            _propagate, _read, check_model, count_models,
                            enumerate_models, find_min_model, format_model, iter_models)
from relcalc.terms import parse_word

Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_model_validation():
    with pytest.raises(ValueError):
        Model(0, (), {})
    with pytest.raises(ValueError):
        Model(2, ((0, 1),), {})                  # missing row
    with pytest.raises(ValueError):
        Model(2, ((0, 1), (1, 2)), {})           # entry out of range
    with pytest.raises(ValueError):
        Model(2, ((0, 1), (1, 0)), {"e": 2})     # designation out of range
    with pytest.raises(ValueError):              # bool is an int, not an element
        Model(2, ((False, True), (True, False)), {"e": False})
    with pytest.raises(ValueError):
        Model(2, ((False, True), (True, False)), {"e": 0})
    with pytest.raises(ValueError):
        Model(2, ((0, 1), (1, 0)), {"e": False})
    with pytest.raises(ValueError):              # would index the table later
        Model(2, ((0, 1), (1, 0)), {"e": 0.0})
    with pytest.raises(ValueError):
        Model(True, ((0,),), {"e": 0})
    with pytest.raises(ValueError):
        Model(2.0, ((0, 1), (1, 0)), {"e": 0})


def test_model_normalizes_and_applies():
    m = Model(2, [[0, 1], [1, 0]], {"e": 0})
    assert m.table == ((0, 1), (1, 0))
    assert m.apply(1, 1) == 0
    assert m.key() == (2, ((0, 1), (1, 0)), (("e", 0),))


def test_z3_models_the_whole_dit_family():
    m = Model(3, Z3, {"x": 0, "y": 1, "z": 2})
    for system in ("dit", "dit+", "dits"):
        assert check_model(m, system) == []


def test_z3_models_the_identity_family():
    m = Model(3, Z3, {"e": 0})
    for system in ("dgs", "dgs+", "dgss"):
        assert check_model(m, system) == []


def test_assoc_violations_are_reported():
    m = Model(2, ((1, 1), (0, 0)), {"e": 0})
    kinds = {v.kind for v in check_model(m, "dgs")}
    assert "assoc" in kinds


def test_missing_designation_short_circuits():
    m = Model(3, Z3, {})
    (v,) = check_model(m, "dit")
    assert v.kind == "designation"
    (v,) = check_model(m, "dgs")
    assert v.kind == "designation" and v.where == ("e",)


def test_distinctness_is_checked():
    m = Model(3, Z3, {"x": 0, "y": 0, "z": 2})
    kinds = [v.kind for v in check_model(m, "dit")]
    assert "distinct" in kinds


def test_equation_violation_details():
    # z*y lands on z itself instead of x
    m = Model(3, ((0, 1, 2), (1, 2, 0), (2, 2, 1)), {"x": 0, "y": 1, "z": 2})
    eq = [v for v in check_model(m, "dit") if v.kind == "equation"]
    assert any(v.where == (2, 1) for v in eq)
    assert any("expected x=0" in v.detail for v in eq)


def test_missing_inverse_is_reported():
    m = Model(2, ((0, 1), (1, 1)), {"e": 0})
    assert check_model(m, "dgs") == [Violation("inverse", (1,), "no z with z*1=e")]
    assert str(Violation("inverse", (1,), "no z with z*1=e")) == \
        "inverse at (1,): no z with z*1=e"


def test_right_identity_only_in_extended_systems():
    # left identity 0, but 1*0=0 breaks the right identity law
    m = Model(2, ((0, 1), (0, 1)), {"e": 0})
    assert all(v.kind != "identity" or v.where != (1,) or "0*e" not in v.detail
               for v in check_model(m, "dgs"))
    dgs = check_model(m, "dgs")
    dgsp = check_model(m, "dgs+")
    assert len(dgsp) > len(dgs)
    assert any(v.kind == "identity" and "1*e" in v.detail for v in dgsp)


FROZEN_COUNTS = {
    ("dit", 1): 0, ("dit", 2): 0, ("dit", 3): 12, ("dit", 4): 408,
    ("dit+", 3): 6, ("dit+", 4): 144,
    ("dits", 3): 6, ("dits", 4): 144,
    ("dgs", 1): 1, ("dgs", 2): 2, ("dgs", 3): 3, ("dgs", 4): 16,
    ("dgs+", 3): 3, ("dgs+", 4): 16,
    ("dgss", 1): 1, ("dgss", 2): 2, ("dgss", 3): 3, ("dgss", 4): 16,
    # Z5 is the only group of order 5: 5!/|Aut Z5| = 120/4 labelled copies
    ("dgs", 5): 30, ("dgs+", 5): 30, ("dgss", 5): 30,
    ("dit+", 5): 5400, ("dits", 5): 5400,
}


@pytest.mark.parametrize("system,n", sorted(FROZEN_COUNTS))
def test_frozen_model_counts(system, n):
    assert count_models(system, n) == FROZEN_COUNTS[(system, n)]


def test_every_enumerated_model_passes_check():
    for system in ("dit", "dit+", "dits", "dgs", "dgs+", "dgss"):
        for m in enumerate_models(ModelQuery(system, 3)):
            assert m.size == 3
            assert check_model(m, system) == []


def test_first_dit_model_is_the_nonassociative_free_for_all():
    models = enumerate_models(ModelQuery("dit", 3, limit=1))
    assert len(models) == 1
    m = models[0]
    assert m.table == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
    assert m.designated == {"x": 0, "y": 1, "z": 2}
    # this one refutes the stronger law z*x=z
    assert m.apply(2, 0) != 2


def test_first_dits_model_is_z3():
    (m,) = enumerate_models(ModelQuery("dits", 3, limit=1))
    assert m.table == Z3
    assert m.designated == {"x": 0, "y": 1, "z": 2}


def test_enumeration_is_deterministic_and_limit_truncates():
    full = enumerate_models(ModelQuery("dit", 3))
    again = enumerate_models(ModelQuery("dit", 3))
    assert [m.key() for m in full] == [m.key() for m in again]
    cut = enumerate_models(ModelQuery("dit", 3, limit=5))
    assert [m.key() for m in cut] == [m.key() for m in full[:5]]


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_rejected(limit):
    with pytest.raises(ValueError, match="limit must be at least 1"):
        enumerate_models(ModelQuery("dit", 3, limit=limit))


@pytest.mark.parametrize("size,limit", [(True, None), (2.0, None), ("2", None),
                                        (2, True), (2, 1.5), (2, 2.0)])
def test_query_takes_only_int_sizes_and_limits(size, limit):
    with pytest.raises(ValueError, match="must be an int"):
        ModelQuery("dgss", size, limit)
    with pytest.raises(ValueError, match="must be an int"):
        sum(1 for _ in iter_models(ModelQuery("dgss", size, limit)))


def test_count_models_honours_limit():
    assert count_models("dit", 3) == 12
    assert [sum(1 for _ in iter_models(ModelQuery("dit", 3, limit=k))) for k in (1, 5, 12, 13)] \
        == [1, 5, 12, 12]
    with pytest.raises(ValueError, match="limit must be at least 1"):
        sum(1 for _ in iter_models(ModelQuery("dit", 3, limit=0)))


def test_query_is_checked_at_construction():
    with pytest.raises(ValueError, match=r"^size 7 outside 1\.\.6$"):
        ModelQuery("dit", 7)
    with pytest.raises(ValueError, match="^limit must be at least 1, got 0$"):
        ModelQuery("dit", 3, limit=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ModelQuery("dit", 3).size = 7
    with pytest.raises(ValueError, match="unknown system"):
        iter_models(ModelQuery("nope", 3))  # at the call, before any model is asked for


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counting_keeps_no_model_list():
    # 5,400 models over 60 designations; the first one's 90 are kept
    counted = _peak(lambda: count_models("dit+", 5))
    listed = _peak(lambda: len(enumerate_models(ModelQuery("dit+", 5))))
    assert counted < listed / 4


def test_listing_keeps_no_model_list():
    # `relcalc models` prints each model as it is found
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        printed = _peak(lambda: main(["models", "--system", "dit+", "--size", "5"]))
    listed = _peak(lambda: len(enumerate_models(ModelQuery("dit+", 5))))
    assert printed < listed / 4


def test_query_has_no_count_only_field():
    # counting is count_models; the query carries no such mode
    with pytest.raises(TypeError):
        ModelQuery("dgss", 2, count_only=True)


def test_identity_family_models_agree_up_to_3():
    # left identity + left inverses already force a group
    for n in (1, 2, 3):
        dgs = {m.key() for m in enumerate_models(ModelQuery("dgs", n))}
        dgss = {m.key() for m in enumerate_models(ModelQuery("dgss", n))}
        assert dgs == dgss


def test_find_min_model():
    assert find_min_model("dit", 2) is None
    found = find_min_model("dit", 4)
    assert found is not None
    n, m = found
    assert n == 3
    assert check_model(m, "dit") == []
    assert find_min_model("dgs", 4) == (1, Model(1, ((0,),), {"e": 0}))


def test_size_outside_ceiling_rejected():
    with pytest.raises(ValueError):
        enumerate_models(ModelQuery("dit", 0))
    with pytest.raises(ValueError):
        enumerate_models(ModelQuery("dit", 7))
    with pytest.raises(ValueError):
        count_models("dgss", 9)


def test_format_model_golden():
    m = Model(3, Z3, {"x": 0, "y": 1, "z": 2})
    assert format_model(m) == "n=3\n0 1 2\n1 2 0\n2 0 1\ndesignated: x=0 y=1 z=2"
    e = Model(1, ((0,),), {"e": 0})
    assert format_model(e) == "n=1\n0\ndesignated: e=0"


def test_format_model_prints_keys_that_are_not_roles():
    assert format_model(Model(1, ((0,),), {"w": 0})) == "n=1\n0\ndesignated: w=0"
    m = Model(3, Z3, {"q": 2, "z": 0, "p": 1, "x": 1})
    assert format_model(m).endswith("designated: x=1 z=0 p=1 q=2")


# ---------------------------------------------------------------------------
# the rules read as equations, against the string dispatch they replaced


def _reference_check_model(m: Model, system) -> list[Violation]:
    """check_model as it was when each system was told apart by name."""
    name = make_system(system).name
    n, t = m.size, m.table
    v: list[Violation] = []
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    v.append(Violation("assoc", (a, b, c),
                                       f"({a}*{b})*{c}={t[ab][c]} but {a}*({b}*{c})={t[a][t[b][c]]}"))
    if name in ("DIT", "DIT+", "DITS"):
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


@st.composite
def _tables(draw):
    """A table of size 1-4, random or a cyclic group with up to two cells
    changed, with designations that may be missing, partial or colliding."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
                draw(st.integers(0, n - 1))
    else:
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    if draw(st.booleans()):  # pairwise distinct where n allows, like the enumerator
        values = draw(st.permutations(range(n)))
        designated = dict(zip("xyz", values)) | {"e": values[0]}
    else:
        designated = draw(st.dictionaries(st.sampled_from("xyze"), st.integers(0, n - 1)))
    return Model(n, tuple(map(tuple, rows)), designated)


@given(_tables())
def test_check_model_matches_the_string_dispatch(m):
    for system in SYSTEMS:
        assert check_model(m, system) == _reference_check_model(m, system)


def _reference_designations(name: str, n: int):
    if name in ("DIT", "DIT+", "DITS"):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if x != y and y != z and x != z:
                        yield {"x": x, "y": y, "z": z}
    else:
        for e in range(n):
            yield {"e": e}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_designations_match_the_nested_loops(system):
    s = SYSTEMS[system]
    for n in range(1, 6):
        assert list(_designations(s.roles, n)) == list(_reference_designations(s.name, n))


def test_a_system_outside_the_table_is_read_from_its_rules():
    # associativity, x != y and x*y = y; counted by brute force at n = 2
    xy = RuleSystem("XY", (AX6,), ("x", "y"))
    expected = 0
    for cells in itertools.product(range(2), repeat=4):
        t = (cells[:2], cells[2:])
        for x, y in ((0, 1), (1, 0)):
            m = Model(2, t, {"x": x, "y": y})
            assoc = all(t[t[a][b]][c] == t[a][t[b][c]]
                        for a in range(2) for b in range(2) for c in range(2))
            expected += assoc and t[x][y] == y
            assert (check_model(m, xy) == []) == (assoc and t[x][y] == y)
    assert expected > 0
    assert count_models(xy, 2) == expected
    (v,) = check_model(Model(2, ((0, 1), (1, 0)), {}), xy)
    assert v.detail == "missing designated element(s): x, y"


@pytest.mark.parametrize("system", [
    RuleSystem("LONG", (Rule("long", GROUND, lhs=parse_word("x y x"), rhs=parse_word("y")),),
               ("x", "y")),
    RuleSystem("MARKED", (Rule("m", GROUND, lhs=parse_word("x y'"), rhs=parse_word("y")),),
               ("x", "y")),
    RuleSystem("ROLELESS", (AX6,), ("x",)),
    RuleSystem("NOLEFT", (LRXR,), ("e",), left_inverses=True),
    RuleSystem("NOIDENTITY", (AX9A,), ("e",)),
], ids=lambda s: s.name)
def test_rules_that_are_not_table_equations_are_rejected(system):
    with pytest.raises(ValueError):
        check_model(Model(1, ((0,),), {"x": 0, "y": 0, "e": 0}), system)
    with pytest.raises(ValueError):
        enumerate_models(ModelQuery(system, 2))


# ---------------------------------------------------------------------------
# propagation from a queue, against the full rescan it replaced


def _reference_propagate(t, n, trail, ties) -> bool:
    """_propagate as it was: rescan every associativity triple and every
    tie until nothing changes."""

    def put(i, j, val):
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


def _reference_pin(t, n, reading, d):
    """_pin as it was: place the pinned cells, return the tied pairs."""
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


def _reference_enumerate(system, n) -> list[Model]:
    """enumerate_models as it was: full rescans, every existential
    obligation left to the leaf check."""
    system = make_system(system)
    reading, out = _read(system), []

    def fill(t, cell, ties, d):
        while cell < n * n and t[cell // n][cell % n] is not None:
            cell += 1
        if cell == n * n:
            m = Model(n, tuple(tuple(row) for row in t), dict(d))
            if not check_model(m, system):
                out.append(m)
            return
        i, j = cell // n, cell % n
        for val in range(n):
            trail = [(i, j)]
            t[i][j] = val
            if _reference_propagate(t, n, trail, ties):
                fill(t, cell + 1, ties, d)
            for a, b in trail:
                t[a][b] = None

    for d in _designations(system.roles, n):
        t = [[None] * n for _ in range(n)]
        ties = _reference_pin(t, n, reading, d)
        if ties is not None and _reference_propagate(t, n, [], ties):
            fill(t, 0, ties, d)
    return out


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_enumeration_matches_the_full_rescan(system):
    for n in range(1, 5):
        assert [m.key() for m in enumerate_models(ModelQuery(system, n))] == \
            [m.key() for m in _reference_enumerate(system, n)]


# ---------------------------------------------------------------------------
# relabelling the first designation's models, against a search of every
# designation


def _search_every_designation(system, n) -> list[Model]:
    """enumerate_models before relabelling: _pin, _propagate and _fill
    for every designation, and every complete table checked."""
    system = make_system(system) if isinstance(system, str) else system
    reading, out = _read(system), []
    for d in _designations(system.roles, n):
        t = [[None] * n for _ in range(n)]
        watch = _pin(t, n, reading, d)
        if watch is not None and _propagate(t, n, [(i, j) for i in range(n) for j in range(n)
                                                   if t[i][j] is not None], watch):
            out += [m for m in (Model(n, table, dict(d)) for table in _fill(t, n, 0, watch))
                    if not check_model(m, system)]
    return out


# test_enumeration_matches_the_full_rescan searches every designation too,
# for the six systems at n <= 4
@pytest.mark.parametrize("system,sizes", [
    *((s, (5,)) for s in ("dgs", "dgs+", "dgss", "dit+", "dits")),
    (RuleSystem("XY", (AX6,), ("x", "y")), (1, 2, 3)),
    # roles out of alphabetical order: designations follow the roles tuple
    (RuleSystem("ZXY", SYSTEMS["dits"].rules, ("z", "x", "y")), (3, 4)),
], ids=lambda v: v.name if isinstance(v, RuleSystem) else str(v))
def test_relabelling_matches_a_search_of_every_designation(system, sizes):
    for n in sizes:
        expected = [m.key() for m in _search_every_designation(system, n)]
        assert [m.key() for m in enumerate_models(ModelQuery(system, n))] == expected


@pytest.mark.parametrize("system", ["dit", "dgs"])
def test_a_limit_just_past_the_first_designation_is_a_prefix(system):
    full = enumerate_models(ModelQuery(system, 4))
    first = sum(m.designated == full[0].designated for m in full)
    cut = enumerate_models(ModelQuery(system, 4, limit=first + 1))
    assert [m.key() for m in cut] == [m.key() for m in full[:first + 1]]
    assert cut[-1].designated != cut[0].designated


def _record_calls(monkeypatch, name) -> list[tuple]:
    calls, original = [], getattr(models, name)
    monkeypatch.setattr(models, name, lambda *a, **kw: calls.append(a) or original(*a, **kw))
    return calls


@pytest.mark.parametrize("system", ["dit", "dgs"])
def test_every_emitted_model_is_checked(monkeypatch, system):
    checked = _record_calls(monkeypatch, "check_model")
    found = enumerate_models(ModelQuery(system, 4))
    assert [m.key() for m, _ in checked] == [m.key() for m in found]


def test_a_limit_stops_the_search(monkeypatch):
    placed = _record_calls(monkeypatch, "_propagate")
    checked = _record_calls(monkeypatch, "check_model")
    (m,) = enumerate_models(ModelQuery("dit+", 5, limit=1))
    assert [a[0] for a in checked] == [m]
    first = len(placed)
    count_models("dit+", 5)
    assert 10 * first < len(placed) - first


def _stranded(t, n, reading, d) -> bool:
    """Whether some element can no longer get the inverse the reading
    asks for, whatever the empty cells of `t` become."""
    for kind, names in reading:
        e = d[names[0]]
        for y in range(n):
            if kind == "left" and all(t[z][y] not in (None, e) for z in range(n)):
                return True
            if kind == "inverse" and all(t[z][y] not in (None, e) or t[y][z] not in (None, e)
                                         for z in range(n)):
                return True
    return False


@st.composite
def _partial_tables(draw):
    """A system, a designation of its roles, a full table of size 2-5 and
    the same table with some cells emptied.  The full table is a cyclic
    group, or a semigroup whose rows other than the identity row are
    constant (no inverses), both with the designated first role as
    identity, or a random table, and then has up to two cells changed."""
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    roles = SYSTEMS[system].roles
    n = draw(st.integers(max(2, len(roles)), 5))
    d = dict(zip(roles, draw(st.permutations(range(n)))))
    e = d[roles[0]]
    base = draw(st.sampled_from(["cyclic", "constant", "random"]))
    if base == "cyclic":
        rows = [[(a + b - e) % n for b in range(n)] for a in range(n)]
    elif base == "constant":
        c = draw(st.integers(0, n - 1))
        rows = [list(range(n)) if a == e else [c] * n for a in range(n)]
    else:
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        keep = set(draw(st.lists(st.integers(0, n * n - 1), max_size=n * n)))
    else:
        keep = {k for k, b in enumerate(draw(st.lists(st.booleans(), min_size=n * n,
                                                      max_size=n * n))) if b}
    t = [[v if a * n + b in keep else None for b, v in enumerate(row)]
         for a, row in enumerate(rows)]
    return system, d, rows, t


def _closures_agree(ref, new, trail, ties, watch, reading, d) -> bool:
    """Propagate `new` from the queue `trail` and `ref` by full rescans,
    from the same table: both close it to the same table, with every
    cell filled on the way pushed on `trail`, or `new` reports a
    contradiction exactly when `ref` does or leaves an element without
    its inverse.  Returns whether the closure succeeded."""
    n = len(ref)
    def filled():
        return [(i, j) for i in range(n) for j in range(n) if new[i][j] is not None]
    before = [c for c in filled() if c not in trail]
    ok = _propagate(new, n, trail, watch)
    if _reference_propagate(ref, n, [], ties) and not _stranded(ref, n, reading, d):
        assert ok and new == ref
        assert sorted(before + trail) == filled()
        return True
    assert not ok
    return False


@settings(max_examples=400, deadline=None)
@given(_partial_tables(), st.data())
def test_queue_closure_matches_the_full_rescan(case, data):
    """From scratch, with every filled cell queued, and then as the
    enumerator uses it: cells placed one at a time on a closed table,
    each queued alone, with the full table's value or any other."""
    system, d, rows, t = case
    n, reading = len(t), _read(SYSTEMS[system])
    ref, new = [row[:] for row in t], [row[:] for row in t]
    ties, watch = _reference_pin(ref, n, reading, d), _pin(new, n, reading, d)
    assert (ties is None) == (watch is None)
    if watch is None:
        return
    assert new == ref
    trail = [(i, j) for i in range(n) for j in range(n) if new[i][j] is not None]
    while _closures_agree(ref, new, trail, ties, watch, reading, d):
        empty = [(i, j) for i in range(n) for j in range(n) if new[i][j] is None]
        if not empty:
            break
        i, j = data.draw(st.sampled_from(empty))
        ref[i][j] = new[i][j] = rows[i][j] if data.draw(st.booleans()) \
            else data.draw(st.integers(0, n - 1))
        trail = [(i, j)]


@pytest.mark.parametrize("t,placed", [
    # row 2 loses its last e-or-empty cell facing an empty cell of column 2
    ([[0, 1, 2], [1, None, None], [2, None, 2]], (2, 1, 1)),
    # column 3 does, facing an empty cell of row 3
    ([[0, 1, 2, 3], [1, None, None, None], [2, None, None, None], [3, 3, None, 3]],
     (2, 3, 3)),
])
def test_a_placement_that_strands_an_inverse_fails_at_once(t, placed):
    n, reading, d = len(t), _read(SYSTEMS["dgss"]), {"e": 0}
    watch = _pin(t, n, reading, d)
    closed = [row[:] for row in t]
    assert _propagate(t, n, [(i, j) for i in range(n) for j in range(n)
                             if t[i][j] is not None], watch)
    assert t == closed
    i, j, v = placed
    t[i][j] = closed[i][j] = v
    assert _reference_propagate(closed, n, [], []) and _stranded(closed, n, reading, d)
    assert not _propagate(t, n, [(i, j)], watch)


@pytest.mark.parametrize("t,placed", [
    ([[0, 1, None], [None] * 3, [None] * 3], (1, 0, 0)),  # (i*j)*c
    ([[0, 0, None], [None] * 3, [None] * 3], (1, 0, 2)),  # (a*i)*j
    ([[2, 2, None], [None] * 3, [None] * 3], (1, 0, 0)),  # (a*b)*j
    ([[2, 2, None], [None] * 3, [None] * 3], (0, 2, 0)),  # i*(a*b)
])
def test_each_associativity_site_forces(t, placed):
    """A cell placed on a closed table forces what the full rescan
    forces; the closure of each case needs the site it is marked with."""
    n, watch = len(t), ({}, None, None)
    ref = [row[:] for row in t]
    assert _propagate(t, n, [(0, 0), (0, 1)], watch) and t == ref
    i, j, v = placed
    t[i][j] = ref[i][j] = v
    assert _reference_propagate(ref, n, [], [])
    assert _propagate(t, n, [(i, j)], watch) and t == ref


def test_tied_cells_are_forced_and_clash():
    watch = ({(0, 1): [(1, 0)], (1, 0): [(0, 1)]}, None, None)
    t = [[None, 1], [None, None]]
    assert _propagate(t, 2, [(0, 1)], watch) and t == [[None, 1], [1, None]]
    assert not _propagate([[None, 1], [0, None]], 2, [(0, 1)], watch)


# ---------------------------------------------------------------------------
# the distinctness family counted without the enumerator


def _naive_semigroups(n):
    """Every associative table on 0..n-1 in lexicographic order: cells
    filled row-major, each associativity instance checked once all four
    of its products are known, nothing forced."""
    t = [[None] * n for _ in range(n)]
    out = []

    def associative_so_far():
        for ra in t:
            for b in range(n):
                ab, rb = ra[b], t[b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = rb[c]
                    if bc is None:
                        continue
                    left, right = t[ab][c], ra[bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def fill(cell):
        if cell == n * n:
            out.append(tuple(map(tuple, t)))
            return
        i, j = divmod(cell, n)
        for v in range(n):
            t[i][j] = v
            if associative_so_far():
                fill(cell + 1)
        t[i][j] = None

    fill(0)
    return out


def _dit_family_axioms(system, t, x, y, z) -> bool:
    """The ground axioms of the distinctness family, written out."""
    ok = t[x][y] == y and t[z][y] == x
    if system in ("dit+", "dits"):
        ok = ok and t[z][x] == z
    if system == "dits":
        ok = ok and t[y][z] == t[z][y]
    return ok


@pytest.mark.parametrize("n,semigroups,counts", [
    (3, 113, {"dit": 12, "dit+": 6, "dits": 6}),
    (4, 3492, {"dit": 408, "dit+": 144, "dits": 144}),
])
def test_dit_family_matches_a_naive_semigroup_filter(n, semigroups, counts):
    tables = _naive_semigroups(n)
    assert len(tables) == semigroups
    for system, count in counts.items():
        naive = [(n, t, (("x", x), ("y", y), ("z", z)))
                 for x, y, z in itertools.permutations(range(n), 3)
                 for t in tables if _dit_family_axioms(system, t, x, y, z)]
        assert len(naive) == count
        assert [m.key() for m in enumerate_models(ModelQuery(system, n))] == naive
