from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import math
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import models
from relcalc.cli import main
from relcalc.models import (Model, ModelQuery, Violation, _fill, _first_tables,
                            _nonassociative_rows, _pin, _propagate, _read, _search,
                            check_model, count_models,
                            enumerate_models, find_min_model, format_model, iter_models)
from relcalc.systems import (AX6, AX8, AX9A, GROUND, LRXR, LZXZ, SYSTEMS, Rule, RuleSystem,
                             make_system)
from relcalc.terms import parse_word

Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

# group systems stated without `left_inverses`: inverse-cancel beside an
# identity rule makes every model a group all the same
STATED_GROUPS = (RuleSystem("L", (AX8, AX9A), ("e",)), RuleSystem("R", (LRXR, AX9A), ("e",)),
                 RuleSystem("RL", (LRXR, AX8, AX9A), ("e",)))


def _name(v):
    return v.name if isinstance(v, RuleSystem) else str(v)


def test_model_validation():
    with pytest.raises(ValueError, match=r"^model size must be an int of at least 1, got 0$"):
        Model(0, (), {})
    with pytest.raises(ValueError, match=r"^malformed table: expected 2x2$"):
        Model(2, ((0, 1),), {})                  # missing row
    with pytest.raises(ValueError, match=r"^malformed table: expected 2x2$"):
        Model(2, ((0, 1), (1,)), {})             # short row
    with pytest.raises(ValueError, match=r"^malformed table: expected 2x2$"):
        Model(2, ((0, 1), (1, 0, 1)), {})        # long row
    with pytest.raises(ValueError, match=r"^malformed table: entry 2 outside 0\.\.1$"):
        Model(2, ((0, 1), (1, 2)), {})           # entry out of range
    with pytest.raises(ValueError, match=r"^malformed table: entry -1 outside 0\.\.1$"):
        Model(2, ((0, -1), (1, 2)), {})          # the first bad entry, row-major
    with pytest.raises(ValueError, match=r"^designated e=2 outside 0\.\.1$"):
        Model(2, ((0, 1), (1, 0)), {"e": 2})     # designation out of range
    with pytest.raises(ValueError,               # bool is an int, not an element
                       match=r"^malformed table: entry False outside 0\.\.1$"):
        Model(2, ((False, True), (True, False)), {"e": False})
    with pytest.raises(ValueError, match=r"^malformed table: entry True outside 0\.\.1$"):
        Model(2, ((0, True), (1, 0)), {"e": 0})
    with pytest.raises(ValueError, match=r"^malformed table: entry False outside 0\.\.1$"):
        Model(2, ((False, True), (True, False)), {"e": 0})
    with pytest.raises(ValueError, match=r"^designated e=False outside 0\.\.1$"):
        Model(2, ((0, 1), (1, 0)), {"e": False})
    with pytest.raises(ValueError,               # would index the table later
                       match=r"^designated e=0\.0 outside 0\.\.1$"):
        Model(2, ((0, 1), (1, 0)), {"e": 0.0})
    with pytest.raises(ValueError, match=r"^designated must be a dict, got \[\('e', 0\)\]$"):
        Model(2, ((0, 1), (1, 0)), [("e", 0)])
    with pytest.raises(ValueError,               # format_model and element_of need names
                       match=r"^designated key 1 is not a name$"):
        Model(2, ((0, 1), (1, 0)), {1: 0, "a": 1})
    with pytest.raises(ValueError, match=r"^model size must be an int of at least 1, got True$"):
        Model(True, ((0,),), {"e": 0})
    with pytest.raises(ValueError, match=r"^model size must be an int of at least 1, got 2\.0$"):
        Model(2.0, ((0, 1), (1, 0)), {"e": 0})


def test_model_normalizes_and_applies():
    m = Model(2, [[0, 1], [1, 0]], {"e": 0})
    assert m.table == ((0, 1), (1, 0))
    assert m.apply(1, 1) == 0
    assert m.key() == (2, ((0, 1), (1, 0)), (("e", 0),))


@pytest.mark.parametrize("field,value", [("size", 1), ("table", ((1,),)), ("designated", {})])
def test_model_fields_cannot_be_reassigned(field, value):
    """A table assigned after construction would skip validation, and
    `check_model` would then judge a table `Model` never saw."""
    m = Model(1, ((0,),), {"e": 0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(m, field, value)
    assert m.key() == (1, ((0,),), (("e", 0),))


def test_model_keeps_its_own_copy_of_the_designation():
    """A caller's dict changed after construction would skip validation:
    e=7 would raise a bare IndexError in `check_model`, and e=True would
    read as element 1."""
    d = {"e": 0}
    m = Model(2, ((0, 1), (1, 0)), d)
    d["e"] = 7
    assert m.designated == {"e": 0}
    assert check_model(m, "dgs") == []
    assert format_model(m) == "n=2\n0 1\n1 0\ndesignated: e=0"
    d["e"] = True
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
    # a regression pin: the enumerator's own count when it was added, not
    # an independent one
    ("dit", 5): 23220,
    ("dgs", 6): 480, ("dgs+", 6): 480, ("dgss", 6): 480,
}


@pytest.mark.parametrize("system,n", sorted(FROZEN_COUNTS))
def test_frozen_model_counts(system, n):
    assert count_models(system, n) == FROZEN_COUNTS[(system, n)]


# a regression pin, like ("dit", 5) above: sha256 over repr(m.key()) of every
# model the enumerator emitted when its first designation was split off, the
# six systems at n = 1..5 in SYSTEMS order, then the group family at n = 6;
# the only check of the dit n=5 emission order
EMISSION_DIGEST = "2505aba0cb6f26a6ce03ef174ec516e47ff509c5d8510626dbc95b85b86036e5"


def test_emission_order_is_pinned():
    digest = hashlib.sha256()
    for system, n in [*((s, n) for s in SYSTEMS for n in range(1, 6)),
                      *((s, 6) for s in ("dgs", "dgs+", "dgss"))]:
        for m in iter_models(ModelQuery(system, n)):
            digest.update(repr(m.key()).encode())
    assert digest.hexdigest() == EMISSION_DIGEST


# |Aut G| for each group G of order n
AUTOMORPHISMS = {
    6: (2, 6),  # Z6, S3
    7: (6,),  # Z7
    8: (4, 8, 168, 8, 24),  # Z8, Z4xZ2, Z2^3, D4, Q8
}


@pytest.mark.parametrize("system,n", [
    *((s, n) for n in (6, 7) for s in ("dgs", "dgs+", "dgss")),
    ("dgs", 8),
    *((s, 6) for s in STATED_GROUPS),
], ids=_name)
def test_group_counts_past_the_ceiling_match_the_closed_form(system, n):
    """The group tables on 0..n-1 number n!/|Aut G| summed over the
    groups G of order n.  `_search` is called below ModelQuery, whose
    size ceiling is 6."""
    s = make_system(system)
    assert sum(1 for _ in _search(s, n, _read(s))) == \
        sum(math.factorial(n) // a for a in AUTOMORPHISMS[n])


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


def test_iter_models_honours_limit():
    assert count_models("dit", 3) == 12
    assert [sum(1 for _ in iter_models(ModelQuery("dit", 3, limit=k))) for k in (1, 5, 12, 13)] \
        == [1, 5, 12, 12]
    with pytest.raises(ValueError, match="limit must be at least 1"):
        sum(1 for _ in iter_models(ModelQuery("dit", 3, limit=0)))


def test_query_is_checked_at_construction():
    with pytest.raises(ValueError, match=r"^size must be within 1\.\.6, got 7$"):
        ModelQuery("dit", 7)
    with pytest.raises(ValueError, match="^limit must be at least 1, got 0$"):
        ModelQuery("dit", 3, limit=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ModelQuery("dit", 3).size = 7
    with pytest.raises(ValueError, match="^unknown system 'nope'"):
        ModelQuery("nope", 3)
    assert ModelQuery(" DIT ", 3).system is SYSTEMS["dit"]


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


@pytest.mark.parametrize("table", [5, [[0, 1], 7]], ids=["table", "row"])
def test_a_table_that_is_not_iterable_is_malformed(table):
    # each was a bare TypeError from tuple()
    with pytest.raises(ValueError) as exc:
        Model(2, table, {})
    assert str(exc.value) == "malformed table: expected 2x2"


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


@pytest.mark.parametrize("n_max, message", [
    (0, "n_max must be within 1..6, got 0"),
    (7, "n_max must be within 1..6, got 7"),
    (True, "n_max must be an int, got True"),
    (2.5, "n_max must be an int, got 2.5"),
    ("3", "n_max must be an int, got '3'"),
])
def test_find_min_model_checks_n_max(n_max, message):
    with pytest.raises(ValueError) as exc:
        find_min_model("dit", n_max)
    assert str(exc.value) == message


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


ASSOCIATIVE = {  # a*b on 0..n-1
    "cyclic group": lambda a, b, n: (a + b) % n,
    "left-zero band": lambda a, b, n: a,
    "right-zero band": lambda a, b, n: b,
    "constant": lambda a, b, n: n - 1,
    "max": lambda a, b, n: max(a, b),
}


@st.composite
def _tables(draw):
    """A table of size 1-6, random or associative with up to two cells
    changed, with designations that may be missing, partial or colliding."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        op = ASSOCIATIVE[draw(st.sampled_from(sorted(ASSOCIATIVE)))]
        rows = [[op(a, b, n) for b in range(n)] for a in range(n)]
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
    # the row test names the rows of the reference's associativity
    # violations, so it says "associative" exactly when there are none
    assert _nonassociative_rows(m.table) == _reference_assoc_rows(m)


def _reference_assoc_rows(m: Model) -> list[int]:
    """The rows a of the reference's violations (a*b)*c != a*(b*c)."""
    return sorted({v.where[0] for v in _reference_check_model(m, "dit") if v.kind == "assoc"})


@pytest.mark.parametrize("name", sorted(ASSOCIATIVE))
def test_the_row_test_names_the_rows_one_changed_cell_breaks(name):
    # every table one cell away from an associative one, at sizes 1-4; a
    # change can break a single row, the last one included
    for n in range(1, 5):
        table = [[ASSOCIATIVE[name](a, b, n) for b in range(n)] for a in range(n)]
        for i, j, v in itertools.product(range(n), repeat=3):
            rows = [list(r) for r in table]
            rows[i][j] = v
            m = Model(n, tuple(map(tuple, rows)), {})
            assert _nonassociative_rows(m.table) == _reference_assoc_rows(m)


def test_the_row_test_has_no_size_cap(monkeypatch):
    # entries above 255 do not fit a byte; the left-zero band a*b = a is
    # associative and satisfies z*x = z
    n = 300
    m = Model(n, tuple((a,) * n for a in range(n)), {"x": 299, "z": 256})
    found = []
    monkeypatch.setattr(models, "_nonassociative_rows",
                        lambda t: found.append(_nonassociative_rows(t)) or found[-1])
    assert check_model(m, RuleSystem("LZ", (LZXZ,), ("x", "z"))) == []
    assert found == [[]]    # the row test cleared every row, so the loop never ran


def _every_designation(roles: tuple[str, ...], n: int):
    """Each assignment of pairwise distinct elements to `roles`, from a
    loop of its own: every tuple of elements, keeping the distinct ones."""
    for values in itertools.product(range(n), repeat=len(roles)):
        if len(set(values)) == len(values):
            yield dict(zip(roles, values))


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
    """Every designation has models once the first one has, so the
    emitted models' designations, in emission order, are the loops'."""
    s = SYSTEMS[system]
    for n in range(1, 6):
        emitted = dict.fromkeys(tuple(m.designated.items()) for m in iter_models(ModelQuery(s, n)))
        assert list(emitted) == [tuple(d.items()) for d in _reference_designations(s.name, n)]


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


def test_pins_that_clash_at_the_first_designation_leave_no_model():
    # x y -> y and x y -> x pin x*y to both y and x, which must differ
    clash = RuleSystem("CLASH", (AX6, Rule("xy", GROUND, lhs=parse_word("x y"),
                                           rhs=parse_word("x"))), ("x", "y", "z"))
    assert [count_models(clash, n) for n in range(1, 6)] == [0] * 5
    assert find_min_model(clash, 5) is None
    # at n = 3 every designation of x, y, z relabels to 0, 1, 2
    d = {"x": 0, "y": 1, "z": 2}
    for cells in itertools.product(range(3), repeat=9):
        assert check_model(Model(3, (cells[:3], cells[3:6], cells[6:]), d), clash) != []


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


def _reference_propagate(t, n, trail, ties, latin=False) -> bool:
    """_propagate as it was: rescan every associativity triple and every
    tie until nothing changes.  With `latin`, a closed table whose row or
    column repeats a value is a contradiction too."""

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
    if latin:
        for line in t + [list(c) for c in zip(*t)]:
            known = [v for v in line if v is not None]
            if len(known) != len(set(known)):
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

    for d in _every_designation(system.roles, n):
        t = [[None] * n for _ in range(n)]
        ties = _reference_pin(t, n, reading, d)
        if ties is not None and _reference_propagate(t, n, [], ties):
            fill(t, 0, ties, d)
    return out


@pytest.mark.parametrize("system", [*sorted(SYSTEMS), *STATED_GROUPS], ids=_name)
def test_enumeration_matches_the_full_rescan(system):
    for n in range(1, 5):
        assert [m.key() for m in enumerate_models(ModelQuery(system, n))] == \
            [m.key() for m in _reference_enumerate(system, n)]


# ---------------------------------------------------------------------------
# relabelling the first designation's models, against a search of every
# designation


def _search_every_designation(system, n) -> list[Model]:
    """enumerate_models before relabelling: _pin and _fill for every
    designation, and every complete table checked."""
    system = make_system(system)
    reading, out = _read(system), []
    for d in _every_designation(system.roles, n):
        t = [[None] * n for _ in range(n)]
        watch = _pin(t, n, reading, d)
        if watch is not None:
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
], ids=_name)
def test_relabelling_matches_a_search_of_every_designation(system, sizes):
    for n in sizes:
        expected = [m.key() for m in _search_every_designation(system, n)]
        assert [m.key() for m in enumerate_models(ModelQuery(system, n))] == expected


@pytest.mark.parametrize("system,n,distinct", [("dits", 5, 111), ("dit", 4, 28)])
def test_a_designations_models_share_their_rows(system, n, distinct):
    """Each distinct row of the first designation's tables is relabelled
    once per later designation, so that designation's tables hold at most
    that many row objects, not one per row of each table."""
    s = make_system(system)
    first = _first_tables(s, n, _read(s))
    assert len({row for m in first for row in m.table}) == distinct
    by_designation = {}
    for m in enumerate_models(ModelQuery(s, n)):
        by_designation.setdefault(tuple(m.designated.values()), []).append(m)
    assert len(by_designation) == math.perm(n, 3)
    for values, found in list(by_designation.items())[1:]:
        assert len({id(row) for m in found for row in m.table}) <= distinct, values


@pytest.mark.parametrize("system", [*sorted(SYSTEMS), *STATED_GROUPS], ids=_name)
def test_first_tables_are_the_first_designations_models(system):
    """`_first_tables` yields the models of roles -> 0..k-1, which
    `_search` emits first, and nothing when the roles outnumber n."""
    s = make_system(system)
    for n in range(1, 5):
        first = [m.key() for m in _first_tables(s, n, _read(s))]
        emitted = list(iter_models(ModelQuery(s, n)))
        assert first == [m.key() for m in emitted[:len(first)]]
        assert first == [m.key() for m in emitted
                         if m.designated == dict(zip(s.roles, range(n)))]
        assert first or n < len(s.roles)


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


@st.composite
def _partial_tables(draw):
    """A system, built in or a stated group system, a designation of its
    roles, a full table of size 2-5 and the same table with some cells
    emptied.  The full table is a cyclic group, or a semigroup whose rows
    other than the identity row are constant (no inverses), both with the
    designated first role as identity, or a random table, and then has up
    to two cells changed."""
    system = draw(st.sampled_from([*SYSTEMS.values(), *STATED_GROUPS]))
    roles = system.roles
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


def _closures_agree(ref, new, trail, ties, watch, reading) -> bool:
    """Propagate `new` from the queue `trail` and `ref` by full rescans,
    from the same table: both close it to the same table, with every
    cell filled on the way pushed on `trail`, or both report a
    contradiction.  A reading with left or two-sided inverses makes
    every model a group, so there `ref` also fails on a repeated value
    in a row or column.  Returns whether the closure succeeded."""
    n = len(ref)
    def filled():
        return [(i, j) for i in range(n) for j in range(n) if new[i][j] is not None]
    before = [c for c in filled() if c not in trail]
    ok = _propagate(new, n, trail, watch)
    latin = any(kind in ("left", "inverse") for kind, _ in reading)
    assert ok == _reference_propagate(ref, n, [], ties, latin)
    if ok:
        assert new == ref
        assert sorted(before + trail) == filled()
    return ok


@settings(max_examples=400, deadline=None)
@given(_partial_tables(), st.data())
def test_queue_closure_matches_the_full_rescan(case, data):
    """The closing `_pin` against `_reference_pin` and a full rescan,
    with the table's other filled cells queued after it; then as the
    enumerator uses it: cells placed one at a time on a closed table,
    each queued alone, with the full table's value or any other."""
    system, d, rows, t = case
    n, reading = len(t), _read(system)
    ref, new = [row[:] for row in t], [row[:] for row in t]
    trail = [(i, j) for i in range(n) for j in range(n) if t[i][j] is not None]
    ties, watch = _reference_pin(ref, n, reading, d), _pin(new, n, reading, d)
    if watch is None:           # the pins clash, or their closure does
        latin = any(kind in ("left", "inverse") for kind, _ in reading)
        assert ties is None or not _reference_propagate(ref, n, [], ties, latin)
        return
    assert ties is not None
    while _closures_agree(ref, new, trail, ties, watch, reading):
        empty = [(i, j) for i in range(n) for j in range(n) if new[i][j] is None]
        if not empty:
            break
        i, j = data.draw(st.sampled_from(empty))
        ref[i][j] = new[i][j] = rows[i][j] if data.draw(st.booleans()) \
            else data.draw(st.integers(0, n - 1))
        trail = [(i, j)]


def _only_the_latin_watch_rejects(t, system, placed):
    """`t` is closed under `system`'s reading with e = 0, and placing
    `placed` on it fails with the Latin watch on and passes with
    associativity alone."""
    n = len(t)
    watch = _pin(t, n, _read(SYSTEMS[system]), {"e": 0})
    closed = [row[:] for row in t]
    assert watch == ({}, True)
    assert _propagate(t, n, [(i, j) for i in range(n) for j in range(n)
                             if t[i][j] is not None], watch) and t == closed
    i, j, v = placed
    t[i][j] = v
    assert not _propagate([row[:] for row in t], n, [(i, j)], watch)
    assert _propagate(t, n, [(i, j)], ({}, False))


@pytest.mark.parametrize("t,placed", [
    # 1*3 = e makes 3 the inverse of 1, so 3*1 = 2 strands 1
    ([[0, 1, 2, 3], [1, None, None, 0], [2, None, None, None], [3, None, None, None]],
     (3, 1, 2)),
    # 3*1 = e, so 1*3 = 2 does
    ([[0, 1, 2, 3], [1, None, None, None], [2, None, None, None], [3, 0, None, None]],
     (1, 3, 2)),
])
def test_a_placement_that_strands_an_inverse_fails_at_once(t, placed):
    """Under dgss, a placement that repeats nothing in its row or column
    but strands an inverse: the cells associativity forces from it
    repeat a value, so the Latin watch rejects it."""
    i, j, v = placed
    assert v not in t[i] and v not in [r[j] for r in t]
    _only_the_latin_watch_rejects(t, "dgss", placed)


@pytest.mark.parametrize("placed", [(1, 3, 2), (3, 1, 2)], ids=["row", "column"])
def test_a_repeat_in_a_row_or_column_fails_at_once(placed):
    """Under dgs every model is a group, so 1*3 = 2 (2 is already 1*1)
    and 3*1 = 2 (2 is already in column 1) fail as placed."""
    t = [[0, 1, 2, 3], [None, 2, None, None], [None] * 4, [None] * 4]
    _only_the_latin_watch_rejects(t, "dgs", placed)


@pytest.mark.parametrize("t,placed", [
    ([[0, 1, None], [None] * 3, [None] * 3], (1, 0, 0)),  # (i*j)*c
    ([[0, 0, None], [None] * 3, [None] * 3], (1, 0, 2)),  # (a*i)*j
    ([[2, 2, None], [None] * 3, [None] * 3], (1, 0, 0)),  # (a*b)*j
    ([[2, 2, None], [None] * 3, [None] * 3], (0, 2, 0)),  # i*(a*b)
])
def test_each_associativity_site_forces(t, placed):
    """A cell placed on a closed table forces what the full rescan
    forces; the closure of each case needs the site it is marked with."""
    n, watch = len(t), ({}, False)
    ref = [row[:] for row in t]
    assert _propagate(t, n, [(0, 0), (0, 1)], watch) and t == ref
    i, j, v = placed
    t[i][j] = ref[i][j] = v
    assert _reference_propagate(ref, n, [], [])
    assert _propagate(t, n, [(i, j)], watch) and t == ref


def test_tied_cells_are_forced_and_clash():
    watch = ({(0, 1): [(1, 0)], (1, 0): [(0, 1)]}, False)
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


@pytest.mark.parametrize("call, message", [
    (lambda: list(iter_models("dgs")), "q must be a ModelQuery, got 'dgs'"),
    (lambda: enumerate_models(None), "q must be a ModelQuery, got None"),
    (lambda: check_model("x", "dgs"), "m must be a Model, got 'x'"),
    (lambda: format_model("x"), "m must be a Model, got 'x'"),
])
def test_model_readers_refuse_the_wrong_type(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
