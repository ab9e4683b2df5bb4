from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from relcalc.engine import (AX6, AX9A, GROUND, LRXR, SYSTEMS, Rule, RuleSystem,
                            make_system)
from relcalc.models import (Model, ModelQuery, Violation, _designations,
                            check_model, count_models, enumerate_models,
                            find_min_model, format_model)
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


def test_query_has_no_count_only_field():
    # counting is len() of the enumeration; the query carries no such mode
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
