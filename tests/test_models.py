from __future__ import annotations

import pytest

from relcalc.models import (Model, ModelQuery, Violation, check_model,
                            count_models, enumerate_models, find_min_model,
                            format_model)

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
    ("dit", 1): 0, ("dit", 2): 0, ("dit", 3): 12,
    ("dit+", 3): 6,
    ("dits", 3): 6,
    ("dgs", 1): 1, ("dgs", 2): 2, ("dgs", 3): 3,
    ("dgs+", 3): 3,
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
