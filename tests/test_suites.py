from __future__ import annotations

import pytest

from relcalc import engine
from relcalc.cli import main
from relcalc.engine import CheckResult, NotFound, check_proof
from relcalc.suites import SUITE_IDS, SuiteReport, run_suite


def test_suite_ids():
    assert SUITE_IDS == ("er", "pr01", "dits", "collapse", "dgss", "peano")
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize("suite_id", [3, None])
def test_run_suite_refuses_a_non_str_id(suite_id):
    with pytest.raises(ValueError) as exc:
        run_suite(suite_id)
    assert str(exc.value) == (f"unknown suite {suite_id!r}; expected one of "
                              f"{', '.join(SUITE_IDS)}")


def test_er_suite():
    rep = run_suite("er")
    assert rep.ok
    assert [c.case_id for c in rep.cases] == [f"er{k}" for k in range(1, 10)]
    assert [c.statement for c in rep.cases] == [
        "x x = y x |- x = y", "x x = z x |- x = z", "y x = z x |- y = z",
        "x y = y y |- x = y", "x y = z y |- x = z", "y y = z y |- y = z",
        "x z = y z |- x = y", "x z = z z |- x = z", "y z = z z |- y = z"]
    assert rep.summary() == "9/9 proved"
    for c in rep.cases:
        assert c.proof is not None
        assert check_proof(c.proof).ok


def test_pr01_suite():
    rep = run_suite("pr01")
    assert rep.ok
    assert [c.case_id for c in rep.cases] == [f"pr01-{k}" for k in range(1, 10)]
    assert [c.statement for c in rep.cases] == [
        "x x = x y |- x = y", "x x = x z |- x = z", "x y = x z |- y = z",
        "y x = y y |- x = y", "y x = y z |- x = z", "y y = y z |- y = z",
        "z x = z y |- x = y", "z x = z z |- x = z", "z y = z z |- y = z"]
    assert rep.summary() == "9/9 proved"


def test_dits_suite():
    rep = run_suite("dits")
    assert rep.ok
    assert [c.case_id for c in rep.cases] == ["Lxzz", "Lxyyx", "Lxxx"]
    assert [c.statement for c in rep.cases] == ["x z = z", "x y = y x", "x x = x"]


def test_collapse_suite_and_progression():
    rep = run_suite("collapse")
    assert rep.ok
    assert [c.case_id for c in rep.cases] == [
        "collapse1", "collapse2", "collapse3", "collapse3-seed"]
    assert rep.notes[0] == "progression demo (reapplying the proved expansion at position 0):"
    words = [n.strip() for n in rep.notes[1:]]
    assert [len(w.split()) for w in words] == [1, 3, 5, 7, 9]
    assert words[0] == "y"
    assert words[1] == "y y y"
    assert all(set(w.split()) == {"y"} for w in words)


def test_dgss_suite():
    rep = run_suite("dgss")
    assert rep.ok
    assert rep.verb == "passed"
    assert {c.case_id for c in rep.cases} == {
        "lm2a", "lm2b", "lm2c", "lm2d", "pr2e", "pr2f"}
    assert all(c.detail == "10000/10000" for c in rep.cases)
    assert rep.summary() == "6/6 passed"


def test_peano_suite():
    rep = run_suite("peano")
    assert rep.ok
    assert [c.case_id for c in rep.cases] == [f"peano{k}" for k in range(1, 6)]
    assert rep.summary() == "5/5 passed"


def test_report_lines_shape():
    rep = run_suite("dits")
    lines = rep.lines()
    assert lines[0] == "suite dits"
    assert lines[-1] == rep.summary()
    assert all(ln.startswith("  ok  ") for ln in lines[1:-1])
    assert "[" in lines[1] and "steps" in lines[1]


def test_failing_case_renders_fail_mark():
    rep = SuiteReport("demo", [])
    rep.cases = [type(run_suite("dits").cases[0])("c1", "x = y", False, "why")]
    assert rep.lines()[1] == "  FAIL c1: x = y  [why]"
    assert not rep.ok
    assert rep.summary() == "0/1 proved"


def test_suite_renders_a_search_that_ran_out(monkeypatch):
    monkeypatch.setattr(engine, "prove_equal", lambda *a: NotFound(7, "max_nodes"))
    rep = run_suite("er")
    assert rep.lines()[1] == "  FAIL er1: x x = y x |- x = y  [not found: max_nodes, 7 nodes]"
    assert rep.summary() == "0/9 proved"


def test_suite_renders_a_rejected_proof(monkeypatch):
    monkeypatch.setattr(engine, "check_proof", lambda p: CheckResult(False, 0, "why"))
    rep = run_suite("dits")
    assert rep.lines()[1] == "  FAIL Lxzz: x z = z  [checker rejected step 0: why]"
    assert not rep.ok


def test_collapse_skips_the_demo_without_its_seed(monkeypatch):
    monkeypatch.setattr(engine, "prove_equal", lambda *a: NotFound(7, None))
    rep = run_suite("collapse")
    assert rep.notes == ["progression demo skipped: seed equality not proved"]
    assert rep.cases[-1].detail == "not found: exhausted, 7 nodes"


def test_failing_suite_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(engine, "prove_equal", lambda *a: NotFound(7, "max_nodes"))
    assert main(["suite", "er"]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "0/9 proved"
