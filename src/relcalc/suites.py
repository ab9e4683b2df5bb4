"""Canned derivation suites.

Each suite re-derives one family of results mechanically and reports
per-case outcomes.  Proof suites (er, pr01, dits, collapse) run the
bidirectional search and replay every found proof through the checker;
the dgss suite drives the free-reduction decider; the peano suite runs
the numeral checks.

The suite table `_PROOF_SUITES` is the one place a proof suite is
defined: its system and its (case id, hypotheses, goal) rows.
`SUITE_IDS` is read off that table, and `run_suite` runs every row the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

# bound as modules, so building the suite ids runs neither; their
# checks are looked up when the dgss or peano suite runs
from . import freegroup, peano
from .engine import NotFound, apply_rule, check_proof, prove_equal
from .systems import Proof, hypothesis_rules, system_id
from .terms import parse_equation, print_word


@dataclass(frozen=True)
class SuiteCase:
    case_id: str
    statement: str
    ok: bool
    detail: str
    proof: Proof | None = None


@dataclass
class SuiteReport:
    suite_id: str
    cases: list[SuiteCase]
    notes: list[str] = field(default_factory=list)
    verb: str = "proved"

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def summary(self) -> str:
        return f"{sum(c.ok for c in self.cases)}/{len(self.cases)} {self.verb}"

    def lines(self) -> list[str]:
        out = [f"suite {self.suite_id}"]
        for c in self.cases:
            mark = "ok  " if c.ok else "FAIL"
            out.append(f"  {mark} {c.case_id}: {c.statement}  [{c.detail}]")
        out.extend(self.notes)
        out.append(self.summary())
        return out


def _prove_case(case_id: str, system: str, hyp_texts, goal_text: str) -> SuiteCase:
    hyps = tuple(parse_equation(t) for t in hyp_texts)
    goal = parse_equation(goal_text)
    res = prove_equal(goal, system, hyps)
    stmt = goal_text if not hyp_texts else f"{', '.join(hyp_texts)} |- {goal_text}"
    if isinstance(res, NotFound):
        why = res.bound_hit or "exhausted"
        return SuiteCase(case_id, stmt, False,
                         f"not found: {why}, {res.nodes_expanded} nodes")
    chk = check_proof(res)
    if not chk.ok:
        return SuiteCase(case_id, stmt, False,
                         f"checker rejected step {chk.failed_step}: {chk.reason}", res)
    return SuiteCase(case_id, stmt, True,
                     f"{len(res.steps)} steps, {res.nodes_expanded} nodes", res)


def _cancellation_cases(prefix: str, hyp: str) -> tuple:
    """The nine cases `hyp` |- p = q, where `hyp` places the shared atom
    s beside p and q; s runs over x, y, z, then (p, q) over the pairs."""
    rows = product("xyz", combinations("xyz", 2))
    return tuple((f"{prefix}{k}", (hyp.format(s=s, p=p, q=q),), f"{p} = {q}")
                 for k, (s, (p, q)) in enumerate(rows, 1))


# The suite table: id -> (system, cases), each case a (case id,
# hypotheses, goal) row.  It holds only strings and tuples, so
# prove_equal and check_proof are looked up when a suite runs.
_PROOF_SUITES = {
    "er": ("dit+", _cancellation_cases("er", "{p} {s} = {q} {s}")),
    "pr01": ("dit+", _cancellation_cases("pr01-", "{s} {p} = {s} {q}")),
    "dits": ("dits", (
        ("Lxzz", (), "x z = z"),
        ("Lxyyx", (), "x y = y x"),
        ("Lxxx", (), "x x = x"),
    )),
    "collapse": ("dit+", (
        ("collapse1", ("x = y",), "x = z"),
        ("collapse2", ("x = z",), "x = y"),
        ("collapse3", ("y = z",), "x = x x"),
        ("collapse3-seed", ("y = z",), "y = y y y"),
    )),
}

SUITE_IDS = (*_PROOF_SUITES, "dgss", "peano")


def _progression_notes(seed_case: SuiteCase) -> list[str]:
    """Iterate the proved one-to-three expansion four times at position
    0; a demonstration of unbounded growth, not a proof object."""
    if not seed_case.ok or seed_case.proof is None:
        return ["progression demo skipped: seed equality not proved"]
    lhs, rhs = seed_case.proof.goal
    rule = hypothesis_rules([(lhs, rhs)])[0]
    out = ["progression demo (reapplying the proved expansion at position 0):"]
    w = lhs
    out.append(f"  {print_word(w)}")
    for _ in range(4):
        w = apply_rule(w, rule, 0)
        out.append(f"  {print_word(w)}")
    return out


def run_suite(suite_id: str) -> SuiteReport:
    sid = system_id(suite_id)
    if sid in _PROOF_SUITES:
        system, rows = _PROOF_SUITES[sid]
        cases = [_prove_case(c, system, h, g) for c, h, g in rows]
        notes = _progression_notes(cases[-1]) if sid == "collapse" else []
        return SuiteReport(sid, cases, notes)
    if sid == "dgss":
        rep = freegroup.verify_dgss_lemmas(10_000, 42)
        cases = [SuiteCase(name, "random instances, seed 42",
                           passed == total, f"{passed}/{total}")
                 for name, (passed, total) in rep.results.items()]
        return SuiteReport("dgss", cases, verb="passed")
    if sid == "peano":
        rep = peano.verify_peano(64)
        cases = [SuiteCase(f"peano{it.number}", it.name, it.ok, it.detail)
                 for it in rep.items]
        return SuiteReport("peano", cases, verb="passed")
    raise ValueError(f"unknown suite {suite_id!r}; expected one of {', '.join(SUITE_IDS)}")
