"""Canned derivation suites.

Each suite re-derives one family of results mechanically and reports
per-case outcomes.  Proof suites (er, pr01, dits, collapse) run the
bidirectional search and replay every found proof through the checker;
the dgss suite drives the free-reduction decider; the peano suite runs
the numeral checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import peano as peano_mod
from .engine import (NotFound, Proof, apply_rule, check_proof, hypothesis_rules,
                     prove_equal, system_id)
from .freegroup import verify_dgss_lemmas
from .terms import Word, parse_equation, print_word

SUITE_IDS = ("er", "pr01", "dits", "collapse", "dgss", "peano")


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


_PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))


def _er_cases():
    k = 0
    for a in ("x", "y", "z"):
        for p, q in _PAIRS:
            k += 1
            yield f"er{k}", [f"{p} {a} = {q} {a}"], f"{p} = {q}"


def _pr01_cases():
    k = 0
    for r in ("x", "y", "z"):
        for a, b in _PAIRS:
            k += 1
            yield f"pr01-{k}", [f"{r} {a} = {r} {b}"], f"{a} = {b}"


_DITS_CASES = (
    ("Lxzz", "x z = z"),
    ("Lxyyx", "x y = y x"),
    ("Lxxx", "x x = x"),
)

_COLLAPSE_CASES = (
    ("collapse1", ["x = y"], "x = z"),
    ("collapse2", ["x = z"], "x = y"),
    ("collapse3", ["y = z"], "x = x x"),
    ("collapse3-seed", ["y = z"], "y = y y y"),
)


def _progression_notes(seed_case: SuiteCase, rounds: int = 4) -> list[str]:
    """Iterate the proved one-to-three expansion at position 0; a
    demonstration of unbounded growth, not a proof object."""
    if not seed_case.ok or seed_case.proof is None:
        return ["progression demo skipped: seed equality not proved"]
    lhs, rhs = seed_case.proof.goal
    rule = hypothesis_rules([(lhs, rhs)])[0]
    out = ["progression demo (reapplying the proved expansion at position 0):"]
    w = lhs
    out.append(f"  {print_word(w)}")
    for _ in range(rounds):
        w = apply_rule(w, rule, 0, max_len=64)
        out.append(f"  {print_word(w)}")
    return out


def run_suite(suite_id: str, samples: int = 10_000, seed: int = 42) -> SuiteReport:
    sid = system_id(suite_id)
    if sid == "er":
        cases = [_prove_case(c, "dit+", h, g) for c, h, g in _er_cases()]
        return SuiteReport("er", cases)
    if sid == "pr01":
        cases = [_prove_case(c, "dit+", h, g) for c, h, g in _pr01_cases()]
        return SuiteReport("pr01", cases)
    if sid == "dits":
        cases = [_prove_case(c, "dits", [], g) for c, g in _DITS_CASES]
        return SuiteReport("dits", cases)
    if sid == "collapse":
        cases = [_prove_case(c, "dit+", h, g) for c, h, g in _COLLAPSE_CASES]
        return SuiteReport("collapse", cases, notes=_progression_notes(cases[-1]))
    if sid == "dgss":
        rep = verify_dgss_lemmas(samples, seed)
        cases = [SuiteCase(name, f"random instances, seed {seed}",
                           passed == total, f"{passed}/{total}")
                 for name, (passed, total) in rep.results.items()]
        return SuiteReport("dgss", cases, verb="passed")
    if sid == "peano":
        rep = peano_mod.verify_peano(64)
        cases = [SuiteCase(f"peano{it.number}", it.name, it.ok, it.detail)
                 for it in rep.items]
        return SuiteReport("peano", cases, verb="passed")
    raise ValueError(f"unknown suite {suite_id!r}; expected one of {', '.join(SUITE_IDS)}")
