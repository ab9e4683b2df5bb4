"""Acceptance gate.

Ten criteria, one test each, every expected value re-derived here by
means independent of the implementation under test: brute-force table
filters, a pinned-identity group counter, a second reduction strategy,
and exhaustive single-field corruption of found proofs.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

from relcalc.cli import main as cli_main
from relcalc.engine import check_proof, hypothesis_rules
from relcalc.freegroup import free_reduce, verify_dgss_lemmas
from relcalc.models import (ModelQuery, check_model, count_models,
                            enumerate_models, find_min_model)
from relcalc.peano import (ZERO, eval_zero, numeral, succ, verify_peano,
                           zero_contradiction_demo)
from relcalc.suites import run_suite
from relcalc.terms import Atom, Word

Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _run_proof_suite(suite_id: str, n_cases: int):
    t0 = time.monotonic()
    rep = run_suite(suite_id)
    elapsed = time.monotonic() - t0
    assert len(rep.cases) == n_cases
    for case in rep.cases:
        assert case.ok, f"{case.case_id}: {case.detail}"
        assert case.proof is not None
        assert len(case.proof.steps) <= 60
        assert case.proof.nodes_expanded <= 1_000_000
        assert check_proof(case.proof).ok
    return rep, elapsed


def test_01_right_factor_cancellation_all_nine_pairings():
    rep, elapsed = _run_proof_suite("er", 9)
    assert rep.summary() == "9/9 proved"
    assert elapsed < 30


def test_02_left_factor_cancellation_all_nine_pairings():
    rep, elapsed = _run_proof_suite("pr01", 9)
    assert rep.summary() == "9/9 proved"
    assert elapsed < 30


def test_03_symmetric_system_derives_absorption_commutation_idempotence():
    rep, _ = _run_proof_suite("dits", 3)
    assert [c.case_id for c in rep.cases] == ["Lxzz", "Lxyyx", "Lxxx"]


def test_04_designation_overlap_collapses_the_calculus():
    rep, _ = _run_proof_suite("collapse", 4)
    ids = [c.case_id for c in rep.cases]
    assert {"collapse1", "collapse2", "collapse3"} <= set(ids)
    # the growth demo: each reapplication adds two atoms
    words = [n.strip() for n in rep.notes[1:]]
    assert [len(w.split()) for w in words] == [1, 3, 5, 7, 9]


def _second_opinion_reduce(w: Word) -> Word:
    # rightmost redex first, one deletion per sweep
    atoms = list(w.atoms)
    while True:
        hit = None
        for i in range(len(atoms) - 1, -1, -1):
            if atoms[i].name == "e":
                hit = (i, 1)
                break
            if (i + 1 < len(atoms) and atoms[i].name == atoms[i + 1].name
                    and atoms[i].inverted != atoms[i + 1].inverted):
                hit = (i, 2)
                break
        if hit is None:
            break
        i, k = hit
        del atoms[i:i + k]
    return Word(tuple(atoms)) if atoms else Word((Atom("e"),))


def test_05_free_reduction_decider_ten_thousand_samples_under_ten_seconds():
    t0 = time.monotonic()
    rep = verify_dgss_lemmas(10_000, seed=42)
    assert rep.all_passed
    assert all(v == (10_000, 10_000) for v in rep.results.values())

    rng = random.Random(42)
    names = ("a", "b", "c", "e")
    for _ in range(10_000):
        w = Word(tuple(Atom(rng.choice(names), rng.random() < 0.4)
                       for _ in range(rng.randint(1, 12))))
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert _second_opinion_reduce(w) == r
    assert time.monotonic() - t0 < 10


def _associative_tables(n: int):
    rng3 = range(n)
    for flat in itertools.product(rng3, repeat=n * n):
        t = tuple(tuple(flat[r * n:(r + 1) * n]) for r in rng3)
        if all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in rng3 for b in rng3 for c in rng3):
            yield t


def _brute_force_keys(system: str, n: int, tables) -> set:
    keys = set()
    for t in tables:
        if system in ("dit", "dit+", "dits"):
            for x, y, z in itertools.permutations(range(n), 3):
                if t[x][y] != y or t[z][y] != x:
                    continue
                if system in ("dit+", "dits") and t[z][x] != z:
                    continue
                if system == "dits" and t[y][z] != t[z][y]:
                    continue
                keys.add((n, t, (("x", x), ("y", y), ("z", z))))
        else:
            for e in range(n):
                if any(t[e][a] != a for a in range(n)):
                    continue
                if any(all(t[b][a] != e for b in range(n)) for a in range(n)):
                    continue
                if system in ("dgs+", "dgss") and any(t[a][e] != a for a in range(n)):
                    continue
                if system == "dgss" and any(
                        all(t[b][a] != e or t[a][b] != e for b in range(n))
                        for a in range(n)):
                    continue
                keys.add((n, t, (("e", e),)))
    return keys


def _pinned_identity_group_count(n: int) -> int:
    count = 0
    perms = list(itertools.permutations(range(n)))
    for e in range(n):
        rows: dict[int, tuple[int, ...]] = {e: tuple(range(n))}
        others = [a for a in range(n) if a != e]

        def place(i: int):
            nonlocal count
            if i == len(others):
                t = tuple(rows[a] for a in range(n))
                if all(t[t[a][b]][c] == t[a][t[b][c]]
                       for a in range(n) for b in range(n) for c in range(n)):
                    count += 1
                return
            a = others[i]
            for p in perms:
                if p[e] != a:
                    continue
                if any(p[b] == row[b] for row in rows.values() for b in range(n)):
                    continue
                rows[a] = p
                place(i + 1)
                del rows[a]

        place(0)
    return count


def test_06_enumerator_matches_brute_force_and_textbook_group_counts():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        tables = list(_associative_tables(n))
        for system in ("dit", "dit+", "dits", "dgs", "dgs+", "dgss"):
            got = {m.key() for m in enumerate_models(ModelQuery(system, n))}
            assert got == _brute_force_keys(system, n, tables), (system, n)

    expected = [1, 2, 3, 16]
    assert [_pinned_identity_group_count(n) for n in (1, 2, 3, 4)] == expected
    for system in ("dgs", "dgs+", "dgss"):
        assert [count_models(system, n) for n in (1, 2, 3, 4)] == expected
    # one axiom apart, same model sets: the weak system already forces groups
    for n in (1, 2, 3, 4):
        dgs = {m.key() for m in enumerate_models(ModelQuery("dgs", n))}
        dgss = {m.key() for m in enumerate_models(ModelQuery("dgss", n))}
        assert dgs == dgss
    assert time.monotonic() - t0 < 120


def test_07_smallest_distinctness_model_has_three_elements():
    assert count_models("dit", 1) == 0
    assert count_models("dit", 2) == 0
    found = find_min_model("dit", 3)
    assert found is not None and found[0] == 3

    m = found[1]
    t, d = m.table, m.designated
    x, y, z = d["x"], d["y"], d["z"]
    assert len({x, y, z}) == 3
    assert t[x][y] == y and t[z][y] == x
    assert all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(3) for b in range(3) for c in range(3))
    # the witness is free to refute the stronger z x = z law
    assert t[z][x] != z

    # the cyclic table models every distinctness variant at once
    full = dataclasses.replace(m, table=Z3)
    for system in ("dit", "dit+", "dits"):
        assert check_model(full, system) == []
    assert Z3[z][x] == z and Z3[y][z] == Z3[z][y]


def test_08_every_dgss_model_up_to_four_is_a_group_table():
    sizes = {1: 1, 2: 2, 3: 3, 4: 16}
    for n, expected in sizes.items():
        models = enumerate_models(ModelQuery("dgss", n))
        assert len(models) == expected
        for m in models:
            t, e = m.table, m.designated["e"]
            for a in range(n):
                assert sorted(t[a]) == list(range(n))
                assert sorted(t[r][a] for r in range(n)) == list(range(n))
                assert t[e][a] == a == t[a][e]
                inverses = [b for b in range(n)
                            if t[b][a] == e and t[a][b] == e]
                assert len(inverses) == 1
            for a in range(n):
                seen = {}
                for b in range(n):
                    v = t[a][b]
                    assert v not in seen
                    seen[v] = b


def test_09_numerals_satisfy_the_five_properties(capsys):
    rep = verify_peano(64)
    assert rep.all_passed
    assert [it.ok for it in rep.items] == [True] * 5

    rc = cli_main(["peano", "eval", "0 (1 1)"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and out[0] == "1 1"

    demo = zero_contradiction_demo()
    assert demo[0] == "succ(0) = 1 0"
    assert demo[-1] == "hence 0 cannot be a numeral"
    assert eval_zero(succ(Word((ZERO,)))) == numeral(1)


def test_10_checker_rejects_every_single_field_corruption():
    proofs = []
    for sid in ("er", "pr01", "dits", "collapse"):
        for case in run_suite(sid).cases:
            assert case.ok and case.proof is not None
            proofs.append(case.proof)
    assert len(proofs) == 25

    mutations = 0
    for pf in proofs:
        system = pf.system
        rule_ids = sorted({r.id for r in system.rules}
                          | {r.id for r in hypothesis_rules(pf.hypotheses)}
                          | {"nosuch"})
        words = [pf.goal[0]] + [st.result for st in pf.steps]
        for i, st in enumerate(pf.steps):
            span = max(len(words[i]), len(words[i + 1]))
            variants = []
            variants.extend(dataclasses.replace(st, rule=r)
                            for r in rule_ids if r != st.rule)
            variants.append(dataclasses.replace(
                st, dir="rl" if st.dir == "lr" else "lr"))
            variants.extend(dataclasses.replace(st, pos=p)
                            for p in range(span + 1) if p != st.pos)
            for bad_step in variants:
                steps = list(pf.steps)
                steps[i] = bad_step
                bad = dataclasses.replace(pf, steps=tuple(steps))
                res = check_proof(bad)
                mutations += 1
                assert not res.ok
                assert res.failed_step == i
    assert mutations >= 1000
