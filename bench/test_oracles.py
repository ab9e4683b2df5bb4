"""Tests for the benchmark's own references and failure counting.

    python3 -m unittest discover -s bench -p 'test_*.py'

A wrong output must show up as a failed job, and so in error_rate,
never as a silent pass.  Each test substitutes one public relcalc
function with a broken version, runs one pass of a small slice of a
workload, and counts the failures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import relcalc  # noqa: E402

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402


@contextlib.contextmanager
def substitute(name, fn):
    original = getattr(relcalc, name)
    setattr(relcalc, name, fn)
    try:
        yield original
    finally:
        setattr(relcalc, name, original)


def small_prove():
    wl = workloads.ProveWorkload(7)
    equal = [j for j in wl.jobs if isinstance(j, workloads.Goal) and j.expect == "equal"]
    refuted = [j for j in wl.jobs if isinstance(j, workloads.Goal) and j.expect == "refuted"
               and (j.system, j.text, j.max_len) not in workloads.HARD_SET]
    wl.jobs = equal[:12] + refuted[:6] + [workloads.Suite("dits", 3)]
    return wl


def small_decide():
    wl = workloads.DecideWorkload(7)
    pairs = [j for j in wl.jobs if isinstance(j, workloads.Pair)]
    lemmas = [j for j in wl.jobs if isinstance(j, workloads.Lemmas)]
    wl.jobs = pairs[:40] + lemmas[:1]
    return wl


def small_models(name="models-group"):
    wl = workloads.build(name, 7)
    wl.jobs = [j for j in wl.jobs if j.size <= 3]
    return wl


class ReferenceTests(unittest.TestCase):
    def test_group_counts_closed_form(self):
        self.assertEqual(oracles.GROUP_COUNTS, {1: 1, 2: 2, 3: 3, 4: 16, 5: 30})

    def test_brute_force_distinctness_family(self):
        for n, expected in ((1, (0, 0, 0)), (2, (0, 0, 0)), (3, (12, 6, 6))):
            tables = oracles.associative_tables(n)
            counts = tuple(len(oracles.brute_force_models(s, tables))
                           for s in oracles.DIT_FAMILY)
            self.assertEqual(counts, expected, n)

    def test_leftmost_reduction(self):
        cases = {"a a' b": "b", "a b b' a'": "e", "e e": "e", "a e a'": "e",
                 "b a' a b'": "e", "c a b b' a'": "c", "a b": "a b"}
        for text, reduced in cases.items():
            self.assertEqual(oracles.show(oracles.reduce_leftmost(oracles.tokens(text))),
                             reduced, text)

    def test_identity_only_normal_forms(self):
        w = oracles.tokens("e a e b e")
        self.assertEqual(oracles.show(oracles.dgs_canonical(w, "dgs")), "a b e")
        self.assertEqual(oracles.show(oracles.dgs_canonical(w, "dgs+")), "a b")
        self.assertEqual(oracles.show(oracles.dgs_canonical(oracles.tokens("e e"), "dgs")), "e")

    def test_check_table_rejects_a_corrupted_group(self):
        z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        self.assertEqual(oracles.check_table("dgss", z3, {"e": 0}), [])
        bad = ((0, 1, 2), (1, 2, 0), (2, 0, 0))
        self.assertNotEqual(oracles.check_table("dgss", bad, {"e": 0}), [])


class FailureCountingTests(unittest.TestCase):
    def assert_counted(self, wl, minimum=1):
        _, failures, _ = run_pass(wl, calibrate.Clock())
        self.assertGreaterEqual(len(failures), minimum, failures)
        return failures

    def test_unbroken_slices_pass(self):
        for wl in (small_prove(), small_decide(), small_models(), small_models("models-dit")):
            _, failures, _ = run_pass(wl, calibrate.Clock())
            self.assertEqual(failures, [], wl.name)

    def test_corrupted_table_is_counted(self):
        def corrupt(query):
            found = original(query)
            if found:
                m = found[0]
                rows = [list(r) for r in m.table]
                rows[-1][-1] = (rows[-1][-1] + 1) % m.size
                found[0] = relcalc.Model(m.size, tuple(map(tuple, rows)), dict(m.designated))
            return found
        wl = small_models()
        with substitute("enumerate_models", corrupt) as original:
            failures = self.assert_counted(wl)
        self.assertTrue(all("n=" in f for f in failures))

    def test_wrong_count_is_counted(self):
        wl = small_models("models-dit")
        with substitute("enumerate_models", lambda q: original(q)[1:]) as original:
            self.assert_counted(wl)

    def test_wrong_verdict_is_counted(self):
        wl = small_prove()
        equal = sum(1 for j in wl.jobs if isinstance(j, workloads.Goal) and j.expect == "equal")
        with substitute("prove_equal", lambda *a, **k: relcalc.NotFound(0, None)):
            self.assert_counted(wl, equal)

    def test_tampered_proof_step_is_counted(self):
        def tamper(*args, **kwargs):
            res = original(*args, **kwargs)
            if isinstance(res, relcalc.Proof) and res.steps:
                first = res.steps[0]
                bad = dataclasses.replace(
                    first, result=relcalc.Word(first.result.atoms + first.result.atoms[:1]))
                res = dataclasses.replace(res, steps=(bad,) + res.steps[1:])
            return res
        wl = small_prove()
        equal = sum(1 for j in wl.jobs if isinstance(j, workloads.Goal) and j.expect == "equal")
        with substitute("prove_equal", tamper) as original:
            self.assert_counted(wl, equal)

    def test_disagreeing_reduction_is_counted(self):
        wl = small_decide()
        pairs = sum(1 for j in wl.jobs if isinstance(j, workloads.Pair))
        with substitute("equal_dgss", lambda u, v: not original(u, v)) as original:
            self.assert_counted(wl, pairs)

    def test_exception_is_counted(self):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")
        wl = small_decide()
        with substitute("parse_word", boom):
            self.assert_counted(wl, 40)


if __name__ == "__main__":
    unittest.main()
