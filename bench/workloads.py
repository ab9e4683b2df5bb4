"""The benchmark's workloads: seeded inputs, the timed job, and the check
of every job's output against a reference from ``oracles``.

A workload is a fixed job list built from the seed.  ``run`` is the
timed part, what a user of relcalc waits for; ``verify`` runs after the
clock stops and returns None for a correct output or a one-line reason.
relcalc is reached through attribute lookups on the package at call
time, so a tracer or a test can substitute any public function.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import relcalc

import oracles
from oracles import DIT_FAMILY, GROUP_FAMILY, show, tokens


@dataclass(frozen=True)
class Goal:
    system: str
    hyps: tuple[str, ...]
    text: str
    max_len: int
    expect: str          # "equal" or "refuted"
    source: str          # how the expected answer is known


@dataclass(frozen=True)
class Suite:
    suite_id: str
    cases: int


# Goals whose search exhausts each side's reachable set within max_len,
# including the ROADMAP hard set.  Each costs more than any seeded goal,
# so together they set the 90th-percentile latency of a pass.
HARD_SET = (
    ("dits", "x y x = y y", 7), ("dits", "x y x = y y", 8), ("dits", "y y = y", 7),
    ("dgss", "a b a' = b", 6), ("dgss", "a b a' = b", 7),
    ("dgss", "a b = b a", 6), ("dgss", "a b = b a", 7), ("dgss", "a = b", 6),
    ("dit", "x y x = y y", 8), ("dit", "y y = y", 8), ("dit", "y x = x", 8),
    ("dit+", "x y x = y y", 8), ("dit+", "y y = y", 8), ("dit+", "x y z = z", 8),
    ("dgs+", "a b = b a", 8), ("dgs+", "a b c = c b a", 8),
)

PROOF_SUITES = (Suite("er", 9), Suite("pr01", 9), Suite("dits", 3), Suite("collapse", 4))

_ALPHABET = {"dit": "xyz", "dit+": "xyz", "dits": "xyz",
             "dgs": "abce", "dgs+": "abce", "dgss": "abce"}


# small enough that a seeded refuted goal stays cheaper than the hard set
_REFUTED_MAX_LEN = {"dit": 5, "dit+": 5, "dits": 5, "dgs": 6, "dgs+": 6, "dgss": 4}


def _random_word(rng: random.Random, system: str, lo: int, hi: int):
    marks = system == "dgss"
    return tuple((rng.choice(_ALPHABET[system]), marks and rng.random() < 0.4)
                 for _ in range(rng.randint(lo, hi)))


def _split(text: str):
    lhs, rhs = text.split("=")
    return tokens(lhs), tokens(rhs)


class ProveWorkload:
    """Parse a goal, search for a proof, and round-trip a found proof
    through its JSON script and the replay checker; plus the four proof
    suites."""

    name = "prove"
    EQUAL_PER_SYSTEM = 10
    HYP_PER_SYSTEM = 5
    REFUTED_PER_SYSTEM = 3

    def __init__(self, seed: int):
        rng = random.Random(seed)
        tables3 = oracles.associative_tables(3)
        self.pool = {s: oracles.brute_force_models(s, tables3) for s in DIT_FAMILY}
        jobs: list = list(PROOF_SUITES)
        for system, text, max_len in HARD_SET:
            jobs.append(self._refuted(system, text, max_len))
        for system in DIT_FAMILY + GROUP_FAMILY:
            for _ in range(self.EQUAL_PER_SYSTEM):
                jobs.append(self._equal(rng, system))
            if system != "dgss":
                for _ in range(self.HYP_PER_SYSTEM):
                    jobs.append(self._with_hypothesis(rng, system))
            for _ in range(self.REFUTED_PER_SYSTEM):
                jobs.append(self._random_refuted(rng, system))
        rng.shuffle(jobs)
        self.jobs = jobs

    # -- inputs ------------------------------------------------------------

    def refutation(self, system: str, lhs, rhs) -> str | None:
        """Why lhs = rhs is not derivable, or None if no reference knows."""
        if system in DIT_FAMILY:
            for table, d in self.pool[system]:
                if oracles.evaluate(lhs, table, d) != oracles.evaluate(rhs, table, d):
                    return f"counter-model {table} {d}"
            return None
        if system == "dgss":
            nl, nr = oracles.reduce_leftmost(lhs), oracles.reduce_leftmost(rhs)
        else:
            nl, nr = oracles.dgs_canonical(lhs, system), oracles.dgs_canonical(rhs, system)
        return None if nl == nr else f"normal forms {show(nl)!r} != {show(nr)!r}"

    def _refuted(self, system: str, text: str, max_len: int) -> Goal:
        source = self.refutation(system, *_split(text))
        if source is None:
            raise ValueError(f"no reference refutes {text!r} under {system}")
        return Goal(system, (), text, max_len, "refuted", source)

    def _random_refuted(self, rng: random.Random, system: str) -> Goal:
        while True:
            lhs = _random_word(rng, system, 1, 3)
            rhs = _random_word(rng, system, 1, 3)
            source = self.refutation(system, lhs, rhs)
            if source is not None:
                return Goal(system, (), f"{show(lhs)} = {show(rhs)}",
                            _REFUTED_MAX_LEN[system], "refuted", source)

    def _equal(self, rng: random.Random, system: str) -> Goal:
        while True:
            lhs = _random_word(rng, system, 3, 4)
            rhs = oracles.random_walk(rng, lhs, system, 2, max_len=7)
            if rhs != lhs:
                return Goal(system, (), f"{show(lhs)} = {show(rhs)}", 8, "equal",
                            "rewrite walk in the benchmark")

    def _with_hypothesis(self, rng: random.Random, system: str) -> Goal:
        names = "abxyz" if system in DIT_FAMILY else "abc"
        while True:
            u = tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
            v = tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
            if u == v:
                continue
            hyp = ((u, v),)
            pre = ((rng.choice(names), False),)
            post = ((rng.choice(names), False),)
            lhs = pre + tuple((a, False) for a in u) + post
            mid = pre + tuple((a, False) for a in v) + post
            rhs = oracles.random_walk(rng, mid, system, 1, hyp, max_len=7)
            if rhs != lhs:
                hyp_text = f"{' '.join(u)} = {' '.join(v)}"
                return Goal(system, (hyp_text,), f"{show(lhs)} = {show(rhs)}", 8, "equal",
                            "rewrite walk in the benchmark, through the hypothesis")

    # -- timed job ---------------------------------------------------------

    def run(self, job):
        if isinstance(job, Suite):
            return relcalc.run_suite(job.suite_id)
        goal = relcalc.parse_equation(job.text)
        hyps = tuple(relcalc.parse_equation(h) for h in job.hyps)
        res = relcalc.prove_equal(goal, job.system, hyps,
                                  relcalc.SearchConfig(max_word_len=job.max_len))
        if isinstance(res, relcalc.NotFound):
            return res, None
        script = json.dumps(relcalc.proof_to_dict(res))
        return res, relcalc.check_proof_data(json.loads(script))

    # -- check -------------------------------------------------------------

    def verify(self, job, out) -> str | None:
        if isinstance(job, Suite):
            return self._verify_suite(job, out)
        res, replay = out
        if job.expect == "refuted":
            if not isinstance(res, relcalc.NotFound):
                return f"{job.text} under {job.system}: proof of a refuted goal ({job.source})"
            return None
        if not isinstance(res, relcalc.Proof):
            return f"{job.text} under {job.system}: no proof of an equal goal"
        return (self._verify_proof(res, job.system, job.hyps, job.text)
                or (None if replay.ok else f"{job.text}: JSON script rejected: {replay.reason}"))

    def _verify_proof(self, proof, system: str, hyps, text: str) -> str | None:
        script = relcalc.proof_to_dict(proof)
        if script["system"].lower() != system:
            return f"{text}: proof is for system {script['system']}"
        if _split(script["goal"]) != _split(text):
            return f"{text}: proof is for goal {script['goal']}"
        if [_split(h) for h in script["hypotheses"]] != [_split(h) for h in hyps]:
            return f"{text}: proof cites other hypotheses {script['hypotheses']}"
        check = relcalc.check_proof(proof)
        if not check.ok:
            return f"{text}: replay rejects step {check.failed_step}: {check.reason}"
        return None

    def _verify_suite(self, job: Suite, rep) -> str | None:
        if len(rep.cases) != job.cases or not rep.ok:
            return f"suite {job.suite_id}: {rep.summary()}, expected {job.cases}/{job.cases}"
        for case in rep.cases:
            if case.proof is None:
                return f"suite {job.suite_id}: case {case.case_id} has no proof"
            script = json.loads(json.dumps(relcalc.proof_to_dict(case.proof)))
            check = relcalc.check_proof_data(script)
            if not check.ok:
                return f"suite {job.suite_id}: {case.case_id} script rejected: {check.reason}"
        return None


@dataclass(frozen=True)
class Lemmas:
    samples: int
    seed: int


@dataclass(frozen=True)
class Pair:
    lhs: str
    rhs: str


_LEMMA_IDS = {"lm2a", "lm2b", "lm2c", "lm2d", "pr2e", "pr2f"}


class DecideWorkload:
    """Seeded chunks of the dgss lemma run (together as many samples as
    ``suite dgss``) and ``equal_dgss`` on word pairs parsed from text."""

    name = "decide"
    LEMMA_CHUNKS = 100
    LEMMA_SAMPLES = 100
    # (pairs, shortest, longest) per length band.  With the lemma chunks
    # as the dearest quarter of the jobs, the median job falls in the
    # middle of the medium band and the 90th percentile among the chunks.
    BANDS = ((140, 1, 6), (120, 30, 50), (40, 200, 400))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        jobs: list = [Lemmas(self.LEMMA_SAMPLES, rng.randrange(2 ** 31))
                      for _ in range(self.LEMMA_CHUNKS)]
        for count, lo, hi in self.BANDS:
            for _ in range(count):
                jobs.append(self._pair(rng, lo, hi))
        rng.shuffle(jobs)
        self.jobs = jobs

    @staticmethod
    def _pair(rng: random.Random, lo: int, hi: int) -> Pair:
        def atom():
            return (rng.choice("abcd"), rng.random() < 0.5)

        def fatten(word):
            w = list(word)
            for _ in range(rng.randint(0, 1 + len(w) // 4)):
                pos = rng.randint(0, len(w))
                if rng.random() < 0.3:
                    w[pos:pos] = [("e", False)]
                else:
                    name, marked = atom()
                    w[pos:pos] = [(name, marked), (name, not marked)]
            return tuple(w)

        base = tuple(atom() for _ in range(rng.randint(lo, hi)))
        other = base
        if rng.random() < 0.5:
            i = rng.randrange(len(base))
            other = base[:i] + (atom(),) + base[i + 1:]
        return Pair(show(fatten(base)), show(fatten(other)))

    def run(self, job):
        if isinstance(job, Lemmas):
            return relcalc.verify_dgss_lemmas(job.samples, job.seed)
        return relcalc.equal_dgss(relcalc.parse_word(job.lhs), relcalc.parse_word(job.rhs))

    def verify(self, job, out) -> str | None:
        if isinstance(job, Lemmas):
            if set(out.results) != _LEMMA_IDS or not out.all_passed or \
                    any(total != job.samples for _, total in out.results.values()):
                return f"lemmas seed {job.seed}: {out.lines()}"
            return None
        reduce = oracles.reduce_leftmost
        expect = reduce(tokens(job.lhs)) == reduce(tokens(job.rhs))
        if out is not expect:
            return f"equal_dgss({job.lhs!r}, {job.rhs!r}) = {out}, leftmost reduction says {expect}"
        return None


@dataclass(frozen=True)
class Enumeration:
    system: str
    size: int


class ModelsWorkload:
    """``enumerate_models`` jobs from a plan of (system, size, repeats)."""

    def __init__(self, name: str, plan, seed: int):
        self.name = name
        self.jobs = [Enumeration(s, n) for s, n, reps in plan for _ in range(reps)]
        random.Random(seed).shuffle(self.jobs)
        self._verified: dict[Enumeration, tuple] = {}

    def run(self, job):
        return relcalc.enumerate_models(relcalc.ModelQuery(job.system, job.size))

    @staticmethod
    def expected_count(job: Enumeration) -> tuple[int, str]:
        if job.system in GROUP_FAMILY:
            return oracles.GROUP_COUNTS[job.size], "closed form"
        if job.size <= 3:
            tables = oracles.associative_tables(job.size)
            return len(oracles.brute_force_models(job.system, tables)), "brute force"
        return oracles.DIT_PINNED[(job.system, job.size)], "regression pin"

    def verify(self, job, models) -> str | None:
        keys = tuple(oracles.emission_key(m.table, m.designated) for m in models)
        if self._verified.get(job) == keys:
            return None  # identical to an output this run already verified
        count, source = self.expected_count(job)
        if len(models) != count:
            return f"{job.system} n={job.size}: {len(models)} models, {source} says {count}"
        roles = {"x", "y", "z"} if job.system in DIT_FAMILY else {"e"}
        for m in models:
            if m.size != job.size or set(m.designated) != roles:
                return f"{job.system} n={job.size}: malformed model {m}"
            problems = oracles.check_table(job.system, m.table, m.designated)
            if problems:
                return f"{job.system} n={job.size}: {m.table} {m.designated}: {problems[0]}"
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return f"{job.system} n={job.size}: emission order not strictly increasing"
        self._verified[job] = keys
        return None


def _plan(family, repeats, size5):
    return [(s, n, r) for s in family for n, r in repeats] + [(s, 5, 1) for s in size5]


# Size 5 only where one enumeration takes under 4 s, so that a pass stays
# near 4 s and a run holds the several passes its slowest-pass figures
# need; dgs and dgs+ (7.4 s and 3.4 s) and dit (5.5 s) stop at size 4.
# Sizes 3 and 4 repeat so that the median and the 90th percentile each
# fall inside a group of runs of one size, not on the edge between sizes.
MODELS_PLANS = {
    "models-group": _plan(GROUP_FAMILY, ((1, 1), (2, 1), (3, 6), (4, 3)), ("dgss",)),
    "models-dit": _plan(DIT_FAMILY, ((1, 1), (2, 1), (3, 10), (4, 3)), ("dit+", "dits")),
}


WORKLOADS = ("prove", "decide", "models-group", "models-dit")


def build(name: str, seed: int):
    if name == "prove":
        return ProveWorkload(seed)
    if name == "decide":
        return DecideWorkload(seed)
    if name in MODELS_PLANS:
        return ModelsWorkload(name, MODELS_PLANS[name], seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
