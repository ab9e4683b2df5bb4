"""The rewrite rules against the table reading of `models._read`.

A proof step rewrites by a rule of the system, and `_read` reads each
rule as an equation on tables, so every word a proof passes through must
take one value in every model, under every assignment of the atoms that
are not roles.  This ties the search's rules to the enumerator's models,
two engines that share no code but the rule table.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

import pytest

from relcalc.engine import SYSTEMS, Proof, SearchConfig, neighbors, prove_equal
from relcalc.models import ModelQuery, iter_models
from relcalc.suites import _PROOF_SUITES
from relcalc.terms import parse_equation, parse_word

MAX_LEN = 6     # walks and searches stay within words of this length


def _walked_goals(system, seed: int, count: int = 12, steps: int = 5):
    """`count` goals start = end, each end reached from its start by a
    seeded walk of at most `steps` rewrites; the starts are words over
    the roles, the free atom a and, with inverse-cancel, both marked."""
    rng = random.Random(seed)
    letters = [*system.roles, "a"]
    if system.allows_inverses:
        letters += [f"{c}'" for c in letters]
    goals = []
    for _ in range(count):
        start = w = parse_word(" ".join(rng.choices(letters, k=rng.randint(1, 4))))
        for _ in range(rng.randint(1, steps)):
            moves = neighbors(w, system, max_len=MAX_LEN)
            if not moves:
                break
            w = rng.choice(moves)[0]
        if w != start:
            goals.append((start, w))
    return goals


def _proofs(system_id: str) -> list[Proof]:
    """The proofs `prove_equal` finds for the walked goals of `system_id`
    and for the rows of every proof suite under it."""
    system = SYSTEMS[system_id]
    config = SearchConfig(max_word_len=MAX_LEN)
    problems = [((), goal) for goal in _walked_goals(system, seed=sorted(SYSTEMS).index(system_id))]
    problems += [(tuple(map(parse_equation, hyps)), parse_equation(goal))
                 for sid, rows in _PROOF_SUITES.values() if sid == system_id
                 for _, hyps, goal in rows]
    found = [prove_equal(goal, system, hyps, config) for hyps, goal in problems]
    assert all(isinstance(p, Proof) for p in found)
    return found


def _value(w, t, env, inverse) -> int:
    """`w` in table `t`: each atom by `env`, a marked atom as the group
    inverse of its value, and the product folded left to right."""
    return reduce(lambda u, v: t[u][v],
                  [inverse[env[a.name]] if a.inverted else env[a.name] for a in w.atoms])


@pytest.mark.parametrize("system_id", sorted(SYSTEMS))
def test_every_proof_holds_in_every_model_up_to_4(system_id):
    proofs = _proofs(system_id)
    for n in range(1, 5):
        for m in iter_models(ModelQuery(system_id, n)):
            t, e = m.table, m.designated.get("e")
            inverse = {} if e is None else {v: z for v in range(n) for z in range(n)
                                            if t[z][v] == e}
            for p in proofs:
                words = [p.goal[0], *(s.result for s in p.steps)]
                free = sorted({a.name for w in (*words, *itertools.chain(*p.hypotheses))
                               for a in w.atoms} - m.designated.keys())
                for values in itertools.product(range(n), repeat=len(free)):
                    env = {**m.designated, **dict(zip(free, values))}
                    if all(_value(l, t, env, inverse) == _value(r, t, env, inverse)
                           for l, r in p.hypotheses):
                        assert len({_value(w, t, env, inverse) for w in words}) == 1, \
                            (p.goal, m.table, env)
