from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from relcalc import freegroup
from relcalc.freegroup import (DeciderReport, equal_dgss, free_reduce, invert,
                               is_reduced, verify_dgss_lemmas)
from relcalc.terms import Atom, Word, parse_word, print_word

W = parse_word


def test_free_reduce_goldens():
    assert free_reduce(W("a a'")) == W("e")
    assert free_reduce(W("s y y' t")) == W("s t")
    assert free_reduce(W("e a e")) == W("a")
    assert free_reduce(W("e e e")) == W("e")
    assert free_reduce(W("a b b' a'")) == W("e")
    assert free_reduce(W("a' a a")) == W("a")


def test_marked_identity_is_still_the_identity():
    assert free_reduce(W("e' a")) == W("a")
    assert free_reduce(W("e'")) == W("e")
    assert invert(W("a e b")) == W("b' e a'")
    assert invert(W("a e' b")) == W("b' e a'")
    assert invert(W("e'")) == W("e")


def test_invert_golden():
    assert invert(W("a b'")) == W("b a'")
    assert print_word(invert(W("x"))) == "x'"


def test_is_reduced():
    assert is_reduced(W("a b"))
    assert is_reduced(W("e"))
    assert not is_reduced(W("e'"))  # it reduces to e
    assert not is_reduced(W("e e"))
    assert not is_reduced(W("a a'"))
    assert not is_reduced(W("e a"))
    assert not is_reduced(W("a' a"))
    assert is_reduced(W("a a"))


@pytest.mark.parametrize("call, message", [
    (lambda: free_reduce("a b"), "w must be a Word, got 'a b'"),
    (lambda: invert("a"), "w must be a Word, got 'a'"),
    (lambda: is_reduced("a"), "w must be a Word, got 'a'"),
    (lambda: equal_dgss("a", parse_word("a")), "u must be a Word, got 'a'"),
    (lambda: equal_dgss(parse_word("a"), "a"), "v must be a Word, got 'a'"),
], ids=["free_reduce", "invert", "is_reduced", "equal_dgss-u", "equal_dgss-v"])
def test_decider_functions_take_only_words(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_equal_dgss():
    assert equal_dgss(W("a b b'"), W("a"))
    assert equal_dgss(W("e"), W("c c'"))
    assert not equal_dgss(W("z x"), W("z y"))
    assert not equal_dgss(W("a"), W("a'"))


_atoms = st.builds(Atom, st.sampled_from(["a", "b", "c", "e"]), st.booleans())
_words = st.builds(lambda ats: Word(tuple(ats)),
                   st.lists(_atoms, min_size=1, max_size=14))


@given(_words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert is_reduced(r)
    assert free_reduce(r) == r


@given(_words)
def test_inverse_cancels(w):
    # _words draws e and e' alike; invert never marks the identity
    assert not any(a.name == "e" and a.inverted for a in invert(w))
    assert equal_dgss(w + invert(w), W("e"))
    assert equal_dgss(invert(w) + w, W("e"))
    assert free_reduce(invert(invert(w))) == free_reduce(w)


@given(_words, _words, _words)
def test_equal_dgss_is_a_congruence(u, v, z):
    if equal_dgss(u, v):
        assert equal_dgss(u + z, v + z)
        assert equal_dgss(z + u, z + v)


def _slow_reduce(w, rng: random.Random) -> Word:
    # same relation, different strategy: delete one random redex at a time
    atoms = list(w.atoms)
    while True:
        redexes = []
        for i, a in enumerate(atoms):
            if a.name == "e":
                redexes.append((i, 1))
        for i in range(len(atoms) - 1):
            a, b = atoms[i], atoms[i + 1]
            if a.name == b.name and a.name != "e" and a.inverted != b.inverted:
                redexes.append((i, 2))
        if not redexes:
            break
        i, k = rng.choice(redexes)
        del atoms[i:i + k]
    return Word(tuple(atoms)) if atoms else Word((Atom("e"),))


@given(_words, st.integers(0, 2 ** 16))
def test_reduction_strategy_confluence(w, seed):
    assert _slow_reduce(w, random.Random(seed)) == free_reduce(w)


@given(_words)
def test_is_reduced_iff_free_reduce_fixes_it(w):
    assert is_reduced(w) == (free_reduce(w) == w)


def _reference_reduce(w: Word, identity: str) -> Word:
    # the reduction on atoms that the int-coded core replaced
    stack: list[Atom] = []
    for a in w:
        if a.name == identity:
            continue
        if stack and stack[-1].name == a.name and stack[-1].inverted != a.inverted:
            stack.pop()
        else:
            stack.append(a)
    return Word(tuple(stack)) if stack else Word((Atom(identity),))


_identities = st.sampled_from(["e", "a", "q1"])
_any_words = st.builds(
    lambda ats: Word(tuple(ats)),
    st.lists(st.builds(Atom, st.sampled_from(["a", "b", "e", "q1"]), st.booleans()),
             min_size=1, max_size=14))


@given(_any_words, _any_words, _identities)
def test_core_matches_reference_reduction(u, v, identity):
    ru, rv = _reference_reduce(u, identity), _reference_reduce(v, identity)
    assert free_reduce(u, identity) == ru
    assert equal_dgss(u, v, identity) == (ru == rv)
    assert equal_dgss(u, u + v, identity) == (rv == Word((Atom(identity),)))
    assert is_reduced(u, identity) == (ru == u)


def test_verify_lemmas_small_run():
    rep = verify_dgss_lemmas(400, seed=9)
    assert isinstance(rep, DeciderReport)
    assert rep.all_passed
    assert set(rep.results) == {"lm2a", "lm2b", "lm2c", "lm2d", "pr2e", "pr2f"}
    assert all(total == 400 for _, total in rep.results.values())
    assert all(line.startswith("PASS") for line in rep.lines())


@pytest.mark.parametrize("samples", [True, 1.5, "3", None])
def test_verify_lemmas_rejects_a_non_int_count(samples):
    with pytest.raises(ValueError) as exc:
        verify_dgss_lemmas(samples, seed=0)
    assert str(exc.value) == f"samples must be an int, got {samples!r}"


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_lemmas_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        verify_dgss_lemmas(samples, seed=1)


@pytest.mark.parametrize("seed, message", [
    (None, "seed must be an int, got None"),  # would seed from the OS
    (1.5, "seed must be an int, got 1.5"),
    ("x", "seed must be an int, got 'x'"),
    (b"k", "seed must be an int, got b'k'"),
    (True, "seed must be an int, got True"),
    (-3, "seed must be at least 0, got -3"),  # would draw as seed 3 does
])
def test_verify_lemmas_takes_a_non_negative_int_seed(seed, message):
    with pytest.raises(ValueError) as exc:
        verify_dgss_lemmas(10, seed)
    assert str(exc.value) == message


def test_verify_lemmas_deterministic_per_seed():
    a = verify_dgss_lemmas(100, seed=3)
    b = verify_dgss_lemmas(100, seed=3)
    assert a.results == b.results


# The Word-based samplers that the code samplers replaced, kept as the
# reference for the instances each seed draws.
_NAMES = ("a", "b", "c", "d")


def _reference_random_word(rng: random.Random, max_len: int = 6) -> Word:
    k = rng.randint(1, max_len)
    return Word(tuple(
        Atom(rng.choice(_NAMES), rng.random() < 0.5) for _ in range(k)
    ))


def _reference_fatten(rng: random.Random, w: Word) -> Word:
    atoms = list(w.atoms)
    for _ in range(rng.randint(0, 3)):
        pos = rng.randint(0, len(atoms))
        if rng.random() < 0.4:
            atoms[pos:pos] = [Atom("e")]
        else:
            name = rng.choice(_NAMES)
            marked = rng.random() < 0.5
            atoms[pos:pos] = [Atom(name, marked), Atom(name, not marked)]
    return Word(tuple(atoms))


def _reference_draws(samples: int, seed: int) -> list[Word]:
    """Every word the Word-based lemma loop drew, in draw order."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        x = _reference_random_word(rng)
        out += [x, _reference_fatten(rng, x)]
        z = _reference_random_word(rng)
        out.append(z)
        out += [_reference_fatten(rng, invert(z)) for _ in range(4)]
        out += [_reference_random_word(rng), _reference_random_word(rng)]
        x = out[-1]
        out.append(_reference_fatten(rng, x) if rng.random() < 0.5
                   else _reference_random_word(rng))
    return out


def _decode(codes: list[int]) -> Word:
    return Word(tuple(Atom("e") if c < 0 else Atom(_NAMES[c >> 1], bool(c & 1))
                      for c in codes))


@pytest.mark.parametrize("seed", [0, 3, 42, 2 ** 31 - 1])
def test_sampler_draws_the_reference_instances(seed, monkeypatch):
    drawn = []

    def recording(sampler):
        def draw(*args):
            out = sampler(*args)
            drawn.append(_decode(out))
            return out
        return draw

    monkeypatch.setattr(freegroup, "_random_word", recording(freegroup._random_word))
    monkeypatch.setattr(freegroup, "_fatten", recording(freegroup._fatten))
    verify_dgss_lemmas(60, seed)
    assert drawn == _reference_draws(60, seed)


# every code list the dgss suite's lemma run draws, as drawn by the
# samplers that called Random.choice and Random.randint
SUITE_DRAWS_DIGEST = "1db5826999b1253bee07f381e03b6c7cc4e4d012f487e1f45a4261a1b92d96ce"


def test_suite_draws_are_pinned(monkeypatch):
    digest = hashlib.sha256()

    def recording(sampler):
        def draw(*args):
            out = sampler(*args)
            digest.update(repr(out).encode())
            return out
        return draw

    monkeypatch.setattr(freegroup, "_random_word", recording(freegroup._random_word))
    monkeypatch.setattr(freegroup, "_fatten", recording(freegroup._fatten))
    assert verify_dgss_lemmas(10_000, 42).all_passed
    assert digest.hexdigest() == SUITE_DRAWS_DIGEST


def _below(rng: random.Random, n: int) -> int:
    # the draw the samplers make inline, by Random._randbelow's rule
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# choice among 4 bases, randint(1, 6), randint(0, 3), and randint(0, len)
# for an insert position into a word of up to 15 codes
@pytest.mark.parametrize("n", range(1, 17), ids=lambda n: f"below-{n}")
def test_randrange_draws_by_the_samplers_rule(n):
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = [_below(ours, n) for _ in range(20)]
        want = [theirs.randrange(n) for _ in range(20)]
        assert got == want and ours.random() == theirs.random(), (
            f"randrange({n}) no longer draws by Random._randbelow's rule "
            f"(seed {seed}); the dgss samplers would draw other instances")


def _no_cancellation(codes):
    return [c for c in codes if c >= 0]


def _keeps_identity(codes):
    stack = []
    for c in codes:
        if c >= 0 and stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return stack


@pytest.mark.parametrize("broken", [_no_cancellation, _keeps_identity])
def test_lemma_checker_can_fail(broken, monkeypatch):
    monkeypatch.setattr(freegroup, "_reduce", broken)
    assert not verify_dgss_lemmas(200, seed=9).all_passed


@pytest.mark.parametrize("call, message", [
    (lambda: free_reduce(W("a e"), 5), "identity must be an atom name, got 5"),
    (lambda: invert(W("a e"), []), "identity must be an atom name, got []"),
    (lambda: equal_dgss(W("a"), W("a"), None), "identity must be an atom name, got None"),
    (lambda: is_reduced(W("a"), "e'"), "identity must be an atom name, got \"e'\""),
    (lambda: free_reduce(W("a"), ""), "identity must be an atom name, got ''"),
    (lambda: equal_dgss(W("a"), W("a"), "e f"), "identity must be an atom name, got 'e f'"),
])
def test_identity_must_be_an_atom_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
