"""Decision procedure for ground DGSS equalities by free reduction.

A word reduces by deleting the identity atom wherever it occurs and
cancelling adjacent mutually-inverse pairs until neither move applies.
The result is unique no matter the order (the tests compare strategies
on random words), so two words denote the same element exactly when
they reduce to the same word.  The identity is kept as a real one-atom
word; the empty word exists only inside the reduction loop.

A marked identity atom means "the inverse of the identity", which is
the identity again, so reduction deletes it like any other identity
occurrence and invert() never marks it.

Reduction runs on int codes, not on atoms.  Each public call numbers
the names in play in order of appearance and codes an atom as
``2 * index + mark``, so an atom and its inverse differ in the low bit
and cancel when ``c == d ^ 1``.  The identity gets index -1, so both of
its codes are negative (``-2``, and ``-1`` when marked; ``^ 1`` swaps
them), and ``_reduce`` deletes every negative code.  ``equal_dgss``
compares reduced code lists and builds no word; ``free_reduce`` maps
codes back to the atoms of its input.  ``verify_dgss_lemmas`` samples
codes directly and checks them through the same ``_reduce``.  Its
samplers draw with ``getrandbits`` and ``random()`` alone, by the rule
of ``Random._randbelow``, so each seed draws the instances that
``choice`` and ``randint`` drew, without their Python layers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .terms import Atom, Word, check_count, check_is, check_name

IDENTITY = "e"


def _encode(w: Word, index: dict[str, int], name: str = "w") -> list[int]:
    """The codes of `w`; names not yet in `index` get the next index.
    `index` starts as ``{identity: -1}``.  A `w` that is not a Word is a
    ValueError that calls it by the caller's argument `name`."""
    codes = []
    for a in check_is(w, Word, name).atoms:
        i = index.get(a.name)
        if i is None:
            i = index[a.name] = len(index)
        codes.append(2 * i + a.inverted)
    return codes


def _reduce(codes: list[int]) -> list[int]:
    """Delete identity codes and cancel adjacent inverse pairs, left to
    right on a stack.  An empty result is the identity."""
    stack = [-3]  # a bottom no code cancels, so the loop needs no empty test
    for c in codes:
        if c >= 0:
            if stack[-1] == c ^ 1:
                stack.pop()
            else:
                stack.append(c)
    del stack[0]
    return stack


def free_reduce(w: Word, identity: str = IDENTITY) -> Word:
    """The unique reduced form of `w`: no identity atoms, no adjacent
    cancelling pair.  A word that cancels away entirely comes back as
    the one-atom identity word."""
    codes = _encode(w, {check_name(identity, "identity"): -1})
    stack = _reduce(codes)
    if not stack:
        return Word((Atom(identity),))
    atom = dict(zip(codes, w.atoms))
    return Word(tuple(atom[c] for c in stack))


def invert(w: Word, identity: str = IDENTITY) -> Word:
    """Reverse the word and flip every mark; the identity stays unmarked."""
    check_name(identity, "identity")
    out = tuple(
        Atom(a.name, a.name != identity and not a.inverted)
        for a in reversed(check_is(w, Word, "w").atoms)
    )
    return Word(out)


def is_reduced(w: Word, identity: str = IDENTITY) -> bool:
    """True iff ``free_reduce(w) == w``: `w` is the unmarked one-atom
    identity word, or it holds no identity atom and no cancelling pair."""
    return free_reduce(w, identity) == w


def equal_dgss(u: Word, v: Word, identity: str = IDENTITY) -> bool:
    """True iff the words denote the same element; equivalently,
    free_reduce(u + invert(v)) is the identity word."""
    index = {check_name(identity, "identity"): -1}
    return _reduce(_encode(u, index, "u")) == _reduce(_encode(v, index, "v"))


# ---------------------------------------------------------------------------
# randomized re-derivation of the inverse and cancellation properties


@dataclass
class DeciderReport:
    results: dict[str, tuple[int, int]]  # property id -> (passed, total)

    @property
    def all_passed(self) -> bool:
        return all(p == t for p, t in self.results.values())

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self.results):
            p, t = self.results[name]
            out.append(f"{'PASS' if p == t else 'FAIL'} {name}  [{p}/{t}]")
        return out


# Sampled words are code lists over the names a, b, c, d (indices 0-3);
# an inserted identity is -2.  The samplers draw through getrandbits and
# random() alone, by the rule of CPython's Random._randbelow: a draw below
# n takes k = n.bit_length() bits and draws again while the value is >= n
# (so a choice among the four bases takes 3 bits).  They make the same
# calls, in the same order, as randint/choice over `Word`s of those names
# did, so a seed draws the same instances as it always has.  The rule was
# read in CPython 3.11's random.py; tests/test_freegroup.py checks it
# against randrange for every bound the samplers use.
_BASES = (0, 2, 4, 6)
_E = -2
_MAX_LEN = 6  # a sampled word holds 1.._MAX_LEN atoms


def _random_word(rng: random.Random) -> list[int]:
    bits, random = rng.getrandbits, rng.random
    n = bits(3)  # randint(1, _MAX_LEN) - 1, in _MAX_LEN.bit_length() bits
    while n >= _MAX_LEN:
        n = bits(3)
    out = []
    for _ in range(n + 1):
        r = bits(3)  # choice(_BASES)
        while r >= 4:
            r = bits(3)
        out.append(_BASES[r] + (random() < 0.5))
    return out


def _fatten(rng: random.Random, w: list[int]) -> list[int]:
    """An unreduced word equal to `w`: sprinkle identity atoms and
    cancelling pairs at random positions."""
    bits, random = rng.getrandbits, rng.random
    atoms = list(w)
    m = bits(3)  # randint(0, 3)
    while m >= 4:
        m = bits(3)
    for _ in range(m):
        n = len(atoms) + 1  # randint(0, len(atoms))
        k = n.bit_length()
        pos = bits(k)
        while pos >= n:
            pos = bits(k)
        if random() < 0.4:
            atoms.insert(pos, _E)
        else:
            r = bits(3)  # choice(_BASES)
            while r >= 4:
                r = bits(3)
            c = _BASES[r] + (random() < 0.5)
            atoms[pos:pos] = (c, c ^ 1)
    return atoms


def _invert(w: list[int]) -> list[int]:
    return [c ^ 1 for c in reversed(w)]


def verify_dgss_lemmas(samples: int, seed: int) -> DeciderReport:
    """Re-derive the inverse and cancellation properties on random words.

    lm2a  left-inverting equal words gives equal (reduced) inverses
    lm2b  same for the right-inverse reading
    lm2c  two left-solutions of z ? = identity coincide
    lm2d  two right-solutions of ? z = identity coincide
    pr2e  left multiplication cancels: z x = z y iff x = y
    pr2f  right multiplication cancels: x z = y z iff x = y

    Every property is checked `samples` times with its own derived
    instances; the report carries pass counts per property.  A word
    equals the identity when it reduces to the empty code list.
    `seed` is a non-negative int, and a seed always draws the same
    instances.  Raises ValueError for a non-int count or seed, fewer than
    one sample or a negative seed.
    """
    check_count("samples", samples)
    rng = random.Random(check_count("seed", seed, 0))
    reduce = _reduce
    lm2a = lm2b = lm2c = lm2d = pr2e = pr2f = 0

    for _ in range(samples):
        x = _random_word(rng)
        y = _fatten(rng, x)  # equal to x by construction
        s, t = _invert(x), _invert(y)
        same = reduce(s) == reduce(t)
        lm2a += same and not reduce(s + x) and not reduce(t + y)
        lm2b += same and not reduce(x + s) and not reduce(y + t)

        z = _random_word(rng)
        zi = _invert(z)
        u = _fatten(rng, zi)  # z u = identity
        v = _fatten(rng, zi)  # z v = identity
        lm2c += not reduce(z + u) and not reduce(z + v) and reduce(u) == reduce(v)
        u = _fatten(rng, zi)  # u z = identity
        v = _fatten(rng, zi)
        lm2d += not reduce(u + z) and not reduce(v + z) and reduce(u) == reduce(v)

        # cancellation, both as implication and as its converse: the pair
        # (x, y) is equal half the time and independent otherwise
        z = _random_word(rng)
        x = _random_word(rng)
        y = _fatten(rng, x) if rng.random() < 0.5 else _random_word(rng)
        same = reduce(x) == reduce(y)
        pr2e += (reduce(z + x) == reduce(z + y)) == same
        pr2f += (reduce(x + z) == reduce(y + z)) == same

    passed = {"lm2a": lm2a, "lm2b": lm2b, "lm2c": lm2c, "lm2d": lm2d,
              "pr2e": pr2e, "pr2f": pr2f}
    return DeciderReport({k: (p, samples) for k, p in passed.items()})
