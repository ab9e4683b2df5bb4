"""Relational sets: a quality atom q is the set of x with q x = x,
which `members(q, m)` lists in a finite model.  Membership, subset and
the function criterion are evaluated symbolically or inside a model.

Atoms map into a model carrier through the designation table or, for
digit names like `0`/`2`, directly as indices; `element_of` reads every
element argument, an atom or an in-range int index alike.  Symbolic
membership is exact under dgss (free reduction); under the other
systems a bounded search that finds nothing is not a refutation, so it
answers UNDECIDED.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine, freegroup, systems
from .engine import SearchConfig
from .models import Model
from .systems import SYSTEMS, Proof
from .terms import Atom, Word, check_is


class _Undecided:
    def __repr__(self) -> str:
        return "Undecided"


UNDECIDED = _Undecided()


def element_of(x: Atom | int, m: Model) -> int:
    """Carrier element `x` denotes: an int index in range, an atom's
    designated name, or a digit name used as an index, written as
    `str(k)` writes it (so 01 names nothing)."""
    check_is(m, Model, "m")
    if type(x) is int:  # bool is an int subclass, but not an index
        if 0 <= x < m.size:
            return x
        raise LookupError(f"element {x} outside carrier 0..{m.size - 1}")
    if not isinstance(x, Atom):
        raise LookupError(f"{x!r} is neither an atom nor a carrier index")
    if x.inverted:
        raise LookupError(f"unmapped atom {x}: inverse marks have no model reading here")
    if x.name in m.designated:
        return m.designated[x.name]
    if x.name.isdigit():
        k = int(x.name)
        if str(k) == x.name and k < m.size:
            return k
    raise LookupError(f"unmapped atom {x} in model of size {m.size}")


def members(q: Atom | int, m: Model) -> tuple[int, ...]:
    """The elements c with q c = c: the set the quality q names in m."""
    qe = element_of(q, m)
    return tuple(c for c in range(m.size) if m.apply(qe, c) == c)


def eval_word(w: Word, m: Model) -> int:
    val = element_of(check_is(w, Word, "w")[0], m)
    for a in w[1:]:
        val = m.apply(val, element_of(a, m))
    return val


def is_member(q: Atom | int, x: Word, universe="symbolic", system: str = "dgss",
              config: SearchConfig | None = None):
    """Whether x satisfies q x = x: a definite bool from a model's table
    or, symbolically under dgss, from free reduction; otherwise a bounded
    proof search gives True or UNDECIDED (absence of a proof refutes nothing)."""
    check_is(x, Word, "x")
    check_is(q, (Atom, int), "q")  # the same refusal in either universe
    system = systems.make_system(system)
    if config is not None:
        check_is(config, SearchConfig, "config")
    if isinstance(universe, Model):
        qe = element_of(q, universe)
        xe = eval_word(x, universe)
        return universe.apply(qe, xe) == xe
    if universe != "symbolic":
        raise ValueError(f"universe must be a Model or 'symbolic', got {universe!r}")
    if not isinstance(q, Atom) or q.inverted:
        raise ValueError(f"a set quality must be a plain atom, got {q!r}")
    goal = (Word((q,) + x.atoms), x)
    if system is SYSTEMS["dgss"]:
        return freegroup.equal_dgss(*goal)
    res = engine.prove_equal(goal, system, (), config)
    return True if isinstance(res, Proof) else UNDECIDED


def is_subset(b: Atom | int, a: Atom | int, m: Model) -> bool:
    """Whether every element fixed by b is fixed by a."""
    ae = element_of(a, m)
    return all(m.apply(ae, c) == c for c in members(b, m))


def subset_report(b: Atom | int, a: Atom | int, m: Model) -> list[str]:
    """is_subset plus the three pointwise spot checks at x = a, x = b
    and (when they coincide) x = a = b."""
    be, ae = element_of(b, m), element_of(a, m)
    lines = [f"subset {be} <= {ae}: {'holds' if is_subset(be, ae, m) else 'fails'}"]

    def case(label: str, x: int):
        in_b = m.apply(be, x) == x
        in_a = m.apply(ae, x) == x
        ok = (not in_b) or in_a
        lines.append(f"case {label}: {be}*{x}={m.apply(be, x)} {ae}*{x}={m.apply(ae, x)}"
                     f" -> {'ok' if ok else 'violated'}")

    case("x=a", ae)
    case("x=b", be)
    if ae == be:
        case("x=a=b", ae)
    return lines


def is_function_rel(f: Atom | int, m: Model, a: Atom | int | None = None,
                    b: Atom | int | None = None) -> bool:
    """Cancellation criterion: f x y = f x z forces y = z, with x
    ranging over the a-set and y, z over the b-set (whole carrier when
    no quality is given).  As the b-set's elements are distinct, that is
    injectivity: for each x, the values f x y, y in the b-set, are as
    many as the b-set's elements."""
    fe = element_of(f, m)
    dom = range(m.size) if a is None else members(a, m)
    cod = range(m.size) if b is None else members(b, m)
    return all(len({m.apply(m.apply(fe, x), y) for y in cod}) == len(cod) for x in dom)


@dataclass(frozen=True)
class RussellReport:
    self_membered: tuple[int, ...]
    not_self_membered: tuple[int, ...]

    def lines(self) -> list[str]:
        out = []
        for c in sorted(self.self_membered + self.not_self_membered):
            tag = "self-membered" if c in self.self_membered else "not self-membered"
            out.append(f"{c}: {tag}")
        out.append(f"self-membered count: {len(self.self_membered)}")
        return out


def russell_report(m: Model) -> RussellReport:
    """Split the carrier by x x = x, the q = x reading of membership.
    In any table with group structure only the identity qualifies, the
    concrete face of 'there exist objects which are not their own
    elements'."""
    check_is(m, Model, "m")
    yes = tuple(c for c in range(m.size) if m.apply(c, c) == c)
    no = tuple(c for c in range(m.size) if c not in yes)
    return RussellReport(yes, no)
