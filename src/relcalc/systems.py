"""The rule systems, and the records a proof is made of.

Each built-in system is described once, in `SYSTEMS`, under the id (its
name lowercased) that the CLI and proof scripts use and `make_system`
alone resolves.  Every rule applies in both directions at any position.
The search and checker (`engine`) and the model code (`models`) read
this module, which imports `terms` alone, so a model never loads the
search.  Everything here is immutable and may be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import Atom, Word, check_is

GROUND = "ground"
IDENTITY_ELIM = "identity-elim"
INVERSE_CANCEL = "inverse-cancel"

LR = "lr"
RL = "rl"


@dataclass(frozen=True)
class Rule:
    """One rewrite rule.

    Ground rules carry both sides.  identity-elim carries the identity
    atom plus which neighbour legitimises a deletion: `needs="right"`
    deletes an occurrence that has something after it (the identity
    acting from the left), `needs="left"` one that has something before
    it.  inverse-cancel carries nothing; it deletes any adjacent
    mutually-inverse pair.
    """

    id: str
    kind: str = GROUND
    lhs: Word | None = None
    rhs: Word | None = None
    atom: Atom | None = None
    needs: str | None = None

    def __post_init__(self):
        if type(self.id) is not str:
            raise ValueError(f"rule id must be a str, got {self.id!r}")
        if not self.id:
            raise ValueError("rule id must be non-empty")
        if self.kind == GROUND:
            if self.lhs is None or self.rhs is None:
                raise ValueError("ground rule needs both sides")
            check_is(self.lhs, Word, "lhs")
            check_is(self.rhs, Word, "rhs")
            unread = ("atom", "needs")
        elif self.kind == IDENTITY_ELIM:
            if not isinstance(self.atom, Atom) or self.needs not in ("left", "right"):
                raise ValueError("identity-elim rule needs its atom and a side")
            # the search would delete only the marked atom, while the model
            # reading (identity_name) takes the atom's name for the identity
            if self.atom.inverted:
                raise ValueError(f"identity-elim rule needs an unmarked atom, got {self.atom}")
            unread = ("lhs", "rhs")
        elif self.kind == INVERSE_CANCEL:
            unread = ("lhs", "rhs", "atom", "needs")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        # a field the kind never reads would only make equal rules compare unequal
        for name in unread:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind} rule takes no {name}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class RuleSystem:
    """Rules, the atoms a model designates (pairwise distinct), and the one
    model obligation no rule states: every y has some z with z*y = e."""

    name: str
    rules: tuple[Rule, ...]
    roles: tuple[str, ...]
    left_inverses: bool = False

    def __post_init__(self):
        check_is(self.name, str, "system name")
        if type(self.rules) is not tuple or not all(isinstance(r, Rule) for r in self.rules):
            raise ValueError(f"rules must be a tuple of Rules, got {self.rules!r}")
        # Atom refuses a role that is not an atom name
        if type(self.roles) is not tuple or len(set(map(Atom, self.roles))) != len(self.roles):
            raise ValueError(f"roles must be a tuple of distinct atom names, got {self.roles!r}")
        check_is(self.left_inverses, bool, "left_inverses")
        # the search sorts rules by id and the checker keys them by id, so
        # an id may name one rule only, and none of the hypotheses' hyp<N>
        ids = set()
        for r in self.rules:
            if r.id in ids:
                raise ValueError(f"rule id {r.id!r} is repeated in {self.name}")
            if r.id.startswith("hyp") and r.id[3:].isdigit():
                raise ValueError(f"rule id {r.id!r} in {self.name} is a hypothesis id")
            ids.add(r.id)

    def rule_map(self) -> dict[str, Rule]:
        return {r.id: r for r in self.rules}

    @property
    def allows_inverses(self) -> bool:
        return any(r.kind == INVERSE_CANCEL for r in self.rules)

    @property
    def identity_name(self) -> str | None:
        for r in self.rules:
            if r.kind == IDENTITY_ELIM:
                return r.atom.name
        return None


def system_id(name: str) -> str | None:
    """The SYSTEMS (or suite) key `name` spells: ids ignore case and
    surrounding blanks, and a name that is not a str spells none."""
    return name.strip().lower() if isinstance(name, str) else None


_X, _Y, _Z, _E = Atom("x"), Atom("y"), Atom("z"), Atom("e")

AX6 = Rule("ax6", GROUND, lhs=Word((_X, _Y)), rhs=Word((_Y,)))
AX7 = Rule("ax7", GROUND, lhs=Word((_Z, _Y)), rhs=Word((_X,)))
LZXZ = Rule("Lzxz", GROUND, lhs=Word((_Z, _X)), rhs=Word((_Z,)))
AX7A = Rule("ax7a", GROUND, lhs=Word((_Y, _Z)), rhs=Word((_Z, _Y)))
AX8 = Rule("ax8", IDENTITY_ELIM, atom=_E, needs="right")
LRXR = Rule("Lrxr", IDENTITY_ELIM, atom=_E, needs="left")
AX9A = Rule("ax9a", INVERSE_CANCEL)

SYSTEMS = {system_id(s.name): s for s in (
    RuleSystem("DIT", (AX6, AX7), ("x", "y", "z")),
    RuleSystem("DIT+", (AX6, AX7, LZXZ), ("x", "y", "z")),
    RuleSystem("DITS", (AX6, AX7, LZXZ, AX7A), ("x", "y", "z")),
    RuleSystem("DGS", (AX8,), ("e",), left_inverses=True),
    RuleSystem("DGS+", (AX8, LRXR), ("e",), left_inverses=True),
    RuleSystem("DGSS", (AX8, LRXR, AX9A), ("e",), left_inverses=True),
)}
SYSTEM_NAMES = tuple(s.name for s in SYSTEMS.values())


def make_system(system: RuleSystem | str) -> RuleSystem:
    """`system` itself if it is a RuleSystem, else the system in SYSTEMS
    with this (case-insensitive) id."""
    if isinstance(system, RuleSystem):
        return system
    found = SYSTEMS.get(system_id(system))
    if found is None:
        raise ValueError(f"unknown system {system!r} (expected one of {', '.join(SYSTEM_NAMES)})")
    return found


def hypothesis_rules(hypotheses) -> list[Rule]:
    """Hypothesis equations as ground rules hyp1..hypN, ids stable under
    appending more hypotheses later."""
    return [Rule(f"hyp{i}", GROUND, lhs=l, rhs=r)
            for i, (l, r) in enumerate(hypotheses, 1)]


@dataclass(frozen=True)
class ProofStep:
    rule: str
    dir: str
    pos: int
    result: Word


@dataclass(frozen=True)
class Proof:
    system: RuleSystem
    hypotheses: tuple[tuple[Word, Word], ...]
    goal: tuple[Word, Word]
    steps: tuple[ProofStep, ...]
    nodes_expanded: int = field(default=0, compare=False)
