"""Rewrite systems over words, equational proof search, and proof checking.

A rule system is a small set of rewrite rules over flat words.  The
built-in systems, described once in the table `SYSTEMS`:

    DIT    ax6: x y -> y    ax7: z y -> x      (x, y, z pairwise distinct)
    DIT+   DIT plus the admitted return rule   Lzxz: z x -> z
    DITS   DIT+ plus the symmetry rule         ax7a: y z <-> z y
    DGS    ax8: the identity atom e may be dropped when something follows it
    DGS+   DGS plus Lrxr: e may also be dropped when something precedes it
    DGSS   DGS+ plus ax9a: an adjacent pair a a' or a' a cancels

Every rule applies in both directions at any position, so provable
equality is exactly the congruence the rules generate on words.  A
proof is a chain of steps; each step cites a rule id, a direction
("lr" or "rl"), a 0-based position, and the full resulting word.
`apply_rule` is one body for both directions.  The checker replays
every step through one forward application at the cited position: an
lr step must rewrite the previous word to its recorded result, and an
rl step its recorded result back to the previous word.  That
convention is what keeps the one rl case whose output is not a
function of the position (inverse-pair insertion) checkable.

Search is bidirectional breadth-first: one frontier grows from each
side of the goal and a proof is stitched together the moment the
frontiers share a word.  A cheap normalisation pass (rules oriented to
shrink words, ties broken toward the lexicographically smaller printed
form) runs first and settles most ground instances without touching
the frontiers.

The search and normalisation run on a compiled core (`_Core`): atoms
interned to small ints, words as int tuples, each rule precompiled to
slice patterns, so finding a redex raises nothing and builds no Word.
Words and ProofSteps are built only for the steps a proof keeps.
`neighbors` and `normalize` are thin wrappers over the same core.  The
checker shares no matching code with it: it replays Words through
`apply_rule`.  The core is rebuilt for every call and cached nowhere.

Everything here is immutable; callers may share systems, proofs and
configs across threads freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .terms import Atom, Word, parse_equation, parse_word, print_word

GROUND = "ground"
IDENTITY_ELIM = "identity-elim"
INVERSE_CANCEL = "inverse-cancel"

LR = "lr"
RL = "rl"

class RewriteError(Exception):
    pass


class NoMatch(RewriteError):
    """The rule pattern is absent at the cited position."""


class EmptyResult(RewriteError):
    """The deletion would leave no atoms at all."""


class TooLong(RewriteError):
    """The result would exceed the configured word length bound."""


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
        if not self.id:
            raise ValueError("rule id must be non-empty")
        if self.kind == GROUND:
            if self.lhs is None or self.rhs is None:
                raise ValueError("ground rule needs both sides")
        elif self.kind == IDENTITY_ELIM:
            if self.atom is None or self.needs not in ("left", "right"):
                raise ValueError("identity-elim rule needs its atom and a side")
        elif self.kind != INVERSE_CANCEL:
            raise ValueError(f"unknown rule kind {self.kind!r}")


@dataclass(frozen=True)
class RuleSystem:
    """Rules, the atoms a model designates (pairwise distinct), and the one
    model obligation no rule states: every y has some z with z*y = e."""

    name: str
    rules: tuple[Rule, ...]
    roles: tuple[str, ...]
    left_inverses: bool = False

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


_X, _Y, _Z, _E = Atom("x"), Atom("y"), Atom("z"), Atom("e")

AX6 = Rule("ax6", GROUND, lhs=Word((_X, _Y)), rhs=Word((_Y,)))
AX7 = Rule("ax7", GROUND, lhs=Word((_Z, _Y)), rhs=Word((_X,)))
LZXZ = Rule("Lzxz", GROUND, lhs=Word((_Z, _X)), rhs=Word((_Z,)))
AX7A = Rule("ax7a", GROUND, lhs=Word((_Y, _Z)), rhs=Word((_Z, _Y)))
AX8 = Rule("ax8", IDENTITY_ELIM, atom=_E, needs="right")
LRXR = Rule("Lrxr", IDENTITY_ELIM, atom=_E, needs="left")
AX9A = Rule("ax9a", INVERSE_CANCEL)

SYSTEMS = {  # by the id the CLI and proof scripts use
    "dit": RuleSystem("DIT", (AX6, AX7), ("x", "y", "z")),
    "dit+": RuleSystem("DIT+", (AX6, AX7, LZXZ), ("x", "y", "z")),
    "dits": RuleSystem("DITS", (AX6, AX7, LZXZ, AX7A), ("x", "y", "z")),
    "dgs": RuleSystem("DGS", (AX8,), ("e",), left_inverses=True),
    "dgs+": RuleSystem("DGS+", (AX8, LRXR), ("e",), left_inverses=True),
    "dgss": RuleSystem("DGSS", (AX8, LRXR, AX9A), ("e",), left_inverses=True),
}
SYSTEM_NAMES = tuple(s.name for s in SYSTEMS.values())


def system_id(name: str) -> str:
    """The SYSTEMS (or suite) key `name` spells: ids ignore case and
    surrounding blanks."""
    return name.strip().lower()


def make_system(name: str) -> RuleSystem:
    """The system in SYSTEMS with this (case-insensitive) id."""
    system = SYSTEMS.get(system_id(name))
    if system is None:
        raise ValueError(f"unknown system {name!r} (expected one of {', '.join(SYSTEM_NAMES)})")
    return system


def _as_system(system: RuleSystem | str) -> RuleSystem:
    return make_system(system) if isinstance(system, str) else system


# ---------------------------------------------------------------------------
# single-step application


def apply_rule(w: Word, rule: Rule, pos: int, direction: str = LR,
               max_len: int | None = None) -> Word:
    """Apply `rule` at `pos` in the given direction.

    Raises NoMatch when the pattern is absent (including the rl case of
    inverse-cancel, whose inserted pair a position cannot determine;
    enumerate those with neighbors()), EmptyResult when a deletion
    would erase the whole word, and TooLong against `max_len`.
    """
    if direction not in (LR, RL):
        raise ValueError(f"direction must be {LR!r} or {RL!r}, got {direction!r}")
    atoms, n = w.atoms, len(w)
    if rule.kind == GROUND:
        pat, rep = (rule.lhs, rule.rhs) if direction == LR else (rule.rhs, rule.lhs)
        k = len(pat)
        if pos < 0 or pos + k > n or atoms[pos:pos + k] != pat.atoms:
            raise NoMatch(f"{rule.id}: no {direction} match at {pos}")
        out = atoms[:pos] + rep.atoms + atoms[pos + k:]
    elif rule.kind == IDENTITY_ELIM:
        if direction == LR:
            if pos < 0 or pos >= n or atoms[pos] != rule.atom:
                raise NoMatch(f"{rule.id}: no {rule.atom} at {pos}")
            if rule.needs == "right" and pos == n - 1:
                raise NoMatch(f"{rule.id}: occurrence at {pos} has no right neighbour")
            if rule.needs == "left" and pos == 0:
                raise NoMatch(f"{rule.id}: occurrence at {pos} has no left neighbour")
            out = atoms[:pos] + atoms[pos + 1:]
        else:
            # insertion; legal iff deleting the inserted atom again would be
            if pos < 0 or pos > n:
                raise NoMatch(f"{rule.id}: cannot insert at {pos}")
            if rule.needs == "right" and pos == n:
                raise NoMatch(f"{rule.id}: inserted atom would have no right neighbour")
            if rule.needs == "left" and pos == 0:
                raise NoMatch(f"{rule.id}: inserted atom would have no left neighbour")
            out = atoms[:pos] + (rule.atom,) + atoms[pos:]
    elif direction == LR:  # inverse-cancel
        if pos < 0 or pos + 2 > n:
            raise NoMatch(f"{rule.id}: no pair at {pos}")
        a, b = atoms[pos], atoms[pos + 1]
        if a.name != b.name or a.inverted == b.inverted:
            raise NoMatch(f"{rule.id}: {a} {b} is not a cancelling pair")
        if n == 2:
            raise EmptyResult("cancelling the whole word would leave nothing")
        out = atoms[:pos] + atoms[pos + 2:]
    else:
        raise NoMatch(f"{rule.id}: the inserted pair is not determined by a position")
    if max_len is not None and len(out) > max_len:
        raise TooLong(f"result has {len(out)} atoms, bound is {max_len}")
    return Word(out)


# ---------------------------------------------------------------------------
# one-step neighbourhoods


@dataclass(frozen=True)
class SearchConfig:
    """Search bounds; `neighbors` takes its default word length from here."""
    max_word_len: int = 16
    max_nodes: int = 1_000_000
    max_depth: int = 30

    def __post_init__(self):
        if min(self.max_word_len, self.max_nodes, self.max_depth) < 1:
            raise ValueError("search bounds must be at least 1")


@dataclass(frozen=True)
class ProofStep:
    rule: str
    dir: str
    pos: int
    result: Word


@dataclass(frozen=True)
class Proof:
    system: str
    hypotheses: tuple[tuple[Word, Word], ...]
    goal: tuple[Word, Word]
    steps: tuple[ProofStep, ...]
    nodes_expanded: int = field(default=0, compare=False)


def hypothesis_rules(hypotheses) -> list[Rule]:
    """Hypothesis equations as ground rules hyp1..hypN, ids stable under
    appending more hypotheses later."""
    return [Rule(f"hyp{i}", GROUND, lhs=l, rhs=r)
            for i, (l, r) in enumerate(hypotheses, 1)]


def _sorted_rules(system: RuleSystem, hypotheses) -> list[Rule]:
    return sorted(list(system.rules) + hypothesis_rules(hypotheses), key=lambda r: r.id)


def neighbors(w: Word, system: RuleSystem | str, hypotheses=(),
              max_len: int = SearchConfig.max_word_len) -> list[tuple[Word, ProofStep]]:
    """All one-step rewrites of `w`: system rules and hypothesis
    equations, both directions, every position.  Order is position-major
    and rule-id-minor, with lr before rl; inverse-pair insertions are
    ordered by atom name, unmarked-first pair first."""
    system = _as_system(system)
    hypotheses = tuple(hypotheses)
    core = _Core(system, hypotheses, (w,))
    out = []
    for t, rid, d, pos in core.expand(core.encode(w), max_len):
        w2 = core.decode(t)
        out.append((w2, ProofStep(rid, d, pos, w2)))
    return out


# ---------------------------------------------------------------------------
# normalisation (the fast path, and the confluence probe for DIT+)


def _shortlex_key(w: Word):
    return (len(w), print_word(w))


def _reducers(rules) -> list[tuple[Rule, str]]:
    out = []
    for r in rules:
        if r.kind != GROUND:
            out.append((r, LR))
            continue
        kl, kr = _shortlex_key(r.lhs), _shortlex_key(r.rhs)
        if kl > kr:
            out.append((r, LR))
        elif kr > kl:
            out.append((r, RL))
        # identical sides reduce nothing; skip
    return out


def normalize(w: Word, system: RuleSystem | str, hypotheses=()) -> tuple[Word, tuple[ProofStep, ...]]:
    """Rewrite `w` with every rule oriented to shrink (shorter word, or
    same length and smaller printed form) until nothing applies, taking
    the leftmost redex and the smallest rule id each time.  Terminates
    because each step strictly shrinks the shortlex key; unique normal
    forms are only guaranteed where the oriented rules are confluent
    (DIT+ is, see the tests)."""
    system = _as_system(system)
    hypotheses = tuple(hypotheses)
    core = _Core(system, hypotheses, (w,))
    steps = core.steps(core.normalize(core.encode(w))[1])
    return (steps[-1].result if steps else w), steps


def _invert_chain(start: Word, steps) -> list[ProofStep]:
    """Steps running the chain backwards: each step keeps its rule and
    position, flips direction, and records the predecessor word."""
    words = [start]
    for s in steps:
        words.append(s.result)
    out = []
    for i in range(len(steps) - 1, -1, -1):
        s = steps[i]
        out.append(ProofStep(s.rule, RL if s.dir == LR else LR, s.pos, words[i]))
    return out


def reverse_proof(p: Proof) -> Proof:
    """The same derivation read right to left; proves the swapped goal."""
    steps = _invert_chain(p.goal[0], p.steps)
    return Proof(p.system, p.hypotheses, (p.goal[1], p.goal[0]), tuple(steps),
                 nodes_expanded=p.nodes_expanded)


# ---------------------------------------------------------------------------
# the search core: the same rules, compiled over integer words

# matcher opcodes
_SPAN, _DROP, _INSERT, _CANCEL, _PAIRS = range(5)
_ANYWHERE = (_INSERT, _CANCEL, _PAIRS)  # may fire whatever atom is at the position


class _Core:
    """The rules of one (system, hypotheses) problem compiled for search.

    Atoms become the ints `2 * name_index + inverted` over the sorted
    names the problem can ever produce (its words, the hypotheses, the
    rule atoms), so int order is name order and `a ^ 1` is the inverse
    of `a`; words become tuples of them.  Each rule direction becomes
    one matcher `(op, rule id, dir, pattern, arg)`, filed under the atom
    its pattern starts with, so a position only tries matchers that can
    fire there.  Redexes are found by slice comparison, with no
    apply_rule call and no exception.  Words and ProofSteps are built
    only by `decode` and `steps`, for the words a caller keeps.
    """

    def __init__(self, system: RuleSystem, hypotheses, words):
        hyp_names = {a.name for h in hypotheses for w in h for a in w}
        names = {a.name for w in words for a in w} | hyp_names
        for r in system.rules:
            if r.kind == GROUND:
                names.update(a.name for a in r.lhs + r.rhs)
            elif r.kind == IDENTITY_ELIM:
                names.add(r.atom.name)
        order = sorted(names)
        self._index = {name: i for i, name in enumerate(order)}
        self._atoms = [Atom(name, inv) for name in order for inv in (False, True)]
        # pair insertion draws on the word's and the hypotheses' names,
        # never the identity's: inserting that is identity-elim's job
        self._pair_names = frozenset(self._index[n] for n in hyp_names)
        self._no_pair = self._index.get(system.identity_name)
        rules = _sorted_rules(system, hypotheses)
        self._moves = self._table([self._matcher(r, d) for r in rules for d in (LR, RL)])
        self._reducers = self._table([self._matcher(r, d) for r, d in _reducers(rules)])

    def encode(self, w: Word) -> tuple[int, ...]:
        index = self._index
        return tuple(2 * index[a.name] + a.inverted for a in w)

    def decode(self, t: tuple[int, ...]) -> Word:
        atoms = self._atoms
        return Word(tuple([atoms[c] for c in t]))

    def steps(self, chain) -> tuple[ProofStep, ...]:
        return tuple(ProofStep(rid, d, pos, self.decode(t)) for t, rid, d, pos in chain)

    def _matcher(self, r: Rule, d: str) -> tuple:
        if r.kind == GROUND:
            pat, rep = (r.lhs, r.rhs) if d == LR else (r.rhs, r.lhs)
            return (_SPAN, r.id, d, self.encode(pat), self.encode(rep))
        if r.kind == IDENTITY_ELIM:
            return (_DROP if d == LR else _INSERT, r.id, d,
                    self.encode(Word((r.atom,))), r.needs == "left")
        return (_CANCEL if d == LR else _PAIRS, r.id, d, None, None)

    def _table(self, matchers) -> list[tuple]:
        """For each atom code, the matchers to try at a position holding
        it, in neighbour order; the extra last entry serves the position
        just past the end, where only insertions fire."""
        table = [tuple(m for m in matchers if m[0] in _ANYWHERE or m[3][0] == c)
                 for c in range(len(self._atoms))]
        table.append(tuple(m for m in matchers if m[0] in (_INSERT, _PAIRS)))
        return table

    def _pairs(self, w) -> list[tuple[int, int]]:
        names = sorted(({c >> 1 for c in w} | self._pair_names) - {self._no_pair})
        return [pair for i in names for pair in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i))]

    def _rewrites(self, w, table, max_len: int):
        """Yield (result, rule id, dir, pos) for every matcher of `table`
        that fires on `w` with a result of at most `max_len` atoms, in
        neighbors() order; the same side conditions as apply_rule."""
        n = len(w)
        pairs = None
        for pos in range(n + 1):
            for op, rid, d, pat, arg in table[w[pos] if pos < n else -1]:
                if op == _SPAN:
                    k = len(pat)
                    if w[pos:pos + k] == pat and n - k + len(arg) <= max_len:
                        yield w[:pos] + arg + w[pos + k:], rid, d, pos
                elif op == _DROP:  # arg: the neighbour needed is on the left
                    if (pos > 0 if arg else pos < n - 1) and n - 1 <= max_len:
                        yield w[:pos] + w[pos + 1:], rid, d, pos
                elif op == _INSERT:
                    if (pos > 0 if arg else pos < n) and n < max_len:
                        yield w[:pos] + pat + w[pos:], rid, d, pos
                elif op == _CANCEL:
                    if pos + 1 < n and w[pos + 1] == w[pos] ^ 1 and 2 < n and n - 2 <= max_len:
                        yield w[:pos] + w[pos + 2:], rid, d, pos
                elif n + 2 <= max_len:  # _PAIRS
                    if pairs is None:
                        pairs = self._pairs(w)
                    for pair in pairs:
                        yield w[:pos] + pair + w[pos:], rid, d, pos

    def expand(self, w, max_len: int):
        """The one-step rewrites of `w`, as neighbors() lists them."""
        return self._rewrites(w, self._moves, max_len)

    def normalize(self, w):
        """normalize() on an encoded word: the normal form and the chain
        of (result, rule id, dir, pos) that reaches it."""
        chain = []
        while True:
            # reducers never lengthen a word, so len(w) bounds nothing
            hit = next(self._rewrites(w, self._reducers, len(w)), None)
            if hit is None:
                return w, chain
            chain.append(hit)
            w = hit[0]


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class NotFound:
    """No proof within bounds.  bound_hit is "max_nodes" or "max_depth"
    when a budget stopped the search, None when both reachable sets were
    exhausted (within the word length bound) without meeting."""

    nodes_expanded: int
    bound_hit: str | None


class _Budget(Exception):
    pass


def _validate_problem(system: RuleSystem, words, max_len: int | None):
    for w in words:
        if not system.allows_inverses and any(a.inverted for a in w):
            raise ValueError(
                f"inverse marks in {print_word(w)!r} need a system with the "
                f"inverse-cancel rule, not {system.name}")
        if max_len is not None and len(w) > max_len:
            raise ValueError(f"word {print_word(w)!r} is longer than max_word_len={max_len}")


def prove_equal(goal: tuple[Word, Word], system: RuleSystem | str,
                hypotheses=(), config: SearchConfig | None = None) -> Proof | NotFound:
    """Search for a proof that the two goal words are equal.

    Hypotheses are extra ground equations, usable in both directions.
    Returns a Proof that check_proof accepts, or NotFound with the node
    count and which bound (if any) stopped the search.
    """
    system = _as_system(system)
    config = config or SearchConfig()
    hypotheses = tuple(hypotheses)
    lhs, rhs = goal
    _validate_problem(system, [lhs, rhs] + [w for h in hypotheses for w in h],
                      config.max_word_len)

    if lhs == rhs:
        return Proof(system.name, hypotheses, goal, ())

    core = _Core(system, hypotheses, goal)
    lt, rt = core.encode(lhs), core.encode(rhs)
    nl, ls = core.normalize(lt)
    nr, rs = core.normalize(rt)
    if nl == nr:
        return Proof(system.name, hypotheses, goal, _join(core, ls, rs, rhs))

    # bidirectional BFS over encoded words; seen maps word -> None for the
    # root, else (predecessor, (word, rule id, dir, pos) of the step into it)
    fwd: dict[tuple, tuple | None] = {lt: None}
    bwd: dict[tuple, tuple | None] = {rt: None}
    f_frontier, b_frontier = [lt], [rt]
    f_depth = b_depth = 0
    nodes = 0
    max_len = config.max_word_len

    def grow(frontier, seen, other):
        nonlocal nodes
        fresh = []
        for w in frontier:
            nodes += 1
            if nodes > config.max_nodes:
                raise _Budget
            for hit in core.expand(w, max_len):
                w2 = hit[0]
                if w2 in seen:
                    continue
                seen[w2] = (w, hit)
                fresh.append(w2)
                if w2 in other:
                    return fresh, w2
        return fresh, None

    # For systems without inverse-cancel the one-step relation is symmetric,
    # so the bounded rewrite graph is undirected and one side exhausting its
    # connected component settles disjointness.  Pair insertion breaks that
    # symmetry (it only draws letters from the current word), so under DGSS
    # the other side must still run to completion.
    try:
        while True:
            f_can = bool(f_frontier) and f_depth < config.max_depth
            b_can = bool(b_frontier) and b_depth < config.max_depth
            if not f_can and not b_can:
                if not f_frontier and not b_frontier:
                    return NotFound(nodes, None)
                return NotFound(nodes, "max_depth")
            if f_can and (not b_can or len(f_frontier) <= len(b_frontier)):
                f_frontier, meet = grow(f_frontier, fwd, bwd)
                f_depth += 1
            else:
                b_frontier, meet = grow(b_frontier, bwd, fwd)
                b_depth += 1
            if meet is not None:
                steps = _join(core, _walk(fwd, meet), _walk(bwd, meet), rhs)
                return Proof(system.name, hypotheses, goal, steps, nodes_expanded=nodes)
            if not system.allows_inverses and (not f_frontier or not b_frontier):
                return NotFound(nodes, None)
    except _Budget:
        return NotFound(nodes, "max_nodes")


def _walk(seen, w) -> list[tuple]:
    # the steps (word, rule id, dir, pos) from the root out to w, in root-to-w order
    hits = []
    while seen[w] is not None:
        w, hit = seen[w]
        hits.append(hit)
    return hits[::-1]


def _join(core: _Core, fwd_chain, bwd_chain, rhs: Word) -> tuple[ProofStep, ...]:
    # out along fwd_chain from the left side, then back along bwd_chain to rhs
    return core.steps(fwd_chain) + tuple(_invert_chain(rhs, core.steps(bwd_chain)))


# ---------------------------------------------------------------------------
# checking


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failed_step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_proof(p: Proof) -> CheckResult:
    """Replay a proof step by step.

    The empty proof certifies only syntactically identical sides.  An
    lr step must recompute exactly; an rl step must forward-apply on its
    recorded result back to the previous word.  The final word must be
    the goal's right-hand side.
    """
    try:
        system = make_system(p.system)
        _validate_problem(system, [p.goal[0], p.goal[1]]
                          + [w for h in p.hypotheses for w in h], None)
    except ValueError as e:
        return CheckResult(False, None, str(e))
    rules = system.rule_map() | {r.id: r for r in hypothesis_rules(p.hypotheses)}

    cur = p.goal[0]
    for i, st in enumerate(p.steps):
        rule = rules.get(st.rule)
        if rule is None:
            return CheckResult(False, i, f"unknown rule {st.rule!r} under {system.name}")
        if st.dir not in (LR, RL):
            return CheckResult(False, i, f"bad direction {st.dir!r}")
        src, dst = (cur, st.result) if st.dir == LR else (st.result, cur)
        try:
            out = apply_rule(src, rule, st.pos, LR)
        except RewriteError as e:
            return CheckResult(False, i, str(e) if st.dir == LR
                               else f"reverse step does not replay: {e}")
        if out != dst:
            if st.dir == LR:
                why = f"recomputed {print_word(out)!r}, step records {print_word(dst)!r}"
            else:
                why = (f"applying {st.rule} forward on the result gives "
                       f"{print_word(out)!r}, not the previous word")
            return CheckResult(False, i, why)
        cur = st.result
    if cur != p.goal[1]:
        return CheckResult(
            False, None,
            f"chain ends at {print_word(cur)!r}, goal right-hand side is "
            f"{print_word(p.goal[1])!r}")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# proof scripts (JSON)


def proof_to_dict(p: Proof) -> dict:
    return {
        "system": p.system,
        "hypotheses": [f"{print_word(l)} = {print_word(r)}" for l, r in p.hypotheses],
        "goal": f"{print_word(p.goal[0])} = {print_word(p.goal[1])}",
        "steps": [
            {"rule": s.rule, "dir": s.dir, "pos": s.pos, "result": print_word(s.result)}
            for s in p.steps
        ],
    }


def proof_to_json(p: Proof) -> str:
    return json.dumps(proof_to_dict(p), indent=2)


def proof_from_dict(data: dict) -> Proof:
    """Build a Proof from script data.  Raises ValueError on structural
    faults; word-level faults surface later in check_proof_data."""
    if not isinstance(data, dict):
        raise ValueError("proof script must be a JSON object")
    try:
        system = data["system"]
        hyp_texts = data["hypotheses"]
        goal_text = data["goal"]
        step_items = data["steps"]
    except KeyError as e:
        raise ValueError(f"proof script is missing the {e.args[0]!r} field") from None
    if not isinstance(system, str) or not isinstance(hyp_texts, list) \
            or not all(isinstance(t, str) for t in hyp_texts) \
            or not isinstance(goal_text, str) or not isinstance(step_items, list):
        raise ValueError("proof script field has the wrong shape")
    hypotheses = tuple(parse_equation(t) for t in hyp_texts)
    goal = parse_equation(goal_text)
    steps = []
    for i, item in enumerate(step_items):
        try:
            rule, d, pos, result = item["rule"], item["dir"], item["pos"], item["result"]
        except (TypeError, KeyError):
            raise ValueError(f"step {i} is missing a field") from None
        # bool is an int subclass, but "pos": true is not a position
        if not isinstance(rule, str) or not isinstance(d, str) or not isinstance(pos, int) \
                or isinstance(pos, bool) or not isinstance(result, str):
            raise ValueError(f"step {i} field has the wrong shape")
        steps.append(ProofStep(rule, d, pos, parse_word(result)))
    return Proof(system, hypotheses, goal, tuple(steps))


def check_proof_data(data: dict) -> CheckResult:
    """Check a proof script.  Result texts are compared textually: each
    must be the canonical print of its word, then the replay must
    reproduce it."""
    p = proof_from_dict(data)
    for i, item in enumerate(data["steps"]):
        if print_word(p.steps[i].result) != item["result"]:
            return CheckResult(False, i,
                               f"result text {item['result']!r} is not canonical")
    return check_proof(p)
