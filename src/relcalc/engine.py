"""Equational proof search and proof checking over the rule systems of
`systems`.

A proof is checked against the system it carries.  `apply_rule` is one
body for both directions.  The checker replays every step through one
forward application at the cited position: an lr step must rewrite the
previous word to its recorded result, and an rl step its recorded
result back to the previous word.  That convention is what keeps the
one rl case whose output is not a function of the position
(inverse-pair insertion) checkable.

Search is bidirectional breadth-first: one frontier grows from each
side of the goal and a proof is stitched together the moment the
frontiers share a word.  Each round grows the chosen side's whole
frontier by one level, and every bound stop returns NotFound with the
nodes counted so far.  A cheap normalisation pass (rules oriented to
shrink words, ties broken toward the lexicographically smaller printed
form) runs first and settles most ground instances without touching
the frontiers.

The search and normalisation run on a compiled core (`_Core`): atoms
interned to small ints, each word packed into one int, rules compiled
to bit patterns as far as a call needs them and filed by the room a
word has left, so finding a redex raises nothing and builds no Word.
Words and ProofSteps are built only for the steps a proof keeps.
`neighbors` and `normalize` are thin wrappers over the same core, whose
constructor checks the problem.  The checker checks its own and shares
no matching code with the core: it replays Words through `apply_rule`,
and `tests/test_package.py` holds it to that.  The core is rebuilt for
every call and cached nowhere.

A proof script is read in one pass (`proof_from_dict`): each word text
is split once at single spaces by `split_word`, against one token ->
Atom table that lives for that script alone, so each distinct token is
checked and built once.  A result text that splits is the canonical
print of its word, so nothing is printed back to compare.  Only a text
that does not split goes to `parse_word` or `parse_equation`, and they
report every ParseError with its offset.

Everything here is immutable; callers may share configs and results
across threads freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .systems import (GROUND, IDENTITY_ELIM, LR, RL, SYSTEMS, Proof, ProofStep, Rule,
                      RuleSystem, hypothesis_rules, make_system, system_id)
from .terms import (Atom, Word, check_count, check_is, parse_equation, parse_word,
                    print_word, split_word)


class RewriteError(Exception):
    pass


class NoMatch(RewriteError):
    """The rule pattern is absent at the cited position."""


class EmptyResult(RewriteError):
    """The deletion would leave no atoms at all."""


# ---------------------------------------------------------------------------
# single-step application


def apply_rule(w: Word, rule: Rule, pos: int, direction: str = LR) -> Word:
    """Apply `rule` at `pos` in the given direction.

    Raises NoMatch when the pattern is absent (including the rl case of
    inverse-cancel, whose inserted pair a position cannot determine;
    enumerate those with neighbors()) and EmptyResult when a deletion
    would erase the whole word.  A word, rule or position of the wrong
    type is a ValueError.
    """
    if direction not in (LR, RL):
        raise ValueError(f"direction must be {LR!r} or {RL!r}, got {direction!r}")
    check_is(rule, Rule, "rule")
    check_count("pos", pos, None)  # False is not position 0
    atoms, n = check_is(w, Word, "w").atoms, len(w)
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
        for name in ("max_word_len", "max_nodes", "max_depth"):
            check_count(name, getattr(self, name))


def neighbors(w: Word, system: RuleSystem | str, hypotheses=(),
              max_len: int = SearchConfig.max_word_len) -> list[tuple[Word, ProofStep]]:
    """All one-step rewrites of `w`: system rules and hypothesis
    equations, both directions, every position.  Order is position-major
    and rule-id-minor, with lr before rl; inverse-pair insertions are
    ordered by atom name, unmarked-first pair first.  The search expands
    through `_Core` itself; this stays public because `bench/tracing.py`
    traces it and `tests/test_soundness.py` enumerates rewrites with it."""
    max_len = check_count("max_word_len", max_len)  # as SearchConfig checks it
    core = _Core(system, hypotheses, (w, w))
    return [(s.result, s) for s in core.steps(core.expand(core.encode(w.atoms), max_len, True))]


# ---------------------------------------------------------------------------
# normalisation (the fast path, and the confluence probe for DIT+)


def _reducers(rules) -> list[tuple[Rule, str]]:
    out = []
    for r in rules:
        if r.kind != GROUND:
            out.append((r, LR))
            continue
        # shortlex: the printed forms break only a tie in length
        kl, kr = len(r.lhs), len(r.rhs)
        if kl == kr:
            kl, kr = print_word(r.lhs), print_word(r.rhs)
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
    core = _Core(system, hypotheses, (w, w))
    steps = core.steps(core.normalize(core.encode(w.atoms))[1])
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


# ---------------------------------------------------------------------------
# the search core: the same rules, compiled over integer words

# matcher opcodes
_SPAN, _DROP, _INSERT, _PAIRS = range(4)


def _growth(r: Rule) -> int:
    # how many atoms an lr application of r adds to a word; rl adds the negative
    if r.kind == GROUND:
        return len(r.rhs.atoms) - len(r.lhs.atoms)
    return -1 if r.kind == IDENTITY_ELIM else -2


class _Core:
    """The rules of one (system, hypotheses) problem compiled for search.

    The constructor is the search side's one problem check: it resolves
    `system` and runs `_validate_problem` on the frozen `hypotheses`.

    Atoms become the codes `2 * name_index + inverted` over the sorted
    names the problem can ever produce (its words, the hypotheses, the
    rule atoms), so code order is name order and `c ^ 1` is the inverse
    of `c`.  A word is packed into one int: code c is the digit c + 1 in
    `b` bits, position 0 in the low bits, so the length is read off the
    bit length and a rewrite is a few shifts and masks.  Each rule
    direction becomes matchers `(op, rule id, dir, pattern, arg)`: one,
    or for a pair cancel one span per atom and its inverse.  Each is
    filed under the digit its pattern starts with (insertions under
    every digit, digit 0 being the position just past the end), so a
    position only tries matchers that can fire there.  Redexes are found
    with no apply_rule call and no exception.  Words and ProofSteps are
    built only by `decode` and `steps`, from the problem's own Atoms
    where it holds them, for the words a caller keeps; `decode` builds
    any other Atom the first time a word needs it.

    A table is filed by room, `max_len - len(w)`: it holds only the
    matchers whose result fits, so no move checks a length, and a word
    at the bound tries no insertion.  The constructor compiles the
    reducers `normalize` uses (room 0: they never lengthen a word).  The
    move table for a room (both directions of every rule) is built at
    the first `expand` of a word with that room, once per call, and
    every room past the longest move shares the full one; so a goal
    normalisation settles never builds one.
    """

    def __init__(self, system: RuleSystem | str, hypotheses, goal, max_len: int | None = None):
        self.system = system = make_system(system)
        try:
            self.hypotheses = hypotheses = tuple(hypotheses)
        except TypeError:
            raise ValueError(f"hypotheses must be an iterable of equations, "
                             f"got {hypotheses!r}") from None
        _validate_problem(system, goal, hypotheses, max_len)
        hyp_atoms = [a for h in hypotheses for w in h for a in w.atoms]
        atoms = [a for w in goal for a in w.atoms] + hyp_atoms
        for r in system.rules:
            if r.kind == GROUND:
                atoms += r.lhs.atoms + r.rhs.atoms
            elif r.kind == IDENTITY_ELIM:
                atoms.append(r.atom)
        known = {(a.name, a.inverted): a for a in atoms}
        self._names = order = sorted({a.name for a in atoms})
        self._index = {name: i for i, name in enumerate(order)}
        # by digit; None until decode first needs it
        self._atoms = [None] + [known.get((name, inv)) for name in order for inv in (False, True)]
        self._bits = b = (2 * len(order)).bit_length()
        self._mask = (1 << b) - 1
        # pair insertion draws on the word's and the hypotheses' names,
        # never the identity's: inserting that is identity-elim's job
        self._pair_names = frozenset(self._index[a.name] for a in hyp_atoms)
        self._no_pair = self._index.get(system.identity_name)
        self._rules = sorted([*system.rules, *hypothesis_rules(hypotheses)], key=lambda r: r.id)
        # the most atoms one move adds: more room than that takes the full table
        self._reach = max([abs(_growth(r)) for r in self._rules], default=0)
        self._moves = {}  # room -> move table
        self._reducers = self._table(_reducers(self._rules), 0)

    def encode(self, atoms: tuple[Atom, ...]) -> int:
        index, b = self._index, self._bits
        w = 0
        for a in reversed(atoms):
            w = w << b | 2 * index[a.name] + a.inverted + 1
        return w

    def decode(self, w: int) -> Word:
        atoms, b, mask = self._atoms, self._bits, self._mask
        out = []
        while w:
            a = atoms[w & mask]
            if a is None:
                c = (w & mask) - 1
                a = atoms[c + 1] = Atom(self._names[c >> 1], bool(c & 1))
            out.append(a)
            w >>= b
        return Word(tuple(out))

    def steps(self, chain) -> tuple[ProofStep, ...]:
        return tuple(ProofStep(rid, d, pos, self.decode(w)) for w, rid, d, pos in chain)

    def _matchers(self, r: Rule, d: str) -> list[tuple]:
        b = self._bits
        if r.kind == GROUND:
            pat, rep = (r.lhs.atoms, r.rhs.atoms) if d == LR else (r.rhs.atoms, r.lhs.atoms)
            kb = len(pat) * b
            # arg: the replacement, the bits it and the pattern take, the pattern's mask
            return [(_SPAN, r.id, d, self.encode(pat),
                     (self.encode(rep), len(rep) * b, kb, (1 << kb) - 1))]
        if r.kind == IDENTITY_ELIM:
            return [(_DROP if d == LR else _INSERT, r.id, d, self.encode((r.atom,)),
                     r.needs == "left")]
        if d == LR:  # a span for each atom: it and its inverse, replaced by nothing
            arg = (0, 0, 2 * b, (1 << 2 * b) - 1)
            return [(_SPAN, r.id, d, c | (c - 1 ^ 1) + 1 << b, arg)
                    for c in range(1, len(self._atoms))]
        return [(_PAIRS, r.id, d, None, None)]

    def _table(self, moves, room: int) -> list[list[tuple]]:
        """For each digit, the matchers of the (rule, dir) `moves` that add
        at most `room` atoms and can fire at a position holding it, in
        neighbour order."""
        table = [[] for _ in range(self._mask + 1)]
        for r, d in moves:
            if (_growth(r) if d == LR else -_growth(r)) <= room:
                for m in self._matchers(r, d):
                    # spans and drops fire only on the digit their pattern starts with
                    for row in table if m[0] in (_INSERT, _PAIRS) else (table[m[3] & self._mask],):
                        row.append(m)
        return table

    def _pairs(self, w) -> list[int]:
        # the packed pairs a a' and a' a, by name, that _PAIRS inserts into w
        b, mask = self._bits, self._mask
        names = set(self._pair_names)
        while w:
            names.add(((w & mask) - 1) >> 1)
            w >>= b
        names.discard(self._no_pair)
        return [pair for i in sorted(names)
                for pair in (2 * i + 1 | 2 * i + 2 << b, 2 * i + 2 | 2 * i + 1 << b)]

    def _rewrites(self, w, table, steps: bool):
        """Yield the result of every matcher of `table` that fires on `w`,
        in neighbors() order and with the same side conditions as
        apply_rule: as (result, rule id, dir, pos) if `steps`, else bare."""
        b, mask = self._bits, self._mask
        last = -(-w.bit_length() // b) - 1
        pairs = None
        rest, sh = w, 0  # w from pos on, and where that starts in w
        for pos in range(last + 2):
            for op, rid, d, pat, arg in table[rest & mask]:
                if op == _SPAN:
                    rep, rb, kb, kmask = arg
                    # u is 0 only where a cancel would leave no atom at all
                    if rest & kmask != pat or not (u := w & (1 << sh) - 1 | rep << sh
                                                   | rest >> kb << sh + rb):
                        continue
                elif op == _DROP:  # arg: the neighbour needed is on the left
                    if not (pos > 0 if arg else pos < last):
                        continue
                    u = w & (1 << sh) - 1 | rest >> b << sh
                elif op == _INSERT:
                    if not (pos > 0 if arg else pos <= last):
                        continue
                    u = w & (1 << sh) - 1 | pat << sh | rest << sh + b
                else:  # _PAIRS
                    if pairs is None:
                        pairs = self._pairs(w)
                    low = w & (1 << sh) - 1
                    for pair in pairs:
                        u = low | pair << sh | rest << sh + 2 * b
                        yield (u, rid, d, pos) if steps else u
                    continue
                yield (u, rid, d, pos) if steps else u
            rest >>= b
            sh += b

    def expand(self, w, max_len: int, steps: bool):
        """The one-step rewrites of `w` of at most `max_len` atoms, as
        neighbors() lists them: steps as `_rewrites` yields them, or bare
        results."""
        room = min(max_len + -w.bit_length() // self._bits, self._reach)
        table = self._moves.get(room)
        if table is None:
            moves = ((r, d) for r in self._rules for d in (LR, RL))
            table = self._moves[room] = self._table(moves, room)
        return self._rewrites(w, table, steps)

    def normalize(self, w):
        """normalize() on an encoded word: the normal form and the chain
        of (result, rule id, dir, pos) that reaches it."""
        chain = []
        while True:
            hit = next(self._rewrites(w, self._reducers, True), None)
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


def _validate_problem(system: RuleSystem, goal, hypotheses, max_len: int | None = None):
    # a lone word w is checked as the goal w = w
    ws = []
    for what, pair in (("goal", goal), *(("hypothesis", h) for h in hypotheses)):
        if type(pair) is not tuple or len(pair) != 2:
            raise ValueError(f"a {what} must be a pair of words, got {pair!r}")
        ws += pair
    marks_ok = system.allows_inverses
    for w in ws:
        if not isinstance(w, Word):
            raise ValueError(f"expected a Word, got {w!r}")
        if not marks_ok and any(a.inverted for a in w.atoms):
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
    config = SearchConfig() if config is None else check_is(config, SearchConfig, "config")
    core = _Core(system, hypotheses, goal, config.max_word_len)
    system, hypotheses = core.system, core.hypotheses
    lhs, rhs = goal
    if lhs == rhs:
        return Proof(system, hypotheses, goal, ())

    lt, rt = core.encode(lhs.atoms), core.encode(rhs.atoms)
    nl, ls = core.normalize(lt)
    nr, rs = core.normalize(rt)
    if nl == nr:
        return Proof(system, hypotheses, goal, _join(core, ls, rs, rhs))

    # bidirectional BFS over encoded words, side 0 from the left word and
    # side 1 from the right; seen[k] maps word -> its predecessor, None
    # for the root
    seen = ({lt: None}, {rt: None})
    frontier = [[lt], [rt]]
    depth = [0, 0]
    nodes = 0

    # For systems without inverse-cancel the one-step relation is symmetric,
    # so the bounded rewrite graph is undirected and one side exhausting its
    # connected component settles disjointness.  Pair insertion breaks that
    # symmetry (it only draws letters from the current word), so under DGSS
    # the other side must still run to completion.
    while True:
        can = [bool(frontier[k]) and depth[k] < config.max_depth for k in (0, 1)]
        if not can[0] and not can[1]:
            return NotFound(nodes, "max_depth" if frontier[0] or frontier[1] else None)
        k = 0 if can[0] and (not can[1] or len(frontier[0]) <= len(frontier[1])) else 1
        mine, other = seen[k], seen[1 - k]
        fresh = []
        for w in frontier[k]:
            nodes += 1
            if nodes > config.max_nodes:
                return NotFound(nodes, "max_nodes")
            for w2 in core.expand(w, config.max_word_len, False):
                if w2 in mine:
                    continue
                mine[w2] = w
                fresh.append(w2)
                if w2 in other:
                    fwd, bwd = (_walk(core, side, w2, config.max_word_len) for side in seen)
                    steps = _join(core, fwd, bwd, rhs)
                    return Proof(system, hypotheses, goal, steps, nodes_expanded=nodes)
        frontier[k] = fresh
        depth[k] += 1
        if not fresh and not system.allows_inverses:
            return NotFound(nodes, None)


def _walk(core: _Core, seen, w, max_len: int) -> list[tuple]:
    # the steps (word, rule id, dir, pos) from the root out to w, in
    # root-to-w order; each is the first rewrite of its predecessor that
    # gives the next word, the one the search met that word by
    hits = []
    while (prev := seen[w]) is not None:
        hits.append(next(h for h in core.expand(prev, max_len, True) if h[0] == w))
        w = prev
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
    the goal's right-hand side.  A `p` that is not a Proof is a
    ValueError; a Proof whose parts have the wrong types is rejected.
    """
    check_is(p, Proof, "p")
    if not isinstance(p.system, RuleSystem):
        return CheckResult(False, None, f"expected a RuleSystem, got {p.system!r}")
    for name in ("hypotheses", "steps"):
        part = getattr(p, name)
        if not isinstance(part, (tuple, list)):
            return CheckResult(False, None, f"{name} must be a tuple or list, got {part!r}")
    try:
        _validate_problem(p.system, p.goal, p.hypotheses)
    except ValueError as e:
        return CheckResult(False, None, str(e))
    rules = p.system.rule_map() | {r.id: r for r in hypothesis_rules(p.hypotheses)}

    cur = p.goal[0]
    for i, st in enumerate(p.steps):
        if not isinstance(st, ProofStep):
            return CheckResult(False, i, f"expected a ProofStep, got {st!r}")
        if not isinstance(st.rule, str):
            return CheckResult(False, i, f"rule must be a rule id, got {st.rule!r}")
        rule = rules.get(st.rule)
        if rule is None:
            return CheckResult(False, i, f"unknown rule {st.rule!r} under {p.system.name}")
        if st.dir not in (LR, RL):
            return CheckResult(False, i, f"bad direction {st.dir!r}")
        try:
            check_is(st.result, Word, "result")
            src, dst = (cur, st.result) if st.dir == LR else (st.result, cur)
            out = apply_rule(src, rule, st.pos, LR)
        except ValueError as e:  # a result or position of the wrong type
            return CheckResult(False, i, str(e))
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
    """The script form of `p`.  A script names its system, so `p` must be
    under the built-in system of that name; ValueError otherwise."""
    check_is(p, Proof, "p")
    if SYSTEMS.get(system_id(p.system.name)) != p.system:
        raise ValueError(f"a proof script names only its system, and {p.system.name!r} "
                         f"is not the built-in system of that name")
    return {
        "system": p.system.name,
        "hypotheses": [f"{print_word(l)} = {print_word(r)}" for l, r in p.hypotheses],
        "goal": f"{print_word(p.goal[0])} = {print_word(p.goal[1])}",
        "steps": [
            {"rule": s.rule, "dir": s.dir, "pos": s.pos, "result": print_word(s.result)}
            for s in p.steps
        ],
    }


def proof_to_json(p: Proof) -> str:
    return json.dumps(proof_to_dict(p), indent=2)


def _equation(text: str, atoms: dict[str, Atom]) -> tuple[Word, Word]:
    # "lhs = rhs" read by split_word against the script's atoms; any other
    # text goes to parse_equation, whose errors count from the text's start
    lhs, eq, rhs = text.partition(" = ")
    if eq:
        lw, rw = split_word(lhs, atoms), split_word(rhs, atoms)
        if lw is not None and rw is not None:
            return lw, rw
    return parse_equation(text)


def proof_from_dict(data: dict, *, noncanonical: list[int] | None = None) -> Proof:
    """Build a Proof from script data.  Raises ValueError on structural
    faults and on a system that is not built in; word-level faults
    surface later in check_proof_data.

    Each text is split once against one token -> Atom map for the whole
    script; only a text that does not split goes to the parser.  A
    result text splits exactly when it is the canonical print of its
    word: the index of each step whose text does not is appended to
    `noncanonical`, if given."""
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
    atoms: dict[str, Atom] = {}
    hypotheses = tuple(_equation(t, atoms) for t in hyp_texts)
    goal = _equation(goal_text, atoms)
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
        word = split_word(result, atoms)
        if word is None:
            word = parse_word(result)
            if noncanonical is not None:
                noncanonical.append(i)
        steps.append(ProofStep(rule, d, pos, word))
    return Proof(make_system(system), hypotheses, goal, tuple(steps))


def check_proof_data(data: dict) -> CheckResult:
    """Check a proof script.  Each result text must be the canonical
    print of its word, which proof_from_dict tells while reading it;
    then the replay must reproduce it."""
    noncanonical: list[int] = []
    p = proof_from_dict(data, noncanonical=noncanonical)
    if noncanonical:
        i = noncanonical[0]
        return CheckResult(False, i, f"result text {data['steps'][i]['result']!r} is not canonical")
    return check_proof(p)
