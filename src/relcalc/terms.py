"""Terms of an application-only calculus, and their flat word form.

Concrete syntax::

    term     := atom | '(' term term+ ')' | '[' term term+ ']'
    atom     := [A-Za-z0-9_]+ optionally followed by one apostrophe
    equation := term '=' term

Juxtaposition associates to the left, at the top level too, so
``z y y`` reads as ``(z y) y``.  Brackets and parentheses are
interchangeable but each close must match its open.  A parenthesised
single term denotes the term itself.

Application is associative by fiat, so a term is determined up to
provable equality by its sequence of leaves.  ``flatten`` computes that
sequence as a :class:`Word` and everything downstream of the parser
works on words; regrouping steps never appear in proofs because they
are erased here.

Most texts are bare words such as ``a b' a c``, so ``parse_word`` first
asks whether the text holds only name characters, apostrophes and the
four blanks (space, tab, CR, LF).  Such a text is split at its blanks
by ``split_word``, and each distinct ``name`` or ``name'`` token becomes
one atom.  Every other text, and a token the split cannot read as one
atom (``'x``, ``x''``, ``x'y``), goes to the one-pass parser ``_parse``,
as does a text with no token at all.  The split path therefore never
reports an error: each :class:`ParseError`, with its message and
offset, comes from that one pass, the same for ``parse`` and
``parse_word``.  The proof-script reader calls ``split_word`` at single
spaces, where a text reads only if it is the printed form of its word.

The apostrophe marks a formal inverse.  Only the free-reduction
decider (and the proof engine when the active system carries the
inverse-cancel rule) gives it meaning; every other consumer treats a
marked atom as bad input at its own boundary.

>>> print_word(flatten(parse("[[z y] y]")))
'z y y'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Atom",
    "Node",
    "TermTree",
    "Word",
    "ParseError",
    "parse",
    "parse_word",
    "parse_equation",
    "flatten",
    "print_word",
]

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)
_BLANKS = " \t\r\n"
# what a bracket-free word may hold; `parse_word` hands such text to `split_word`
_WORD_TEXT = _NAME_CHARS | frozenset("'" + _BLANKS)


class ParseError(ValueError):
    """Lexical or structural fault; `offset` is a byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class Atom:
    name: str
    inverted: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or not _NAME_CHARS.issuperset(self.name):
            raise ValueError(f"bad atom name {self.name!r}")
        if type(self.inverted) is not bool:
            raise ValueError(f"atom mark must be a bool, got {self.inverted!r}")

    def __str__(self) -> str:
        return self.name + ("'" if self.inverted else "")


@dataclass(frozen=True)
class Node:
    """One application.  The tree shape carries no information beyond the
    leaf order once flattened, but the parser still builds it so that
    grouping in the input can be inspected when debugging."""

    left: "TermTree"
    right: "TermTree"


TermTree = Union[Atom, Node]


@dataclass(frozen=True)
class Word:
    """A non-empty sequence of atoms, the canonical form of a term."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("a word holds at least one atom")

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __getitem__(self, i):
        return self.atoms[i]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.atoms + other.atoms)

    def __str__(self) -> str:
        return print_word(self)


def print_word(w: Word) -> str:
    return " ".join([a.name + "'" if a.inverted else a.name for a in check_word(w).atoms])


def check_count(name: str, value, lo: int | None = 1, hi: int | None = None) -> int:
    """`value` if it is an int (a bool is not) within lo..hi, with no upper
    bound when `hi` is None and no bound at all when `lo` is None; else a
    ValueError that calls it `name`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if lo is None:
        return value
    if hi is None and value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be within {lo}..{hi}, got {value}")
    return value


def check_word(w, name: str = "w") -> Word:
    """`w` if it is a Word, else a ValueError that calls it `name`."""
    if not isinstance(w, Word):
        raise ValueError(f"{name} must be a Word, got {w!r}")
    return w


def check_term(t, name: str = "t") -> TermTree:
    """`t` if it is an Atom or a Node, else a ValueError that calls it `name`."""
    if not isinstance(t, (Atom, Node)):
        raise ValueError(f"{name} must be an Atom or a Node, got {t!r}")
    return t


def check_name(value, name: str) -> str:
    """`value` if it is an atom name, a non-empty str of name characters
    with no mark, else a ValueError that calls it `name`."""
    if not isinstance(value, str) or not value or not _NAME_CHARS.issuperset(value):
        raise ValueError(f"{name} must be an atom name, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# parsing


_OPEN = {"(": ")", "[": "]"}


def _combine(items: list[TermTree]) -> TermTree:
    # left-associative fold; a singleton stays itself
    out = items[0]
    for t in items[1:]:
        out = Node(out, t)
    return out


def _text(text) -> str:  # the parser's entry points read only str text
    if not isinstance(text, str):
        raise ValueError(f"text must be a str, got {text!r}")
    return text


def _parse(text: str, group=None) -> list[TermTree]:
    """The one pass behind `parse` and `parse_word`: a single loop over
    the characters places atoms, opens and closes groups, and raises
    every :class:`ParseError` at the first fault in the text.

    Leaves go to one list in input order; each distinct atom text is
    built once per call.  When a group closes, `group`, if given,
    replaces the group's items with its result; without it the list
    stays flat.  Returns the top-level items.
    """
    seen: dict[str, Atom] = {}
    items: list[TermTree] = []
    # each open group: (its closing char, offset of the open, first item index)
    stack: list[tuple[str, int, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in _NAME_CHARS:
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            if j < n and text[j] == "'":
                j += 1
                if j < n and text[j] == "'":
                    raise ParseError("doubled inversion mark", j)
            token = text[i:j]
            atom = seen.get(token)
            if atom is None:
                atom = seen[token] = Atom(token.rstrip("'"), token[-1] == "'")
            items.append(atom)
            i = j
            continue
        if c in _OPEN:
            stack.append((_OPEN[c], i, len(items)))
        elif c in ")]":
            if not stack:
                raise ParseError(f"unmatched {c!r}", i)
            expected, open_offset, start = stack.pop()
            if c != expected:
                raise ParseError(
                    f"mismatched delimiter: {c!r} closes the group opened at "
                    f"offset {open_offset}", i)
            if start == len(items):
                raise ParseError("empty group", i)
            if group is not None:
                items[start:] = [group(items[start:])]
        elif c == "'":
            raise ParseError("inversion mark must follow an atom", i)
        elif c not in _BLANKS:
            raise ParseError(f"unexpected character {c!r}", i)
        i += 1
    if stack:
        raise ParseError("unclosed group", stack[-1][1])
    if not items:
        raise ParseError("empty input", 0)
    return items


def parse(text: str) -> TermTree:
    """Parse `text` into a term tree.

    Raises :class:`ParseError` with a byte offset for stray characters,
    unbalanced or mismatched delimiters, and empty groups or input, and
    a plain ValueError for a `text` that is not a str.
    """
    return _combine(_parse(_text(text), _combine))


def flatten(t: TermTree) -> Word:
    """The in-order leaf sequence of `t`.  Iterative; input nesting depth
    does not hit the interpreter recursion limit.  A `t` that is not a
    term, or that holds a part that is not, is a ValueError."""
    out: list[Atom] = []
    todo: list[TermTree] = [t]
    while todo:
        cur = todo.pop()
        if isinstance(cur, Atom):
            out.append(cur)
        else:
            check_term(cur, "t" if cur is t else "a part of t")
            todo.append(cur.right)
            todo.append(cur.left)
    return Word(tuple(out))


def split_word(text: str, atoms: dict[str, Atom], sep: str | None = " ") -> Word | None:
    """The word of `text` if splitting it at `sep` (at runs of blanks when
    None) gives only atom tokens, ``name`` or ``name'``; else None.

    Split at single spaces, a text reads exactly when it is the printed
    form of its word, so a word read this way needs no print to compare.
    `atoms` maps each token met so far to its Atom: a new token is
    checked and built once and added, so texts read against one map
    share their atoms.
    """
    tokens = text.split(sep)
    for token in set(tokens).difference(atoms):
        inverted = token[-1:] == "'"
        name = token[:-1] if inverted else token
        if not name or not _NAME_CHARS.issuperset(name):
            return None  # '', 'x, x'', x'y, or a bracket or blank
        atoms[token] = Atom(name, inverted)
    return Word(tuple(map(atoms.__getitem__, tokens))) if tokens else None


def parse_word(text: str) -> Word:
    """``flatten(parse(text))``, with the same errors, built without the tree."""
    if _WORD_TEXT.issuperset(_text(text)):
        word = split_word(text, {}, None)
        if word is not None:
            return word
    return Word(tuple(_parse(text)))


def parse_equation(text: str) -> tuple[Word, Word]:
    """Split `text` at its single '=' and parse both sides."""
    cut = _text(text).find("=")
    if cut < 0:
        raise ParseError("expected '=' between two terms", len(text))
    second = text.find("=", cut + 1)
    if second >= 0:
        raise ParseError("more than one '='", second)
    lhs = parse_word(text[:cut])
    try:
        rhs = parse_word(text[cut + 1:])
    except ParseError as e:
        raise ParseError(e.message, e.offset + cut + 1) from None
    return lhs, rhs
