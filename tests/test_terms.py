from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from relcalc import terms
from relcalc.terms import (Atom, Node, ParseError, Word, flatten, parse,
                           parse_equation, parse_word, print_word)


def test_atom_str_and_mark():
    assert str(Atom("x")) == "x"
    assert str(Atom("a", True)) == "a'"
    assert Atom("a", False) == Atom("a")


@pytest.mark.parametrize("mark, message", [
    (2, "atom mark must be a bool, got 2"),  # would code as the next name
    (1, "atom mark must be a bool, got 1"),
    (0, "atom mark must be a bool, got 0"),
    ("yes", "atom mark must be a bool, got 'yes'"),
    (None, "atom mark must be a bool, got None"),
])
def test_atom_mark_must_be_a_bool(mark, message):
    with pytest.raises(ValueError) as exc:
        Atom("a", mark)
    assert str(exc.value) == message


@pytest.mark.parametrize("name, message", [
    ("", "bad atom name ''"),
    ("a'b", 'bad atom name "a\'b"'),
    ("x'", 'bad atom name "x\'"'),  # a mark is the `inverted` field, not the name
    ("a b", "bad atom name 'a b'"),
    ("é", "bad atom name 'é'"),
    (["x"], "bad atom name ['x']"),  # passed the character test, then hashed badly
    (1, "bad atom name 1"),
])
def test_bad_atom_names_are_pinned(name, message):
    with pytest.raises(ValueError) as exc:
        Atom(name)
    assert str(exc.value) == message


def test_word_basics():
    w = Word((Atom("x"), Atom("y")))
    assert len(w) == 2
    assert list(w) == [Atom("x"), Atom("y")]
    assert w[0] == Atom("x")
    assert str(w + Word((Atom("z"),))) == "x y z"
    with pytest.raises(ValueError):
        Word(())


@pytest.mark.parametrize("text,expected", [
    ("x", "x"),
    ("x y", "x y"),
    ("(x y) z", "x y z"),
    ("x (y z)", "x y z"),
    ("[[z y] y]", "z y y"),
    ("( x\t(y   z) )", "x y z"),
    ("(x)", "x"),          # a parenthesised single term is that term
    ("((x))", "x"),
    ("a' b", "a' b"),
    ("foo_1 bar2", "foo_1 bar2"),
    ("x'y", "x' y"),       # a mark ends its atom
    ("x' y'", "x' y'"),
    (" \tx\r\ny ", "x y"),
])
def test_parse_flatten_print(text, expected):
    assert print_word(parse_word(text)) == expected


def test_parse_builds_left_fold():
    t = parse("x y z")
    assert t == Node(Node(Atom("x"), Atom("y")), Atom("z"))


def test_flatten_ignores_grouping():
    assert parse_word("(x y) (z w)") == parse_word("x (y (z w))")


@pytest.mark.parametrize("text,offset,fragment", [
    ("", 0, "empty input"),
    ("   ", 0, "empty input"),
    ("()", 1, "empty group"),
    ("(x", 0, "unclosed group"),
    ("((x) (y", 5, "unclosed group"),  # the innermost open group
    ("x)", 1, "unmatched"),
    ("(x y]", 4, "mismatched delimiter"),
    ("x $ y", 2, "unexpected character"),
    ("a''", 2, "doubled inversion mark"),
    ("' a", 0, "inversion mark must follow an atom"),
    # every kind again at a non-zero offset, inside or after a group
    ("(x $)", 3, "unexpected character '$'"),
    ("(a'' b)", 3, "doubled inversion mark"),
    ("x (' y)", 3, "inversion mark must follow an atom"),
    ("(x) )", 4, "unmatched ')'"),
    ("(x) (", 4, "unclosed group"),
    ("x (y ())", 6, "empty group"),
    ("x\x0by", 1, "unexpected character '\\x0b'"),
])
def test_parse_errors_carry_offsets(text, offset, fragment):
    for parser in (parse, parse_word):
        with pytest.raises(ParseError) as exc:
            parser(text)
        assert exc.value.offset == offset
        assert fragment in exc.value.message


def test_mismatched_delimiter_message_is_pinned():
    for parser in (parse, parse_word):
        with pytest.raises(ParseError) as exc:
            parser("[x)")
        assert exc.value.message == "mismatched delimiter: ')' closes the group opened at offset 0"
        assert str(exc.value) == f"offset 2: {exc.value.message}"


def test_bare_words_never_reach_the_one_pass_parser(monkeypatch):
    def refuse(text, group=None):
        raise AssertionError(f"_parse called on {text!r}")
    monkeypatch.setattr(terms, "_parse", refuse)
    assert print_word(parse_word("a b' c1")) == "a b' c1"
    assert parse_equation("x y = z") == (parse_word("x y"), parse_word("z"))


def test_parse_equation():
    lhs, rhs = parse_equation("z y = x")
    assert print_word(lhs) == "z y"
    assert print_word(rhs) == "x"


@pytest.mark.parametrize("call", [parse, parse_word, parse_equation])
@pytest.mark.parametrize("text", [["x"], None, b"x = y"])
def test_parsers_take_only_str_text(call, text):
    with pytest.raises(ValueError) as exc:
        call(text)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"text must be a str, got {text!r}"


def test_parse_equation_errors():
    with pytest.raises(ParseError) as exc:
        parse_equation("x y")
    assert "expected '='" in exc.value.message
    with pytest.raises(ParseError):
        parse_equation("x = y = z")
    # offsets on the right-hand side count from the whole input
    with pytest.raises(ParseError) as exc:
        parse_equation("x = (y")
    assert exc.value.offset == 4


def test_deep_nesting_does_not_recurse():
    text = "(" * 4000 + "x y" + ")" * 4000
    assert print_word(parse_word(text)) == "x y"


_names = st.sampled_from(["x", "y", "z", "e", "a", "b", "q1"])
_atoms = st.builds(Atom, _names, st.booleans())
_words = st.builds(lambda ats: Word(tuple(ats)), st.lists(_atoms, min_size=1, max_size=12))


# multi-character names, marked and unmarked, for the printer
_long_atoms = st.builds(Atom, st.text("ab_Z09", min_size=1, max_size=5), st.booleans())


@given(st.lists(_long_atoms, min_size=1, max_size=8).map(lambda ats: Word(tuple(ats))))
def test_print_word_joins_the_atom_texts(w):
    assert print_word(w) == " ".join(map(str, w.atoms))


@given(_words)
def test_print_parse_round_trip(w):
    assert parse_word(print_word(w)) == w


@given(_words, _words)
def test_equation_round_trip(u, v):
    assert parse_equation(f"{print_word(u)} = {print_word(v)}") == (u, v)


# Bracketed terms: every group holds at least one term, brackets nest.
_terms = st.recursive(
    _atoms.map(str),
    lambda inner: st.tuples(st.sampled_from(["()", "[]"]),
                            st.lists(inner, min_size=1, max_size=4))
    .map(lambda g: g[0][0] + " ".join(g[1]) + g[0][1]),
    max_leaves=20)
_texts = st.lists(_terms, min_size=1, max_size=4).map(" ".join)

# Bracket-free texts: atoms joined by runs of the four blanks, with optional
# leading and trailing blanks; parse_word splits these without `_parse`.
_blank_runs = st.text(" \t\r\n", max_size=3)
_flat_texts = st.builds(
    lambda lead, pairs, trail: lead + "".join(str(a) + sep for a, sep in pairs).rstrip() + trail,
    _blank_runs,
    st.lists(st.tuples(_atoms, st.text(" \t\r\n", min_size=1, max_size=3)),
             min_size=1, max_size=12),
    _blank_runs)


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as e:
        return (e.message, e.offset)


@given(_texts | _flat_texts)
def test_parse_word_is_flatten_of_parse(text):
    assert parse_word(text) == flatten(parse(text))


# str.split() also splits at \x0b, \x0c, \x85 and \xa0, which `_parse` rejects
_edits = st.lists(st.tuples(st.integers(0, 200),
                            st.sampled_from(["", *"()[]'$ \t\n\r\x0b\x0c\x85\xa0"])),
                 min_size=1, max_size=3)


@given(_texts | _flat_texts, _edits)
def test_parse_word_fails_like_parse(text, edits):
    # damage a well-formed text: insert a character, or ("") delete one
    for pos, ch in edits:
        pos %= len(text) + 1
        text = text[:pos] + ch + text[pos + (not ch):]
    expected = _outcome(parse, text)
    if isinstance(expected, tuple):
        assert _outcome(parse_word, text) == expected
    else:
        assert parse_word(text) == flatten(expected)


@pytest.mark.parametrize("call, message", [
    (lambda: print_word("x"), "w must be a Word, got 'x'"),
    (lambda: flatten("x"), "t must be an Atom or a Node, got 'x'"),
    (lambda: flatten(Node(Atom("x"), "y")), "a part of t must be an Atom or a Node, got 'y'"),
    (lambda: flatten(None), "t must be an Atom or a Node, got None"),
])
def test_print_word_and_flatten_refuse_what_is_not_a_term(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
