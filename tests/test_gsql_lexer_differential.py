"""Differential test: the pattern lexer against the character loop.

``repro.gsql.lexer.tokenize`` was rewritten from a per-character loop
to one compiled alternation.  The loop lives on, untouched, in
``reference_lexer.py``; every input here must come out of both as the
same ``(kind, value, line, column, start, end)`` tuples, or fail in both
with the same message at the same line and column.  The shipped lexer's
tokens are ``(kind, value, start, end)``, each keyword and operator its
own kind: they are compared in the loop's shape, kinds folded back to
its categories and line and column resolved from the source's line
table.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GSQLSyntaxError
from repro.gsql.lexer import KEYWORDS, lex, tokenize

from .gsql_corpus import BENCHMARK_TEXTS, REPOSITORY_TEXTS
from .reference_lexer import tokenize as reference_tokenize

#: The loop's kind of each token whose kind is its own spelling.
_SIGILS = {"@": "AT", "@@": "ATAT", "'": "PRIME"}


def shipped(text):
    """``repro.gsql.lexer``'s tokens in the loop's shape."""
    tokens, lines = lex(text)
    out = []
    for kind, value, start, end in tokens:
        if kind in KEYWORDS:
            kind = "KEYWORD"
        elif kind in _SIGILS:
            kind = _SIGILS[kind]
        elif kind not in ("NAME", "NUMBER", "STRING", "EOF"):
            kind = "OP"
        out.append((kind, value, *lines.position(start), start, end))
    return out


def lexed(lexer, text):
    """What a lexer makes of ``text``: its tokens, or its error."""
    try:
        return [tuple(token) for token in lexer(text)]
    except GSQLSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same(text):
    assert lexed(shipped, text) == lexed(reference_tokenize, text)


# ----------------------------------------------------------------------
# Every GSQL text the repository holds
# ----------------------------------------------------------------------
def test_the_corpus_is_not_empty():
    assert len(REPOSITORY_TEXTS) > 150
    assert len(BENCHMARK_TEXTS) == 62


@pytest.mark.parametrize(
    "text", [t for _, t in REPOSITORY_TEXTS],
    ids=[str(Path(label).name) for label, _ in REPOSITORY_TEXTS],
)
def test_repository_text_lexes_identically(text):
    assert_same(text)


@pytest.mark.parametrize(
    "text", [t for _, t in BENCHMARK_TEXTS],
    ids=[label for label, _ in BENCHMARK_TEXTS],
)
def test_benchmark_text_lexes_identically(text):
    assert_same(text)
    assert lexed(shipped, text)[0] != "error"


# ----------------------------------------------------------------------
# Hand-picked edges of the lexical grammar
# ----------------------------------------------------------------------
EDGES = [
    "", " ", "\n", "a", "a ", "a\n", "a\r\nb\tc",
    # primes against strings
    "v.@score'", "x == 'abc'", "abs(v.@score - v.@score') == 'x'",
    "x''", "x'''", "x' 'y'", "5'abc'", "1e'x'", "SELECT'", "é'",
    # POST-ACCUM spellings
    "POST_ACCUM", "POST-ACCUM", "post - accum", "Post\t-\tAccum x",
    "POST -\nACCUM", "POSTX-ACCUM", "POST-ACCUMULATE", "POST-ACCUM'x'",
    "POST - x", "POST", "POST'",
    # numbers
    "1..3", "1.5", "1e+5", "1E-5", "1e", "1e+", "1.e5", "1.5.3", "1_000",
    "1.", ".5", "12abc", "٣ + ٤",
    # operators and sigils
    "+= == != <> <= >= -> ..", "+ - * / % = < > ( ) { } [ ] , ; : . |",
    "a<-b", "a--b", "...", "@@total @score @@@", "<=>", "=>",
    # comments
    "a // c\n b # d\n c", "a /* x\n y */ b", "/**/", "/*/", "/* * / */ a",
    "a /* x */ /* y */ b", "a//", "a#", "/", "a / b", "a /* never closed",
    "a\n/* never\nclosed", "a/*\n\n*/b\n/*\n*/ c 'x\\\ny' d\n e",
    # strings and escapes
    '"hello world"', r'"a\"b"', r"'a\'b'", r'"a\\"', r'"a\nb"',
    '"a\\\nb" c\nd', '"" \'\'', '"a\'b" \'a"b\'',
    '"abc', "'abc", '"abc\ndef"', "'abc\ndef'", '"abc\\', "'", '"',
    'x = "abc\n', 'a\n  "abc',
    # junk
    "a $ b", "abc\n  $", "!", "a ! b", "\x0b", "a ? b", "\\", "a & b", "~",
    "é = ü", "naïve_1",
]


@pytest.mark.parametrize("text", EDGES, ids=[repr(t) for t in EDGES])
def test_edge_lexes_identically(text):
    assert_same(text)


class TestErrorsMatch:
    """The three lexical errors: same message, same line, same column."""

    @pytest.mark.parametrize("text,message,line,column", [
        ('x = "abc', "unterminated string literal", 1, 9),
        ('a\n  "abc\n"', "unterminated string literal", 2, 7),
        ("'abc\\", "unterminated string literal", 1, 6),
        ("a\n b /* never closed", "unterminated block comment", 2, 4),
        ("abc\n  $", "unexpected character '$'", 2, 3),
        ("a ! b", "unexpected character '!'", 1, 3),
    ])
    def test_error(self, text, message, line, column):
        for lexer in (tokenize, reference_tokenize):
            with pytest.raises(GSQLSyntaxError) as caught:
                lexer(text)
            assert str(caught.value) == f"line {line}, col {column}: {message}"
            assert (caught.value.line, caught.value.column) == (line, column)


# ----------------------------------------------------------------------
# Generated strings over the token alphabet
# ----------------------------------------------------------------------
FRAGMENTS = [
    # words, keywords, the hyphenated keyword's parts
    "a", "v", "x1", "_t", "score", "é", "SELECT", "select", "From", "ACCUM",
    "POST", "post", "Accum", "POST-ACCUM", "POST_ACCUM", "e", "E",
    # numbers and what fuses with them
    "0", "1", "42", "1.5", "1..3", "1e+5", "2E-3", "٣",
    # quotes, escapes
    "'", '"', "\\", "'Toys'", '"a b"', r'"a\"b"', "\\'", '\\"', "\\\n",
    # sigils and operators
    "@", "@@", "+", "-", "*", "/", "%", "=", "<", ">", "!", ".", ":", ";",
    ",", "|", "(", ")", "{", "}", "[", "]", "+=", "==", "!=", "<>", "<=",
    ">=", "->", "..",
    # comments
    "#", "//", "/*", "*/", "/* c */", "/* a\nb */", "# c\n", "// c\n",
    # whitespace, and bytes no token starts with
    " ", " ", "\t", "\n", "\r\n", "$", "?", "\x0b",
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join))
@example("v.@score' == 'x' /* a\nb */ POST - ACCUM'")
@example("'a\\\nb' c\n$")
def test_generated_text_lexes_identically(text):
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.text(
    alphabet=st.sampled_from("ab1eE.'\"\\/*#-+=<>!@_ \n\tPOSTACUMpostacum$é"),
    max_size=24,
))
def test_generated_characters_lex_identically(text):
    assert_same(text)


# ----------------------------------------------------------------------
# Where the two are known to differ — inputs the loop got wrong
# ----------------------------------------------------------------------
class TestKnownDivergences:
    def test_non_decimal_numerics_are_identifier_characters(self):
        # The loop's str.isdigit() took a superscript two for a digit
        # and produced a NUMBER that int() refuses.
        assert [t[:2] for t in lexed(reference_tokenize, "x = ²")][2] == (
            "NUMBER", "²")
        with pytest.raises(ValueError):
            int("²")
        assert [t[:2] for t in lexed(shipped, "x = ²")][2] == ("NAME", "²")
        # ... while inside a name both always accepted it.
        assert_same("x²")

    def test_post_accum_after_a_character_with_a_longer_upper_case(self):
        # The loop looked ACCUM up in text.upper(), one character longer
        # per "ß" in front of it, and skipped that much of what follows.
        text = '"ßß" POST-ACCUM x'
        assert [t[1] for t in lexed(reference_tokenize, text)] == [
            "ßß", "POST_ACCUM", ""]
        assert [t[1] for t in lexed(shipped, text)] == [
            "ßß", "POST_ACCUM", "x", ""]
