"""Tests for the GSQL lexer: ``(kind, value, start, end)`` tuples."""

import pytest

from repro.errors import GSQLSyntaxError
from repro.gsql import tokenize
from repro.gsql.lexer import lex


def kinds(text):
    return [t[0] for t in tokenize(text) if t[0] != "EOF"]


def values(text):
    return [t[1] for t in tokenize(text) if t[0] != "EOF"]


class TestBasics:
    def test_keywords_case_insensitive(self):
        assert values("select Select SELECT") == ["SELECT"] * 3

    def test_identifiers_preserve_case(self):
        tokens = tokenize("myVar MyVar")
        assert [t[1] for t in tokens[:2]] == ["myVar", "MyVar"]

    def test_numbers(self):
        assert values("1 2.5 1e3 2.5e-2") == ["1", "2.5", "1e3", "2.5e-2"]

    def test_number_followed_by_dotdot_stays_int(self):
        assert values("1..4") == ["1", "..", "4"]

    def test_operators(self):
        assert values("+= == != <> <= >= -> ..") == [
            "+=", "==", "!=", "<>", "<=", ">=", "->", "..",
        ]

    def test_accumulator_sigils(self):
        assert kinds("@@total @score") == ["@@", "NAME", "@", "NAME"]


class TestStringsAndPrime:
    def test_double_quoted(self):
        tokens = tokenize('"hello world"')
        assert tokens[0][:2] == ("STRING", "hello world")

    def test_single_quoted(self):
        assert tokenize("'Toys'")[0][1] == "Toys"

    def test_escapes(self):
        assert tokenize(r'"a\"b"')[0][1] == 'a"b'

    def test_prime_after_identifier(self):
        tokens = tokenize("v.@score'")
        assert tokens[-2][0] == "'"

    def test_quote_after_space_is_string(self):
        tokens = tokenize("x == 'abc'")
        assert tokens[-2][0] == "STRING"

    def test_prime_then_string_in_one_line(self):
        # Figure 4 mixes primes and strings: both must lex.
        tokens = tokenize("abs(v.@score - v.@score') == 'x'")
        kinds_ = [t[0] for t in tokens]
        assert "'" in kinds_
        assert "STRING" in kinds_

    def test_unterminated_string(self):
        with pytest.raises(GSQLSyntaxError, match="unterminated"):
            tokenize('"abc')


class TestComments:
    def test_line_comments(self):
        assert values("a // comment\n b # another\n c") == ["a", "b", "c"]

    def test_block_comment(self):
        assert values("a /* x\n y */ b") == ["a", "b"]

    def test_unterminated_block(self):
        with pytest.raises(GSQLSyntaxError):
            tokenize("a /* never closed")

    def test_line_numbers_cross_comments(self):
        tokens, lines = lex("a /* x\n y */ b")
        assert lines.position(tokens[1][2]) == (2, 7)


class TestPostAccumNormalization:
    def test_underscore_form(self):
        assert values("POST_ACCUM")[0] == "POST_ACCUM"

    def test_hyphen_form(self):
        assert values("POST-ACCUM")[0] == "POST_ACCUM"

    def test_hyphen_with_space(self):
        assert values("POST - ACCUM")[0] == "POST_ACCUM"

    def test_post_alone_is_identifier(self):
        assert kinds("POST x") == ["NAME", "NAME"]


class TestErrors:
    def test_bad_character(self):
        with pytest.raises(GSQLSyntaxError, match="unexpected character"):
            tokenize("a $ b")

    def test_error_carries_position(self):
        try:
            tokenize("abc\n  $")
        except GSQLSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected GSQLSyntaxError")
