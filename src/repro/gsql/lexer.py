"""Lexer for the GSQL subset.

Produces a token stream with source positions (so DARPE substrings can be
recovered verbatim for the DARPE parser, and errors carry line/column).

Notable lexing decisions:

* ``@@`` and ``@`` are distinct tokens (global vs vertex accumulators);
* a single quote is a PRIME token when it immediately follows an
  identifier (``v.@score'`` — Figure 4's previous-iteration read) and a
  string delimiter otherwise (``'Toys'``);
* ``//``, ``#`` and ``/* ... */`` comments are skipped;
* keywords are case-insensitive, identifiers preserve case.

The whole lexical grammar is one compiled alternation
(:data:`_TOKEN`): each match skips the whitespace and comments in front
of a token and names the token's kind through ``m.lastgroup``, so the
interpreter runs once per *token*, not once per character.  The
character loop this replaced lives on as ``tests/reference_lexer.py``,
the oracle of the differential test: the two agree token for token,
positions and error messages included.  The two known exceptions are
inputs the loop got wrong.  A numeric character that is not a decimal
digit (``²``, ``½``) is an identifier character here, as it always was
inside a name; the loop lexed ``²`` as a NUMBER that ``int()`` then
refused.  And ``POST-ACCUM`` after a character whose upper case is
longer (``ß``) ends where it ends; the loop overshot by the difference.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import GSQLSyntaxError

KEYWORDS = {
    "CREATE", "QUERY", "FOR", "GRAPH", "SELECT", "DISTINCT", "INTO", "FROM",
    "WHERE", "ACCUM", "POST_ACCUM", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "ASC", "DESC", "WHILE", "DO", "END", "IF", "THEN", "ELSE", "PRINT",
    "RETURN", "TRUE", "FALSE", "AND", "OR", "NOT", "IN", "TYPEDEF", "TUPLE",
    "CASE", "WHEN", "AS", "FOREACH", "USING", "SEMANTICS",
    "UNION", "INTERSECT", "MINUS",
}


class Token(NamedTuple):
    kind: str       # NAME, KEYWORD, NUMBER, STRING, OP, AT, ATAT, PRIME, EOF
    value: str
    line: int
    column: int
    start: int      # offset in source
    end: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word

    def is_op(self, op: str) -> bool:
        return self.kind == "OP" and self.value == op


#: Skipped text, then exactly one token.  Alternatives are ordered so
#: the first that matches is the one the grammar means: ``POST-ACCUM``
#: (Figure 4's hyphenated spelling, spaces allowed) before NAME, an
#: unclosed ``/*`` before the ``/`` operator, two-character operators
#: before their prefixes, ``@@`` before ``@``.  A quote directly after an
#: identifier or keyword is the PRIME suffix and is taken with it, so a
#: quote that reaches STRING always opens a string, and one STRING
#: cannot close is UNTERMINATED as far as it runs.  EOF and the
#: catch-all make the pattern match at every offset: ``finditer`` never
#: skips a character, and whatever reaches ``BAD`` is an error.
_TOKEN = re.compile(
    r"""
    (?: [ \t\r\n]+ | \#[^\n]* | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?: (?P<POST_ACCUM> (?i:post) [ \t]* - [ \t]* (?i:accum) )
          | (?P<NAME> [^\W\d]\w* )
        ) (?P<PRIME> ' )?
      | (?P<NUMBER> \d+ (?: \.\d+ )? (?: [eE][+-]?\d+ )? )
      | (?P<UNCLOSED> /\* )
      | (?P<OP> \+= | == | != | <> | <= | >= | -> | \.\.
              | [-+*/%=<>(){}\[\],;:.|] )
      | (?P<STRING> "(?: [^"\\\n] | \\. )*" | '(?: [^'\\\n] | \\. )*' )
      | (?P<UNTERMINATED> "(?: [^"\\\n] | \\. )* | '(?: [^'\\\n] | \\. )* )
      | (?P<ATAT> @@ )
      | (?P<AT> @ )
      | (?P<EOF> \Z )
      | (?P<BAD> . )
    )
    """,
    re.X | re.S,
)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _word(text: str, line: int, column: int, start: int, end: int) -> Token:
    """The KEYWORD (case-folded) or NAME (case kept) token of one word."""
    word = text[start:end]
    upper = word.upper()
    if upper in KEYWORDS:
        return Token("KEYWORD", upper, line, column, start, end)
    return Token("NAME", word, line, column, start, end)


def tokenize(text: str) -> List[Token]:
    """Tokenize GSQL source; raises :class:`GSQLSyntaxError` on junk."""
    tokens: List[Token] = []
    append = tokens.append
    # The newline that ends the current line; a last line without one
    # ends at ``len(text)``, which the extra newline lets ``find`` say.
    find = (text + "\n").find
    next_nl = find("\n")
    line = 1
    line_start = 0

    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        end = m.end()
        while start > next_nl:
            line += 1
            line_start = next_nl + 1
            next_nl = find("\n", line_start)
        column = start - line_start + 1
        if kind == "OP":
            append(Token("OP", text[start:end], line, column, start, end))
        elif kind == "NAME":
            append(_word(text, line, column, start, end))
        elif kind == "NUMBER":
            append(Token("NUMBER", text[start:end], line, column, start, end))
        elif kind == "AT":
            append(Token("AT", "@", line, column, start, end))
        elif kind == "ATAT":
            append(Token("ATAT", "@@", line, column, start, end))
        elif kind == "STRING":
            value = text[start + 1 : end - 1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
                # An escaped newline inside a string has never started
                # a new line for the positions that follow it.
                while next_nl < end:
                    next_nl = find("\n", next_nl + 1)
            append(Token("STRING", value, line, column, start, end))
        elif kind == "PRIME":
            # The word the prime is the suffix of comes first.
            word_start = m.start("NAME")
            if word_start >= 0:
                append(_word(text, line, word_start - line_start + 1,
                             word_start, start))
            else:
                word_start = m.start("POST_ACCUM")
                append(Token("KEYWORD", "POST_ACCUM", line,
                             word_start - line_start + 1, word_start, start))
            append(Token("PRIME", "'", line, column, start, end))
        elif kind == "POST_ACCUM":
            append(Token("KEYWORD", "POST_ACCUM", line, column, start, end))
        elif kind == "EOF":
            append(Token("EOF", "", line, column, start, start))
            return tokens
        elif kind == "UNCLOSED":
            raise GSQLSyntaxError("unterminated block comment", line, column)
        elif kind == "UNTERMINATED":
            # It ran into an unescaped newline, or else off the end of
            # the text (where a lone trailing backslash stops the match).
            if end < len(text) and text[end] != "\n":
                end = len(text)
            raise GSQLSyntaxError(
                "unterminated string literal", line, end - line_start + 1
            )
        else:
            raise GSQLSyntaxError(
                f"unexpected character {text[start]!r}", line, column
            )
    raise AssertionError("unreachable: _TOKEN matches EOF")  # pragma: no cover


__all__ = ["Token", "tokenize", "KEYWORDS"]
