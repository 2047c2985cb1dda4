"""Lexer for the GSQL subset.

Produces a list of ``(kind, value, start, end)`` tuples: ``start`` and
``end`` are offsets into the source (so DARPE substrings can be
recovered verbatim for the DARPE parser).  Line and column are not
stored per token; :class:`Lines` resolves an offset to them when a span
or an error needs one.

Notable lexing decisions:

* a token's kind is ``NAME``, ``NUMBER``, ``STRING`` or ``EOF``, or the
  token itself for everything with one spelling: the keyword in upper
  case (``SELECT``), the operator (``+=``), the sigils ``@@`` and ``@``
  (global vs vertex accumulators) and the PRIME ``'``;
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
from bisect import bisect_right
from typing import Dict, List, Tuple

from ..errors import GSQLSyntaxError

KEYWORDS = {
    "CREATE", "QUERY", "FOR", "GRAPH", "SELECT", "DISTINCT", "INTO", "FROM",
    "WHERE", "ACCUM", "POST_ACCUM", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "ASC", "DESC", "WHILE", "DO", "END", "IF", "THEN", "ELSE", "PRINT",
    "RETURN", "TRUE", "FALSE", "AND", "OR", "NOT", "IN", "TYPEDEF", "TUPLE",
    "CASE", "WHEN", "AS", "FOREACH", "USING", "SEMANTICS",
    "UNION", "INTERSECT", "MINUS",
}

#: ``(kind, value, start, end)``.
Token = Tuple[str, str, int, int]

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
              | [-+*/%=<>(){}\[\],;:.|] | @@ | @ )
      | (?P<STRING> "(?: [^"\\\n] | \\. )*" | '(?: [^'\\\n] | \\. )*' )
      | (?P<UNTERMINATED> "(?: [^"\\\n] | \\. )* | '(?: [^'\\\n] | \\. )* )
      | (?P<EOF> \Z )
      | (?P<BAD> . )
    )
    """,
    re.X | re.S,
)
_ESCAPE = re.compile(r"\\(.)", re.S)

#: ``(kind, value)`` of every word seen, so a word is case-folded and
#: looked up in :data:`KEYWORDS` once, not once per occurrence.  Names
#: are unbounded (ad-hoc query names never repeat), so the memo is
#: dropped whole when it fills.
_WORDS: Dict[str, Tuple[str, str]] = {}
_WORDS_LIMIT = 4096


def _fold(word: str) -> Tuple[str, str]:
    upper = word.upper()
    folded = (upper, upper) if upper in KEYWORDS else ("NAME", word)
    if len(_WORDS) >= _WORDS_LIMIT:
        _WORDS.clear()
    _WORDS[word] = folded
    return folded


class Lines:
    """Turns offsets into one source text into 1-based line and column.

    The table of line starts is built on first use.  A newline escaped
    inside a string literal starts no line: the positions after it keep
    counting columns on the line the string opened on.
    """

    __slots__ = ("text", "strings", "_starts")

    def __init__(self, text: str):
        self.text = text
        #: ``(start, end)`` of the string literals holding a newline.
        self.strings: List[Tuple[int, int]] = []
        self._starts: List[int] = []

    def position(self, offset: int) -> Tuple[int, int]:
        """``(line, column)`` of ``offset``."""
        starts = self.starts()
        line = bisect_right(starts, offset)
        return line, offset - starts[line - 1] + 1

    def starts(self) -> List[int]:
        """The offset each line starts at, in order."""
        if self._starts:
            return self._starts
        text = self.text
        starts = [0]
        at = text.find("\n")
        while at >= 0:
            starts.append(at + 1)
            at = text.find("\n", at + 1)
        if self.strings:
            starts = [s for s in starts
                      if not any(lo < s <= hi for lo, hi in self.strings)]
        self._starts = starts
        return starts


def lex(text: str) -> Tuple[List[Token], Lines]:
    """The tokens of ``text`` and its :class:`Lines`; raises
    :class:`GSQLSyntaxError` on junk."""
    tokens: List[Token] = []
    append = tokens.append
    lines = Lines(text)
    folded = _WORDS.get
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "OP":
            op = text[start:end]
            append((op, op, start, end))
        elif kind == "NAME":
            word = text[start:end]
            word_kind, value = folded(word) or _fold(word)
            append((word_kind, value, start, end))
        elif kind == "NUMBER":
            append(("NUMBER", text[start:end], start, end))
        elif kind == "STRING":
            value = text[start + 1 : end - 1]
            if "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
                if "\n" in text[start:end]:
                    lines.strings.append((start, end))
            append(("STRING", value, start, end))
        elif kind == "PRIME":
            # The word the prime is the suffix of comes first.
            word_start = m.start("NAME")
            if word_start >= 0:
                word = text[word_start:start]
                word_kind, value = folded(word) or _fold(word)
                append((word_kind, value, word_start, start))
            else:
                append(("POST_ACCUM", "POST_ACCUM", m.start("POST_ACCUM"), start))
            append(("'", "'", start, end))
        elif kind == "POST_ACCUM":
            append(("POST_ACCUM", "POST_ACCUM", start, end))
        elif kind == "EOF":
            append(("EOF", "", start, start))
            return tokens, lines
        elif kind == "UNCLOSED":
            raise GSQLSyntaxError(
                "unterminated block comment", *lines.position(start)
            )
        elif kind == "UNTERMINATED":
            # It ran into an unescaped newline, or else off the end of
            # the text (where a lone trailing backslash stops the match).
            if end < len(text) and text[end] != "\n":
                end = len(text)
            line, column = lines.position(start)
            raise GSQLSyntaxError(
                "unterminated string literal", line, column + end - start
            )
        else:
            raise GSQLSyntaxError(
                f"unexpected character {text[start]!r}", *lines.position(start)
            )
    raise AssertionError("unreachable: _TOKEN matches EOF")  # pragma: no cover


def tokenize(text: str) -> List[Token]:
    """The ``(kind, value, start, end)`` tokens of GSQL source; raises
    :class:`GSQLSyntaxError` on junk."""
    return lex(text)[0]


__all__ = ["Lines", "Token", "lex", "tokenize", "KEYWORDS"]
