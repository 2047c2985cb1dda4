"""The character-loop GSQL lexer ``repro.gsql.lexer`` replaced, kept as
the oracle of ``test_gsql_lexer_differential.py``.

This is the loop exactly as it shipped (only ``Token`` and ``KEYWORDS``
are imported, from the lexer it was replaced by, itself kept in
``reference_parser.py``): one branch per character class,
position bookkeeping by hand.  It is slow and, on two exotic inputs,
wrong (see ``TestKnownDivergences``) — do not fix it; the point of a
reference is that it does not move.
"""

from __future__ import annotations

from typing import List

from repro.errors import GSQLSyntaxError
from .reference_parser import KEYWORDS, Token

#: Multi-character operators, longest first.
_OPERATORS = [
    "+=", "==", "!=", "<>", "<=", ">=", "->", "..",
    "+", "-", "*", "/", "%", "=", "<", ">", "(", ")", "{", "}", "[", "]",
    ",", ";", ":", ".", "|",
]


def tokenize(text: str) -> List[Token]:
    """Tokenize GSQL source; raises :class:`GSQLSyntaxError` on junk."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)

    def error(message: str) -> GSQLSyntaxError:
        return GSQLSyntaxError(message, line, pos - line_start + 1)

    def push(kind: str, value: str, start: int) -> None:
        tokens.append(Token(kind, value, line, start - line_start + 1, start, pos))

    while pos < n:
        ch = text[pos]
        # -- whitespace --------------------------------------------------
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "\n":
            pos += 1
            line += 1
            line_start = pos
            continue
        # -- comments ----------------------------------------------------
        if ch == "#" or text.startswith("//", pos):
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if text.startswith("/*", pos):
            close = text.find("*/", pos + 2)
            if close < 0:
                raise error("unterminated block comment")
            for i in range(pos, close):
                if text[i] == "\n":
                    line += 1
                    line_start = i + 1
            pos = close + 2
            continue
        # -- strings -------------------------------------------------------
        if ch == '"' or (ch == "'" and not _prime_context(tokens, pos)):
            quote = ch
            start = pos
            pos += 1
            chunks: List[str] = []
            while pos < n and text[pos] != quote:
                if text[pos] == "\n":
                    raise error("unterminated string literal")
                if text[pos] == "\\" and pos + 1 < n:
                    chunks.append(text[pos + 1])
                    pos += 2
                else:
                    chunks.append(text[pos])
                    pos += 1
            if pos >= n:
                raise error("unterminated string literal")
            pos += 1
            push("STRING", "".join(chunks), start)
            continue
        # -- prime ---------------------------------------------------------
        if ch == "'":
            start = pos
            pos += 1
            push("PRIME", "'", start)
            continue
        # -- accumulator sigils ---------------------------------------------
        if text.startswith("@@", pos):
            start = pos
            pos += 2
            push("ATAT", "@@", start)
            continue
        if ch == "@":
            start = pos
            pos += 1
            push("AT", "@", start)
            continue
        # -- numbers ---------------------------------------------------------
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            # Only treat '.' as a decimal point when not part of '..'
            if (
                pos < n
                and text[pos] == "."
                and not text.startswith("..", pos)
                and pos + 1 < n
                and text[pos + 1].isdigit()
            ):
                pos += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
            if pos < n and text[pos] in "eE":
                probe = pos + 1
                if probe < n and text[probe] in "+-":
                    probe += 1
                if probe < n and text[probe].isdigit():
                    pos = probe
                    while pos < n and text[pos].isdigit():
                        pos += 1
            push("NUMBER", text[start:pos], start)
            continue
        # -- identifiers / keywords --------------------------------------------
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            upper = word.upper()
            if upper == "POST" and _peek_hyphen_accum(text, pos):
                # Figure 4 writes POST-ACCUM with a hyphen; normalize it.
                pos = text.upper().index("ACCUM", pos) + 5
                push("KEYWORD", "POST_ACCUM", start)
                continue
            if upper in KEYWORDS:
                push("KEYWORD", upper, start)
            else:
                push("NAME", word, start)
            continue
        # -- operators ---------------------------------------------------------
        for op in _OPERATORS:
            if text.startswith(op, pos):
                start = pos
                pos += len(op)
                push("OP", op, start)
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token("EOF", "", line, pos - line_start + 1, pos, pos))
    return tokens


def _prime_context(tokens: List[Token], pos: int) -> bool:
    """A quote directly abutting the previous identifier token is the
    prime suffix, not a string delimiter."""
    if not tokens:
        return False
    prev = tokens[-1]
    return prev.end == pos and prev.kind in ("NAME", "KEYWORD")


def _peek_hyphen_accum(text: str, pos: int) -> bool:
    """Is the upcoming text ``-ACCUM`` (possibly with spaces)?"""
    i = pos
    n = len(text)
    while i < n and text[i] in " \t":
        i += 1
    if i >= n or text[i] != "-":
        return False
    i += 1
    while i < n and text[i] in " \t":
        i += 1
    return text[i : i + 5].upper() == "ACCUM"
