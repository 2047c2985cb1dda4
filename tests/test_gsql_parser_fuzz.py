"""Byte-level fuzz of ``parse_query``: GSQL text is a trust boundary.

Whatever bytes arrive, ``parse_query`` answers with a query or with a
structured ``GSQLSyntaxError`` (a line and column inside the text) or
``QueryCompileError``, within a bounded time, and never with any other
exception.  Inputs are real texts from the corpus with bytes inserted,
deleted, replaced and duplicated — so the fuzz reaches deep into the
grammar and into the certificates stamped on what parses — plus runs
of grammar tokens spliced at random offsets, plus raw bytes.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GSQLSyntaxError, QueryCompileError
from repro.gsql import parse_query

from .gsql_corpus import BENCHMARK_TEXTS, REPOSITORY_TEXTS

#: Seconds one parse may take, far above the ~1 ms a corpus text takes.
BOUND = 2.0

SEEDS = sorted({
    text for label, text in REPOSITORY_TEXTS + BENCHMARK_TEXTS
    if "examples" in label or not label.endswith("]")
})
TOKENS = [
    b"CREATE QUERY ", b"SELECT ", b" FROM ", b" WHERE ", b" ACCUM ", b"POST-ACCUM",
    b" WHILE ", b" DO ", b" END", b" IF ", b" THEN ", b" ELSE ", b"FOREACH ",
    b" IN ", b"NOT ", b"CASE WHEN ", b" AS ", b"INTO ", b"LIMIT ", b"ORDER BY ",
    b"GROUP BY ", b"TYPEDEF TUPLE<", b"HeapAccum<", b"SumAccum<int>",
    b"MapAccum<", b"ArrayAccum<", b"@@", b"@", b"'", b'"', b"(", b")", b"{",
    b"}", b"[", b"]", b"<", b">", b",", b";", b":", b".", b"..", b"->", b"-(",
    b")-", b"*", b"+=", b"=", b"==", b"-", b"1.5", b"0", b"99999999999999999999",
    b"/*", b"*/", b"//", b"#", b"\\", b"\n", b"\xff", b"\xc3\xa9", b"\x00",
]


def check(text):
    started = time.perf_counter()
    try:
        parse_query(text)
    except GSQLSyntaxError as exc:
        assert exc.line >= 1 and exc.column >= 1, str(exc)
    except QueryCompileError:
        pass
    elapsed = time.perf_counter() - started
    assert elapsed < BOUND, f"{elapsed:.2f} s"


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "duplicate"]),
        st.integers(min_value=0),
        st.integers(min_value=1, max_value=24),
        st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=4)),
    ),
    min_size=1, max_size=6,
)


def mutate(seed, edits):
    data = bytearray(seed.encode("utf-8"))
    for op, at, width, chunk in edits:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = chunk
        elif op == "delete":
            del data[at:at + width]
        elif op == "replace":
            data[at:at + len(chunk)] = chunk
        else:
            data[at:at] = data[at:at + width]
    return bytes(data).decode("utf-8", errors="replace")


def test_the_seeds_are_real_queries():
    assert len(SEEDS) >= 20


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(SEEDS), EDITS)
def test_mutated_corpus_text_parses_or_fails_structurally(seed, edits):
    check(mutate(seed, edits))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=40))
def test_token_soup_parses_or_fails_structurally(chunks):
    check(b"".join(chunks).decode("utf-8", errors="replace"))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_raw_bytes_parse_or_fail_structurally(data):
    check(data.decode("utf-8", errors="replace"))


class TestMinimisedFindings:
    # What the fuzz found, each fixed and kept as a regression test.

    def test_a_duplicate_tuple_field_is_a_compile_error(self):
        # AccumulatorError escaped the parser unconverted.
        with pytest.raises(QueryCompileError, match="duplicate fields"):
            parse_query(
                "CREATE QUERY q() { TYPEDEF TUPLE <INT a, INT a> T; PRINT 1; }"
            )

    def test_a_huge_repetition_bound_is_refused_at_once(self):
        # A literal that landed inside a DARPE's bound made the automaton
        # construction run for minutes.
        started = time.perf_counter()
        with pytest.raises(GSQLSyntaxError, match="unrolls to 20121215 edge"):
            parse_query(
                "CREATE QUERY q() { S = SELECT t FROM V:s -(E>*1..20121215)- V:t; }"
            )
        assert time.perf_counter() - started < 0.1

    def test_an_over_long_number_is_a_syntax_error(self):
        # int() refuses literals of more than 4300 digits with ValueError.
        with pytest.raises(GSQLSyntaxError, match="of 5000 digits is too long"):
            parse_query("CREATE QUERY q() { PRINT " + "9" * 5000 + "; }")
