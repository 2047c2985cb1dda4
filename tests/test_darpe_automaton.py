"""Tests for DARPE compilation to NFA/DFA, including a property test
that cross-checks word acceptance against Python's ``re`` engine."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darpe import CompiledDarpe, LazyDFA
from repro.graph.elements import FORWARD, REVERSE, UNDIRECTED

# Encode each adorned symbol as one character so a DARPE can be mirrored
# by an ordinary regular expression over a character alphabet.
ALPHABET = {
    ("E", FORWARD): "a",
    ("E", REVERSE): "b",
    ("E", UNDIRECTED): "c",
    ("F", FORWARD): "d",
    ("F", REVERSE): "e",
    ("G", REVERSE): "f",
}
_ALL_DIRECTED_FWD = "ad"  # E>, F> — what the wildcard _> can match here
_ALL_DIRECTED_REV = "bef"

#: (darpe text, equivalent anchored regex over the encoded alphabet)
PATTERNS = [
    ("E>", "a"),
    ("<E", "b"),
    ("E", "c"),
    ("E>*", "a*"),
    ("E>.F>", "ad"),
    ("E>|F>", "a|d"),
    ("(E>|<F)*", "(a|e)*"),
    ("E>*1..3", "a{1,3}"),
    ("E>*2..", "a{2,}"),
    ("E>*..2", "a{0,2}"),
    ("E>.(F>|<G)*.<E", "a(d|f)*b"),
    ("_>", f"[{_ALL_DIRECTED_FWD}]"),
    ("<_", f"[{_ALL_DIRECTED_REV}]"),
    ("(E>.F>)*", "(ad)*"),
]


def accepts(darpe_text: str, word):
    return CompiledDarpe.parse(darpe_text).matches_word(list(word))


symbols_strategy = st.lists(
    st.sampled_from(sorted(ALPHABET)), min_size=0, max_size=8
)


class TestAgainstRe:
    @pytest.mark.parametrize("darpe_text,regex", PATTERNS)
    @settings(max_examples=60, deadline=None)
    @given(word=symbols_strategy)
    def test_acceptance_matches_re(self, darpe_text, regex, word):
        encoded = "".join(ALPHABET[s] for s in word)
        expected = re.fullmatch(regex, encoded) is not None
        assert accepts(darpe_text, word) == expected


class TestMatching:
    def test_empty_word(self):
        assert accepts("E>*", [])
        assert not accepts("E>", [])

    def test_accepts_empty_flag(self):
        assert CompiledDarpe.parse("E>*").accepts_empty()
        assert not CompiledDarpe.parse("E>").accepts_empty()
        assert CompiledDarpe.parse("E>*0..2").accepts_empty()

    def test_direction_matters(self):
        assert accepts("E>", [("E", FORWARD)])
        assert not accepts("E>", [("E", REVERSE)])
        assert not accepts("E>", [("E", UNDIRECTED)])

    def test_wildcard_respects_direction(self):
        assert accepts("_>", [("Anything", FORWARD)])
        assert not accepts("_>", [("Anything", REVERSE)])
        assert accepts("_", [("X", UNDIRECTED)])

    def test_example2(self):
        """Example 2's DARPE accepts its described path shape."""
        word = [
            ("E", FORWARD),
            ("F", FORWARD),
            ("G", REVERSE),
            ("F", FORWARD),
            ("H", UNDIRECTED),
            ("J", REVERSE),
        ]
        assert accepts("E>.(F>|<G)*.H.<J", word)

    def test_example2_rejects_wrong_tail(self):
        word = [("E", FORWARD), ("H", UNDIRECTED), ("J", FORWARD)]
        assert not accepts("E>.(F>|<G)*.H.<J", word)


class TestLazyDFA:
    def test_dead_state_is_sticky(self):
        dfa = CompiledDarpe.parse("E>").new_dfa()
        state = dfa.step(dfa.start, ("X", FORWARD))
        assert state == LazyDFA.DEAD
        assert dfa.step(state, ("E", FORWARD)) == LazyDFA.DEAD
        assert not dfa.is_accepting(state)

    def test_transitions_memoized(self):
        dfa = CompiledDarpe.parse("E>*").new_dfa()
        s1 = dfa.step(dfa.start, ("E", FORWARD))
        s2 = dfa.step(dfa.start, ("E", FORWARD))
        assert s1 == s2

    def test_determinism_one_state_per_word(self):
        """In a DFA every word has exactly one run — the property the SDMC
        counting relies on."""
        dfa = CompiledDarpe.parse("(E>|E>.E>)*").new_dfa()
        state = dfa.start
        for _ in range(5):
            state = dfa.step(state, ("E", FORWARD))
            assert isinstance(state, int)

    def test_materialized_states_bounded(self):
        compiled = CompiledDarpe.parse("E>.(F>|<G)*.H.<J")
        dfa = compiled.new_dfa()
        word = [("E", FORWARD)] + [("F", FORWARD)] * 50
        state = dfa.start
        for symbol in word:
            state = dfa.step(state, symbol)
        assert dfa.num_materialized_states <= compiled.nfa.num_states + 1


def test_unrolling_past_the_position_cap_is_refused():
    from repro.darpe.automaton import MAX_POSITIONS, unrolled_positions
    from repro.darpe.parser import parse_darpe
    from repro.errors import DarpeSyntaxError

    assert unrolled_positions(parse_darpe("(E>.<F|G)*2..3")) == 9
    assert CompiledDarpe.parse(f"E>*1..{MAX_POSITIONS}").accepts_empty() is False
    with pytest.raises(DarpeSyntaxError, match="unrolls to 256 edge positions"):
        CompiledDarpe.parse("(E>*16)*16")
    # Parsing alone does not compile: the AST of a huge bound is fine.
    assert repr(parse_darpe("E>*1..100000")) == "E>*1..100000"
