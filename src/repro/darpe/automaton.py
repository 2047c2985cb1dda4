"""Compilation of DARPEs to finite automata.

The pipeline is: AST → Thompson ε-NFA → ε-free NFA → lazily-determinized
DFA over the *direction-adorned alphabet* (pairs of edge type and crossing
direction).

Determinization matters for correctness, not just speed: the SDMC counting
algorithm (Theorem 6.1) counts paths by counting runs of the automaton on
the product graph.  A nondeterministic automaton can have several accepting
runs over one path, which would over-count; in a DFA every path has exactly
one run, so path counts and run counts coincide.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import DarpeSyntaxError
from ..graph.elements import FORWARD, REVERSE, UNDIRECTED, Step
from .ast import Alt, Concat, DarpeNode, Epsilon, Repeat, Star, Symbol, normalize
from .parser import parse_darpe

#: A concrete adorned symbol: (edge type name, crossing direction).
AdornedSymbol = Tuple[str, str]

#: A (possibly wildcard) transition label: (edge type or None, direction).
TransitionLabel = Tuple[Optional[str], str]


class NFA:
    """An ε-free nondeterministic finite automaton over adorned symbols.

    ``transitions[q]`` is a list of ``(edge_type_or_None, direction, target)``
    triples; ``edge_type_or_None`` is ``None`` for wildcard transitions.
    """

    __slots__ = ("start", "accepting", "transitions")

    def __init__(
        self,
        start: int,
        accepting: FrozenSet[int],
        transitions: List[List[Tuple[Optional[str], str, int]]],
    ):
        self.start = start
        self.accepting = accepting
        self.transitions = transitions

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: AdornedSymbol) -> Set[int]:
        edge_type, direction = symbol
        return {
            target
            for (label_type, label_dir, target) in self.transitions[state]
            if label_dir == direction
            and (label_type is None or label_type == edge_type)
        }

    def accepts_empty(self) -> bool:
        return self.start in self.accepting


class _EpsilonNFA:
    """Mutable Thompson-construction scratch automaton."""

    def __init__(self) -> None:
        self.symbol_edges: List[List[Tuple[Optional[str], str, int]]] = []
        self.eps_edges: List[List[int]] = []

    def new_state(self) -> int:
        self.symbol_edges.append([])
        self.eps_edges.append([])
        return len(self.symbol_edges) - 1

    def add_symbol(self, src: int, label: TransitionLabel, dst: int) -> None:
        self.symbol_edges[src].append((label[0], label[1], dst))

    def add_eps(self, src: int, dst: int) -> None:
        self.eps_edges[src].append(dst)

    def closure(self, states: Set[int]) -> Set[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            q = stack.pop()
            for nxt in self.eps_edges[q]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


def _thompson(node: DarpeNode, enfa: _EpsilonNFA) -> Tuple[int, int]:
    """Build a fragment for ``node``; returns (entry state, exit state)."""
    if isinstance(node, Symbol):
        entry, exit_ = enfa.new_state(), enfa.new_state()
        enfa.add_symbol(entry, (node.edge_type, node.direction), exit_)
        return entry, exit_
    if isinstance(node, Epsilon):
        entry, exit_ = enfa.new_state(), enfa.new_state()
        enfa.add_eps(entry, exit_)
        return entry, exit_
    if isinstance(node, Concat):
        entry, exit_ = None, None
        for part in node.parts:
            p_entry, p_exit = _thompson(part, enfa)
            if entry is None:
                entry = p_entry
            else:
                enfa.add_eps(exit_, p_entry)  # type: ignore[arg-type]
            exit_ = p_exit
        assert entry is not None and exit_ is not None
        return entry, exit_
    if isinstance(node, Alt):
        entry, exit_ = enfa.new_state(), enfa.new_state()
        for part in node.parts:
            p_entry, p_exit = _thompson(part, enfa)
            enfa.add_eps(entry, p_entry)
            enfa.add_eps(p_exit, exit_)
        return entry, exit_
    if isinstance(node, Star):
        entry, exit_ = enfa.new_state(), enfa.new_state()
        i_entry, i_exit = _thompson(node.inner, enfa)
        enfa.add_eps(entry, i_entry)
        enfa.add_eps(i_exit, entry)
        enfa.add_eps(entry, exit_)
        return entry, exit_
    raise TypeError(f"node {node!r} should have been normalized away")


def compile_nfa(node: DarpeNode) -> NFA:
    """Compile a DARPE AST into an ε-free NFA."""
    node = normalize(node)
    enfa = _EpsilonNFA()
    entry, exit_ = _thompson(node, enfa)

    closures: Dict[int, Set[int]] = {}

    def closure_of(q: int) -> Set[int]:
        cached = closures.get(q)
        if cached is None:
            cached = enfa.closure({q})
            closures[q] = cached
        return cached

    n = len(enfa.symbol_edges)
    transitions: List[List[Tuple[Optional[str], str, int]]] = [[] for _ in range(n)]
    accepting = set()
    for q in range(n):
        reach = closure_of(q)
        if exit_ in reach:
            accepting.add(q)
        merged: Set[Tuple[Optional[str], str, int]] = set()
        for r in reach:
            merged.update(enfa.symbol_edges[r])
        transitions[q] = sorted(merged, key=lambda t: (t[0] or "", t[1], t[2]))
    return NFA(entry, frozenset(accepting), transitions)


class LazyDFA:
    """Subset-construction DFA, materialized on demand.

    States are integers; state 0 is the start.  The transition function is
    computed per concrete adorned symbol the first time it is requested and
    memoized, so only the part of the DFA actually reachable over the graph
    under evaluation is ever built.
    """

    DEAD = -1

    def __init__(self, nfa: NFA):
        self._nfa = nfa
        start_set = frozenset({nfa.start})
        self._sets: List[FrozenSet[int]] = [start_set]
        self._ids: Dict[FrozenSet[int], int] = {start_set: 0}
        self._trans: Dict[Tuple[int, AdornedSymbol], int] = {}
        self._accepting: List[bool] = [bool(start_set & nfa.accepting)]

    @property
    def start(self) -> int:
        return 0

    def is_accepting(self, state: int) -> bool:
        return state != self.DEAD and self._accepting[state]

    def step(self, state: int, symbol: AdornedSymbol) -> int:
        """Next DFA state, or :data:`DEAD` when no run continues."""
        if state == self.DEAD:
            return self.DEAD
        key = (state, symbol)
        cached = self._trans.get(key)
        if cached is not None:
            return cached
        targets: Set[int] = set()
        for q in self._sets[state]:
            targets |= self._nfa.step(q, symbol)
        if not targets:
            self._trans[key] = self.DEAD
            return self.DEAD
        frozen = frozenset(targets)
        state_id = self._ids.get(frozen)
        if state_id is None:
            state_id = len(self._sets)
            self._sets.append(frozen)
            self._ids[frozen] = state_id
            self._accepting.append(bool(frozen & self._nfa.accepting))
        self._trans[key] = state_id
        return state_id

    def directions(self, state: int) -> Tuple[str, ...]:
        """The crossing directions in which ``state`` has any transition,
        in the graph's expansion order ``>``, ``<``, ``-``.  A caller
        expanding a vertex skips every adjacency bucket of the other
        directions without stepping the automaton."""
        if state == self.DEAD:
            return ()
        live = {
            label_dir
            for q in self._sets[state]
            for (_, label_dir, _) in self._nfa.transitions[q]
        }
        return tuple(d for d in (FORWARD, REVERSE, UNDIRECTED) if d in live)

    @property
    def num_materialized_states(self) -> int:
        return len(self._sets)


#: The most symbol positions a DARPE may unroll to.  Bounded repetition
#: copies its operand once per count and the automaton's construction
#: grows faster than linearly in the copies (``E>*1..1000`` takes
#: seconds), so a pattern past this is refused, not compiled.
MAX_POSITIONS = 128


def unrolled_positions(node: DarpeNode) -> int:
    """How many symbol positions ``node`` unrolls to when compiled."""
    if isinstance(node, (Concat, Alt)):
        return sum(unrolled_positions(part) for part in node.parts)
    if isinstance(node, Star):
        return unrolled_positions(node.inner)
    if isinstance(node, Repeat):
        copies = max(node.min_count, node.max_count or 0, 1)
        return unrolled_positions(node.inner) * copies
    return 1


class CompiledDarpe:
    """A parsed and compiled DARPE, ready for matching and counting.

    This is the object the rest of the library passes around.  It bundles
    the AST (for static analysis such as fixed-unique-length detection),
    the ε-free NFA, and a factory for per-evaluation lazy DFAs.
    """

    def __init__(self, ast: DarpeNode, text: Optional[str] = None):
        self.ast = ast
        self.text = text if text is not None else repr(ast)
        positions = unrolled_positions(ast)
        if positions > MAX_POSITIONS:
            raise DarpeSyntaxError(
                f"the pattern unrolls to {positions} edge positions, more "
                f"than the {MAX_POSITIONS} a DARPE may compile to (use an "
                f"unbounded * and bound the path in the query instead)",
                self.text, 0,
            )
        self.nfa = compile_nfa(ast)

    @classmethod
    def parse(cls, text: str) -> "CompiledDarpe":
        return cls(parse_darpe(text), text)

    def new_dfa(self) -> LazyDFA:
        """A fresh lazy DFA.  Transitions are memoized per adorned symbol
        (edge type, direction) — nothing in a DFA depends on the graph —
        and each evaluation takes its own, so evaluations on different
        threads never share the mutable memo."""
        return LazyDFA(self.nfa)

    def matches_word(self, word: List[AdornedSymbol]) -> bool:
        """Does a sequence of adorned symbols spell a word in the language?"""
        dfa = self.new_dfa()
        state = dfa.start
        for symbol in word:
            state = dfa.step(state, symbol)
            if state == LazyDFA.DEAD:
                return False
        return dfa.is_accepting(state)

    def matches_steps(self, steps: List[Step]) -> bool:
        """Does a path, given as traversal steps, satisfy the DARPE?"""
        return self.matches_word([(s.edge.type, s.direction) for s in steps])

    def accepts_empty(self) -> bool:
        return self.nfa.accepts_empty()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompiledDarpe({self.text!r})"


__all__ = [
    "AdornedSymbol",
    "NFA",
    "LazyDFA",
    "CompiledDarpe",
    "compile_nfa",
]
