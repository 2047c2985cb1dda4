"""Correctness oracles — none taken from the path under test.

The servers and the CLI answer with the *compiled counting* engine.
The oracles here are: the interpreted all-shortest-paths *enumeration*
engine (``asp-enum``; Theorem 7.1 says its answers must equal the
counting engine's), closed forms (2^n paths through an n-diamond chain),
a plain-dict PageRank, and arithmetic on the benchmark's own request
stream (the read-your-write Person count).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from corpus import IC_LIMIT, IC_ORDER, ic_text

Row = List[Any]

_MSG = re.compile(r"Msg\(creationDate=(-?\d+), length=(-?\d+), author='([^']*)'\)")


def ic9_rows_from_text(text: str) -> List[Row]:
    """IC9's ``Msg(...)`` tuples as rows, out of any text that prints them
    (a JSON response's strings, or ``repro run``'s stdout)."""
    return [[int(d), int(n), a] for d, n, a in _MSG.findall(text)]


def ic_rows_from_result(kind: str, result: Dict[str, Any]) -> Optional[List[Row]]:
    """Result rows out of a ``/query`` response's ``result`` document
    (``None`` when the shape is not what the query produces)."""
    try:
        if kind == "ic9":
            return ic9_rows_from_text(" ".join(result["printed"][0]["recent"]))
        return [list(row) for row in result["returned"]["rows"]]
    except (KeyError, IndexError, TypeError):
        return None


def _key(kind: str, row: Row) -> Tuple:
    return tuple(row[col] for col, _desc in IC_ORDER[kind])


def _rank(kind: str, row: Row) -> Tuple:
    """Sort rank of a row: descending keys (all numeric here) negated."""
    return tuple(-row[col] if desc else row[col] for col, desc in IC_ORDER[kind])


def is_ordered(kind: str, rows: Sequence[Row]) -> bool:
    """Rows respect the kind's ORDER BY and LIMIT (a structural check for
    reads whose exact answer the benchmark cannot recompute cheaply)."""
    if len(rows) > IC_LIMIT[kind]:
        return False
    return all(_rank(kind, a) <= _rank(kind, b) for a, b in zip(rows, rows[1:]))


def same_answer(kind: str, got: Sequence[Row], want: Sequence[Row]) -> bool:
    """Equality up to what ORDER BY … LIMIT leaves undetermined: the
    order among rows with equal sort keys, and *which* members of the tie
    group straddling the LIMIT cut-off were kept."""
    if len(got) != len(want):
        return False
    got_keys = [_key(kind, r) for r in got]
    if got_keys != [_key(kind, r) for r in want]:
        return False
    cut_key = got_keys[-1] if len(got) == IC_LIMIT[kind] else None

    def groups(rows: Iterable[Row]) -> Dict[Tuple, Counter]:
        out: Dict[Tuple, Counter] = {}
        for row in rows:
            key = _key(kind, row)
            if key != cut_key:
                out.setdefault(key, Counter())[tuple(row)] += 1
        return out

    return groups(got) == groups(want)


class IcOracle:
    """IC answers from the interpreted ``asp-enum`` engine, memoised per
    (kind, hops, parameters)."""

    def __init__(self, graph: Any):
        from repro.core.pattern import EngineMode
        from repro.paths import PathSemantics

        self._graph = graph
        self._mode = EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
        self._queries: Dict[Tuple[str, int], Any] = {}
        self._answers: Dict[Tuple, List[Row]] = {}

    def rows(self, kind: str, hops: int, params: Dict[str, Any]) -> List[Row]:
        memo = (kind, hops, tuple(sorted(params.items())))
        if memo not in self._answers:
            from repro.gsql import parse_query

            query = self._queries.get((kind, hops))
            if query is None:
                query = parse_query(ic_text(kind, hops))
                self._queries[(kind, hops)] = query
            result = query.run(self._graph, mode=self._mode, **params)
            if kind == "ic9":
                rows = [list(msg.values) for msg in result.printed[0]["recent"]]
            else:
                rows = [list(row) for row in result.returned.rows]
            self._answers[memo] = rows
        return self._answers[memo]


def pagerank_reference(
    vertices: Sequence[str], edges: Sequence[Tuple[str, str]],
    iterations: int, damping: float,
) -> Dict[str, float]:
    """Figure 4's update rule on plain dicts (scores start at 1, sum to
    the vertex count)."""
    out_degree = Counter(source for source, _ in edges)
    score = {v: 1.0 for v in vertices}
    for _ in range(iterations):
        received = dict.fromkeys(vertices, 0.0)
        for source, target in edges:
            received[target] += score[source] / out_degree[source]
        for v in vertices:
            if out_degree[v]:
                score[v] = 1 - damping + damping * received[v]
    return score
