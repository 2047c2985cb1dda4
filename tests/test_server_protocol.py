"""``jsonify``: every branch of the engine-value -> JSON shaping."""

import json

import pytest

from repro.accum import TupleType
from repro.core.values import Table, VertexSet
from repro.graph import Graph
from repro.server.protocol import jsonify


def _graph():
    g = Graph()
    g.add_vertex("p1", "Person", name="Ada")
    g.add_vertex("p2", "Person")            # no ``name``: falls back to the vid
    g.add_vertex(7, "Person", name=None)    # NULL name: the vid too, as a string
    return g


def _table():
    g = _graph()
    table = Table("T", ["who", "n", "tags"])
    table.append((g.vertex("p1"), 2, ("a", 1.5)))
    table.append((g.vertex("p2"), None, []))
    return table


MSG = TupleType("Msg", [("date", "INT"), ("author", "STRING")])

CASES = [
    # scalars pass through untouched (bool stays bool, not int)
    ("none", lambda: None, None),
    ("bool", lambda: True, True),
    ("int", lambda: 2 ** 40, 2 ** 40),
    ("float", lambda: 0.25, 0.25),
    ("str", lambda: "héllo", "héllo"),
    # engine values
    ("vertex with name", lambda: _graph().vertex("p1"), "Ada"),
    ("vertex without name", lambda: _graph().vertex("p2"), "p2"),
    ("vertex with NULL name", lambda: _graph().vertex(7), "7"),
    (
        "vertex set",
        lambda: VertexSet(_graph(), list(_graph().vertices())),
        ["Ada", "p2", "7"],
    ),
    (
        "table",
        _table,
        {
            "columns": ["who", "n", "tags"],
            "rows": [["Ada", 2, ["a", 1.5]], ["p2", None, []]],
        },
    ),
    # containers recurse; keys become strings; sets are ordered by repr
    ("dict", lambda: {1: "a", ("x", 2): [True], "k": {"n": None}},
     {"1": "a", "('x', 2)": [True], "k": {"n": None}}),
    ("list and tuple", lambda: [1, (2, [3, ()])], [1, [2, [3, []]]]),
    ("set", lambda: {3, 10, 2}, [10, 2, 3]),
    ("frozenset of strings", lambda: frozenset({"b", "a"}), ["a", "b"]),
    ("set of vertices", lambda: set(_graph().vertices()), ["7", "Ada", "p2"]),
    # everything else falls through to str() (``want`` computes it)
    ("tuple value", lambda: MSG.make(20120601, "Ada"), str),
    ("heap of tuple values", lambda: (MSG.make(1, "a"),), lambda heap: [str(heap[0])]),
    ("bytes", lambda: b"raw", "b'raw'"),
]


@pytest.mark.parametrize("name,build,want", CASES, ids=[c[0] for c in CASES])
def test_jsonify(name, build, want):
    value = build()
    got = jsonify(value)
    if callable(want):
        want = want(value)
    assert got == want
    assert type(got) is type(want)
    json.dumps(got)  # and the shape is what ``json`` encodes as it stands


def test_jsonify_of_a_result_document_is_stable():
    """The printed-records shape a reply carries, byte for byte."""
    printed = [{"R": [{"R.name": "v30", "R.@pathCount": 2 ** 30}]}, {"@@recent": ()}]
    assert json.dumps(jsonify(printed)) == (
        '[{"R": [{"R.name": "v30", "R.@pathCount": 1073741824}]}, {"@@recent": []}]'
    )
