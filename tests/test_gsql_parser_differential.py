"""Differential test: the GSQL parser against the one it replaced.

``repro.gsql`` was rewritten: offset tokens, one precedence-climbing
expression parser, spans built from token offsets, a memo of compiled
DARPEs, and no cost certificate stamped at parse time.  The old lexer
and parser live on, untouched, in ``reference_parser.py``.  For every
text here both must give the same ``print_query`` output and the same
span on every AST node, or fail with the same ``GSQLSyntaxError``
message, line and column (any other error: same type and message).

The corpus is every text the lexer differential collects plus generated
expressions mixing every precedence level, ``NOT IN``, unary minus,
calls, ``.@acc'`` reads and tuples.  Test ids are content hashes first,
so adding a text renames no other test.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GSQLSyntaxError, QueryCompileError
from repro.gsql import parse_queries, parse_query, print_query

from . import reference_parser
from .gsql_corpus import BENCHMARK_TEXTS, REPOSITORY_TEXTS, content_id


def _unique(texts):
    seen = {}
    for label, text in texts:
        seen.setdefault(content_id(label, text), text)
    return sorted(seen.items())


CORPUS = _unique(REPOSITORY_TEXTS + BENCHMARK_TEXTS)


def node_spans(node, path="query", out=None, seen=None):
    """``(path, node type, span)`` of every AST node reachable from
    ``node`` that carries a span, in a fixed walk order."""
    out = [] if out is None else out
    seen = set() if seen is None else seen
    if isinstance(node, (list, tuple)) and not hasattr(node, "_fields"):
        for index, item in enumerate(node):
            node_spans(item, f"{path}[{index}]", out, seen)
        return out
    module = type(node).__module__
    if (
        not module.startswith(("repro.", "tests."))
        or module.startswith("repro.darpe")
        or callable(node)
        or id(node) in seen
    ):
        return out
    seen.add(id(node))
    fields = dict(getattr(node, "__dict__", {}))
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(node, slot):
                fields[slot] = getattr(node, slot)
    if fields.get("span") is not None:
        out.append((path, type(node).__name__, tuple(fields["span"])))
    for name in sorted(fields):
        if name in ("span", "source") or name.startswith("_") or "certificate" in name:
            continue
        node_spans(fields[name], f"{path}.{name}", out, seen)
    return out


def _printed(query):
    try:
        return print_query(query)
    except QueryCompileError as exc:  # e.g. a parameter-sized HeapAccum
        return ("unprintable", str(exc))


def outcome(parse, text):
    """What a parser makes of ``text``: per query its printed form and
    its spans, or its error."""
    try:
        queries = parse(text)
    except GSQLSyntaxError as exc:
        return ("syntax error", str(exc), exc.line, exc.column)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("error", type(exc).__name__, str(exc))
    return [
        (name, _printed(query), node_spans(query))
        for name, query in queries.items()
    ]


def assert_same(text):
    shipped = outcome(parse_queries, text)
    assert shipped == outcome(reference_parser.parse_queries, text)
    return shipped


def test_the_corpus_is_not_empty():
    assert len(CORPUS) > 250
    spans = sum(
        len(found)
        for _, text in CORPUS
        if isinstance(result := outcome(parse_queries, text), list)
        for _, _, found in result
    )
    assert spans > 2500


@pytest.mark.parametrize(
    "text", [text for _, text in CORPUS], ids=[key for key, _ in CORPUS]
)
def test_corpus_text_parses_identically(text):
    assert_same(text)


# ----------------------------------------------------------------------
# Generated expressions
# ----------------------------------------------------------------------
LEAVES = st.sampled_from([
    "v", "n", "x1", "0", "1", "2.5", "1e3", "'s'", '"t"', "TRUE", "FALSE",
    "v.age", "v.@acc", "v.@acc'", "@@g", "@@g'", "count(*)", "f()",
    "v.outdegree()", "v.@m.size()",
])
BINARY = [
    "OR", "AND", "==", "=", "!=", "<>", "<", "<=", ">", ">=", "IN", "NOT IN",
    "+", "-", "*", "/", "%", "or", "and", "not in",
]


def _compound(children):
    def call(parts):
        name, args = parts
        return f"{name}({', '.join(args)})"

    return st.one_of(
        st.tuples(children, st.sampled_from(BINARY), children).map(" ".join),
        st.tuples(st.sampled_from(["-", "+", "NOT ", "- -", "not "]), children)
        .map("".join),
        children.map("({})".format),
        st.lists(children, min_size=2, max_size=3).map(
            lambda items: f"({', '.join(items)})"
        ),
        st.tuples(children, children).map(lambda kv: f"({kv[0]} -> {kv[1]})"),
        st.tuples(
            st.sampled_from(["abs", "max", "sum", "f", "count"]),
            st.lists(children, max_size=3),
        ).map(call),
        st.tuples(children, st.sampled_from(["attr", "@acc", "@acc'", "m()"]))
        .map(lambda pair: f"({pair[0]}).{pair[1]}"),
        st.tuples(children, children, children).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END"
        ),
    )


EXPRESSIONS = st.recursive(LEAVES, _compound, max_leaves=10)

TEMPLATE = """CREATE QUERY g(int n) {{
  SumAccum<int> @@g;
  S = SELECT v FROM V:v WHERE {expr};
  PRINT {expr};
}}"""


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
@example("-a * b + c % d - e / f")
@example("NOT a == b AND c NOT IN d OR NOT NOT e")
@example("a == b == c")
@example("v OR v == v == v")
@example("a < NOT b")
@example("NOT IN x")
@example("-(a, b).@acc' IN (c -> d, e)")
def test_generated_expression_parses_identically(expr):
    assert_same(TEMPLATE.format(expr=expr))


def test_precedence_is_the_ladders():
    # The precedence climber reproduces the old ladder's trees: every
    # level nests as it did, comparisons stop after one, NOT sits
    # between AND and the comparisons, unary minus above '*'.
    query = parse_query(TEMPLATE.format(
        expr="NOT a + b * -c == d OR e AND f NOT IN g"
    ))
    printed = print_query(query)
    assert "((NOT ((a + (b * (- c))) == d)) OR (e AND (f NOT IN g)))" in printed


# ----------------------------------------------------------------------
# Where the two differ: inputs the old parser answered with an
# unstructured error
# ----------------------------------------------------------------------
class TestKnownDivergences:
    def _both(self, text):
        return outcome(parse_queries, text), outcome(
            reference_parser.parse_queries, text
        )

    def test_a_bad_darpe_is_a_syntax_error_at_its_position(self):
        shipped, old = self._both(
            "CREATE QUERY q() {\n  S = SELECT v FROM V:v -(E> F>)- V:t;\n}"
        )
        assert old[:2] == ("error", "DarpeSyntaxError")
        assert shipped == (
            "syntax error",
            "line 2, col 30: bad edge pattern 'E> F>': unexpected trailing 'F'",
            2, 30,
        )

    def test_an_unknown_accumulator_is_a_compile_error(self):
        shipped, old = self._both(
            "CREATE QUERY q() { NoSuchAccum @@x; PRINT @@x; }"
        )
        assert old[:2] == ("error", "AccumulatorError")
        assert shipped[:2] == ("error", "QueryCompileError")
        assert shipped[2] == old[2]

    @pytest.mark.parametrize("decl", [
        "HeapAccum<T>(2.5, a DESC) @@h;", "ArrayAccum<SumAccum<INT>>(1e3) @@a;",
    ])
    def test_a_fractional_size_is_a_syntax_error(self, decl):
        text = (
            "CREATE QUERY q() { TYPEDEF TUPLE <INT a> T; "
            f"{decl} PRINT 1; }}"
        )
        shipped, old = self._both(text)
        assert old[:2] == ("error", "ValueError")
        assert shipped[0] == "syntax error"
        assert "expected an integer" in shipped[1]

    def test_deep_nesting_is_a_syntax_error(self):
        text = TEMPLATE.format(expr="(" * 3000 + "1" + ")" * 3000)
        with pytest.raises(GSQLSyntaxError, match="nested too deeply"):
            parse_query(text)
