"""POST_ACCUM differential: the clause lowered onto the ACCUM kernel
against the statement interpreter it replaced
(``tests/reference_post_accum.py``).

Each case is one SELECT block whose ACCUM clause moves the accumulators
off their block-entry snapshot and whose POST_ACCUM clause is the thing
under test.  Both sides lower and run the same block; the reference side
swaps the interpreter in for the POST_ACCUM phase only.  Everything
observable must agree: accumulator values, attribute writes, the error
(type and message) and the state it left behind, the AccSan event list,
its verified replays and its detections, and every counter.
"""

import random

import pytest

from .reference_post_accum import run_post_accum as reference_run_post_accum
from repro import accsan, obs
from repro.accum import ListAccum, MaxAccum, SumAccum
from repro.compile import lowering
from repro.core import (
    AccumTarget,
    AccumUpdate,
    AttrRef,
    Binary,
    EngineMode,
    GlobalAccumRef,
    Literal,
    LocalAssign,
    NameRef,
    QueryContext,
    SelectBlock,
    VertexAccumRef,
    chain,
    hop,
)
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.pattern import Pattern
from repro.core.stmts import AccumForeach, AccumIf, AttributeUpdate
from repro.errors import QueryRuntimeError
from repro.graph import Graph, GraphSchema

EDGES = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")]


def make_graph(with_schema):
    schema = None
    if with_schema:
        schema = (
            GraphSchema("G").vertex("V", name="STRING", w="INT").edge("E", "V", "V")
        )
    g = Graph(schema) if schema is not None else Graph(name="G")
    for i, vid in enumerate("abcd"):
        g.add_vertex(vid, "V", name=vid, w=i + 1)
    for source, target in EDGES:
        g.add_edge(source, target, "E")
    return g


def make_ctx(graph):
    ctx = QueryContext(graph)
    ctx.declare(AccumDecl("g", GLOBAL, lambda: SumAccum(0)))
    ctx.declare(AccumDecl("mx", GLOBAL, MaxAccum))
    ctx.declare(AccumDecl("lst", GLOBAL, ListAccum))
    ctx.declare(AccumDecl("cnt", VERTEX, lambda: SumAccum(0)))
    ctx.declare(AccumDecl("seen", VERTEX, ListAccum))
    return ctx


#: Moves @@g and s.@cnt off their block-entry values, so a primed read
#: and a plain read disagree by the time POST_ACCUM runs.
ACCUM = [
    AccumUpdate(AccumTarget("g"), "+=", Literal(1)),
    AccumUpdate(AccumTarget("cnt", NameRef("s")), "+=", AttrRef(NameRef("t"), "w")),
]


def outcome(post_accum, *, reference, with_schema=True, sanitized=True,
            where=None, accum=ACCUM):
    """Run one block on a fresh graph and report everything observable."""
    graph = make_graph(with_schema)
    ctx = make_ctx(graph)
    block = SelectBlock(
        pattern=Pattern([chain("V", "s", hop("E>", "V", "t"))]),
        select_var="s",
        where=where,
        accum=list(accum),
        post_accum=post_accum,
    )
    compiled = lowering.compile_block(block)
    shipped = lowering.run_post_accum
    if reference:
        def interpreter(statements, ctx, rows, primed):
            assert statements is compiled._post_stmts
            reference_run_post_accum(
                block.post_accum, block.pattern.variables(), ctx, rows, primed
            )

        lowering.run_post_accum = interpreter
    error = None
    san = None
    try:
        with obs.collect() as col:
            if sanitized:
                with accsan.sanitize(schedules=3) as san:
                    compiled.execute(ctx, EngineMode.counting())
            else:
                compiled.execute(ctx, EngineMode.counting())
    except Exception as exc:  # compared, not handled: both sides must raise it
        error = (type(exc), str(exc))
    finally:
        lowering.run_post_accum = shipped
    return {
        "error": error,
        "globals": {n: ctx.global_accum(n).value for n in ("g", "mx", "lst")},
        "vertex": {n: dict(ctx.vertex_accum_values(n)) for n in ("cnt", "seen")},
        "attrs": {v.vid: dict(v.attrs) for v in graph.vertices()},
        "events": list(san.events) if san else None,
        "verified": san.verified if san else None,
        "detections": list(san.detections) if san else None,
        "counters": dict(col.counters),
    }


def assert_same(post_accum, **kwargs):
    shipped = outcome(post_accum, reference=False, **kwargs)
    oracle = outcome(post_accum, reference=True, **kwargs)
    assert shipped == oracle
    return shipped


# ----------------------------------------------------------------------
# Generated clauses
# ----------------------------------------------------------------------

def gen_expr(rng, locals_, depth=0):
    leaves = [
        lambda: Literal(rng.randint(-2, 5)),
        lambda: AttrRef(NameRef(rng.choice("st")), "w"),
        lambda: VertexAccumRef(NameRef(rng.choice("st")), "cnt"),
        lambda: VertexAccumRef(NameRef("s"), "cnt", primed=True),
        lambda: GlobalAccumRef("g"),
        lambda: GlobalAccumRef("g", primed=True),
    ]
    if locals_:
        leaves.append(lambda: NameRef(rng.choice(sorted(locals_))))
    if depth < 2 and rng.random() < 0.35:
        return Binary(
            rng.choice("+-*"),
            gen_expr(rng, locals_, depth + 1),
            gen_expr(rng, locals_, depth + 1),
        )
    return rng.choice(leaves)()


def gen_statement(rng, locals_, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.15:
        cond = Binary(">", gen_expr(rng, locals_), Literal(rng.randint(0, 4)))
        return AccumIf(
            cond,
            gen_clause(rng, locals_, depth + 1),
            gen_clause(rng, locals_, depth + 1) if rng.random() < 0.6 else None,
        )
    if depth < 2 and roll < 0.30:
        var = rng.choice(["x", "y"])
        collection = rng.choice([
            Literal([1, 2, 3]),
            GlobalAccumRef("lst"),
            VertexAccumRef(NameRef("s"), "seen"),
        ])
        return AccumForeach(var, collection, gen_clause(rng, locals_ | {var}, depth + 1))
    if roll < 0.36:  # the rare statement that must raise, or must not run
        return rng.choice([
            lambda: LocalAssign("z", gen_expr(rng, locals_)),
            lambda: AccumUpdate(
                AccumTarget("cnt", AttrRef(NameRef("s"), "name")), "+=", Literal(1)
            ),
            lambda: AttributeUpdate(NameRef("s"), "nope", gen_expr(rng, locals_)),
            lambda: AttributeUpdate(NameRef("t"), "w", Literal("not an int")),
            lambda: AccumUpdate(AccumTarget("undeclared"), "+=", Literal(1)),
        ])()
    op = rng.choice(["+=", "+=", "="])
    target = rng.choice([
        AccumTarget("g"),
        AccumTarget("mx"),
        AccumTarget("lst"),
        AccumTarget("cnt", NameRef(rng.choice("st"))),
        AccumTarget("seen", NameRef(rng.choice("st"))),
        None,
    ])
    if target is None:
        return AttributeUpdate(NameRef(rng.choice("st")), "w", gen_expr(rng, locals_))
    return AccumUpdate(target, op, gen_expr(rng, locals_))


def gen_clause(rng, locals_=frozenset(), depth=0):
    return [gen_statement(rng, locals_, depth) for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("seed", range(120))
def test_generated_clauses_agree(seed):
    rng = random.Random(seed)
    clause = gen_clause(rng)
    with_schema = bool(seed % 2)
    assert_same(clause, with_schema=with_schema, sanitized=True)
    assert_same(clause, with_schema=with_schema, sanitized=False)


def test_generator_reaches_every_form():
    """The corpus above is only worth its name if it exercises each
    statement form, both outcomes, and a write of every kind."""
    forms, errors, clean = set(), 0, 0
    for seed in range(120):
        clause = gen_clause(random.Random(seed))
        forms.update(type(s).__name__ for s in lowering.walk_acc_statements(clause))
        result = outcome(clause, reference=False, with_schema=bool(seed % 2))
        errors += result["error"] is not None
        clean += result["error"] is None
    assert forms == {
        "AccumUpdate", "AccumIf", "AccumForeach", "AttributeUpdate", "LocalAssign",
    }
    assert errors >= 10 and clean >= 40


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------

S_CNT = VertexAccumRef(NameRef("s"), "cnt")
S_CNT_PRIMED = VertexAccumRef(NameRef("s"), "cnt", primed=True)


def add(name, expr, base=None, op="+="):
    return AccumUpdate(AccumTarget(name, NameRef(base) if base else None), op, expr)


class TestNamedCases:
    def test_nested_if_and_foreach(self):
        clause = [
            AccumIf(
                Binary(">", S_CNT, Literal(3)),
                [
                    AccumForeach("x", Literal([1, 2]), [
                        AccumIf(
                            Binary("==", NameRef("x"), Literal(2)),
                            [add("lst", Binary("*", NameRef("x"), S_CNT))],
                            [add("seen", NameRef("x"), base="s")],
                        ),
                    ]),
                ],
                [add("g", Literal(100))],
            ),
        ]
        result = assert_same(clause)
        assert result["error"] is None and result["globals"]["lst"]

    def test_foreach_variable_shadows_and_is_restored(self):
        clause = [
            AccumForeach("x", Literal([1, 2]), [
                AccumForeach("x", Literal([10]), [add("lst", NameRef("x"))]),
                add("lst", NameRef("x")),
            ]),
        ]
        result = assert_same(clause)
        assert result["globals"]["lst"] == (10, 1, 10, 2)

    def test_assign_then_read_of_the_same_accumulator(self):
        """``=`` is immediate: the next statement reads the new value,
        the primed read still reads block entry."""
        clause = [
            add("cnt", Binary("*", S_CNT, Literal(10)), base="s", op="="),
            add("seen", S_CNT, base="s"),
            add("seen", S_CNT_PRIMED, base="s"),
        ]
        result = assert_same(clause)
        assert result["vertex"]["seen"]["a"] == (result["vertex"]["cnt"]["a"], 0)

    def test_global_assign_is_visible_to_the_next_statement(self):
        clause = [
            add("g", Literal(7), op="="),
            add("mx", GlobalAccumRef("g")),
            add("lst", GlobalAccumRef("g", primed=True)),
        ]
        result = assert_same(clause)
        assert result["globals"]["mx"] == 7 and result["globals"]["lst"] == (0,)

    def test_buffered_adds_are_invisible_within_the_clause(self):
        clause = [add("g", Literal(5)), add("lst", GlobalAccumRef("g"))]
        result = assert_same(clause)
        assert result["globals"]["lst"] == (len(EDGES),)

    def test_add_order_invariance(self):
        """``+=`` into commutative accumulators: statement order does not
        show in the values, on either side."""
        first = add("cnt", AttrRef(NameRef("t"), "w"), base="t")
        second = add("cnt", Literal(2), base="s")
        third = add("g", S_CNT)
        results = [
            assert_same(list(order))
            for order in ([first, second, third], [third, second, first])
        ]
        assert results[0]["globals"] == results[1]["globals"]
        assert results[0]["vertex"] == results[1]["vertex"]

    @pytest.mark.parametrize("taken", [False, True])
    def test_local_assign_in_a_branch(self, taken):
        clause = [
            add("g", Literal(1), op="="),
            AccumIf(Literal(taken), [LocalAssign("z", Literal(1))]),
        ]
        result = assert_same(clause)
        if taken:
            assert result["error"] == (
                QueryRuntimeError,
                "local variables are not allowed in POST_ACCUM "
                "(each statement runs per distinct vertex)",
            )
            assert result["globals"]["g"] == 1  # statement 1 already ran
        else:
            assert result["error"] is None

    @pytest.mark.parametrize("taken", [False, True])
    def test_accum_side_attribute_update_in_a_branch(self, taken):
        """The mirror image: ``v.attr = expr`` is the ACCUM clause's lazy
        reject, lowered by the same ladder."""
        accum = ACCUM + [
            AccumIf(Literal(taken), [AttributeUpdate(NameRef("s"), "w", Literal(0))]),
        ]
        result = assert_same([add("g", Literal(1))], accum=accum)
        if taken:
            assert result["error"] == (
                QueryRuntimeError,
                "attribute assignments are only allowed in POST_ACCUM "
                "(in ACCUM, acc-executions for the same vertex would race)",
            )
        else:
            assert result["error"] is None

    def test_non_vertex_target(self):
        clause = [add("g", Literal(3), op="="),
                  AccumUpdate(AccumTarget("cnt", AttrRef(NameRef("s"), "name")),
                              "+=", Literal(1))]
        result = assert_same(clause)
        assert result["error"] == (
            QueryRuntimeError, "accumulator @cnt addressed through non-vertex str"
        )

    def test_non_vertex_attribute_base(self):
        result = assert_same([AttributeUpdate(AttrRef(NameRef("s"), "w"), "w", Literal(1))])
        assert result["error"] == (
            QueryRuntimeError, "attribute assignment needs a vertex, got int"
        )

    def test_undeclared_name_in_a_zero_row_block(self):
        """Nothing executes, so nothing is resolved and nothing raises."""
        clause = [add("undeclared", Literal(1)), add("nope", Literal(1), base="s"),
                  LocalAssign("z", NameRef("missing"))]
        nothing = Binary("==", AttrRef(NameRef("s"), "name"), Literal("nobody"))
        result = assert_same(clause, where=nothing)
        assert result["error"] is None
        assert result["counters"].get("block.post_accum_executions", 0) == 0

    def test_undeclared_name_with_rows(self):
        result = assert_same([add("nope", Literal(1), base="s")])
        assert result["error"] == (
            QueryRuntimeError, "unknown vertex accumulator @nope"
        )

    @pytest.mark.parametrize("with_schema", [False, True])
    def test_attribute_update(self, with_schema):
        clause = [AttributeUpdate(NameRef("s"), "w", Binary("+", S_CNT, Literal(100)))]
        result = assert_same(clause, with_schema=with_schema)
        assert result["error"] is None
        assert result["attrs"]["a"]["w"] == result["vertex"]["cnt"]["a"] + 100

    @pytest.mark.parametrize("with_schema", [False, True])
    def test_attribute_update_of_an_undeclared_attribute(self, with_schema):
        """The schema is what rejects it; without one the write lands."""
        result = assert_same(
            [AttributeUpdate(NameRef("s"), "rank", Literal(1))],
            with_schema=with_schema,
        )
        if with_schema:
            assert result["error"] == (
                QueryRuntimeError, "vertex type 'V' has no attribute 'rank'"
            )
        else:
            assert result["attrs"]["a"]["rank"] == 1

    def test_sanitizer_sees_post_accum_writes(self):
        clause = [add("cnt", Literal(1), base="s"), add("g", Literal(0), op="=")]
        result = assert_same(clause)
        post = [e for e in result["events"] if e.site == "post_accum"]
        assert [(e.target, e.op) for e in post] == [("s.@cnt", "+=")] * 4 + [("@@g", "=")]
        assert result["counters"]["block.post_accum_executions"] == 5


def test_post_accum_over_a_table_variable():
    """A POST_ACCUM statement keyed on a relational-table conjunct's row
    (Figure 1's ``Employee:e``): rows are dicts, which the distinct
    projection must key the way the join does."""
    from repro.core.values import Table
    from repro.gsql import parse_query

    graph = Graph(name="G")
    graph.add_vertex("m0", "Person", email="a")
    employees = Table("Employee", ["name", "salary"])
    employees.append(("Ann", 10))
    employees.append(("Ben", 20))
    query = parse_query("""
CREATE QUERY q() {
  SumAccum<int> @@n;
  SELECT e.name INTO T FROM Employee:e POST_ACCUM @@n += e.salary;
  PRINT @@n;
}""")
    result = query.run(graph, tables={"Employee": employees})
    assert result.global_accum("n") == 30
