"""Golden tests: every pinned surface of the engine, compared exactly.

:func:`assert_golden` compares a value, as JSON, with
``tests/golden/<name>.json`` by equality, so a changed, a new and a stale
entry fail alike.  A missing golden is written and its test fails once
("wrote ...; re-run"); to refresh a golden, delete the file and re-run
its test.  The goldens pin:

- ``dataflow`` / ``effects``: the diagnostics and the per-block
  determinism certificates ``repro check --effects`` finds in the lint
  corpus (certificates gate parallel execution);
- ``cost``: every predicted upper bound and confidence of the static cost
  analysis, for Qn on the n-diamond chain (n = 1..30) and the SNB IC
  corpus at SF 0.1;
- ``governor``: the fault-site catalog, the abort reasons and the
  counters of Qn30's downgrade under a path cap;
- ``server``: the outcome taxonomy, the service fault sites, the default
  budget classes and the exit codes;
- ``wal``: the write-path fault sites, the fsck checks, the op kinds, the
  ``conflict`` outcome and the counters of a recovery smoke;
- ``emission``: what SELECT outputs, PRINT and RETURN emit, in order, for
  the ``ic_warm`` texts and one block case per output clause.

What a golden cannot say stays an explicit assert: the worked examples'
certificates, solver convergence, certificates bracketing the observed
counters, Theorem 7.1's growth separation in the predicted bounds, Qn30's
downgrade and the recovery smoke's replay.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.algorithms.traversal import path_count_query
from repro.cli import _collect_units, check_units
from repro.core.pattern import EngineMode
from repro.core.tractable import attach_cost_certificates
from repro.errors import exit_code_catalog
from repro.governor import Budget, ExecutionGovernor, faults, govern
from repro.governor.budget import AbortReason
from repro.graph import builders
from repro.graph.fsck import check_catalog, fsck_graph
from repro.graph.mutation import OP_KINDS, GraphStore, MutationBatch, recover_graph
from repro.graph.stats import stats_snapshot
from repro.graph.wal import list_segments
from repro.gsql import parse_query
from repro.ldbc import IC_QUERIES, default_parameters, generate_snb_graph
from repro.obs import collect
from repro.paths import PathSemantics
from repro.server import taxonomy
from repro.server.admission import default_classes
from repro.server.protocol import HTTP_STATUS, RETRYABLE_OUTCOMES, OutcomeKind, jsonify

from .test_cost import qn_certificate

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_golden(name, value):
    """``value`` equals the golden ``name``, as JSON; write it if missing."""
    path = GOLDEN / f"{name}.json"
    text = json.dumps(value, indent=2) + "\n"
    if not path.exists():
        path.write_text(text)
        pytest.fail(f"wrote {path}; re-run")
    assert json.loads(text) == json.loads(path.read_text()), (
        f"{path} differs from the current value"
    )


def test_a_missing_golden_is_written_and_fails_once(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    with pytest.raises(pytest.fail.Exception, match="re-run"):
        assert_golden("probe", {"rows": [("a", 1)]})
    assert_golden("probe", {"rows": [("a", 1)]})
    for drifted in ({"rows": [("a", 2)]}, {"rows": [("a", 1)], "new": 0}, {}):
        with pytest.raises(AssertionError):
            assert_golden("probe", drifted)


# ======================================================================
# The lint corpus: diagnostics and determinism certificates
# ======================================================================
@pytest.fixture(scope="module")
def corpus():
    """``repro check --effects --format json`` over the lint corpus, each
    unit labelled by its repo-relative path."""
    units = _collect_units(
        [str(REPO / "examples"), str(REPO / "tests" / "test_gsql_paper_queries.py")]
    )
    relative = [
        (str(Path(label).resolve().relative_to(REPO)), src) for label, src in units
    ]
    return check_units(relative)[0]


def first_status(records, file, query=None):
    found = [
        r for r in records
        if r["file"].endswith(file) and query in (None, r["query"])
    ]
    assert found, f"no certificate for {file}"
    return found[0]["status"]


def test_corpus_diagnostics(corpus):
    keys = sorted(
        (d.get("file"), d.get("query"), d.get("code"), d.get("line"), d.get("message"))
        for d in corpus["diagnostics"]
    )
    assert_golden("dataflow", {"diagnostics": keys})


def test_corpus_effect_certificates(corpus):
    # The line identifies a block of a query; status, delta flag and
    # write set are its verdict.
    keys = sorted(
        (
            e.get("file"), e.get("query"), e.get("line"), e.get("pattern"),
            e.get("status"), bool(e.get("delta_maintainable")),
            tuple(e.get("writes", ())),
        )
        for e in corpus["effects"]
    )
    assert_golden("effects", {"effects": keys})


def test_every_solver_converges(corpus):
    assert [q["query"] for q in corpus["queries"] if not q["converged"]] == []


def test_worked_examples_keep_their_certificates(corpus):
    # TRACTABLE licenses the counting engine without a runtime probe;
    # the order-dependent example is the sanitizer's worked detection.
    assert first_status(corpus["certificates"], "qn_diamond.gsql", "Qn") == "tractable"
    assert first_status(corpus["effects"], "qn_diamond.gsql", "Qn") == "commutative"
    assert first_status(corpus["effects"], "order_dependent_trace.gsql") == "order-dependent"


# ======================================================================
# Static cost: pinned bounds, brackets, Theorem 7.1's growth separation
# ======================================================================
QN_SIZES = range(1, 31)
QN_ENUM_SIZES = range(1, 13)  # enumeration is exponential in n
IC_NAMES = ("ic3", "ic5", "ic6", "ic9", "ic11")


def pinned_bounds(cert):
    return {
        "acc_hi": cert.acc_executions.hi,
        "confidence": cert.confidence.value,
        "paths_hi": cert.paths.hi,
        "product_hi": cert.product_states.hi,
    }


def assert_brackets(cert, observed, label):
    for metric, value in observed.items():
        interval = getattr(cert, metric)
        assert interval.contains(value), (
            f"{label}: {metric} observed {value} outside predicted "
            f"{interval.describe()}"
        )


def counting_counters(col):
    return {
        "acc_executions": col.counter("block.acc_executions"),
        "product_states": col.counter("sdmc.product_states"),
    }


@pytest.fixture(scope="module")
def qn_family():
    """``{n: (query, certificate)}`` for Qn on the n-diamond chain."""
    family = {}
    for n in QN_SIZES:
        query, _, cert = qn_certificate(n)
        family[n] = query, cert
    return family


@pytest.fixture(scope="module")
def snb_corpus():
    """``{label: (query, certificate, params)}`` and the SF 0.1 graph."""
    graph = generate_snb_graph(scale_factor=0.1, seed=42)
    stats = stats_snapshot(graph)
    certified = {}
    for name in IC_NAMES:
        for hops in (2, 3):
            query = IC_QUERIES[name](hops)
            attach_cost_certificates(query, stats=stats)
            certified[f"snb/{name}/h{hops}"] = (
                query, query.cost_certificate, default_parameters(graph, name)
            )
    return graph, certified


def test_qn_certificates_bracket_the_counters(qn_family):
    enumeration = EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE)
    for n, (query, cert) in qn_family.items():
        graph = builders.diamond_chain(n)
        with collect() as col:
            query.run(graph, srcName="v0", tgtName=f"v{n}")
        assert_brackets(cert, counting_counters(col), f"qn/n={n} (counting)")
        if n in QN_ENUM_SIZES:
            with collect() as col:
                query.run(graph, mode=enumeration, srcName="v0", tgtName=f"v{n}")
            assert_brackets(
                cert, {"paths": col.counter("enum.paths_emitted")},
                f"qn/n={n} (enumeration)",
            )


def test_snb_certificates_bracket_the_counters(snb_corpus):
    graph, certified = snb_corpus
    for label, (query, cert, params) in certified.items():
        with collect() as col:
            query.run(graph, **params)
        assert_brackets(cert, counting_counters(col), label)


def test_qn_bounds_separate_polynomial_from_exponential(qn_family):
    # Theorem 7.1, statically: the ACCUM bound has constant second
    # differences while the path bound at least doubles per diamond.
    acc = [cert.acc_executions.hi for _, cert in qn_family.values()]
    paths = [cert.paths.hi for _, cert in qn_family.values()]
    firsts = [b - a for a, b in zip(acc, acc[1:])]
    assert len({b - a for a, b in zip(firsts, firsts[1:])}) == 1
    assert all(larger >= 2 * smaller for smaller, larger in zip(paths, paths[1:]))


def test_cost_bounds(qn_family, snb_corpus):
    pinned = {f"qn/n={n}": pinned_bounds(cert) for n, (_, cert) in qn_family.items()}
    pinned.update(
        (label, pinned_bounds(cert)) for label, (_, cert, _) in snb_corpus[1].items()
    )
    assert_golden("cost", dict(sorted(pinned.items())))


# ======================================================================
# Governor, service and durability surfaces
# ======================================================================
def test_governor_surface_and_qn30_downgrade():
    # A certified-tractable Qn forced to enumeration under a path cap
    # downgrades to counting and still finishes.
    gov = ExecutionGovernor(Budget(max_paths=1_000))
    with collect() as col, govern(gov):
        result = path_count_query().run(
            builders.diamond_chain(30),
            mode=EngineMode.enumeration(PathSemantics.ALL_SHORTEST),
            srcName="v0", tgtName="v30",
        )
    downgrade = {
        "planner.governor_downgrade": col.counter("planner.governor_downgrade"),
        "enum.calls": col.counter("enum.calls"),
        "governor.downgrades": gov.downgrades,
        "path_count": result.printed[0]["R"][0]["pathCount"],
    }
    assert downgrade["planner.governor_downgrade"] == 1
    assert downgrade["enum.calls"] == 0
    assert downgrade["path_count"] == 2 ** 30
    assert_golden("governor", {
        "fault_sites": [name for name, _ in faults.catalog()],
        "abort_reasons": sorted(r.value for r in AbortReason),
        "qn30_downgrade": downgrade,
    })


def test_server_surface():
    assert_golden("server", {
        "outcomes": taxonomy(),
        "server_fault_sites": sorted(
            site for site in faults.SITES if site.startswith("server.")
        ),
        "budget_classes": {
            name: {
                "default_deadline": cls.default_deadline,
                "max_deadline": cls.max_deadline,
                "max_concurrent": cls.max_concurrent,
                "budget": dict(sorted(cls.budget.items())),
            }
            for name, cls in sorted(default_classes().items())
        },
        "exit_codes": [list(row) for row in exit_code_catalog()],
    })


def test_wal_surface_and_recovery_smoke(tmp_path):
    # Commit three batches, tear the tail, recover and fsck, all under
    # one collector: every counter value is deterministic.
    wal_dir = tmp_path / "wal"
    with collect() as col:
        with GraphStore.open(wal_dir, fsync=False) as store:
            store.apply(
                MutationBatch()
                .upsert_vertex("ada", "Person", born=1815)
                .upsert_vertex("charles", "Person")
                .upsert_edge("ada", "charles", "Knows")
            )
            store.apply(
                MutationBatch()
                .upsert_vertex("grace", "Person")
                .upsert_edge("grace", "ada", "Knows")
            )
            store.apply(MutationBatch().delete_edge("grace", "ada", "Knows"))
        with open(list_segments(wal_dir)[-1], "ab") as fh:
            fh.write(b"torn!")  # a crash mid-append
        graph, report = recover_graph(wal_dir)
        fsck_report = fsck_graph(graph, wal_dir=wal_dir)
    assert (report.replayed, report.truncated_bytes) == (3, 5)
    assert fsck_report.ok
    assert_golden("wal", {
        "write_fault_sites": [
            name for name, _ in faults.catalog()
            if name.startswith(("epoch.", "mutation.", "wal."))
        ],
        "fsck_checks": [name for name, _ in check_catalog()],
        "op_kinds": list(OP_KINDS),
        "conflict_outcome": {
            "value": OutcomeKind.CONFLICT.value,
            "http_status": HTTP_STATUS[OutcomeKind.CONFLICT],
            "retryable": OutcomeKind.CONFLICT in RETRYABLE_OUTCOMES,
        },
        "recovery_smoke_counters": {
            k: col.counters[k] for k in sorted(col.counters)
            if k.split(".")[0] in ("wal", "mutation", "fsck")
        },
    })


# ======================================================================
# Output emission: INTO tables, vertex-set results, PRINT and RETURN
# ======================================================================
def emitted(result):
    """Everything a run emitted, as JSON, every order intact."""
    return {
        "tables": {name: jsonify(table) for name, table in result.tables.items()},
        "vertex_sets": {
            name: [v.vid for v in vset] for name, vset in result.vertex_sets.items()
        },
        "printed": jsonify(result.printed),
        "returned": jsonify(result.returned),
    }


def _e2e_corpus():
    spec = importlib.util.spec_from_file_location(
        "e2e_corpus", REPO / "benchmarks" / "e2e" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_emission():
    """The ten ``ic_warm`` texts from three persons of low, middle and
    high Knows degree on an SF 0.3 graph, and block cases for each
    output clause on the SalesGraph: GROUP BY + HAVING over aggregates,
    DISTINCT aggregates, a vertex-set ORDER BY + LIMIT, a PRINT set
    projection, None and NaN sort keys (last under ASC and DESC) and
    LIMIT cuts inside a tie group."""
    corpus = _e2e_corpus()
    graph = generate_snb_graph(scale_factor=0.3, seed=42)
    degree = {v.vid: 0 for v in graph.vertices("Person")}
    for edge in graph.edges("Knows"):
        degree[edge.source] += 1
        degree[edge.target] += 1
    ordered = sorted(degree, key=lambda vid: (degree[vid], vid))
    persons = [ordered[len(ordered) * i // 6] for i in (1, 3, 5)]
    golden = {}
    for kind, hops in corpus.IC_WARM_TEXTS:
        query = parse_query(corpus.ic_text(kind, hops))
        for person in persons:
            result = query.run(graph, **corpus.ic_params(kind, person))
            golden[f"{kind}_h{hops}/{person}"] = emitted(result)
    for text in EMISSION_CASES:
        query = parse_query(text)
        result = query.run(builders.sales_graph(), **EMISSION_PARAMS.get(query.name, {}))
        golden[query.name] = emitted(result)
    assert_golden("emission", golden)


EMISSION_PARAMS = {"print_projection": {"k": 2}}

EMISSION_CASES = [
    """
CREATE QUERY group_having() FOR GRAPH SalesGraph {
  SELECT p.category AS cat, count(*) AS n, sum(e.quantity * p.price) AS revenue,
         avg(p.price) AS mean, min(c.name) AS first, max(e.discount) AS top INTO T
  FROM Customer:c -(Bought>:e)- Product:p
  GROUP BY p.category
  HAVING count(*) > 1
  ORDER BY sum(e.quantity * p.price) DESC;
}""",
    """
CREATE QUERY distinct_aggregate() FOR GRAPH SalesGraph {
  SELECT c.name AS name, count(DISTINCT p.category) AS cats, count(p) AS n,
         sum(DISTINCT e.quantity) AS qty INTO T
  FROM Customer:c -(Bought>:e)- Product:p
  GROUP BY c.name
  ORDER BY c.name ASC;
}""",
    """
CREATE QUERY vertex_set_order_limit() FOR GRAPH SalesGraph {
  SumAccum<int> @units;
  S = SELECT p FROM Customer:c -(Bought>:e)- Product:p
      ACCUM p.@units += e.quantity
      ORDER BY p.@units DESC, p.name ASC
      LIMIT 3;
  PRINT S[S.name, S.@units, S.price];
}""",
    """
CREATE QUERY none_nan_keys() FOR GRAPH SalesGraph {
  SELECT p.name AS name,
         CASE WHEN p.price > 30 THEN p.price END AS hi,
         CASE WHEN p.price < 16 THEN float("nan") ELSE p.price END AS lo INTO A
  FROM Customer:c -(Bought>)- Product:p
  ORDER BY CASE WHEN p.price > 30 THEN p.price END ASC, p.name DESC;
  SELECT p.name AS name INTO B
  FROM Customer:c -(Bought>)- Product:p
  ORDER BY CASE WHEN p.price < 16 THEN float("nan") ELSE p.price END DESC, p.name ASC;
  S = SELECT p FROM Customer:c -(Bought>)- Product:p
      ORDER BY CASE WHEN p.price < 30 THEN p.price END DESC
      LIMIT 4;
  PRINT S[S.name];
}""",
    """
CREATE QUERY limit_tie() FOR GRAPH SalesGraph {
  SELECT c.name AS name, p.category AS cat INTO T
  FROM Customer:c -(Bought>)- Product:p
  ORDER BY p.category ASC
  LIMIT 4;
  SELECT p.category AS cat, c.name AS name, count(*) AS n INTO G
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY p.category, c.name
  ORDER BY count(*) DESC
  LIMIT 2;
  RETURN T;
}""",
    """
CREATE QUERY print_projection(int k) FOR GRAPH SalesGraph {
  SumAccum<float> @spent;
  SumAccum<int> @@total;
  C = SELECT c FROM Customer:c -(Bought>:e)- Product:p
      ACCUM c.@spent += e.quantity * p.price, @@total += e.quantity;
  PRINT C[C.name, C.@spent, C.@spent > 50 AS big], @@total, k + 1 AS next;
  RETURN @@total;
}""",
]
