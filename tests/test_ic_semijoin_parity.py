"""Answer parity on the benchmark's own IC texts: the shipped matcher,
which prunes an adjacency hop by a semi-join toward the next hop's
selective far end, against the dict-row matcher of
``tests/reference_pattern.py``, which expands every hop in full.

The ten ``ic_warm`` texts and the five h2 texts with an inlined literal
(``benchmarks/e2e/corpus.py``, read only) run on the SNB SF1 graph from
three start persons: once as shipped, once with the compiled blocks'
``evaluate_pattern`` replaced by the reference's.  The results, the
printed values and every ``block.*`` and ``pattern.*`` counter must be
equal, and a semi-join must prune a hop in exactly the IC3, IC6 and IC11
blocks with two adjacency hops toward a filtered far end.
(``benchmarks/e2e/oracles.IcOracle`` cannot be the oracle here: its
enumeration mode crosses the same adjacency loop.)
"""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.compile import lowering
from repro.core.pattern import BindingTable
from repro.gsql import parse_query
from repro.ldbc import generate_snb_graph
from repro.obs import collect
from repro.server.protocol import jsonify

from . import reference_pattern

_spec = importlib.util.spec_from_file_location(
    "e2e_corpus",
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "corpus.py",
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

#: Hops a semi-join prunes per run: the blocks that chain two adjacency
#: hops toward a far end it can decide — IC3's two country blocks, IC6's
#: tag block and IC11's country block.  IC5's far end reads an
#: accumulator (``f.@isFriend``); IC9's blocks have one hop each.
PRUNED_HOPS = {"ic3": 2, "ic5": 0, "ic6": 1, "ic9": 0, "ic11": 1}


def _texts():
    """``(label, kind, text, inlined)``: the warm texts, then the h2
    texts with a literal drawn the way ``frontend_cold`` draws one."""
    texts = [
        (f"{kind}_h{hops}", kind, corpus.ic_text(kind, hops), False)
        for kind, hops in corpus.IC_WARM_TEXTS
    ]
    rng = random.Random(7)
    for kind in corpus.IC_KINDS:
        literal = corpus.draw_literal(kind, rng)
        texts.append((
            f"{kind}_h2_literal", kind,
            corpus.ic_text(kind, 2, name=f"{kind}_cold", literal=literal), True,
        ))
    return texts


TEXTS = _texts()


@pytest.fixture(scope="module")
def snb():
    """The benchmark's SF1 graph and three start persons of low, middle
    and high Knows degree."""
    graph = generate_snb_graph(scale_factor=1.0, seed=42)
    degree = {v.vid: 0 for v in graph.vertices("Person")}
    for edge in graph.edges("Knows"):
        degree[edge.source] += 1
        degree[edge.target] += 1
    ordered = sorted(degree, key=lambda vid: (degree[vid], vid))
    return graph, [ordered[len(ordered) * i // 6] for i in (1, 3, 5)]


def _reference_evaluate_pattern(ctx, pattern, mode, var_filters=None):
    variables, rows = reference_pattern.evaluate_pattern(ctx, pattern, mode, var_filters)
    return BindingTable(
        variables,
        [(tuple(bindings[name] for name in variables), m) for bindings, m in rows],
    )


def _run(query, graph, params):
    with collect() as col:
        result = query.run(graph, **params)
    answer = {
        "printed": jsonify(result.printed),
        "tables": {name: jsonify(table) for name, table in result.tables.items()},
        "returned": jsonify(result.returned),
    }
    counters = {
        name: value for name, value in col.counters.items()
        if name.startswith(("block.", "pattern."))
    }
    return answer, counters, col.counter("planner.hops_semijoin")


@pytest.mark.parametrize(
    "label,kind,text,inlined", TEXTS, ids=[label for label, *_ in TEXTS]
)
def test_pruned_plan_answers_as_the_reference(label, kind, text, inlined, snb, monkeypatch):
    graph, persons = snb
    query = parse_query(text)
    for person in persons:
        params = corpus.ic_params(kind, person)
        if inlined:
            del params["num"]
        shipped, shipped_counters, pruned = _run(query, graph, params)
        with monkeypatch.context() as patch:
            patch.setattr(lowering, "evaluate_pattern", _reference_evaluate_pattern)
            want, want_counters, _ = _run(query, graph, params)
        assert shipped == want, person
        assert shipped_counters == want_counters, person
        assert pruned == PRUNED_HOPS[kind], person
