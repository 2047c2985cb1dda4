"""The traced run: where a workload's latency goes, layer by layer.

End-to-end numbers come from an untraced window against the real server
(half the run).  Then a fixed sample of the same seeded requests is
*re-enacted* in this process: each step the server (or the CLI) takes
for a request is made here as a call to the layer's public function, in
the same order, with one benchmark-owned span around it.  Calls that
need the real machinery — ``WorkerPool.dispatch`` over real pipes,
``QueryService.submit`` — go to a real in-process ``QueryService``.

What a request's spans add up to is ``trace.attributed_ms``; the
untraced median latency minus that is ``trace.unattributed_ms`` — HTTP
parsing, the event loop, sockets, and whatever the re-enactment does not
model.  It is reported as its own number and never folded into a layer.

Spans directly under a ``request`` span are on the blocking path and are
summed; spans under a ``probe`` span time the same layer a second way
(the interpreter twin, the real ``submit``) and are not.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import corpus
from catalog import PER_LAYER
from corpus import Request
from harness import RESULTS, child_env, make_workdir, median, remove_workdir
from measure import measure_window, metric, run_record, set_up, verify, window_layers
from tracing import Span, Tracer
from workloads import Inputs, Workload

#: repro.obs span name -> the per-layer metric it feeds.
_OBS_LAYERS = ("pattern", "accum_map", "accum_reduce", "post_accum", "select_block")


def sample_requests(
    workload: Workload, seed: int, inputs: Inputs, count: int,
) -> Tuple[List[Request], List[Request]]:
    """The warm-up requests and the first ``count`` measured requests (in
    whole units) of the seeded stream — exactly what the window sends
    first, so re-enacted and real requests can be compared in pairs."""
    stream = workload.stream(random.Random(seed), inputs)
    warm = [r for unit in workload.warm_units(stream, inputs) for r in unit]
    measured: List[Request] = []
    while len(measured) < count:
        measured.extend(next(stream))
    return warm, measured


class Replay:
    """The in-process stand-ins for one server (or CLI) and the
    re-enactment of single requests against them."""

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path, tracer: Tracer):
        from repro.compile import PlanCache
        from repro.graph.io import load_graph_json
        from repro.graph.stats import stats_snapshot
        from repro.server.admission import AdmissionController

        self.t = tracer
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.counters: Dict[str, List[int]] = {}
        self.service: Any = None
        self.store: Any = None
        self._wal: Any = None
        self.seconds = 0.0
        self.measured_ids: set = set()
        #: Name of the span a re-enacted request hangs under: "warmup"
        #: while the warm-up units are replayed (kept out of every sum
        #: and count), then "request".
        self.root = "warmup"
        with tracer.span("probe", workload.name):
            with tracer.span("graph.load_json"):
                self._base = load_graph_json(inputs.graph_path)
        if workload.pool_mode is None:
            return
        self.admission = AdmissionController()
        self.service_cache = PlanCache()
        self.worker_cache = PlanCache()
        self._interp: Dict[str, Any] = {}
        if workload.pool_mode == "thread":
            from repro.graph.mutation import GraphStore

            self.store = GraphStore.open(workdir / "wal_replay" / "default",
                                         base=self._base, fsync=True)
        self.stats = stats_snapshot(self.graph)
        self._stats_epoch = self.graph.epoch
        self._start_service()

    def _start_service(self) -> None:
        from repro.graph.io import load_graph_json
        from repro.server import QueryService, RetryPolicy

        threaded = self.workload.pool_mode == "thread"
        self.service = QueryService(
            graphs={"default": load_graph_json(self.inputs.graph_path)} if threaded else None,
            graph_paths={"default": str(self.inputs.graph_path)},
            pool_size=2,
            pool_mode=self.workload.pool_mode,
            retry=RetryPolicy(max_attempts=1),
            wal_dir=str(self.workdir / "wal_service") if threaded else None,
        )

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown(grace=5.0)
        if self.store is not None:
            self.store.close()
        if self._wal is not None:
            self._wal.close()

    @property
    def graph(self) -> Any:
        return self.store.live if self.store is not None else self._base

    def _note(self, name: str, value: int) -> None:
        if self.root == "request":
            self.counters.setdefault(name, []).append(value)

    # -- the pieces ----------------------------------------------------
    def _plan(self, cache: Any, text: str, schema: Any) -> Any:
        """``PlanCache.get_or_compile`` taken apart at its public seams."""
        from repro.compile import compile_query
        from repro.gsql import parse_query

        with self.t.span("compile.cache_lookup"):
            plan = cache.lookup(text, schema=schema)
        if plan is None:
            with self.t.span("gsql.parse"):
                query = parse_query(text)
            with self.t.span("compile.lower"):
                plan = compile_query(query, schema=schema)
            plan.cache_status = "miss"
            cache.insert(text, plan, schema=schema)
        return plan

    def _run(self, plan: Any, params: Dict[str, Any], budget: Optional[Dict[str, Any]]) -> Any:
        """``CompiledQuery.run`` as the worker runs it (collector on,
        governed), with the program's own span tree adopted beneath."""
        from repro.core.pattern import EngineMode
        from repro.governor import ExecutionGovernor, govern
        from repro.governor.budget import Budget
        from repro.obs import collect

        governor = ExecutionGovernor(Budget(**budget)) if budget else None
        with self.t.span("core.run") as span:
            with collect() as col:
                with govern(governor):
                    result = plan.run(self.graph, mode=EngineMode.counting(), **params)
        for root in col.roots:
            for obs in root.walk():
                if obs.name in _OBS_LAYERS:
                    self.t.adopt(f"core.{obs.name}", obs.start, obs.end, span)
        for name in ("block.acc_executions", "block.binding_rows", "sdmc.product_states",
                     "sdmc.bfs_levels", "accum.combine_weighted"):
            self._note(name, col.counters.get(name, 0))
        return result

    def _encode(self, rid: str, result: Any) -> None:
        from repro.server.protocol import OutcomeKind, jsonify, outcome

        with self.t.span("server.encode"):
            payload = {
                "printed": jsonify(result.printed),
                "tables": {n: jsonify(tb) for n, tb in result.tables.items()},
            }
            if result.returned is not None:
                payload["returned"] = jsonify(result.returned)
            doc = outcome(OutcomeKind.OK, request_id=rid, elapsed_ms=0.0, result=payload)
            json.dumps(doc).encode("utf-8")

    def _admit(self, request: Any) -> Any:
        with self.t.span("server.admission"):
            ticket, shed = self.admission.try_admit(request)
            assert shed is None, shed
            self.admission.note_dispatched(ticket)
            self.admission.release(ticket, dispatched=True)
        return ticket

    # -- one /query request --------------------------------------------
    def query(self, rid: str, request: Request) -> None:
        from repro.analysis import analyze
        from repro.graph.stats import stats_snapshot
        from repro.server.app import parse_request_body
        from repro.server.protocol import Job

        t = self.t
        with t.span(self.root, rid, kind=request.kind):
            with t.span("server.decode"):
                parsed = parse_request_body(json.loads(request.body.decode("utf-8")))
            ticket = self._admit(parsed)
            budget = dict(ticket.budget_class.budget, deadline_seconds=ticket.deadline_seconds)
            # the service's static cost screen
            if self._stats_epoch != self.graph.epoch:
                with t.span("graph.stats_snapshot"):
                    self.stats = stats_snapshot(self.graph)
                self._stats_epoch = self.graph.epoch
            screened = self._plan(self.service_cache, parsed.query_text, None)
            with t.span("analysis.cost"):
                screened.cost_for(self.stats)
            # the hop to a worker and back, over the real transport
            epoch = None
            if self.store is not None:
                epoch = self.service.metrics_dict()["graphs"]["default"]["epoch"]
            job = Job(rid, parsed.query_text, "default", dict(parsed.params),
                      "counting", budget, graph_epoch=epoch)
            with t.span("server.dispatch") as span:
                dispatched = self.service.pool.dispatch(job, queue_wait=30.0, run_wait=30.0)
                assert dispatched.reply and dispatched.reply["outcome"] == "ok", dispatched.reply
                span.attrs["exclude_ms"] = dispatched.reply["elapsed_ms"]
            # what the worker did meanwhile
            plan = self._plan(self.worker_cache, parsed.query_text, self.graph.schema)
            if plan.lint_errors is None:
                with t.span("analysis.analyze"):
                    found = analyze(plan.query, schema=None, source=parsed.query_text)
                plan.lint_errors = [d.to_dict() for d in found if d.is_error]
            result = self._run(plan, parsed.params, budget)
            self._encode(rid, result)
        self._note("gsql.source_chars", len(parsed.query_text))

    def probe_query(self, rid: str, request: Request) -> None:
        """The same request timed a second way: the real
        ``QueryService.submit`` (its time around the worker's own is the
        service's overhead), and the interpreter twin."""
        from repro.server.app import parse_request_body

        t = self.t
        parsed = parse_request_body(json.loads(request.body.decode("utf-8")))
        with t.span("probe", rid):
            with t.span("server.submit") as span:
                doc = self.service.submit(parsed)
                assert doc["outcome"] == "ok", doc
                span.attrs["exclude_ms"] = doc["elapsed_ms"]
            interpreted = self._interp.get(parsed.query_text)
            if interpreted is None:
                from repro.gsql import parse_query

                interpreted = parse_query(parsed.query_text)
                if len(self._interp) < 32:
                    self._interp[parsed.query_text] = interpreted
            with t.span("core.interp_run"):
                interpreted.run(self.graph, **parsed.params)

    # -- one /ingest request -------------------------------------------
    def ingest(self, rid: str, request: Request) -> None:
        from repro.graph.mutation import MutationBatch, apply_ops
        from repro.obs import collect
        from repro.server.app import parse_ingest_body
        from repro.server.protocol import OutcomeKind, outcome

        t = self.t
        with t.span(self.root, rid, kind=request.kind):
            with t.span("server.decode"):
                parsed = parse_ingest_body(json.loads(request.body.decode("utf-8")))
            self._admit(parsed)
            with t.span("graph.from_ops"):
                batch = MutationBatch.from_ops(parsed.ops)
            before = self.store.pin()  # what a concurrent reader holds
            with collect() as col:
                with t.span("graph.store_apply"):
                    commit = self.store.apply(batch)
            with t.span("server.encode"):
                json.dumps(outcome(
                    OutcomeKind.OK, request_id=rid,
                    ingest={"graph": "default", "epoch": commit.epoch,
                            "ops": commit.ops, "durable": commit.durable},
                )).encode("utf-8")
        for name in ("wal.bytes", "wal.fsyncs", "mutation.ops"):
            self._note(name, col.counters.get(name, 0))
        with t.span("probe", rid):
            with t.span("server.ingest_submit"):
                doc = self.service.ingest(parsed)
                assert doc["outcome"] == "ok", doc
            # GraphStore.apply's three steps, each on its own, against
            # the version the batch was applied to
            with t.span("graph.clone"):
                clone = before.graph.clone()
            with t.span("graph.apply_ops"):
                apply_ops(clone, batch.ops)
            with t.span("graph.wal_commit"):
                self._scratch_wal().commit({"epoch": commit.epoch, "ops": batch.ops})
        before.release()

    def _scratch_wal(self) -> Any:
        from repro.graph.wal import WriteAheadLog

        if self._wal is None:
            self._wal = WriteAheadLog(self.workdir / "wal_scratch", fsync=True)
        return self._wal

    # -- one CLI invocation --------------------------------------------
    def cli(self, rid: str, request: Request) -> None:
        from repro.compile import compile_query
        from repro.graph.io import load_graph_json
        from repro.gsql import parse_query

        t = self.t
        text = (self.inputs.graph_path.parent / "ic9_h2.gsql").read_text()
        with t.span(self.root, rid, kind=request.kind):
            with t.span("cli.python_startup") as startup:
                _python("pass")
            with t.span("cli.import") as span:
                _python("import repro.cli")
                span.attrs["exclude_ms"] = startup.seconds * 1000
            with t.span("graph.load_json"):
                self._base = load_graph_json(self.inputs.graph_path)
            with t.span("gsql.parse"):
                query = parse_query(text)
            with t.span("compile.lower"):
                plan = compile_query(query, schema=self._base.schema)
            result = self._run(plan, request.check["params"], None)
            with t.span("cli.print"):
                "".join(f"{k}:\n  {v}\n" for rec in result.printed for k, v in rec.items())
        self._note("gsql.source_chars", len(text))

    def one(self, rid: str, request: Request) -> None:
        if request.path == "/query":
            self.query(rid, request)
        elif request.path == "/ingest":
            self.ingest(rid, request)
        else:
            self.cli(rid, request)


def _python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def replay_pass(workload: Workload, inputs: Inputs, workdir: Path,
                warm: List[Request], requests: List[Request], tracer: Tracer) -> Replay:
    """Re-enact ``warm`` (unmeasured) then ``requests`` with ``tracer``:
    first every request's blocking path, then the second-opinion probes
    in a loop of their own so they do not cool the caches between two
    requests.  ``Replay.seconds`` is the time both measured loops took."""
    workdir.mkdir(parents=True)
    replay = Replay(workload, inputs, workdir, tracer)
    try:
        for index, request in enumerate(warm):
            replay.one(f"{workload.name}-warm{index}", request)
        replay.root = "request"
        ids = [f"{workload.name}-{index}" for index in range(len(requests))]
        replay.measured_ids = set(ids)
        started = time.perf_counter()
        for rid, request in zip(ids, requests):
            replay.one(rid, request)
        for rid, request in zip(ids, requests):
            if request.path == "/query":
                replay.probe_query(rid, request)
        replay.seconds = time.perf_counter() - started
    finally:
        replay.close()
    return replay


# ---------------------------------------------------------------------------
# one-off probes: layers that are on a workload's set-up path, or that
# the paper compares against, timed once per traced run
# ---------------------------------------------------------------------------

PROBE_REPEATS = 3


def probe_cli(tracer: Tracer) -> None:
    """Interpreter start and ``import repro.cli`` — paid by every
    ``repro serve`` spawn (set-up) and by every ``cli_cold`` request."""
    for _ in range(PROBE_REPEATS):
        with tracer.span("probe", "cli"):
            with tracer.span("cli.python_startup") as startup:
                _python("pass")
            with tracer.span("cli.import") as span:
                _python("import repro.cli")
                span.attrs["exclude_ms"] = startup.seconds * 1000


def probe_generate(tracer: Tracer, scale: float) -> None:
    from repro.ldbc import generate_snb_graph
    from workloads import GRAPH_SEED

    with tracer.span("probe", "ldbc"):
        with tracer.span("ldbc.generate"):
            generate_snb_graph(scale_factor=scale, seed=GRAPH_SEED)


def probe_paths(tracer: Tracer, graph: Any, darpe_text: str, sources: List[str]) -> Dict[str, float]:
    """``single_source_sdmc`` on the workload's DARPE from each source;
    product states and BFS levels are exact counts."""
    from repro.darpe import CompiledDarpe
    from repro.obs import collect
    from repro.paths import single_source_sdmc

    states = levels = 0
    seconds = 0.0
    for source in sources:
        with tracer.span("probe", f"paths:{source}"):
            with tracer.span("darpe.compile"):
                darpe = CompiledDarpe.parse(darpe_text)
            with collect() as col:
                with tracer.span("paths.sdmc") as span:
                    single_source_sdmc(graph, source, darpe)
        seconds += span.seconds
        states += col.counters.get("sdmc.product_states", 0)
        levels += col.counters.get("sdmc.bfs_levels", 0)
    return {
        "paths.product_states": states,
        "paths.bfs_levels": levels,
        "paths.states_per_ms": states / (seconds * 1000),
    }


def probe_enumeration(tracer: Tracer, problems: List[str]) -> Dict[str, float]:
    """Theorem 7.1 at n=12: the enumeration engine materialises 2^12
    shortest paths, and the counting engine must report the same number
    (a mismatch is appended to ``problems`` and counts as a failure)."""
    from repro.darpe import CompiledDarpe
    from repro.enumeration import match_counts
    from repro.graph.builders import diamond_chain
    from repro.paths import PathSemantics, single_source_sdmc

    graph = diamond_chain(12)
    darpe = CompiledDarpe.parse("E>*")
    for _ in range(PROBE_REPEATS):
        with tracer.span("probe", "enumeration"):
            with tracer.span("enumeration.qn12"):
                enumerated = match_counts(
                    graph, "v0", darpe, PathSemantics.ALL_SHORTEST, targets={"v12"}
                )["v12"]
    counted = single_source_sdmc(graph, "v0", darpe, targets={"v12"})["v12"].count
    if enumerated != counted or counted != 2 ** 12:
        problems.append(f"Q12: counting {counted}, enumeration {enumerated}, expected 4096")
    return {"enumeration.paths_materialized": enumerated}


def probe_grouping(tracer: Tracer, graph: Any) -> None:
    """Appendix B: single-pass accumulators against GROUPING SETS."""
    from repro.ldbc import run_q_acc, run_q_gs

    for _ in range(PROBE_REPEATS):
        with tracer.span("probe", "grouping"):
            with tracer.span("core.q_acc"):
                run_q_acc(graph)
            with tracer.span("sqlstyle.q_gs"):
                run_q_gs(graph)


def probe_storage(tracer: Tracer, replay: Replay, workdir: Path, seed: int) -> None:
    """Recovery over the replay's own WAL, and the replay's batches
    against a graph a ninth the size (commit cost vs graph size)."""
    from repro.graph.io import load_graph_json
    from repro.graph.mutation import GraphStore, MutationBatch, recover_graph
    from repro.ldbc import generate_snb_graph
    from workloads import GRAPH_SEED

    with tracer.span("probe", "storage"):
        base = load_graph_json(replay.inputs.graph_path)
        with tracer.span("graph.recover"):
            recover_graph(replay.workdir / "wal_replay" / "default", base=base)
        small = generate_snb_graph(scale_factor=0.1, seed=GRAPH_SEED)
        persons = sorted(v.vid for v in small.vertices("Person"))
        rng = random.Random(seed)
        store = GraphStore.open(workdir / "wal_small", base=small, fsync=True)
        try:
            for cycle in range(corpus.INGEST_LAG + 10):
                batch = MutationBatch.from_ops(corpus.ingest_ops(cycle, rng, persons, "small"))
                if cycle < corpus.INGEST_LAG:
                    store.apply(batch)
                else:
                    with tracer.span("graph.store_apply_small"):
                        store.apply(batch)
        finally:
            store.close()


# ---------------------------------------------------------------------------
# spans -> metrics
# ---------------------------------------------------------------------------

def _span_ms(span: Span) -> float:
    return span.seconds * 1000 - span.attrs.get("exclude_ms", 0.0)


def _spans(tracer: Tracer, name: str, measured: set) -> List[Span]:
    """Spans of that name inside measured requests; where a layer only
    ran during warm-up or in a probe (the front end of a cache-warm
    workload, the one-off probes), those instead."""
    named = list(tracer.named(name))
    return [s for s in named if s.request in measured] or named


def span_median_ms(tracer: Tracer, name: str, measured: set) -> float:
    """Median over spans of that name (0 when the layer never ran)."""
    return median([_span_ms(s) for s in _spans(tracer, name, measured)])


def request_sum_median_ms(tracer: Tracer, name: str, measured: set) -> float:
    """Median over requests of the time all spans of that name took in it."""
    sums: Dict[Any, float] = {}
    for span in _spans(tracer, name, measured):
        sums[span.request] = sums.get(span.request, 0.0) + _span_ms(span)
    return median(list(sums.values()))


def attributed_per_request(tracer: Tracer) -> List[float]:
    """Σ blocking-path span times (the direct children of each
    ``request`` span), one value per request in replay order."""
    roots = {s.id: 0.0 for s in tracer.named("request")}
    for span in tracer.spans:
        if span.parent in roots:
            roots[span.parent] += _span_ms(span)
    return list(roots.values())


#: per-layer metric -> the span whose median duration (ms) it reports.
_SPAN_MEDIANS = {
    "server.submit_overhead_ms": "server.submit",   # minus the worker's own time
    "server.ipc_ms": "server.dispatch",             # minus the worker's own time
    "server.decode_ms": "server.decode",
    "server.encode_ms": "server.encode",
    "gsql.parse_ms": "gsql.parse",
    "analysis.analyze_ms": "analysis.analyze",
    "analysis.cost_ms": "analysis.cost",
    "compile.lower_ms": "compile.lower",
    "darpe.compile_ms": "darpe.compile",
    "core.interp_run_ms": "core.interp_run",
    "core.q_acc_ms": "core.q_acc",
    "paths.sdmc_ms": "paths.sdmc",
    "enumeration.qn12_ms": "enumeration.qn12",
    "sqlstyle.q_gs_ms": "sqlstyle.q_gs",
    "graph.load_json_ms": "graph.load_json",
    "graph.clone_ms": "graph.clone",
    "graph.apply_ops_ms": "graph.apply_ops",
    "graph.wal_commit_ms": "graph.wal_commit",
    "graph.store_apply_ms": "graph.store_apply",
    "graph.store_apply_small_ms": "graph.store_apply_small",
    "graph.stats_snapshot_ms": "graph.stats_snapshot",
    "graph.recover_ms": "graph.recover",
    "cli.python_startup_ms": "cli.python_startup",
    "cli.import_ms": "cli.import",                  # minus interpreter start
    "ldbc.generate_ms": "ldbc.generate",
}
#: Parts of a run, from the program's own span tree: summed per request.
_RUN_PARTS = ("pattern", "accum_map", "accum_reduce", "post_accum")


def layer_metrics(tracer: Tracer, replay: Replay, window: Dict[str, float]) -> Dict[str, float]:
    """Spans and exact counters of one replay -> per-layer metric values."""
    measured = replay.measured_ids
    counters = {name: sum(vals) for name, vals in replay.counters.items()}
    out = {
        metric: span_median_ms(tracer, span, measured)
        for metric, span in _SPAN_MEDIANS.items()
    }
    out["server.admission_us"] = span_median_ms(tracer, "server.admission", measured) * 1000
    out["compile.cache_lookup_us"] = (
        span_median_ms(tracer, "compile.cache_lookup", measured) * 1000
    )
    if out["server.submit_overhead_ms"]:
        out["server.http_ms"] = max(
            0.0, window["server.outside_worker_p50_ms"] - out["server.submit_overhead_ms"]
        )
    out["core.run_ms"] = request_sum_median_ms(tracer, "core.run", measured)
    for part in _RUN_PARTS:
        out[f"core.{part}_ms"] = request_sum_median_ms(tracer, f"core.{part}", measured)
    out["core.other_ms"] = max(
        0.0, out["core.run_ms"] - sum(out[f"core.{part}_ms"] for part in _RUN_PARTS)
    )
    if out["core.q_acc_ms"]:
        out["sqlstyle.gs_over_acc_ratio"] = out["sqlstyle.q_gs_ms"] / out["core.q_acc_ms"]
    out["gsql.source_chars"] = median(replay.counters.get("gsql.source_chars", []))
    out["core.acc_executions"] = counters.get("block.acc_executions", 0)
    out["core.binding_rows"] = counters.get("block.binding_rows", 0)
    out["core.select_blocks"] = sum(
        1 for s in tracer.named("core.select_block") if s.request in measured
    )
    out["accum.combine_weighted"] = counters.get("accum.combine_weighted", 0)
    if counters.get("mutation.ops"):
        out["graph.wal_bytes_per_op"] = counters["wal.bytes"] / counters["mutation.ops"]
        out["graph.wal_fsyncs_per_batch"] = (
            counters["wal.fsyncs"] / len(replay.counters["wal.fsyncs"])
        )
    return out


def run_traced(workload: Workload, seed: int, seconds: float,
               sample: Optional[int] = None) -> Dict[str, Any]:
    """Half the run: an untraced window against the real server.  Then
    ``sample`` requests (default: the workload's ``replay_requests``) are
    re-enacted under the tracer and the one-off probes run.  Spans go to
    ``results/trace_<workload>.json``."""
    workdir = make_workdir(workload.name)
    tracer = Tracer()
    try:
        live, _ = set_up(workload, workdir / "setup0", seed)
        measured = measure_window(live, seconds / 2, workload.lap_units)
        exchanges = measured.exchanges
        ok, problems = verify(workload, live, exchanges)
        window = window_layers(exchanges, measured.before, measured.after)
        latency_p50 = statistics.median(r.latency_s for _, r in exchanges) * 1000

        warm, requests = sample_requests(
            workload, seed, live.inputs, sample or workload.replay_requests
        )
        # The window's bookkeeping (raw responses, the generated graph)
        # must not tax the garbage collector of the layers under the
        # spans: park everything allocated so far outside its reach.
        gc.collect()
        gc.freeze()
        try:
            replay = replay_pass(
                workload, live.inputs, workdir / "replay", warm, requests, tracer
            )
        finally:
            gc.unfreeze()

        extra: Dict[str, float] = {}
        probe_cli(tracer)
        if workload.snb_scale:
            probe_generate(tracer, workload.snb_scale)
        if workload.darpe:
            sources = sorted(
                {r.check["params"]["p"] for r in requests if "ic" in r.check}
            )[:10] or ["v0"]
            extra.update(probe_paths(tracer, replay.graph, workload.darpe, sources))
        if workload.name == "qn_tiny":
            extra.update(probe_enumeration(tracer, problems))
        if workload.name == "ic_warm":
            probe_grouping(tracer, replay.graph)
        if workload.pool_mode == "thread":
            probe_storage(tracer, replay, workdir, seed)
    finally:
        remove_workdir(workdir)
    tracer.dump(RESULTS / f"trace_{workload.name}.json")

    values = {**window, **layer_metrics(tracer, replay, window), **extra}
    # The window's first requests are the re-enacted ones (same seed,
    # same stream), so real latency and attributed time pair up.
    pairs = [
        (reply.latency_s * 1000, attributed)
        for (_, reply), attributed in zip(exchanges, attributed_per_request(tracer))
    ]
    paired_p50 = statistics.median(real for real, _ in pairs)
    values["trace.attributed_ms"] = statistics.median(a for _, a in pairs)
    values["trace.unattributed_ms"] = statistics.median(real - a for real, a in pairs)
    values["trace.unattributed_share"] = values["trace.unattributed_ms"] / paired_p50
    # A second, span-free pass differed from the traced one by ±10% of
    # pure machine noise; the calibrated cost of the spans recorded is
    # the same quantity without it.
    recorded = sum(1 for s in tracer.spans if s.request in replay.measured_ids)
    values["trace.overhead_share"] = recorded * Tracer.cost_per_span() / replay.seconds

    return run_record(
        workload, seed, seconds, 1, exchanges, ok, problems,
        {name: metric(float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER},
        cpu_steal_share=measured.steal_share,
        latency_p50_ms=latency_p50,
        replayed_requests=len(requests),
        spans=len(tracer.spans),
    )
