"""The six workloads: what each builds, starts, sends and checks.

Every workload is a closed loop with one client connection against its
own fresh ``repro serve --workers 2`` (or, for ``cli_cold``, one
``repro run`` subprocess at a time).  ``WORKLOADS`` is the catalogue
``BENCHMARK.json`` mirrors; each ``why`` is the reason the workload
exists.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import corpus
import oracles
from corpus import Request
from harness import Reply, ServerProcess, http_request, peak_rss_mib, run_cli

#: The SNB generator seed is fixed: ``--seed`` varies the *requests*
#: (their order, query names, literals, batch contents), never the graph
#: and never how heavy the requests are, so two seeds measure the same
#: work on the same data.
GRAPH_SEED = 42

Unit = List[Request]
Check = Callable[[Request, Reply], bool]


class Inputs:
    """What ``build`` made: the graph file plus the in-process objects the
    oracle and the request stream need."""

    def __init__(self, graph_path: Path, graph: Any, persons: List[str], **extra: Any):
        self.graph_path = graph_path
        self.graph = graph
        self.persons = persons
        self.extra = extra


class ServerTarget:
    def __init__(self, server: ServerProcess):
        self.server = server

    def call(self, request: Request) -> Reply:
        return http_request(self.server.port, "POST", request.path, request.body)

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.server.pids())

    def counters(self) -> Dict[str, int]:
        """The service's ``/metrics`` counters (diffed around a window)."""
        return self.server.metrics().get("counters", {})

    def stop(self) -> None:
        self.server.stop()


class CliTarget:
    """``python -m repro run`` once per request; status 200 stands for
    exit code 0 so the window treats both targets alike."""

    def __init__(self, cwd: Path, query_file: str, graph_file: str):
        self.cwd, self.query_file, self.graph_file = cwd, query_file, graph_file
        self._peak_rss = 0.0

    def call(self, request: Request) -> Reply:
        args = ["run", self.query_file, "--graph", self.graph_file]
        for name, value in request.check["params"].items():
            args += ["--param", f"{name}={value}"]
        code, stdout, seconds, rss = run_cli(args, self.cwd)
        self._peak_rss = max(self._peak_rss, rss)
        return Reply(200 if code == 0 else 0, stdout, seconds)

    def peak_rss_mib(self) -> float:
        """Largest resident set of any run so far."""
        return self._peak_rss

    def counters(self) -> Dict[str, int]:
        return {}

    def stop(self) -> None:
        pass


def _response_doc(reply: Reply) -> Optional[Dict[str, Any]]:
    if reply.status != 200:
        return None
    try:
        doc = json.loads(reply.body)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and doc.get("outcome") == "ok" else None


def _snb(workdir: Path, scale: float) -> Inputs:
    from repro.graph.io import save_graph_json
    from repro.ldbc import generate_snb_graph

    graph = generate_snb_graph(scale_factor=scale, seed=GRAPH_SEED)
    path = workdir / "snb.json"
    save_graph_json(graph, path)
    persons = sorted(
        (v.vid for v in graph.vertices("Person")), key=lambda vid: int(vid.split(":")[1])
    )
    return Inputs(path, graph, persons)


def _pool(inputs: Inputs, size: int) -> List[str]:
    """``size`` start persons, the same for every seed: the middle one of
    each ``size``-th of the Knows-degree order, so the pool spans light
    and heavy neighbourhoods."""
    degree = dict.fromkeys(inputs.persons, 0)
    for edge in inputs.graph.edges("Knows"):
        degree[edge.source] += 1
        degree[edge.target] += 1
    ordered = sorted(inputs.persons, key=degree.__getitem__)  # stable: ties by id
    return [ordered[(2 * i + 1) * len(ordered) // (2 * size)] for i in range(size)]


def _ic_check(inputs: Inputs) -> Check:
    oracle = oracles.IcOracle(inputs.graph)

    def check(request: Request, reply: Reply) -> bool:
        doc = _response_doc(reply)
        if doc is None:
            return False
        kind = request.check["ic"]
        rows = oracles.ic_rows_from_result(kind, doc.get("result") or {})
        want = oracle.rows(kind, request.check["hops"], request.check["params"])
        return rows is not None and oracles.same_answer(kind, rows, want)

    return check


class Workload:
    name = ""
    why = ""
    #: ``repro serve --pool-mode``; None for a workload with no server.
    pool_mode: Optional[str] = "process"
    #: How many requests of the stream the traced replay re-enacts
    #: (fixed, so exact counts repeat for a seed).
    replay_requests = 44
    #: Scale factor of the SNB graph it generates (None: not SNB).
    snb_scale: Optional[float] = None
    #: The Kleene pattern its queries evaluate ("" when they have none).
    darpe = ""
    #: Units of the stream that make one lap (see ``corpus``: every lap
    #: is the same work).
    lap_units = 1

    def build(self, workdir: Path) -> Inputs:
        return _snb(workdir, self.snb_scale)

    def server_args(self, workdir: Path) -> List[str]:
        return []

    def start(self, workdir: Path, inputs: Inputs) -> Any:
        server = ServerProcess(inputs.graph_path, self.pool_mode, self.server_args(workdir))
        try:
            server.wait_healthy()
        except BaseException:
            server.kill()
            raise
        return ServerTarget(server)

    def stream(self, rng: random.Random, inputs: Inputs) -> Iterator[Unit]:
        raise NotImplementedError

    def warm_units(self, stream: Iterator[Unit], inputs: Inputs) -> List[Unit]:
        """Units to answer before timing starts: whole laps of ``stream``,
        or units of their own, so the window starts on a lap boundary.
        The pool hands a lone client's requests to its two workers
        alternately, so sending each unit twice reaches both."""
        raise NotImplementedError

    def checker(self, inputs: Inputs) -> Check:
        raise NotImplementedError

    def after_window(
        self, target: Any, inputs: Inputs, workdir: Path,
        exchanges: List[Tuple[Request, Reply]],
    ) -> List[str]:
        """Stop the target; return one message per post-window check that
        failed (each counts as a failed operation)."""
        target.stop()
        return []


class IcWarm(Workload):
    name = "ic_warm"
    why = ("SNB SF1 IC3/5/6/9/11 x hops 2-3, plan-cache-warm: execution "
           "(core/paths/accum) is ~90% of latency, so CSR and kernel work must show here")
    snb_scale = 1.0
    darpe = "Knows*1..3"
    lap_units = 100  # ten texts from ten start persons

    def stream(self, rng, inputs):
        return corpus.ic_warm_stream(rng, _pool(inputs, 10))

    def warm_units(self, stream, inputs):
        return [[r] for r in corpus.ic_warm_texts() for _ in (0, 1)]

    def checker(self, inputs):
        return _ic_check(inputs)


class FrontendCold(Workload):
    name = "frontend_cold"
    why = ("SNB SF0.1 IC h2 texts that never repeat (unique name and literal): "
           "gsql+analysis+compile dominate and the plan cache only evicts; executor nearly idle")
    snb_scale = 0.1
    darpe = "Knows*1..2"
    lap_units = 50  # five kinds from ten start persons

    def stream(self, rng, inputs):
        return corpus.frontend_cold_stream(rng, _pool(inputs, 10))

    def warm_units(self, stream, inputs):
        # Nothing to make warm except each worker's lazy imports: one
        # lap of the (never repeating) stream itself.
        return [next(stream) for _ in range(self.lap_units)]

    def checker(self, inputs):
        return _ic_check(inputs)


class QnTiny(Workload):
    name = "qn_tiny"
    why = ("the paper's Qn on a 30-diamond chain (2^30 paths, ~1 ms of engine work): "
           "HTTP, admission, dispatch, pipe IPC and encode are most of the latency")
    replay_requests = 100
    darpe = "E>*"
    n = 30
    lap_units = 100

    def build(self, workdir: Path) -> Inputs:
        from repro.graph.builders import diamond_chain
        from repro.graph.io import save_graph_json

        graph = diamond_chain(self.n)
        path = workdir / "diamond.json"
        save_graph_json(graph, path)
        return Inputs(path, graph, [])

    def stream(self, rng, inputs):
        return corpus.constant_stream(corpus.qn_request(self.n), self.lap_units)

    def warm_units(self, stream, inputs):
        return [[corpus.qn_request(self.n)]] * 6

    def checker(self, inputs):
        def check(request: Request, reply: Reply) -> bool:
            doc = _response_doc(reply)
            n = request.check["n"]
            want = [{"R": [{"name": f"v{n}", "pathCount": 2 ** n}]}]
            return doc is not None and (doc.get("result") or {}).get("printed") == want

        return check


class PagerankLoop(Workload):
    name = "pagerank_loop"
    why = ("Figure-4 PageRank (WHILE, single-hop ACCUM, POST_ACCUM, primed reads, 300 scores "
           "printed): same core layer used differently, and the one large response body")
    replay_requests = 6
    snb_scale = 1.0
    lap_units = 4

    def build(self, workdir: Path) -> Inputs:
        from repro.graph import Graph
        from repro.graph.io import save_graph_json
        from repro.ldbc import generate_snb_graph

        snb = generate_snb_graph(scale_factor=self.snb_scale, seed=GRAPH_SEED)
        pages = Graph(name="Pages")
        vertices = [p.vid for p in snb.vertices("Person")]
        for vid in vertices:
            pages.add_vertex(vid, "Page", name=vid)
        edges: List[Tuple[str, str]] = []
        for knows in snb.edges("Knows"):
            for source, target in ((knows.source, knows.target), (knows.target, knows.source)):
                pages.add_edge(source, target, "LinkTo")
                edges.append((source, target))
        path = workdir / "pages.json"
        save_graph_json(pages, path)
        return Inputs(path, pages, [], vertices=vertices, edges=edges)

    def stream(self, rng, inputs):
        return corpus.constant_stream(corpus.pagerank_request(), self.lap_units)

    def warm_units(self, stream, inputs):
        return [[corpus.pagerank_request()]] * 4

    def checker(self, inputs):
        params = corpus.PAGERANK_PARAMS
        want = oracles.pagerank_reference(
            inputs.extra["vertices"], inputs.extra["edges"],
            params["maxIteration"], params["dampingFactor"],
        )

        def check(request: Request, reply: Reply) -> bool:
            doc = _response_doc(reply)
            try:
                rows = doc["result"]["printed"][0]["AllV"]
                got = {row["name"]: row["score"] for row in rows}
            except (KeyError, IndexError, TypeError):
                return False
            return got.keys() == want.keys() and all(
                abs(got[v] - want[v]) <= 1e-9 for v in want
            )

        return check


class IngestMixed(Workload):
    name = "ingest_mixed"
    why = ("SNB SF1, thread pool, fsynced WAL; 1 ingest batch : 4 queries; p90 is the commit "
           "(Graph.clone + WAL), p50 the first read after it (stats re-derivation): the graph layer")
    pool_mode = "thread"
    snb_scale = 1.0
    darpe = "Knows*1..2"
    lap_units = 10  # one cycle from each of ten start persons

    def server_args(self, workdir: Path) -> List[str]:
        return ["--wal-dir", str(workdir / "wal")]

    def stream(self, rng, inputs):
        return corpus.ingest_mixed_stream(rng, inputs.persons, _pool(inputs, 10))

    def warm_units(self, stream, inputs):
        # One lap covers the cycles during which the graph still grows;
        # the measured window then sees a stationary size and full
        # ten-op batches.
        assert self.lap_units >= corpus.INGEST_LAG
        return [next(stream) for _ in range(self.lap_units)]

    def checker(self, inputs):
        epochs: List[int] = []

        def check(request: Request, reply: Reply) -> bool:
            doc = _response_doc(reply)
            if doc is None:
                return False
            if request.kind == "ingest":
                ack = doc.get("ingest") or {}
                epochs.append(ack.get("epoch", -1))
                in_order = len(epochs) < 2 or epochs[-1] == epochs[-2] + 1
                return (ack.get("ops") == request.check["ops"]
                        and ack.get("durable") is True and in_order)
            result = doc.get("result") or {}
            if request.kind == "count":
                return result.get("printed") == [{"n": request.check["persons"]}]
            rows = oracles.ic_rows_from_result(request.check["ic"], result)
            return rows is not None and oracles.is_ordered(request.check["ic"], rows)

        return check

    def after_window(self, target, inputs, workdir, exchanges):
        """SIGKILL the server, then require recovery to show every
        acknowledged epoch on a graph that passes fsck and gives the last
        cycle's IC answers under the independent engine."""
        from repro.graph.fsck import fsck_graph
        from repro.graph.io import load_graph_json
        from repro.graph.mutation import recover_graph

        target.server.kill()
        problems: List[str] = []
        acked = [
            json.loads(reply.body)["ingest"]["epoch"]
            for request, reply in exchanges
            if request.kind == "ingest" and _response_doc(reply) is not None
        ]
        wal_dir = workdir / "wal" / "default"
        graph, report = recover_graph(wal_dir, base=load_graph_json(inputs.graph_path))
        if acked and report.epoch < max(acked):
            problems.append(f"recovered epoch {report.epoch} < acknowledged {max(acked)}")
        fsck = fsck_graph(graph, wal_dir=wal_dir)
        if not fsck.ok:
            problems.append(f"fsck: {fsck.violations[:3]}")
        counts = [r.check["persons"] for r, _ in exchanges if r.kind == "count"]
        if counts and sum(1 for _ in graph.vertices("Person")) != counts[-1]:
            problems.append("recovered Person count differs from the last acknowledged state")
        oracle = oracles.IcOracle(graph)
        for request, reply in exchanges[-4:]:
            doc = _response_doc(reply)
            if "ic" not in request.check or doc is None:
                continue
            kind = request.check["ic"]
            want = oracle.rows(kind, request.check["hops"], request.check["params"])
            rows = oracles.ic_rows_from_result(kind, doc.get("result") or {})
            if rows is None or not oracles.same_answer(kind, rows, want):
                problems.append(f"{request.kind} after the last commit differs from asp-enum")
        return problems


class CliCold(Workload):
    name = "cli_cold"
    why = ("python -m repro run ic9_h2.gsql on SNB SF0.4, one process per request: interpreter "
           "start, import repro.cli and load_graph_json — layers no server request touches")
    pool_mode = None
    replay_requests = 10
    snb_scale = 0.4
    darpe = "Knows*1..2"
    lap_units = 5

    def build(self, workdir: Path) -> Inputs:
        inputs = _snb(workdir, self.snb_scale)
        (workdir / "ic9_h2.gsql").write_text(corpus.ic_text("ic9", 2))
        return inputs

    def start(self, workdir: Path, inputs: Inputs) -> Any:
        return CliTarget(workdir, "ic9_h2.gsql", inputs.graph_path.name)

    def stream(self, rng, inputs):
        return corpus.cli_cold_stream(rng, _pool(inputs, 5))

    def warm_units(self, stream, inputs):
        return []  # every run is cold by design

    def checker(self, inputs):
        oracle = oracles.IcOracle(inputs.graph)

        def check(request: Request, reply: Reply) -> bool:
            if reply.status != 200:
                return False
            rows = oracles.ic9_rows_from_text(reply.body.decode("utf-8", "replace"))
            want = oracle.rows("ic9", 2, request.check["params"])
            return oracles.same_answer("ic9", rows, want)

        return check


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (IcWarm(), FrontendCold(), QnTiny(), IngestMixed(), PagerankLoop(), CliCold())
}
#: The workloads ``BENCHMARK.json`` lists — the ones the driver runs and
#: bounds.  Its time limit for all runs leaves room for four windows long
#: enough to be steady; ``pagerank_loop`` and ``cli_cold`` run by hand,
#: in the full matrix behind ``results/BENCH_*.json`` and in the smoke test.
GATED = ("ic_warm", "frontend_cold", "qn_tiny", "ingest_mixed")
