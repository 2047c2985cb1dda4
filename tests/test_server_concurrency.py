"""Thread-pool workers run queries at the same time, over shared plans.

There is no engine lock: a job's collector and governor are bound in
the worker thread's own context, so N requests in flight at once — all
hitting the same cached plans and the same graph — must each come back
with exactly the result *and the counters* of that request run alone.
Counter totals alone would not show cross-wiring (a charge landing on
the wrong request keeps the sum), so the differential is per reply.
"""

import random
import sys
import threading

import pytest

from repro.graph import builders
from repro.ldbc import generate_snb_graph
from repro.ldbc.interactive import IC_QUERIES, default_parameters
from repro.server import QueryRequest, QueryService

QN = """
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
"""

WORKERS = 4
#: One request in flight per client: the stock ``interactive`` class
#: (governed: product-state and path caps) admits eight at a time.
CLIENTS = 8


@pytest.fixture(scope="module")
def snb():
    return generate_snb_graph(scale_factor=0.05, seed=7)


@pytest.fixture
def service(snb):
    svc = QueryService(
        graphs={"snb": snb, "diamond": builders.diamond_chain(12)},
        pool_size=WORKERS,
        pool_mode="thread",
        max_queue_depth=CLIENTS,
        max_tenant_inflight=CLIENTS,
    )
    # Keep each worker's raw reply: the service folds ``counters`` into
    # its own collector and drops them from the client document.
    svc.replies = {}
    dispatch = svc.pool.dispatch

    def recording_dispatch(job, **waits):
        result = dispatch(job, **waits)
        svc.replies[job.request_id] = result.reply
        return result

    svc.pool.dispatch = recording_dispatch
    yield svc
    svc.shutdown(grace=5.0)


def _requests(snb):
    """IC3/5/6/9/11 at two hop counts from four start persons, plus Qn
    at four lengths: 44 requests over 11 distinct texts."""
    persons = [v.vid for v in snb.vertices("Person")]
    starts = [persons[i * len(persons) // 4] for i in range(4)]
    requests = []
    for kind, build in sorted(IC_QUERIES.items()):
        for hops in (2, 3):
            text = build(hops).source
            for start in starts:
                params = dict(default_parameters(snb, kind), p=start)
                requests.append(
                    QueryRequest(
                        query_text=text, graph="snb", params=params,
                        deadline_seconds=30.0,
                        request_id=f"{kind}-h{hops}-{start}",
                    )
                )
    for length in (3, 6, 9, 12):
        requests.append(
            QueryRequest(
                query_text=QN, graph="diamond",
                params={"srcName": "v0", "tgtName": f"v{length}"},
                deadline_seconds=30.0, request_id=f"qn-{length}",
            )
        )
    return requests


def _observed(service, request):
    """What a request's client and its worker saw, minus the clock."""
    doc = service.submit(request)
    assert doc["outcome"] == "ok", doc
    reply = service.replies[request.request_id]
    return doc["result"], reply["result"], reply["counters"]


def test_concurrent_replies_equal_serial_replies(service, snb):
    requests = _requests(snb)
    # Every text is lowered once up front, so neither pass pays (or
    # counts) a plan-cache miss.
    for request in {r.query_text: r for r in requests}.values():
        assert service.submit(request)["outcome"] == "ok"

    serial = {r.request_id: _observed(service, r) for r in requests}
    assert any(c.get("sdmc.product_states") for _, _, c in serial.values())
    assert len({str(c) for _, _, c in serial.values()}) > len(requests) // 2

    shuffled = list(requests)
    random.Random(19).shuffle(shuffled)
    concurrent = {}
    failures = []
    peak = [0, 0]  # [in flight now, most ever in flight]
    gauge = threading.Lock()

    def client(mine):
        for request in mine:
            with gauge:
                peak[0] += 1
                peak[1] = max(peak[1], peak[0])
            try:
                concurrent[request.request_id] = _observed(service, request)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append((request.request_id, exc))
            finally:
                with gauge:
                    peak[0] -= 1

    clients = [
        threading.Thread(target=client, args=(shuffled[i::CLIENTS],))
        for i in range(CLIENTS)
    ]
    # Requests here take about a millisecond, under the interpreter's
    # default 5 ms switch interval: switch far more often so workers
    # interleave inside the engine, not just between requests.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in clients)
    assert not failures, failures
    assert peak[1] > 1  # the requests really did overlap

    for request_id, expected in serial.items():
        assert concurrent[request_id] == expected, request_id
