"""One untraced run of one workload: set-up, window, verification.

The window is a closed loop with a single client: the next request is
sent only after the previous response's last byte.  Responses are kept
raw and checked after the window closes, so verification never sits
between two requests.

The window is made of whole *laps*, and every lap sends the same work
(``corpus``: the same slots, in a seeded order).  So each slot is
measured once per lap, and the end-to-end timings are taken over the
slots' *lower quartiles*: the host this runs on switches between two
speeds 1.3-1.5x apart, in bursts of 50 ms to 40 s, and a statistic of
all samples mostly reports how much of the window the slow mode took
(ten same-code runs spread 10-30%).  A slot's lower quartile is what
the request costs while the machine is at its better speed, yet is no
lucky sample: the commit of ``ingest_mixed`` has a fast mode one time
in ten (half the usual time), and the *fastest* of ten repeats reports
it or not at random (spread 30%).  What is left is the host's slow drift
(minutes at a time, every process 15-35% slower), which no statistic of
one window escapes: the client measures it with ``yardstick`` between
requests and the timings are scaled to the yardstick's nominal speed.
The unscaled numbers and the plain whole-window statistics are kept
beside them in every run record.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

import yardstick
from corpus import Request
from harness import (
    Reply, beyond, cpu_jiffies, make_workdir, median, percentile, remove_workdir,
)
from workloads import Inputs, Unit, Workload

Exchange = Tuple[Request, Reply]

#: Set-up is repeated and its median reported: one set-up is a single
#: sample of process spawn + imports + file I/O, far noisier than any
#: window statistic.  The first of a run is the slowest (the benchmark's
#: own imports and the page cache are cold), so with five the median is
#: one of the warm ones.
SETUPS = 5


class Live(NamedTuple):
    """A workload that is set up and warm."""

    workdir: Path
    inputs: Inputs
    target: Any
    stream: Iterator[Unit]


def set_up(workload: Workload, workdir: Path, seed: int) -> Tuple[Live, float]:
    """Generate + save the graph, start the target, answer the warm-up
    units; returns the live workload and the seconds all that took."""
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    inputs = workload.build(workdir)
    target = workload.start(workdir, inputs)
    try:
        stream = workload.stream(random.Random(seed), inputs)
        for unit in workload.warm_units(stream, inputs):
            for request in unit:
                reply = target.call(request)
                if reply.status != 200:
                    raise RuntimeError(
                        f"{workload.name}: warm-up {request.kind} answered "
                        f"{reply.status}: {reply.body[:300]!r}"
                    )
    except BaseException:
        target.stop()
        raise
    return Live(workdir, inputs, target, stream), time.perf_counter() - started


def run_window(
    live: Live, seconds: float, lap_units: int,
) -> Tuple[List[Exchange], List[float], float, List[float]]:
    """Send laps back to back until ``seconds`` have passed (a lap is
    never split, so every slot has the same number of repeats).  Returns
    the exchanges, each one's *cycle* — from its send to the next
    request's send, so what the client does in between counts — the wall
    time of it all, and the yardstick samples taken on the way (whose
    time is in neither cycles nor wall)."""
    exchanges: List[Exchange] = []
    sent: List[float] = []
    yards: List[float] = []
    call = live.target.call
    clock = time.perf_counter
    started = last_yard = clock()
    paused = 0.0  # seconds spent on the yardstick so far
    while not sent or clock() - started < seconds:
        for _ in range(lap_units):
            for request in next(live.stream):
                sent.append(clock() - paused)
                exchanges.append((request, call(request)))
                now = clock()
                if now - last_yard >= yardstick.INTERVAL_S:
                    yards.append(yardstick.sample())
                    last_yard = clock()
                    paused += last_yard - now
    ended = clock() - paused
    cycles = [b - a for a, b in zip(sent, sent[1:] + [ended])]
    return exchanges, cycles, ended - started, yards


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def quartile_by_slot(exchanges: List[Exchange], values: List[float]) -> List[float]:
    """One value per slot of the lap: the lower quartile of its repeats."""
    repeats: Dict[int, List[float]] = {}
    for (request, _), value in zip(exchanges, values):
        repeats.setdefault(request.slot, []).append(value)
    return [sorted(v)[len(v) // 4] for v in repeats.values()]


def end_to_end(
    exchanges: List[Exchange], cycles: List[float], ok: List[bool], scale: float,
    setup_seconds: List[float], peak_rss: float,
) -> Dict[str, Dict[str, Any]]:
    """Latency percentiles over the lap's slots, each at the lower
    quartile of its repeats; throughput is the rate of a lap made of every
    slot's lower-quartile cycle, times the share of responses that were
    right.  ``scale`` (nominal ÷ measured yardstick time) brings the three
    to the machine's nominal speed."""
    latencies = quartile_by_slot(exchanges, [r.latency_s * 1000 for _, r in exchanges])
    lap_seconds = sum(quartile_by_slot(exchanges, cycles))
    return {
        "setup_s": metric(statistics.median(setup_seconds), "s"),
        "latency_p50_ms": metric(statistics.median(latencies) * scale, "ms"),
        "latency_p90_ms": metric(percentile(latencies, 90) * scale, "ms"),
        "throughput_rps": metric(
            len(latencies) * sum(ok) / len(ok) / (lap_seconds * scale), "1/s"
        ),
        "peak_rss_mb": metric(peak_rss, "MiB"),
    }


def _elapsed_ms(reply: Reply) -> float:
    """The worker's own ``elapsed_ms`` from a ``/query`` response (absent
    on ingest acknowledgements and CLI runs)."""
    try:
        return float(json.loads(reply.body)["elapsed_ms"])
    except (ValueError, KeyError, TypeError):
        return float("nan")


def window_layers(
    exchanges: List[Exchange], before: Dict[str, int], after: Dict[str, int],
) -> Dict[str, float]:
    """The per-layer numbers that can be read off a window from outside:
    the response's own ``elapsed_ms`` against client latency, body sizes,
    per-kind medians and the ``/metrics`` counter diff.  Empty for a
    workload with no server."""
    if not exchanges[0][0].path:
        return {}
    latencies = [reply.latency_s * 1000 for _, reply in exchanges]
    timed = [
        (reply.latency_s * 1000, _elapsed_ms(reply)) for _, reply in exchanges
    ]
    timed = [(lat, el) for lat, el in timed if el == el]  # drop NaN
    by_kind: Dict[str, List[float]] = {}
    for request, reply in exchanges:
        by_kind.setdefault(request.kind, []).append(reply.latency_s * 1000)

    def diff(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    hits, misses = diff("compile.cache.hit"), diff("compile.cache.miss")
    out = {
        "server.worker_elapsed_p50_ms": median([el for _, el in timed]),
        "server.outside_worker_p50_ms": median([lat - el for lat, el in timed]),
        "server.latency_p99_ms": percentile(latencies, 99),
        "server.response_bytes": median([len(reply.body) for _, reply in exchanges]),
        "server.retries": diff("server.retries"),
        "server.shed": diff("server.shed"),
        "server.ingest_p50_ms": median(by_kind.get("ingest", [])),
        "server.query_after_commit_p50_ms": median([
            after.latency_s * 1000
            for (request, _), (_, after) in zip(exchanges, exchanges[1:])
            if request.kind == "ingest"
        ]),
        "compile.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "compile.cache_evictions": diff("compile.cache.eviction"),
    }
    for kind, lats in by_kind.items():
        if kind.startswith("ic"):
            out[f"server.kind.{kind}_p50_ms"] = median(lats)
    return out


class Window(NamedTuple):
    """A finished window plus what had to be read while the target was up."""

    exchanges: List[Exchange]
    cycles: List[float]
    wall: float
    #: The service's ``/metrics`` counters before and after.
    before: Dict[str, int]
    after: Dict[str, int]
    peak_rss: float
    #: Share of the machine's CPU time the hypervisor gave to others.
    steal_share: float
    #: Yardstick samples (ms) taken between requests.
    yards: List[float]


def measure_window(live: Live, seconds: float, lap_units: int) -> Window:
    """Run the window; the target is stopped here only if it fails."""
    try:
        before = live.target.counters()
        stolen0, total0 = cpu_jiffies()
        exchanges, cycles, wall, yards = run_window(live, seconds, lap_units)
        stolen1, total1 = cpu_jiffies()
        return Window(
            exchanges, cycles, wall, before, live.target.counters(),
            live.target.peak_rss_mib(),
            (stolen1 - stolen0) / max(1, total1 - total0), yards,
        )
    except BaseException:
        live.target.stop()
        raise


def verify(
    workload: Workload, live: Live, exchanges: List[Exchange],
) -> Tuple[List[bool], List[str]]:
    """Stop the target, run the post-window checks, then check every
    response against its oracle.  Returns one flag per response and one
    message per failed post-window check."""
    problems = workload.after_window(live.target, live.inputs, live.workdir, exchanges)
    check = workload.checker(live.inputs)
    return [check(request, reply) for request, reply in exchanges], problems


def run_record(
    workload: Workload, seed: int, seconds: float, trace: int,
    exchanges: List[Exchange], ok: List[bool], problems: List[str],
    metrics: Dict[str, Dict[str, Any]], **detail: Any,
) -> Dict[str, Any]:
    """One run as it is printed and written to ``BENCH_*.json``."""
    wrong = [
        f"{request.kind}: status {reply.status}, body {reply.body[:200]!r}"
        for (request, reply), good in zip(exchanges, ok) if not good
    ]
    failed = len(wrong) + len(problems)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "attempted": len(exchanges),
        "failed": failed,
        "correct": failed == 0,
        "problems": problems + wrong[:5],
        **detail,
        "metrics": metrics,
    }


def run_untraced(workload: Workload, seed: int, seconds: float, setups: int = SETUPS) -> Dict[str, Any]:
    """Set up ``setups`` times (the last one is measured), run the window
    with no tracer anywhere, verify, and report the end-to-end metrics."""
    workdir = make_workdir(workload.name)
    try:
        setup_seconds: List[float] = []
        live = None
        for attempt in range(setups):
            if live is not None:
                live.target.stop()
            live, took = set_up(workload, workdir / f"setup{attempt}", seed)
            setup_seconds.append(took)
        assert live is not None
        window = measure_window(live, seconds, workload.lap_units)
        exchanges = window.exchanges
        ok, problems = verify(workload, live, exchanges)
    finally:
        remove_workdir(workdir)
    latencies = [reply.latency_s * 1000 for _, reply in exchanges]
    slots = len({request.slot for request, _ in exchanges})
    machine_ms = yardstick.machine_ms(window.yards)
    scale = yardstick.NOMINAL_MS / machine_ms
    unscaled = end_to_end(exchanges, window.cycles, ok, 1.0, setup_seconds, window.peak_rss)
    return run_record(
        workload, seed, seconds, 0, exchanges, ok, problems,
        end_to_end(exchanges, window.cycles, ok, scale, setup_seconds, window.peak_rss),
        cpu_steal_share=window.steal_share,
        requests=dict(Counter(request.kind for request, _ in exchanges)),
        samples=slots,
        samples_beyond_p90=beyond(range(slots), 90),
        repeats=len(exchanges) // slots,
        setup_runs_s=setup_seconds,
        yardstick={"machine_ms": machine_ms, "samples": len(window.yards), "scale": scale},
        unscaled={name: cell["value"] for name, cell in unscaled.items()},
        whole_window={
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 90),
            "throughput_rps": sum(ok) / window.wall,
        },
    )
