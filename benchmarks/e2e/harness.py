"""Process, HTTP and statistics plumbing shared by the workloads.

Everything here talks to the product from outside: ``python -m repro
serve`` and ``python -m repro run`` subprocesses, a raw-socket HTTP/1.1
client (one connection per request — the server answers ``Connection:
close``), ``/proc`` for memory.  Nothing in this file imports ``repro``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: Scratch space inside the checkout (the driver allows no writes
#: outside it); every run makes and removes its own sub-directory.
WORK = HERE / ".work"


def child_env() -> Dict[str, str]:
    """Environment for product subprocesses: this checkout's ``src``
    first on ``PYTHONPATH`` so they run the code under test."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def make_workdir(tag: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only succeeds once the last run has cleaned up
    except OSError:
        pass


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile rank."""
    rank = max(1, -(-len(values) * q // 100))
    return len(values) - int(rank)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

class Reply(NamedTuple):
    """One finished exchange.  ``status`` is 0 when the connection was
    refused or the response was not parseable HTTP."""

    status: int
    body: bytes
    latency_s: float


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http_request(port: int, method: str, path: str, body: bytes = b"") -> Reply:
    """One request on a fresh connection; latency is connect → last body
    byte (the server closes the connection after the response)."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    started = time.perf_counter()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
            sock.sendall(head + body)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return Reply(0, b"", time.perf_counter() - started)
    latency = time.perf_counter() - started
    raw = b"".join(chunks)
    header, sep, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(header.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return Reply(0, raw, latency)
    if not sep:
        return Reply(0, raw, latency)
    return Reply(status, payload, latency)


def http_json(port: int, method: str, path: str, doc: Any = None) -> Tuple[int, Any]:
    body = json.dumps(doc).encode("utf-8") if doc is not None else b""
    reply = http_request(port, method, path, body)
    try:
        return reply.status, json.loads(reply.body)
    except ValueError:
        return reply.status, None


# ---------------------------------------------------------------------------
# /proc
# ---------------------------------------------------------------------------

def _stat_fields(pid: Any) -> List[str]:
    """``/proc/<pid>/stat`` after the command name — state, ppid, … — or
    [] once the process is gone ("pid (comm) state ppid": comm may hold
    spaces and parentheses, so split after the last ')')."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[-1].split()
    except OSError:
        return []


def _running(pid: int) -> bool:
    """Neither gone nor a zombie waiting for its (dead) parent's reaper."""
    return _stat_fields(pid)[:1] not in ([], ["Z"])


def process_tree(pid: int) -> List[int]:
    """``pid`` and every descendant, from one scan of ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        fields = _stat_fields(entry) if entry.isdigit() else []
        if len(fields) > 1:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree = [pid]
    for parent in tree:
        tree.extend(children.get(parent, []))
    return tree


def cpu_jiffies() -> Tuple[int, int]:
    """(stolen, total) CPU time of the whole machine so far, from
    ``/proc/stat``.  *Stolen* is time the hypervisor ran someone else
    while this VM wanted the CPU — a window with much of it measured the
    neighbours, not the program."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _vm_hwm_kib(pid: int) -> int:
    """A live process's peak resident set (0 once it is gone or a zombie)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib(pids: Sequence[int]) -> float:
    """Σ ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    return sum(_vm_hwm_kib(pid) for pid in pids) / 1024.0


# ---------------------------------------------------------------------------
# the server subprocess
# ---------------------------------------------------------------------------

def _die_with_parent() -> None:
    """Runs in the child between fork and exec: ask Linux to SIGKILL it
    when the benchmark process dies (``prctl(PR_SET_PDEATHSIG)``), so a
    benchmark that is itself killed leaves no server behind."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG


class ServerProcess:
    """One ``python -m repro serve`` subprocess on a probed free port.

    Always reaped: :meth:`stop` (SIGTERM, then SIGKILL after a grace) or
    :meth:`kill` (SIGKILL at once — the crash the ingest workload stages)
    both wait for the process and then sweep its worker children.
    """

    def __init__(self, graph_path: Path, pool_mode: str, extra: Sequence[str] = ()):
        self.port = free_port()
        self._stderr = tempfile.TemporaryFile(dir=graph_path.parent)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--graph", str(graph_path),
                "--port", str(self.port),
                "--workers", "2",
                "--pool-mode", pool_mode,
                *extra,
            ],
            env=child_env(),
            cwd=str(graph_path.parent),
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
            preexec_fn=_die_with_parent,
        )
        self._kids: List[int] = []

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    f"{self.stderr_text()[-2000:]}"
                )
            status, doc = http_json(self.port, "GET", "/healthz")
            if status == 200 and doc and doc.get("workers_alive") == 2:
                return
            time.sleep(0.01)
        raise RuntimeError("repro serve did not become healthy")

    def stderr_text(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", "replace")

    def pids(self) -> List[int]:
        return process_tree(self.proc.pid)

    def metrics(self) -> Dict[str, Any]:
        status, doc = http_json(self.port, "GET", "/metrics")
        return doc if status == 200 and doc else {}

    def _reap(self, sig: int, grace: float) -> None:
        if self.proc.poll() is None:
            self._kids = [p for p in self.pids() if p != self.proc.pid]
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # Forked pool workers are daemons of the server; after a SIGKILL
        # nobody tells them to exit, so sweep them explicitly and wait
        # until they are gone.
        for pid in self._kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_running, self._kids)):
            time.sleep(0.01)
        self._stderr.close()

    def stop(self) -> None:
        self._reap(signal.SIGTERM, grace=10.0)

    def kill(self) -> None:
        self._reap(signal.SIGKILL, grace=10.0)


def run_cli(args: Sequence[str], cwd: Path) -> Tuple[int, bytes, float, float]:
    """One ``python -m repro ...`` subprocess: (exit code, stdout, spawn →
    exit seconds, the child's peak resident set in MiB).

    The peak is ``VmHWM`` sampled from ``/proc`` every 5 ms while the
    main thread blocks on the child's stdout.  ``ru_maxrss`` would not do:
    at ``exec`` Linux folds the *spawning* process's high-water mark into
    the child's, so it reports the benchmark's own size."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=child_env(),
        cwd=str(cwd),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    peak_kib = 0
    exited = threading.Event()

    def sample() -> None:
        nonlocal peak_kib
        while not exited.wait(0.005):
            peak_kib = max(peak_kib, _vm_hwm_kib(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        stdout, _ = proc.communicate()
        seconds = time.perf_counter() - started
    finally:
        exited.set()
        sampler.join()
    return proc.returncode, stdout, seconds, peak_kib / 1024.0
