"""Smoke test of the end-to-end benchmark (outside tier-1's testpaths):

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs the real command in ``--smoke`` mode — same code path and checks as
a full run, 1 s windows — and pins the manifest to the catalogue.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import catalog
import compare
from workloads import GATED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _serving():
    """Pids whose argv is ``... -m repro serve ...`` (argv, not a substring
    of someone's shell command line)."""
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            argv = (proc / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if any(argv[i:i + 3] == [b"-m", b"repro", b"serve"] for i in range(len(argv))):
            found.append(int(proc.name))
    return found


def test_manifest_mirrors_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(manifest) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert manifest["workloads"] == [
        {"name": name, "why": WORKLOADS[name].why} for name in GATED
    ]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in catalog.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in catalog.PER_LAYER
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert len(manifest["per_layer"]) <= 128


def test_smoke_run_checks_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    doc = json.loads(out.read_text())
    assert {"commit", "nproc", "python", "platform", "seeds"} <= set(doc["meta"])
    by_pass = {(r["workload"], r["trace"]): r for r in doc["runs"]}
    for name in WORKLOADS:
        untraced, traced = by_pass[(name, 0)], by_pass[(name, 1)]
        assert list(untraced["metrics"]) == [n for n, *_ in catalog.END_TO_END]
        assert list(traced["metrics"]) == [n for n, *_ in catalog.PER_LAYER]
        assert all(cell["value"] > 0 for cell in untraced["metrics"].values())
        assert traced["metrics"]["core.run_ms"]["value"] > 0
        assert (HERE / "results" / f"trace_{name}.json").is_file()
    # nothing left behind: no server process, no scratch directory
    assert not (HERE / ".work").exists()
    assert not _serving()


def test_refuses_to_run_without_the_product(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "trace_*.json"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "qn_tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _doc(latencies):
    return {"runs": [
        {"workload": "w", "trace": 0, "metrics": {
            "latency_p50_ms": {"value": v, "unit": "ms"},
            "throughput_rps": {"value": 1000 / v, "unit": "1/s"},
        }} for v in latencies
    ]}


def test_compare_verdicts():
    steady = _doc([10.0, 10.1, 10.2])
    lines, regressed = compare.compare(steady, _doc([10.3, 10.2, 10.4]))
    assert not regressed and all("unchanged" in row for row in lines[1:])
    lines, regressed = compare.compare(steady, _doc([14.0, 14.1, 14.2]))
    assert regressed and all("regressed" in row for row in lines[1:])
    lines, regressed = compare.compare(steady, _doc([8.0, 10.0, 12.5]))
    assert not regressed and all("unresolved" in row for row in lines[1:])
