"""Smoke test of the end-to-end benchmark.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with
``python3 -m pytest e2ebench/test_e2e.py -q``.  Every workload runs once
at the reduced ``--smoke`` size, untraced and traced (about 15 s in
total on a 2-vCPU VM), and the test checks the output contract against
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    lines = {}
    for trace in (0, 1):
        proc = _run("--smoke", "--trace", str(trace), "--out", str(out))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        lines[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, lines


def _by_workload(metrics: dict) -> dict:
    found: dict[str, set] = {}
    for key in metrics:
        workload, name = next(
            (w, key[len(w) + 1:]) for w in WORKLOADS if key.startswith(w + ".")
        )
        found.setdefault(workload, set()).add(name)
    return found


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(runs, trace, section):
    _, lines = runs
    line = lines[trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 5
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert all(NAME.match(name) for name in declared)
    found = _by_workload(line["metrics"])
    assert sorted(found) == sorted(WORKLOADS)
    for workload, names in found.items():
        assert names == set(declared), workload
        for name in names:
            metric = line["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))


def test_span_self_times_fit_in_the_op(runs):
    out, _ = runs
    results = json.loads((out / "results-all-seed0-trace.json").read_text())
    for workload, report in results["workloads"].items():
        wall = report["traced_op_s"]
        assert report["spans"], workload
        for name, (calls, total_s, self_s) in report["spans"].items():
            assert calls > 0 and 0 <= self_s <= total_s + 1e-9, (workload, name)
        # each process's spans nest inside its share of the op
        for pid, self_s in report["self_s_by_pid"].items():
            assert self_s <= wall, (workload, pid)


def test_chrome_trace_events_are_complete(runs):
    out, _ = runs
    for workload in WORKLOADS:
        trace = json.loads((out / f"trace-{workload}-seed0.json").read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans, workload
        for event in spans:
            assert {"name", "pid", "tid", "ts", "dur"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0


def test_check_agrees_with_itself(runs):
    out, _ = runs
    proc = _run("--check", str(out), str(out))
    assert proc.returncode == 0, proc.stdout
    assert "agree" in proc.stdout and "unresolved" not in proc.stdout


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "mc-smoke", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
