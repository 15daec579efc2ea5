"""End-to-end benchmark of the reproduction: host time of the paper sweep
(cold and warm cache), the bare simulator, ``serve --chaos`` and the model
checker.

    python3 e2ebench/run.py [--workload W ...] [--seed N] [--trace [0|1]]
                            [--out DIR]
    python3 e2ebench/run.py --check A B

Every op runs in a fresh child process (``workloads.py``) with every
``REPRO_*`` variable stripped, and its artifact cache and bytecode in
a temporary directory under ``e2ebench/.work`` that is deleted at exit.
Each workload runs a fixed number of ops.  The command prints each metric
with its unit, median, quartiles and sample count, checks every op's
output against its oracle and ``expected.json``, and ends with one JSON
line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced op and reports the per-layer metrics instead,
plus a Chrome ``trace_event`` file (Perfetto) in ``--out``.  See
README.md for the workloads, the metrics and how to compare two sets of
runs with ``--check``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the parent leaves no bytecode behind; children cache theirs in the run's
# temp dir (child_env)
sys.dont_write_bytecode = True

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
#: per-run temp dirs and the default --out, all ignored by git
WORK = HERE / ".work"

#: one workload's whole run (prep + ops) must end within this many seconds
RUN_BUDGET_S = 170.0

#: end-to-end metrics: name -> unit
E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}

#: the abstract's headline numbers, printed beside the model's
PAPER_HEADLINE = {
    "context_reduction_pct": 61.0,
    "preempt_reduction_pct": 63.1,
    "resume_reduction_pct": 50.0,
    "overhead_pct": 0.41,
}


class RunFailed(Exception):
    """A child failed; the message says which and why."""


class RunTimedOut(RunFailed):
    """A child outlived the run's time budget and was killed."""


# -- statistics ------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and count.  The quartiles are inclusive, so they
    stay within the samples however few there are."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


# -- children --------------------------------------------------------------------------


def child_env(tmp: Path) -> dict:
    """The parent's environment minus every REPRO_* knob, importing the
    package from this checkout's ``src`` and keeping temp files and
    bytecode inside the run's temp dir.  Bytecode is always written
    there (the prep child fills it), so setup_s times warm imports
    whatever the caller's environment says."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")
    env["TMPDIR"] = str(tmp / "tmp")
    return env


class Runner:
    """Starts the children of one invocation, each in its own session so a
    timeout can kill its pool workers with it."""

    def __init__(self, args, tmp: Path) -> None:
        self.args = args
        self.tmp = tmp
        self.env = child_env(tmp)
        (tmp / "tmp").mkdir()
        self.count = 0

    def child(self, workload, mode: str, *, cache: Path | None, trace: int = 0,
              deadline: float) -> dict:
        self.count += 1
        tag = f"{workload.name}-{self.count}"
        result = self.tmp / f"{tag}.json"
        log = self.tmp / f"{tag}.log"
        spool = self.tmp / f"{tag}-spool"
        cmd = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", workload.name, "--seed", str(self.args.seed),
            "--mode", mode, "--trace", str(trace), "--result", str(result),
        ]
        if cache is not None:
            cmd += ["--cache", str(cache)]
        if trace:
            spool.mkdir()
            cmd += ["--spool", str(spool)]
        if self.args.smoke:
            cmd.append("--smoke")
        started = time.perf_counter()
        cmd += ["--t0", repr(started)]
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=self.tmp, stdout=sink, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=max(deadline - started, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise RunTimedOut(f"{workload.name} {mode}: timed out") from None
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        try:
            record = json.loads(result.read_text())
        except (OSError, ValueError):
            tail = log.read_text(errors="replace")[-2000:]
            raise RunFailed(f"{workload.name} {mode}: no result (exit {proc.returncode})"
                            f"\n{tail}") from None
        if not record["ok"]:
            raise RunFailed(f"{workload.name} {mode}: {record['error']}\n"
                            f"{record['traceback']}")
        return record


# -- one workload ----------------------------------------------------------------------


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED.read_text())
    except FileNotFoundError:
        return {}


def check_output(workload, output: dict, reference: dict | None, expected: dict,
                 seed: int, smoke: bool) -> str | None:
    """Why *output* is wrong, or None: it must equal the run's reference
    output and, where expected.json pins this size and seed, that too."""
    if reference is not None and output["digest"] != reference["digest"]:
        return "output differs from the run's first output"
    pinned = expected.get(workload.oracle)
    if smoke or pinned is None or (workload.seeded and seed != pinned.get("seed")):
        return None
    if output["digest"] == pinned["digest"]:
        return None
    cells = output.get("cells", {})
    wrong = [c for c, v in pinned.get("cells", {}).items() if cells.get(c) != v]
    return f"digest differs from expected.json (cells: {wrong[:5]})"


def run_workload(workload, args, runner: Runner, expected: dict) -> dict:
    """Prep child, then the op children; returns the workload's report."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    ops = 1 if args.trace or args.smoke else workload.ops
    attempted = ops + (1 if args.trace else 0)
    report = {"attempted": attempted, "failed": 0, "errors": [], "records": []}
    shared = runner.tmp / f"{workload.name}-cache" if workload.cache == "shared" else None
    try:
        prep_started = time.perf_counter()
        prep = runner.child(workload, "prep", cache=shared, deadline=deadline)
        report["prep_s"] = time.perf_counter() - prep_started
    except RunFailed as exc:
        report.update(failed=attempted, errors=[str(exc)])
        return report
    reference = prep["output"]
    for index in range(attempted):
        is_traced = int(args.trace and index == attempted - 1)
        cache = shared
        if workload.cache == "fresh":
            cache = runner.tmp / f"{workload.name}-cache-{index}"
        try:
            record = runner.child(workload, "op", cache=cache, trace=is_traced,
                                  deadline=deadline)
        except RunTimedOut as exc:
            report["failed"] += attempted - index
            report["errors"].append(str(exc))
            break
        except RunFailed as exc:
            report["failed"] += 1
            report["errors"].append(str(exc))
            continue
        finally:
            if workload.cache == "fresh":
                shutil.rmtree(cache, ignore_errors=True)
        problem = check_output(workload, record["output"], reference, expected,
                               args.seed, args.smoke)
        if problem:
            report["failed"] += 1
            report["errors"].append(f"{workload.name} op {index}: {problem}")
            continue
        reference = reference or record["output"]
        record["traced"] = bool(is_traced)
        report["records"].append(record)
    untraced = [r for r in report["records"] if not r["traced"]]
    traced = [r for r in report["records"] if r["traced"]]
    if untraced:
        report["metrics"] = e2e_metrics(untraced)
    if traced and untraced:
        report["layers"] = layer_metrics(traced[0], report["metrics"]["op_s"]["median"])
        report["traced_op_s"] = traced[0]["op_s"]
        report["spans"] = traced[0]["spans"]
        report["span_stats"] = spans.totals(traced[0]["spans"])[0]
    return report


def e2e_metrics(records: list[dict]) -> dict:
    metrics = {
        "op_s": [r["op_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "peak_rss_mb": [r["rss_mb"] for r in records],
        "items_per_s": [r["output"]["items"] / r["op_s"] for r in records],
    }
    return {name: {"unit": E2E_UNITS[name], **summary(v)} for name, v in metrics.items()}


def layer_metrics(traced: dict, untraced_op_s: float) -> dict:
    """Per-layer metrics of the traced op: calls, counts, and each layer's
    self time as a fraction of the op's wall time (summed over the op
    process and its pool workers, so pooled layers can exceed 1)."""
    stats, counters, puts = spans.totals(traced["spans"])
    wall = traced["op_s"]
    output = traced["output"]
    engine = output.get("engine", {})

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def self_frac(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names) / wall

    def ratio(num, den):
        return num / den if den else 0.0

    sim_s = wall * self_frac("sim.reference", "sim.preempt")
    map_s = total("engine.map")
    shard_s = wall * self_frac("serve.shard")
    experiments = [n for n in stats if n.startswith("experiments.")]
    values = {
        "kernels.launch.calls": calls("kernels.launch"),
        "kernels.launch.self_frac": self_frac("kernels.launch"),
        "compiler.prepare.calls": calls("compiler.prepare"),
        "compiler.prepare.self_frac": self_frac("compiler.prepare"),
        "compiler.plan_all.self_frac": self_frac("compiler.plan_all"),
        "sim.reference.calls": calls("sim.reference"),
        "sim.reference.self_frac": self_frac("sim.reference"),
        "sim.preempt.calls": calls("sim.preempt"),
        "sim.preempt.self_frac": self_frac("sim.preempt"),
        "sim.issued": counters.get("sim.issued", 0),
        "sim.cycles": counters.get("sim.cycles", 0),
        "sim.issues_per_s": ratio(counters.get("sim.issued", 0), sim_s),
        "sim.build_ir.calls": calls("sim.build_ir"),
        "sim.build_ir.self_frac": self_frac("sim.build_ir"),
        "cache.get.calls": calls("cache.get"),
        "cache.hit_rate": ratio(counters.get("cache.hits", 0), calls("cache.get")),
        "cache.get.self_frac": self_frac("cache.get"),
        "cache.decode.self_frac": self_frac("cache.decode"),
        "cache.bytes_read": counters.get("cache.bytes_read", 0),
        "cache.put.calls": calls("cache.put"),
        "cache.put.self_frac": self_frac("cache.put"),
        "cache.encode.self_frac": self_frac("cache.encode"),
        "cache.bytes_written": counters.get("cache.bytes_written", 0),
        "cache.key.calls": calls("cache.key"),
        "cache.key.self_frac": self_frac("cache.key"),
        "cache.invalidations": traced["invalidations"],
        "cache.redundant_builds": sum(puts.values()) - len(puts),
        "engine.waves": engine.get("waves", 0),
        "engine.units": engine.get("units", 0),
        "engine.map.wall_frac": map_s / wall,
        "engine.unit.self_frac": self_frac("engine.unit"),
        "engine.pool_efficiency": ratio(total("engine.unit"),
                                        engine.get("jobs", 0) * map_s),
        "engine.retries": engine.get("retries", 0),
        "engine.timeouts": engine.get("timeouts", 0),
        "engine.crashes": engine.get("crashes", 0),
        "engine.fallbacks": engine.get("fallbacks", 0),
        "engine.failures": engine.get("failures", 0),
        "engine.worker_rss_mb": traced["worker_rss_mb"],
        "experiments.self_frac": self_frac(*experiments),
        "serve.arrivals.self_frac": self_frac("serve.arrivals"),
        "serve.calibrate.self_frac": self_frac("serve.calibrate"),
        "serve.plan.self_frac": self_frac("serve.plan"),
        "serve.shard.calls": calls("serve.shard"),
        "serve.shard.self_frac": self_frac("serve.shard"),
        "serve.shard.requests_per_s": ratio(output.get("requests", 0), shard_s),
        "serve.report.self_frac": self_frac("serve.report"),
        "serve.requests": output.get("requests", 0),
        "mc.explore.calls": calls("mc.explore"),
        "mc.explore.self_frac": self_frac("mc.explore"),
        "mc.model_builds": calls("mc.model_build"),
        "mc.model_build.self_frac": self_frac("mc.model_build"),
        "mc.execute.calls": calls("mc.execute"),
        "mc.execute.self_frac": self_frac("mc.execute"),
        "mc.digest.self_frac": self_frac("mc.digest"),
        "mc.states": output.get("states", 0),
        "mc.transitions_per_state": ratio(output.get("transitions", 0),
                                          output.get("states", 0)),
        "trace.overhead_frac": wall / untraced_op_s - 1.0,
    }
    return {
        name: {"value": value, "unit": LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")}
        for name, value in values.items()
    }


#: per-layer units by the metric name's last component (default: count)
LAYER_UNITS = {
    "self_frac": "frac", "wall_frac": "frac", "overhead_frac": "frac",
    "hit_rate": "frac", "pool_efficiency": "frac",
    "issues_per_s": "1/s", "requests_per_s": "1/s",
    "bytes_read": "B", "bytes_written": "B", "worker_rss_mb": "MB",
    "transitions_per_state": "1/state",
}


# -- printing --------------------------------------------------------------------------


def print_workload(workload, report: dict, args) -> None:
    print(f"== {workload.name}  seed {args.seed}  "
          f"{'traced ' if args.trace else ''}ops {report['attempted']}  "
          f"prep {report.get('prep_s', 0.0):.3f} s")
    print(f"   {workload.why}")
    metrics = report.get("metrics", {})
    if metrics:
        print(f"   {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'n':>3s}")
        for name, m in metrics.items():
            print(f"   {name:14s} {m['unit']:5s} {m['median']:12.6g} "
                  f"{m['q1']:12.6g} {m['q3']:12.6g} {m['n']:3d}")
    print(f"   failed_frac    {report['failed']}/{report['attempted']} = "
          f"{report['failed'] / report['attempted']:.3g}   (items: {workload.item})")
    for error in report["errors"]:
        print(f"   FAILED: {error}", file=sys.stderr)
    records = report["records"]
    if records and "headline" in records[0]["output"]:
        head = records[0]["output"]["headline"]
        print("   info: headline, model vs paper: " + ", ".join(
            f"{name} {head[name]:.3g} (paper {paper})"
            for name, paper in PAPER_HEADLINE.items()))
    if "layers" in report:
        print_layers(report)


def print_layers(report: dict) -> None:
    wall = report["traced_op_s"]
    print(f"   spans of the traced op ({wall:.3f} s wall, all processes):")
    print(f"   {'span':28s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s} "
          f"{'self/op':>8s}")
    for name, (calls, total_s, self_s) in sorted(report["span_stats"].items()):
        print(f"   {name:28s} {calls:9d} {self_s:10.4f} {total_s:10.4f} "
              f"{self_s / wall:8.3f}")
    layers = report["layers"]
    issued = layers["sim.issued"]["value"]
    if issued:
        rate = layers["sim.issues_per_s"]["value"]
        print(f"   info: sim {1e6 / rate:.3f} us/issue over {issued} issues")
    if layers["serve.requests"]["value"]:
        rate = layers["serve.shard.requests_per_s"]["value"]
        print(f"   info: serve.shard {1e6 / rate:.3f} us/request")
    print(f"   {'per-layer metric':32s} {'value':>14s}  unit")
    for name, m in layers.items():
        print(f"   {name:32s} {m['value']:14.6g}  {m['unit']}")


# -- --check ---------------------------------------------------------------------------


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    return [run for run in runs if not run["trace"]]


def check(paths: list[Path]) -> int:
    """Compare two sets of untraced runs, per (workload, end-to-end metric):
    agree when the medians differ by at most the metric's bound; unresolved
    when either set's spread (IQR / median) is wider than the bound."""
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    pooled = []
    for path in paths:
        samples: dict[tuple, list] = {}
        for run in load_results(path):
            for workload, report in run["workloads"].items():
                for name, m in report.get("metrics", {}).items():
                    samples.setdefault((workload, name), []).extend(m["samples"])
        pooled.append(samples)
    a, b = pooled
    worst = 0
    print(f"{'workload':12s} {'metric':12s} {'bound':>6s} {'A median':>11s} "
          f"{'A iqr':>9s} {'B median':>11s} {'B iqr':>9s} {'delta':>8s}  verdict")
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if key not in a or key not in b or name not in bounds:
            print(f"{workload:12s} {name:12s} missing from one set")
            worst = max(worst, 1)
            continue
        sa, sb = summary(a[key]), summary(b[key])
        bound = bounds[name]
        iqr_a, iqr_b = sa["q3"] - sa["q1"], sb["q3"] - sb["q1"]
        delta = (sb["median"] - sa["median"]) / sa["median"]
        if iqr_a / sa["median"] > bound or iqr_b / sb["median"] > bound:
            verdict = "unresolved"
        elif abs(delta) <= bound:
            verdict = "agree"
        else:
            verdict = "differ"
        worst = max(worst, verdict != "agree")
        print(f"{workload:12s} {name:12s} {bound:6.2f} {sa['median']:11.5g} "
              f"{iqr_a:9.3g} {sb['median']:11.5g} {iqr_b:9.3g} {delta:+8.2%}  "
              f"{verdict}")
    return worst


# -- main ------------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="accepted and ignored: each workload runs a fixed "
                             "number of ops, so runs compare across commits")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--out", type=Path, default=WORK / "out",
                        help="results and Chrome traces (default: e2ebench/.work/out)")
    parser.add_argument("--check", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two result files or directories")
    parser.add_argument("--write-expected", action="store_true",
                        help="pin this run's outputs in expected.json (seed 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one op each (for test_e2e.py)")
    args = parser.parse_args(argv)
    if args.write_expected and (args.seed != 0 or args.smoke or args.trace):
        parser.error("--write-expected needs an untraced full-size seed-0 run")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.check:
        return check(args.check)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    expected = {} if args.write_expected else load_expected()
    # children run in their own sessions: turn a SIGTERM into an exception
    # so Runner.child kills the running child's process group on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(args, tmp)
        reports = {}
        for name in names:
            reports[name] = run_workload(WORKLOADS[name], args, runner, expected)
            print_workload(WORKLOADS[name], reports[name], args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return finish(args, names, reports)


def finish(args, names: list[str], reports: dict) -> int:
    """Write the results file (and traces), print the final JSON line."""
    args.out.mkdir(parents=True, exist_ok=True)
    label = names[0] if len(names) == 1 else "all"
    suffix = "-trace" if args.trace else ""
    results = {"seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
               "workloads": {}}
    final = {}
    for name in names:
        report = reports[name]
        kept = {k: report[k] for k in ("attempted", "failed", "errors")}
        kept["metrics"] = report.get("metrics", {})
        if args.trace:
            kept["layers"] = report.get("layers", {})
            if "spans" in report:
                kept["traced_op_s"] = report["traced_op_s"]
                kept["spans"] = report["span_stats"]
                kept["self_s_by_pid"] = spans.self_seconds_by_pid(report["spans"])
                trace_path = args.out / f"trace-{name}-seed{args.seed}.json"
                trace_path.write_text(json.dumps(spans.chrome_trace(report["spans"], name)))
                print(f"   chrome trace: {trace_path}")
        results["workloads"][name] = kept
        prefix = "" if len(names) == 1 else f"{name}."
        if args.trace:
            shown = {k: (m["value"], m["unit"]) for k, m in kept["layers"].items()}
        else:
            shown = {k: (m["median"], m["unit"]) for k, m in kept["metrics"].items()}
        for metric, (value, unit) in shown.items():
            final[prefix + metric] = {"value": value, "unit": unit}
    (args.out / f"results-{label}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(results, indent=1))
    attempted = sum(reports[n]["attempted"] for n in names)
    failed = sum(reports[n]["failed"] for n in names)
    if args.write_expected and not failed:
        write_expected(names, reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


def write_expected(names: list[str], reports: dict) -> None:
    expected = load_expected()
    for name in names:
        workload = WORKLOADS[name]
        output = reports[name]["records"][0]["output"]
        entry = {"digest": output["digest"]}
        if workload.seeded:
            entry["seed"] = 0
        if "cells" in output:
            entry["cells"] = output["cells"]
        expected[workload.oracle] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"   wrote {EXPECTED}")


if __name__ == "__main__":
    sys.exit(main())
