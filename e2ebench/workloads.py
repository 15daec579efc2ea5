"""The five workloads of the end-to-end benchmark, and the child process
that runs one of their ops.

Each op runs in a fresh child process (``python3 workloads.py ...``,
started by ``run.py``): the child sets up (imports, launches, prepares,
warm-up), runs one timed op, checks the op's own oracle and writes one
JSON record.  This module imports only the standard library at top
level, so ``run.py`` can read the workload table without importing the
package under test.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

MECHANISMS = ("baseline", "live", "ckpt", "csdefer", "ctxback", "combined")

#: reduced sizes for the smoke test (--smoke)
SMOKE_KEYS = ("ge", "va")
SMOKE_MECHANISMS = ("baseline", "ctxback")

#: serve-chaos requests per (mechanism, load) cell
SERVE_REQUESTS = 100_000
SMOKE_SERVE_REQUESTS = 5_000
#: batch-kernel iterations of the serve-chaos fleet (calibration + snapshots)
SERVE_ITERATIONS = 40


class OracleError(Exception):
    """An op's output failed its own correctness oracle."""


def digest(value) -> str:
    """sha256 of the canonical JSON form of *value* (dataclasses included)."""
    from repro.analysis.cache import canonical

    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _engine_counts(engine) -> dict:
    """The engine's unit and failure counters; any failed unit fails the op."""
    keys = ("units", "waves", "retries", "timeouts", "crashes", "fallbacks", "failures")
    counts = {k: getattr(engine.report, k) for k in keys}
    counts["jobs"] = engine.jobs
    if counts["failures"]:
        raise OracleError(f"{counts['failures']} engine unit(s) failed")
    return counts


# -- paper-cold / paper-warm ----------------------------------------------------------


def _paper_sweep(args, jobs: int) -> dict:
    """headline(samples=3) + Table I + the technique ablation, 12 kernels."""
    from repro.analysis import experiments
    from repro.analysis.engine import ExperimentEngine

    keys = list(SMOKE_KEYS) if args.smoke else None
    engine = ExperimentEngine(jobs)
    head = experiments.headline(
        keys=keys, samples=1 if args.smoke else 3, engine=engine
    )
    table = experiments.table1_experiment(keys=keys, engine=engine)
    ablation = experiments.ablation_techniques(keys=keys, engine=engine)
    counts = _engine_counts(engine)
    rows = {"headline": head, "table1": table.rows, "ablation": ablation.rows}
    return {
        "digest": digest(rows),
        "items": counts["units"],
        "engine": counts,
        "headline": dataclasses.asdict(head),
    }


def _paper_setup(args):
    import repro.analysis.experiments  # noqa: F401  (import cost is setup)

    return None


def _paper_cold_op(state, args) -> dict:
    return _paper_sweep(args, jobs=2)


def _paper_warm_prep(args) -> dict:
    # fills the shared cache exactly as a paper-cold op does
    return _paper_sweep(args, jobs=2)


def _paper_warm_op(state, args) -> dict:
    return _paper_sweep(args, jobs=1)


# -- sim-preempt ----------------------------------------------------------------------


def _sim_setup(args):
    """Launches, the 72 compiler passes, seeded signal points, warm-up."""
    from repro.kernels.suite import SUITE
    from repro.mechanisms import make_mechanism
    from repro.sim import gpu
    from repro.sim.config import GPUConfig

    config = GPUConfig.radeon_vii()
    keys = SMOKE_KEYS if args.smoke else sorted(SUITE)
    mechanisms = SMOKE_MECHANISMS if args.smoke else MECHANISMS
    warps = 4 if args.smoke else 16
    rng = random.Random(args.seed)
    cells = []
    for key in keys:
        bench = SUITE[key]
        iterations = bench.default_iterations
        launch = bench.launch(
            warp_size=config.warp_size, iterations=iterations, num_warps=warps
        )
        # the range the paper sweep draws its signal points from
        # (analysis.experiments._signal_points): past the prologue, before
        # 80 % of the first half of the run
        n = len(launch.kernel.program.instructions)
        low, high = 3 * n, max(3 * n + 1, n * iterations * 2 // 5)
        prepared = {
            m: make_mechanism(m).prepare(launch.kernel, config) for m in mechanisms
        }
        points = {m: rng.randrange(low, high) for m in mechanisms}
        cells.append((key, launch, prepared, points))
    # first-touch costs (lazy imports, numpy code paths) are not sim speed
    warm = SUITE["va"].launch(warp_size=config.warp_size, iterations=1, num_warps=1)
    gpu.run_reference(warm.spec(), config)
    return config, cells


def _sim_op(state, args) -> dict:
    """Per kernel: one clean run, then one seeded preemption per mechanism,
    each checked against the clean run's final memory (the verify=True
    oracle, without re-running the reference)."""
    from repro.sim import gpu

    config, kernels = state
    cells = {}
    for key, launch, prepared, points in kernels:
        spec = launch.spec()
        clean = gpu.run_reference(spec, config)
        cells[f"{key}/clean"] = [clean.cycles, 0.0, clean.sm.stats.issued]
        for mechanism, kernel in prepared.items():
            run = gpu.run_preemption_experiment(
                spec, kernel, config,
                signal_dyn=points[mechanism], resume_gap=2000, verify=False,
            )
            if not run.measurements:
                raise OracleError(f"{key}/{mechanism}: signal never delivered")
            if run.memory != clean.memory:
                raise OracleError(f"{key}/{mechanism}: memory differs from clean run")
            cells[f"{key}/{mechanism}"] = [
                run.total_cycles, run.mean_context_bytes, run.sm.stats.issued
            ]
    return {
        "digest": digest(cells),
        "cells": cells,
        "items": sum(cell[2] for cell in cells.values()),
    }


# -- serve-chaos ----------------------------------------------------------------------


def _serve_mechanisms(args):
    return SMOKE_MECHANISMS if args.smoke else MECHANISMS


def _serve_prep(args) -> None:
    """Calibration: the cycle-level cost experiments and snapshot profiles
    run_serve_chaos reads, computed once into the shared cache."""
    from repro.analysis.engine import ExperimentEngine
    from repro.serve.fleet import DEFAULT_BATCH_KEY, mechanism_costs
    from repro.sim.config import GPUConfig
    from repro.snap.units import snap_profile_for

    config = GPUConfig.radeon_vii()
    mechanisms = _serve_mechanisms(args)
    mechanism_costs(
        mechanisms, DEFAULT_BATCH_KEY, config,
        iterations=SERVE_ITERATIONS, engine=ExperimentEngine(2),
    )
    for mechanism in mechanisms:
        snap_profile_for(
            DEFAULT_BATCH_KEY, mechanism, config,
            iterations=SERVE_ITERATIONS, resume_gap=2000,
        )


def _serve_setup(args):
    import repro.serve.resilience  # noqa: F401  (import cost is setup)

    # earlier ops' shard results would turn the shard simulations into
    # cache hits
    shutil.rmtree(args.cache / "serve_chaos", ignore_errors=True)
    return None


def _serve_op(state, args) -> dict:
    from repro.analysis.engine import ExperimentEngine
    from repro.serve import resilience
    from repro.serve.arrivals import TraceSpec

    mechanisms = _serve_mechanisms(args)
    requests = SMOKE_SERVE_REQUESTS if args.smoke else SERVE_REQUESTS
    engine = ExperimentEngine(2)
    report = resilience.run_serve_chaos(
        mechanisms,
        scenario="mixed",
        trace=TraceSpec(kind="bursty", seed=args.seed),
        loads=(0.8,),
        requests=requests,
        gpus=4,
        iterations=SERVE_ITERATIONS,
        engine=engine,
        knobs=resilience.ResilienceKnobs(ckpt_cadence_us=2000.0),
    )
    if not report["oracle"]["ok"]:
        bad = [c for c in report["oracle"]["cells"] if not c["ok"]]
        raise OracleError(f"chaos oracle failed: {bad[0]['violations'][:3]}")
    return {
        "digest": digest(report),
        "items": requests * len(mechanisms),
        "requests": requests * len(mechanisms),
        "engine": _engine_counts(engine),
    }


# -- mc-smoke -------------------------------------------------------------------------


def _mc_setup(args):
    from repro.mc.model import McOptions
    from repro.mc.units import McUnit
    from repro.sim.config import GPUConfig

    config = GPUConfig.small(4)
    options = McOptions(warps=2, rounds=1)
    keys, mechanisms = (
        (("va",), SMOKE_MECHANISMS) if args.smoke else (("va", "km"), MECHANISMS)
    )
    return [
        McUnit(key=k, mechanism=m, config=config, options=options, iterations=2)
        for k in keys
        for m in mechanisms
    ]


def _mc_op(units, args) -> dict:
    from repro.analysis.engine import ExperimentEngine

    engine = ExperimentEngine(2)
    verdicts = engine.map(units)
    counts = _engine_counts(engine)
    for verdict in verdicts:
        cell = f"{verdict['kernel']}/{verdict['mechanism']}"
        if verdict["findings"] or not verdict["ok"]:
            raise OracleError(f"{cell}: {len(verdict['findings'])} finding(s)")
        if verdict["truncated"]:
            raise OracleError(f"{cell}: exploration truncated")
    cells = {f"{v['kernel']}/{v['mechanism']}": v["reachable_digest"] for v in verdicts}
    states = sum(v["explored_states"] for v in verdicts)
    return {
        "digest": digest(cells),
        "cells": cells,
        "items": states,
        "states": states,
        "transitions": sum(v["transitions"] for v in verdicts),
        "engine": counts,
    }


# -- the table ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what items_per_s counts
    item: str
    #: timed ops per untraced run; fixed, so every commit runs the same ops
    ops: int
    #: artifact cache of an op child: "fresh" (own empty dir), "shared"
    #: (one dir per run, filled by the prep child) or "off"
    cache: str
    #: whether --seed changes the inputs (expected.json then pins seed 0)
    seeded: bool
    #: expected.json entry the outputs must match
    oracle: str
    setup: Callable
    op: Callable
    #: untimed warm state built once per run by the prep child
    prep: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-cold",
            "first run or key change: compiler pass, simulator, cache writes and "
            "the 2-worker pool all do real work on the full Figs. 7-10/Table I sweep",
            "engine unit", 3, "fresh", False, "paper",
            _paper_setup, _paper_cold_op,
        ),
        Workload(
            "paper-warm",
            "the same sweep, serial, on a filled cache: compiler and simulator do "
            "nothing, so cache reads, key building and driver overhead dominate",
            "engine unit", 8, "shared", False, "paper",
            _paper_setup, _paper_warm_op, _paper_warm_prep,
        ),
        Workload(
            "sim-preempt",
            "bare fast-core simulator, no engine or cache: 12 kernels x 6 mechanisms, "
            "16 warps, one seeded preemption per cell plus the clean runs",
            "issued instruction", 3, "off", True, "sim-preempt",
            _sim_setup, _sim_op,
        ),
        Workload(
            "serve-chaos",
            "serve --chaos mixed, 6 x 100k bursty requests on 4 GPUs: event loop, "
            "failover planner, shard cache keys and pool transport; simulator bypassed",
            "request", 4, "shared", True, "serve-chaos",
            _serve_setup, _serve_op, _serve_prep,
        ),
        Workload(
            "mc-smoke",
            "model checker on va,km x 6 mechanisms (624 states): stateless replay of "
            "about 376 transitions per state dominates",
            "explored state", 7, "off", False, "mc-smoke",
            _mc_setup, _mc_op,
        ),
    )
}


# -- the child process ----------------------------------------------------------------


def _child(args) -> dict:
    from repro.analysis.cache import configure_cache

    cache = configure_cache(
        root=args.cache if args.cache is not None else args.result.parent,
        enabled=args.cache is not None,
        max_bytes=0,
    )
    workload = WORKLOADS[args.workload]
    if args.mode == "prep":
        # also fills the run's bytecode cache (PYTHONPYCACHEPREFIX), so op
        # children time warm imports
        import multiprocessing.pool  # noqa: F401

        import repro.analysis.experiments  # noqa: F401
        import repro.mc.units  # noqa: F401
        import repro.serve.resilience  # noqa: F401
        import repro.sim.fastcore  # noqa: F401
        import repro.snap.units  # noqa: F401

        return {"output": workload.prep(args) if workload.prep else None}

    state = workload.setup(args)
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(args.spool)
        spans.install(recorder)
    ready = time.perf_counter()
    output = workload.op(state, args)
    op_s = time.perf_counter() - ready
    record = {
        "setup_s": ready - args.t0,
        "op_s": op_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        # counted by the cache itself, pool workers' traffic folded in
        "invalidations": cache.stats.invalidations,
        "output": output,
    }
    if recorder is not None:
        record["spans"] = spans.merge_spool(recorder)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one op (child of run.py)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("prep", "op"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--cache", type=Path, help="cache root (omit: cache off)")
    parser.add_argument("--spool", type=Path, help="worker span files (traced op)")
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent when it started us")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = _child(args)
        record["ok"] = True
    except Exception as exc:  # the op's failure is the record's content
        record = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    args.result.write_text(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    code = main()
    # the record is written: run the exit hooks (the cache's stats flush,
    # multiprocessing's pool cleanup), then skip interpreter teardown,
    # which frees the whole heap (about 1 s for paper-warm's 145 MB) and
    # is in no metric
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
