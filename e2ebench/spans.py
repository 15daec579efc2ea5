"""Outside-in span recorder for the end-to-end benchmark.

Every layer is timed from outside: :func:`install` replaces each layer's
public callables, at the name their callers look up, with a wrapper that
records one span per call.  No file under ``src/`` knows about it.

A span carries its name, start, duration, id, parent id and the op id.
Spans stay in memory.  Self time is a span's duration minus the part of
its interval that child spans cover; calls on one thread nest strictly,
so that part is the sum of the children's durations.

Pool workers are forked from the traced process, so they inherit the
patches.  They skip ``atexit`` (they leave through ``os._exit``), so each
worker registers a ``multiprocessing.util.Finalize`` after the fork and
writes its spans once, at exit, to a spool directory that the traced
process merges (:func:`merge_spool`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from multiprocessing import util
from pathlib import Path

#: hot leaf callables: aggregated (calls, self time) but no per-call event,
#: so a 235k-transition model-checking op keeps a bounded trace
_AGGREGATE_ONLY = frozenset({"mc.execute", "mc.digest"})


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, spool: Path, op: int = 1) -> None:
        self.spool = Path(spool)
        self.op = op
        self.pid = os.getpid()
        self._reset()
        util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        #: open spans: [child_ns, span_id]
        self.stack: list[list[int]] = []
        #: name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        #: (name, start_ns, dur_ns, span_id, parent_id, op)
        self.events: list[tuple] = []
        self.counters: dict[str, int] = {}
        #: "kind/digest" -> stores, for redundant-build accounting
        self.puts: dict[str, int] = {}
        self._next_id = 1

    def _after_fork(self) -> None:
        # runs in a forked pool worker after multiprocessing clears the
        # inherited finalizer registry, so the Finalize below is the
        # worker's own
        self.pid = os.getpid()
        self._reset()
        util.Finalize(self, self._flush, exitpriority=10)

    def _flush(self) -> None:
        path = self.spool / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.snapshot()))

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "stats": self.stats,
            "events": self.events,
            "counters": self.counters,
            "puts": self.puts,
        }

    def wrap(self, fn, name: str, after=None):
        """*fn* timed as span *name*; ``after(recorder, args, result)`` may
        add counters once the call returns."""
        recorder = self
        clock = time.perf_counter_ns
        keep_event = name not in _AGGREGATE_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder.stack
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][1] if stack else 0
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat = recorder.stats.get(name)
                if stat is None:
                    stat = recorder.stats[name] = [0, 0, 0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if keep_event:
                    recorder.events.append(
                        (name, start, duration, span_id, parent, recorder.op)
                    )
            if after is not None:
                after(recorder, args, result)
            return result

        return wrapper


# -- counters taken from call arguments and results --------------------------------


def _count_hit(rec: Recorder, args, result) -> None:
    rec.count("cache.hits", 1 if result[0] else 0)


def _count_read(rec: Recorder, args, result) -> None:
    rec.count("cache.bytes_read", len(args[0]))


def _count_written(rec: Recorder, args, result) -> None:
    rec.count("cache.bytes_written", len(result))


def _count_put(rec: Recorder, args, result) -> None:
    key = f"{args[1]}/{args[2]}"  # (self, kind, digest, value)
    rec.puts[key] = rec.puts.get(key, 0) + 1


def _count_reference(rec: Recorder, args, result) -> None:
    rec.count("sim.issued", result.sm.stats.issued)
    rec.count("sim.cycles", result.cycles)


def _count_preempt(rec: Recorder, args, result) -> None:
    rec.count("sim.issued", result.sm.stats.issued)
    rec.count("sim.cycles", result.total_cycles)


# -- installation ------------------------------------------------------------------


def _patch_function(rec: Recorder, name: str, modules: list, attr: str, after=None):
    """Wrap the function bound to *attr* in every module of *modules* (each
    module's binding is the name its callers look up)."""
    for module in modules:
        setattr(module, attr, rec.wrap(getattr(module, attr), name, after))


def _patch_method(rec: Recorder, name: str, cls, attr: str, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(rec.wrap(raw.__func__, name, after)))
    else:
        setattr(cls, attr, rec.wrap(raw, name, after))


def install(rec: Recorder) -> None:
    """Patch every layer boundary the benchmark reports on."""
    import repro.analysis.cache as cache
    import repro.analysis.engine as engine
    import repro.analysis.experiments as experiments
    import repro.analysis.metrics as metrics
    import repro.ctxback.flashback as flashback
    import repro.mc.model as mc_model
    import repro.mc.units as mc_units
    import repro.serve.fleet as fleet
    import repro.serve.report as serve_report
    import repro.serve.resilience as resilience
    import repro.sim.blocks as blocks
    import repro.sim.gpu as gpu
    import repro.snap.units as snap_units
    from repro.kernels.suite import SUITE
    from repro.mechanisms import ALL_MECHANISMS

    # kernels: Benchmark.launch is a field of a frozen dataclass
    for bench in SUITE.values():
        object.__setattr__(bench, "launch", rec.wrap(bench.launch, "kernels.launch"))

    # compiler: prepare on each evaluated mechanism (CtxBack covers the
    # ablation's direct CtxBack(cfg) calls), and the flashback planner
    for cls in ALL_MECHANISMS.values():
        _patch_method(rec, "compiler.prepare", cls, "prepare")
    _patch_method(rec, "compiler.plan_all", flashback.FlashbackAnalyzer, "plan_all")

    # sim
    _patch_function(rec, "sim.reference", [gpu, engine, metrics], "run_reference",
                    _count_reference)
    _patch_function(rec, "sim.preempt", [gpu, engine], "run_preemption_experiment",
                    _count_preempt)
    _patch_function(rec, "sim.build_ir", [blocks], "build_ir")

    # cache
    store = cache.ArtifactCache
    _patch_method(rec, "cache.get", store, "get", _count_hit)
    _patch_method(rec, "cache.put", store, "put", _count_put)
    _patch_method(rec, "cache.key", store, "key_for")
    _patch_method(rec, "cache.decode", store, "decode_entry", _count_read)
    _patch_method(rec, "cache.encode", store, "encode_entry", _count_written)

    # engine: the map call and every unit's run (in-process or in a worker)
    _patch_method(rec, "engine.map", engine.ExperimentEngine, "map")
    for cls in (
        engine.PrepareUnit, engine.WeightsUnit, engine.ReferenceUnit,
        engine.ContextUnit, engine.ExperimentUnit, engine.OverheadUnit,
        engine.ServeUnit, engine.ServeChaosUnit, mc_units.McUnit,
    ):
        _patch_method(rec, "engine.unit", cls, "run")

    # experiments: the figure drivers (headline calls the others through
    # the module globals patched here)
    for attr in (
        "headline", "table1_experiment", "ablation_techniques",
        "fig7_context_size", "preemption_timing", "fig10_runtime_overhead",
    ):
        _patch_function(rec, f"experiments.{attr}", [experiments], attr)

    # serve: run_serve_chaos imports these inside its body, so the module
    # attributes are what it looks up
    _patch_function(rec, "serve.run", [resilience], "run_serve_chaos")
    _patch_function(rec, "serve.arrivals", [fleet], "shard_arrivals")
    _patch_function(rec, "serve.calibrate", [fleet], "mechanism_costs")
    _patch_function(rec, "serve.calibrate", [snap_units], "snap_profile_for")
    _patch_function(rec, "serve.plan", [resilience], "build_fleet_schedule")
    _patch_function(rec, "serve.plan", [resilience], "plan_resilience")
    _patch_function(rec, "serve.shard", [resilience], "resilient_shard_profile")
    _patch_function(rec, "serve.report", [serve_report], "summarize_chaos_cell")

    # mc: the model class is looked up by mc_units' per-run factory
    _patch_function(rec, "mc.explore", [mc_units], "explore")
    _patch_function(rec, "mc.model_build", [mc_units], "McModel")
    _patch_method(rec, "mc.execute", mc_model.McModel, "execute")
    _patch_method(rec, "mc.digest", mc_model.McModel, "digest")


def merge_spool(rec: Recorder) -> list[dict]:
    """This process's snapshot followed by every worker's spool file."""
    merged = [rec.snapshot()]
    for path in sorted(rec.spool.glob("spans-*.json")):
        merged.append(json.loads(path.read_text()))
    return merged


# -- reduction (parent side) -------------------------------------------------------


def totals(snapshots: list[dict]) -> tuple[dict, dict, dict]:
    """Sum spans and counters over processes.

    Returns ``(stats, counters, puts)`` with ``stats[name] = [calls,
    total_s, self_s]``.
    """
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    puts: dict[str, int] = {}
    for snap in snapshots:
        for name, (calls, total_ns, self_ns) in snap["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total_ns / 1e9
            entry[2] += self_ns / 1e9
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for key, value in snap["puts"].items():
            puts[key] = puts.get(key, 0) + value
    return stats, counters, puts


def self_seconds_by_pid(snapshots: list[dict]) -> dict[int, float]:
    """Summed span self time per process (must not exceed the op wall)."""
    return {
        snap["pid"]: sum(s[2] for s in snap["stats"].values()) / 1e9
        for snap in snapshots
    }


def chrome_trace(snapshots: list[dict], label: str) -> dict:
    """Chrome ``trace_event`` object (Perfetto-loadable): one process per
    traced pid, one complete ("X") event per recorded span."""
    starts = [e[1] for snap in snapshots for e in snap["events"]]
    origin = min(starts) if starts else 0
    events: list[dict] = []
    for index, snap in enumerate(snapshots):
        pid = snap["pid"]
        role = "op" if index == 0 else "pool worker"
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": f"{label} {role} {pid}"}}
        )
        for name, start, duration, span_id, parent, op in snap["events"]:
            events.append(
                {"ph": "X", "name": name, "cat": name.split(".", 1)[0],
                 "pid": pid, "tid": 0, "ts": (start - origin) / 1e3,
                 "dur": duration / 1e3,
                 "args": {"op": op, "id": span_id, "parent": parent}}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"benchmark": label}}
