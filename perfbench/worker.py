"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload host_mux --seed 1 --pass timed

``run.py`` starts one worker per pass, one at a time, so every pass starts
from a clean heap and garbage-collector history (repeating a host batch in
one process runs 12-22% slower the second time).  Passes:

``timed``
    Set up until :data:`SETUP_BUDGET_S` of set-up has been timed (at least
    once), so a short set-up is a median of many readings; then drive the
    workload once, untraced.
``memory``
    One set-up and one drive under ``tracemalloc``, which slows the drive
    about fourfold, so it is never a timed pass.
``traced``
    One set-up and one drive with :class:`tracing.Tracer` installed.

The last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
import tracemalloc

import scenarios
import tracing

SETUP_BUDGET_S = 0.5
SETUP_MAX_REPS = 200


def run_timed(scenario) -> dict:
    reps = []
    while True:
        gc.collect()
        start = time.perf_counter()
        state = scenario.setup()
        reps.append(time.perf_counter() - start)
        if sum(reps) >= SETUP_BUDGET_S or len(reps) >= SETUP_MAX_REPS:
            break
        del state
    start = time.perf_counter()
    output, timing = scenario.drive(state)
    timing["drive_s"] = time.perf_counter() - start
    return {"setup_s": reps, **timing, **scenario.finish(state, output)}


def run_memory(scenario) -> dict:
    """Peak and retained heap, measured with the host (or sampler cache, or
    result grid) still alive, as a long-lived service would keep it."""
    gc.collect()
    tracemalloc.start()
    try:
        state = scenario.setup()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        output, _timing = scenario.drive(state)
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = scenario.finish(state, output, replay=True)
    result["peak_mb"] = peak / 2**20
    result["retained_kb"] = (after - before) / 1024
    return result


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summary: dict, counters: dict, base: dict, wall: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    "Per task" divides by completed non-dummy activities: every task of a
    host workload, the single task of each engine-MC run; paper_sweep has
    none, so its per-task counts read 0.
    """
    own = summary["self_s"]
    calls = summary["calls"]
    inclusive = summary["inclusive_s"]
    tasks = int(counters.get("tasks", 0))

    def self_s(layer: str) -> float:
        return own.get(layer, 0.0)

    def count(name: str) -> float:
        return counters.get(name, 0)

    def per_task(value: float) -> float:
        return _share(value, tasks)

    messages = calls.get("Network.send", 0) + calls.get("Network.send_system", 0)
    reset_s = inclusive.get("SimulatedGrid.reset", 0.0)
    reset_s += inclusive.get("WorkflowEngine.reset", 0.0)
    return {
        "grid.simkernel.self_s": self_s("grid.simkernel"),
        "grid.simkernel.events_per_task": per_task(count("events")),
        "grid.simkernel.timer_cancel_share": _share(
            count("timers_cancelled"), count("timers_scheduled")
        ),
        "grid.network.self_s": self_s("grid.network"),
        "grid.network.messages_per_task": per_task(messages),
        "grid.gram.self_s": self_s("grid.gram"),
        "grid.gram.submits_per_task": per_task(calls.get("GramService.submit", 0)),
        "grid.host.self_s": self_s("grid.host"),
        "grid.host.crashes": count("crashes"),
        "grid.host.jobs_killed_share": _share(
            count("jobs_killed"), count("jobs_started")
        ),
        "detection.detector.self_s": self_s("detection.detector"),
        "detection.detector.delivers_per_task": per_task(
            calls.get("FailureDetector.deliver", 0)
        ),
        "detection.heartbeat.self_s": self_s("detection.heartbeat"),
        "detection.heartbeat.beats_per_task": per_task(count("beats")),
        "events.self_s": self_s("events"),
        "events.publishes_per_task": per_task(calls.get("EventBus.publish", 0)),
        "events.route_build_share": _share(count("route_builds"), count("publishes")),
        "engine.engine.self_s": self_s("engine.engine"),
        "engine.engine.handler_calls_per_task": per_task(
            calls.get("engine.engine:handler", 0)
        ),
        "engine.host.self_s": self_s("engine.host"),
        "engine.broker.self_s": self_s("engine.broker"),
        "engine.recovery.self_s": self_s("engine.recovery"),
        "engine.recovery.tries_per_task": per_task(count("tries")),
        "engine.strategies.self_s": self_s("engine.strategies"),
        "ckpt.self_s": self_s("ckpt"),
        "ckpt.records_per_task": per_task(calls.get("CheckpointManager.record", 0)),
        "obs.observer.self_s": self_s("obs.observer"),
        "obs.recorder.self_s": self_s("obs.recorder"),
        "obs.estimators.self_s": self_s("obs.estimators"),
        "obs.collector.self_s": self_s("obs.collector"),
        "obs.health.self_s": self_s("obs.health"),
        "sim.engine_mc.self_s": self_s("sim.engine_mc"),
        "sim.engine_mc.reset_s": reset_s,
        "sim.samplers.self_s": self_s("sim.samplers"),
        "sim.samplers.samples_per_s": _share(count("samples"), self_s("sim.samplers")),
        "sim.adaptive.self_s": self_s("sim.adaptive"),
        "sim.adaptive.samples_drawn": count("samples_drawn"),
        "sim.adaptive.useful_share": _share(
            count("samples_used"), count("samples_drawn")
        ),
        "wpdl.self_s": self_s("wpdl"),
        "gc.busy_s": self_s(tracing.GC_LAYER),
        "gc.collections": summary["gc_collections"],
        "bench.self_s": self_s(tracing.BENCH_LAYER),
        "other.self_s": self_s("other"),
        "trace.wall_s": wall,
        "trace.residual_s": wall - summary["root_s"],
        "trace.spans": summary["spans"],
        "trace.tasks": tasks,
        "trace.workflows": base.get("workflows", 0),
        "trace.runs": base.get("runs", 0),
        "trace.samples": base.get("samples", 0),
        "trace.attempts": calls.get("GramService.submit", 0),
    }


def run_traced(scenario, spans_path: str | None) -> dict:
    tracer = tracing.Tracer()

    def after_engine_run(sampler) -> None:
        # Engine-MC resets the grid every run, zeroing its kernel and host
        # counters, so they are folded in after each run.
        engine = sampler.engine
        for name, value in scenarios.grid_counters(engine.runtime.service).items():
            tracer.count(name, value)
        tracer.count("tries", sum(engine.result.tries.values()))
        tracer.count("tasks", 1)

    tracer.on_engine_run = after_engine_run
    # Collect before installing, so the gc layer holds only collections
    # that happen inside the traced wall time.
    gc.collect()
    tracer.install()
    try:
        start = time.perf_counter()
        state = scenario.setup()
        output, _timing = scenario.drive(state)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    result = scenario.finish(state, output)
    base = result["base"]
    for name, value in scenario.stats(state).items():
        tracer.count(name, value)
    for name in ("tasks", "tries"):
        if name in base:
            tracer.count(name, base[name])
    summary = tracer.summary()
    if spans_path:
        tracer.write(spans_path)
    result["self_s"] = summary["self_s"]
    result["metrics"] = layer_metrics(summary, tracer.counters, base, wall)
    # Everything that must repeat exactly for the same seed.
    result["counts"] = {
        "calls": summary["calls"],
        "counters": tracer.counters,
        "spans": summary["spans"],
        "requests": summary["requests"],
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--pass",
        dest="mode",
        required=True,
        choices=("timed", "memory", "traced"),
    )
    parser.add_argument("--spans", help="write the traced pass's spans here")
    args = parser.parse_args()
    scenario = scenarios.make(args.workload, args.seed)
    if args.mode == "memory":
        result = run_memory(scenario)
    elif args.mode == "traced":
        result = run_traced(scenario, args.spans)
    else:
        result = run_timed(scenario)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
