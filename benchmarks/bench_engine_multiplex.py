"""Multiplexed-engine throughput ramp and determinism oracle.

Not a paper figure: a systems benchmark for the multiplexed engine host
(:class:`repro.engine.host.EngineHost`).  One shared reactor/kernel, bus,
failure detector and broker drive N concurrent workflow instances; the
ramp runs every level of N = 1, 10, 100, 1000, 10000 (cap overridable via
``REPRO_BENCH_MULTIPLEX_MAX``) and records, per level:

* **events/sec** — bus publishes over wall-clock seconds (every task
  state change, recovery dispatch and engine lifecycle event that
  someone listens to crosses the bus);
* **wall seconds per workflow** — amortized cost of one instance;
* **bus-dispatch share** — fraction of wall time spent inside
  ``EventBus.publish`` (including handler execution);
* **calls per task** — Python calls into ``repro`` code per completed
  task, counted with ``sys.setprofile`` in a second, untimed run of the
  same level (comprehension and generator-expression frames excluded, as
  in ``tests/test_perf_budget.py``).  Unlike wall time it is exact and
  machine-independent, so a level's cost can be compared across changes.

Every level is measured: the cost that grows with the number of instances
in flight (retained state, garbage collection) only shows at 1k and 10k.

The **determinism oracle** runs 100 instances of the same specification
multiplexed on one runtime, then the same 100 as isolated sequential
runs on fresh grids, and asserts the per-instance
:class:`~repro.engine.engine.WorkflowResult`\\ s are bit-identical
(status, variables, completion time, node statuses, tries) — per-instance
event scoping means concurrency must be unobservable to any single
workflow.  The workload includes a deterministically crashing activity,
so the oracle also proves per-instance attempt counters: every instance
must crash once and retry, regardless of how many siblings share the
grid.

Results land in ``results/BENCH_engine_multiplex.json``.
"""

from __future__ import annotations

import os
import sys
import time

from _common import emit_results, once

from repro.core import FailurePolicy
from repro.engine import EngineHost, WorkflowEngine
from repro.grid import (
    RELIABLE,
    CrashingTask,
    FixedDurationTask,
    SimulatedGrid,
)
from repro.wpdl import WorkflowBuilder

RAMP = (1, 10, 100, 1000, 10000)
ORACLE_INSTANCES = 100
#: Non-dummy activities per instance of :func:`build_spec`.
TASKS_PER_WORKFLOW = 3
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def _max_instances() -> int:
    env = os.environ.get("REPRO_BENCH_MULTIPLEX_MAX")
    return max(1, int(env)) if env else RAMP[-1]


def build_spec():
    """Three-activity chain with one deterministic crash + retry."""
    return (
        WorkflowBuilder("multiplex")
        .program("prep", hosts=["u1"])
        .program("crunch", hosts=["u1"])
        .program("publish", hosts=["u1"])
        .activity("prep", implement="prep")
        .activity(
            "crunch", implement="crunch", policy=FailurePolicy.retrying(3)
        )
        .activity("publish", implement="publish")
        .transition("prep", "crunch")
        .transition("crunch", "publish")
        .build()
    )


def build_grid() -> SimulatedGrid:
    grid = SimulatedGrid(seed=11)
    # Unlimited slots: instances must not contend for execution capacity,
    # or multiplexed completion times would (correctly) diverge from
    # isolated sequential runs and the oracle could not be exact.
    grid.add_host(RELIABLE("u1", slots=None))
    grid.install("u1", "prep", FixedDurationTask(2.0, result="prepped"))
    grid.install(
        "u1",
        "crunch",
        CrashingTask(duration=4.0, crash_at=1.0, crashes=1, result="crunched"),
    )
    grid.install("u1", "publish", FixedDurationTask(1.0, result="published"))
    return grid


def count_calls(instances: int) -> int:
    """Python calls into ``repro`` code while N instances run."""
    spec = build_spec()
    grid = build_grid()
    host = EngineHost(grid, reactor=grid.reactor)
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if (
            event == "call"
            and frame.f_code.co_name not in _COMPREHENSIONS
            and frame.f_globals.get("__name__", "").startswith("repro.")
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        host.submit_many(spec, instances)
        host.wait_all(timeout=1e9)
    finally:
        sys.setprofile(None)
    return calls


def run_multiplexed(instances: int) -> dict:
    """One ramp level: N instances on one shared runtime, timed."""
    spec = build_spec()
    grid = build_grid()
    host = EngineHost(grid, reactor=grid.reactor)
    bus = host.runtime.bus
    counters = {"publishes": 0, "dispatch": 0.0, "depth": 0}
    orig_publish = bus.publish

    def timed_publish(topic, payload=None):
        # Handlers publish recursively; only the outermost frame accrues
        # dispatch time, or nested publishes would be double-counted.
        counters["publishes"] += 1
        if counters["depth"]:
            return orig_publish(topic, payload)
        counters["depth"] = 1
        t0 = time.perf_counter()
        try:
            return orig_publish(topic, payload)
        finally:
            counters["dispatch"] += time.perf_counter() - t0
            counters["depth"] = 0

    bus.publish = timed_publish
    wall0 = time.perf_counter()
    host.submit_many(spec, instances)
    results = host.wait_all(timeout=1e9)
    wall = time.perf_counter() - wall0
    assert len(results) == instances
    assert all(r.succeeded for r in results.values())
    assert all(r.tries.get("crunch") == 2 for r in results.values()), (
        "every instance must pay its own crash+retry"
    )
    return {
        "instances": instances,
        "events": counters["publishes"],
        "wall_seconds": wall,
        "events_per_sec": counters["publishes"] / wall if wall else 0.0,
        "wall_per_workflow": wall / instances,
        "dispatch_seconds": counters["dispatch"],
        "dispatch_share": counters["dispatch"] / wall if wall else 0.0,
        "bus_stats": bus.stats(),
        "results": results,
    }


def run_sequential(instances: int) -> list:
    """N isolated runs on fresh grids — the oracle's reference."""
    out = []
    for _ in range(instances):
        grid = build_grid()
        engine = WorkflowEngine(build_spec(), grid, reactor=grid.reactor)
        out.append(engine.run(timeout=1e9))
    return out


def result_fingerprint(result) -> tuple:
    """The comparable identity of one WorkflowResult (bit-identical ==)."""
    return (
        result.workflow,
        result.status,
        tuple(sorted(result.variables.items())),
        result.completion_time,
        tuple(sorted((n, s.value) for n, s in result.node_statuses.items())),
        result.failed_tasks,
        tuple(sorted(result.tries.items())),
    )


def generate() -> dict:
    cap = _max_instances()
    levels = [n for n in RAMP if n <= cap]
    if not levels:
        levels = [cap]
    rows = []
    for n in levels:
        row = run_multiplexed(n)
        row.pop("results")
        row["calls_per_task"] = count_calls(n) / (n * TASKS_PER_WORKFLOW)
        rows.append(row)

    oracle_n = min(ORACLE_INSTANCES, cap)
    mux = run_multiplexed(oracle_n)
    mux_results = list(mux.pop("results").values())
    seq_results = run_sequential(oracle_n)
    mismatches = sum(
        1
        for m, s in zip(mux_results, seq_results)
        if result_fingerprint(m) != result_fingerprint(s)
    )
    return {
        "levels": rows,
        "determinism": {
            "instances": oracle_n,
            "mismatches": mismatches,
            "bit_identical": mismatches == 0,
        },
    }


def render(payload: dict) -> str:
    lines = [
        f"{'N':>6} {'events':>9} {'events/s':>12} {'wall/wf (ms)':>13} "
        f"{'dispatch':>9} {'calls/task':>11} {'routes':>7} {'builds':>7}"
    ]
    for row in payload["levels"]:
        stats = row["bus_stats"]
        lines.append(
            f"{row['instances']:>6} {row['events']:>9} "
            f"{row['events_per_sec']:>12.0f} "
            f"{row['wall_per_workflow'] * 1e3:>13.2f} "
            f"{row['dispatch_share']:>8.0%} "
            f"{row['calls_per_task']:>11.1f} "
            f"{stats['cached_routes']:>7} {stats['route_builds']:>7}"
        )
    det = payload["determinism"]
    lines.append(
        f"determinism oracle: {det['instances']} multiplexed instances "
        + (
            "bit-identical to sequential"
            if det["bit_identical"]
            else f"DIVERGED ({det['mismatches']} mismatches)"
        )
    )
    return "\n".join(lines)


def check_shape(payload: dict) -> None:
    det = payload["determinism"]
    assert det["bit_identical"], (
        f"{det['mismatches']} of {det['instances']} multiplexed results "
        "diverged from isolated sequential runs"
    )
    for row in payload["levels"]:
        assert 0.0 <= row["dispatch_share"] <= 1.0
        assert row["calls_per_task"] > 0
        stats = row["bus_stats"]
        # Route-cached dispatch: matching passes happen once per distinct
        # topic per subscription change, never per publish.
        assert stats["route_builds"] < row["events"] or row["events"] < 100


def test_engine_multiplex(benchmark) -> None:
    payload = once(benchmark, generate)
    check_shape(payload)
    emit_results(
        "engine_multiplex",
        render(payload),
        json_payload=payload,
    )


if __name__ == "__main__":
    payload = generate()
    check_shape(payload)
    emit_results("engine_multiplex", render(payload), json_payload=payload)
