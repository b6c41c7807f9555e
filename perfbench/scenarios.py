"""The four benchmark workloads: inputs from a seed, set-up, the measured
drive, and the correctness checks.

Every workload is a scenario object with four steps.  ``setup`` builds
everything the measured part needs and is what ``setup_s`` times;
``drive`` is the measured part; ``finish`` (untimed) turns the drive's
output into a digest, a unit count and correctness verdicts; ``stats``
reads the public counters the traced pass turns into per-layer ratios.
Only public functions of ``repro`` are called, and the program receives
nothing but the inputs :func:`host_inputs` / :func:`engine_inputs` /
:func:`sweep_inputs` derive from the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np

from repro.core import FailurePolicy
from repro.engine import EngineHost
from repro.engine.engine import ENGINE_WORKFLOW_FINISHED
from repro.grid import UNRELIABLE, GridConfig, SimulatedGrid
from repro.obs.tracectx import Tracer
from repro.sim import adaptive, pool
from repro.sim.analytical import expected_time
from repro.sim.engine_mc import engine_samples, run_engine_once
from repro.sim.parallel import DEFAULT_RUN_TIMEOUT, seed_for
from repro.sim.params import PAPER_BASELINE, PAPER_MTTF_SWEEP
from repro.sim.samplers import TECHNIQUES, sample_technique
from repro.sim.stats import summarize, z_value
from repro import workloads

# -- host workloads (host_mux, host_observed) ---------------------------------

#: Workflows per batch.  With the arrival rate and task duration below,
#: about 900 instances are in flight at the peak, the scale at which the
#: retained-state and garbage-collection costs of a long-lived host show.
HOST_WORKFLOWS = 1200
#: Poisson arrival rate, workflows per simulated second (an open loop in
#: virtual time: arrivals do not wait for completions).
ARRIVAL_RATE = 50.0
HOST_COUNT = 8
TASK_DURATION = 7.5
#: MTTF far above the task duration: a crash is rare (well under one per
#: batch on average), so retries stay a small share of attempts and the
#: workload measures the per-task path rather than recovery.
HOST_MTTF = 5_000.0
HOST_DOWNTIME = 5.0
HEARTBEAT_TIMEOUT = 3.0
#: Virtual-seconds cadence of the statistical collector on host_observed
#: (the CLI's ``--telemetry-interval`` default).
TELEMETRY_INTERVAL = 5.0
#: Virtual-time guard on the pump loop; a batch needs well under 200.
HOST_TIMEOUT = 100_000.0

_RETRY = FailurePolicy.retrying(None)


@dataclasses.dataclass(frozen=True)
class HostInputs:
    seed: int
    #: Per workflow: ("chain", n, host) / ("fork_join", width) /
    #: ("layered_dag", layers, width, dag_seed).
    shapes: tuple
    #: Absolute arrival times in simulated seconds.
    arrivals: tuple


def host_inputs(seed: int) -> HostInputs:
    """A seeded mix of the three workload shapes, one third each, in
    seeded order, with Poisson arrivals."""
    rng = np.random.default_rng([seed, 1])
    kinds = rng.permutation(np.arange(HOST_WORKFLOWS) % 3)
    shapes = []
    for kind in kinds:
        if kind == 0:
            shape = ("chain", int(rng.integers(3, 6)), f"h{rng.integers(HOST_COUNT)}")
        elif kind == 1:
            shape = ("fork_join", int(rng.integers(2, 7)))
        else:
            layers, width = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            shape = ("layered_dag", layers, width, int(rng.integers(2**31)))
        shapes.append(shape)
    arrivals = np.cumsum(rng.exponential(1.0 / ARRIVAL_RATE, HOST_WORKFLOWS))
    return HostInputs(seed, tuple(shapes), tuple(float(t) for t in arrivals))


def build_spec(shape: tuple):
    """One validated specification (and its grid installer) from
    :mod:`repro.workloads`."""
    kind = shape[0]
    if kind == "chain":
        return workloads.chain(
            shape[1], task_duration=TASK_DURATION, host=shape[2], policy=_RETRY
        )
    if kind == "fork_join":
        return workloads.fork_join(
            shape[1], task_duration=TASK_DURATION, hosts=HOST_COUNT, policy=_RETRY
        )
    return workloads.layered_dag(
        shape[1],
        shape[2],
        task_duration=TASK_DURATION,
        hosts=HOST_COUNT,
        seed=shape[3],
        policy=_RETRY,
    )


class FinishCounter:
    """O(1) completion predicate: counts ``engine.workflow_finished``.

    ``EngineHost.wait_all`` would return as soon as every workflow
    submitted *so far* is done, which is too early while arrivals are
    still scheduled, and polling ``results()`` per step is quadratic.
    """

    def __init__(self, target: int) -> None:
        self.target = target
        self.count = 0

    def __call__(self, _topic, _payload) -> None:
        self.count += 1

    def done(self) -> bool:
        return self.count >= self.target


class Submit:
    """One scheduled arrival: ``reactor.call_later`` → ``host.submit``."""

    def __init__(self, host: EngineHost, spec, workflow_id: str) -> None:
        self.host = host
        self.spec = spec
        self.workflow_id = workflow_id

    def __call__(self) -> None:
        # Specs were validated when built (WorkflowBuilder.build), during
        # set-up; validating again here would time it twice.
        self.host.submit(self.spec, workflow_id=self.workflow_id, validate_spec=False)


def _telemetry_plane(host: EngineHost, grid: SimulatedGrid) -> None:
    """The full plane as ``serve-batch --serve-telemetry
    --telemetry-interval`` wires it, without the HTTP server: observer,
    flight recorder (no spill), estimators + health rules, and the
    periodic collector with the grid, bus and detector scrapers."""
    from repro.obs import (
        EstimatorSuite,
        FlightRecorder,
        HealthEngine,
        PeriodicCollector,
        RunObserver,
        TimeSeriesStore,
        default_rules,
        priors_from_grid,
        scrape_bus,
        scrape_detector,
        scrape_grid,
    )

    runtime = host.runtime
    bus, reactor, detector = runtime.bus, runtime.reactor, runtime.detector
    observer = RunObserver(bus, clock=reactor.now)
    FlightRecorder(bus)
    store = TimeSeriesStore(step=TELEMETRY_INTERVAL)
    estimators = EstimatorSuite(
        bus, clock=reactor.now, priors=priors_from_grid(grid), store=store
    )
    health = HealthEngine(clock=reactor.now, bus=bus)
    default_rules(health, store=store, estimators=estimators)
    estimators.health = health
    collector = PeriodicCollector(
        store=store,
        registry=observer.metrics,
        reactor=reactor,
        interval=TELEMETRY_INTERVAL,
        scrapers=(
            lambda reg: scrape_grid(reg, grid),
            lambda reg: scrape_bus(reg, bus),
            lambda reg: scrape_detector(reg, detector),
            lambda reg: estimators.ingest_liveness(detector.liveness_snapshot()),
        ),
        estimators=estimators,
        health=health,
    )
    collector.start()


def result_fingerprint(result) -> tuple:
    """The comparable identity of one WorkflowResult (the fields
    ``benchmarks/bench_engine_multiplex.py`` compares)."""
    return (
        result.workflow,
        result.status,
        tuple(sorted(result.variables.items())),
        result.completion_time,
        tuple(sorted((n, s.value) for n, s in result.node_statuses.items())),
        result.failed_tasks,
        tuple(sorted(result.tries.items())),
    )


class HostScenario:
    """``host_mux`` (``observed=False``) and ``host_observed``."""

    def __init__(self, seed: int, *, observed: bool) -> None:
        self.inputs = host_inputs(seed)
        self.observed = observed

    def setup(self) -> dict:
        inputs = self.inputs
        built = [build_spec(shape) for shape in inputs.shapes]
        grid = SimulatedGrid(
            seed=inputs.seed, config=GridConfig(crash_detection="heartbeat")
        )
        for i in range(HOST_COUNT):
            grid.add_host(
                UNRELIABLE(f"h{i}", mttf=HOST_MTTF, mean_downtime=HOST_DOWNTIME)
            )
        for _spec, install in built:
            install(grid)
        host = EngineHost(
            grid,
            reactor=grid.reactor,
            heartbeat_timeout=HEARTBEAT_TIMEOUT,
            tracer=Tracer() if self.observed else None,
        )
        if self.observed:
            _telemetry_plane(host, grid)
        counter = FinishCounter(len(built))
        host.runtime.bus.subscribe(ENGINE_WORKFLOW_FINISHED, counter)
        for i, ((spec, _install), at) in enumerate(zip(built, inputs.arrivals)):
            grid.reactor.call_later(at, Submit(host, spec, f"wf-{i + 1}"))
        return {
            "specs": [spec for spec, _ in built],
            "grid": grid,
            "host": host,
            "counter": counter,
        }

    def drive(self, state: dict) -> tuple:
        start = time.perf_counter()
        state["host"].runtime.reactor.run_until_complete(
            state["counter"].done, timeout=HOST_TIMEOUT
        )
        wall = time.perf_counter() - start
        return None, {"throughput_s": wall, "result_s": wall}

    def finish(self, state: dict, _output, *, replay: bool = False) -> dict:
        results = state["host"].results()
        specs = state["specs"]
        digest = hashlib.sha256()
        failed = tasks = tries = 0
        lifetimes = []
        for i, (spec, at) in enumerate(zip(specs, self.inputs.arrivals)):
            result = results.get(f"wf-{i + 1}")
            if result is None or not result.succeeded:
                failed += 1
                continue
            digest.update(repr(result_fingerprint(result)).encode())
            activities = [a.name for a in spec.activities() if not a.dummy]
            tasks += len(activities)
            tries += sum(result.tries.get(name, 0) for name in activities)
            lifetimes.append((at, at + result.completion_time))
        finished = len(specs) - failed
        return {
            "units": finished,
            "memory_units": finished,
            "attempted": len(specs),
            "failed": failed,
            "digest": digest.hexdigest(),
            "checks": [
                {
                    "check": "every workflow succeeded",
                    "ok": failed == 0,
                    "detail": f"{finished}/{len(specs)}",
                }
            ],
            "base": {
                "workflows": finished,
                "tasks": tasks,
                "tries": tries,
                "peak_in_flight": peak_overlap(lifetimes),
                "sim_seconds": state["grid"].now(),
            },
        }

    def stats(self, state: dict) -> dict:
        """Public counters the traced pass turns into per-layer ratios."""
        runtime = state["host"].runtime
        bus = runtime.bus.stats()
        out = grid_counters(state["grid"])
        out["publishes"] = bus["publishes"]
        out["route_builds"] = bus["route_builds"]
        out["beats"] = runtime.detector.heartbeats_observed
        return out


def peak_overlap(intervals: list) -> int:
    """Most intervals open at once (instances in flight at the peak)."""
    edges = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    live = peak = 0
    for _, step in edges:
        live += step
        peak = max(peak, live)
    return peak


def grid_counters(grid) -> dict:
    """One simulated grid's public kernel and host counters."""
    stats = grid.kernel.stats()
    hosts = grid.hosts.values()
    return {
        "events": stats["events_processed"],
        "timers_scheduled": stats["timers_scheduled"],
        "timers_cancelled": stats["timers_cancelled"],
        "crashes": sum(h.crash_count for h in hosts),
        "jobs_started": sum(h.jobs_started for h in hosts),
        "jobs_killed": sum(h.jobs_killed for h in hosts),
    }


# -- engine_mc -----------------------------------------------------------------

ENGINE_MTTFS = (20.0, 60.0)
ENGINE_RUNS = 250
#: Leading samples of each cell replayed through ``run_engine_once``.
ENGINE_REPLAYS = 3
#: Engine-vs-analytical slack on top of the sampling error: crashes during
#: checkpoint writes are a sub-percent modelling difference (see
#: ``repro.sim.engine_mc``).
ENGINE_MODEL_SLACK = 0.02


def engine_inputs(seed: int) -> tuple:
    """``(technique, mttf, base_seed)`` per cell, in evaluation order."""
    rng = np.random.default_rng([seed, 2])
    return tuple(
        (technique, mttf, int(rng.integers(1, 2**31)))
        for technique in TECHNIQUES
        for mttf in ENGINE_MTTFS
    )


def _within(mean: float, reference: float, halfwidth: float, slack: float) -> bool:
    """Mean agrees with a reference within twice its 99% CI half-width
    (about five standard errors) plus a relative model slack."""
    return abs(mean - reference) <= 2.0 * halfwidth + slack * abs(reference)


class EngineScenario:
    """``engine_mc``: engine-level Monte-Carlo, one sampler per cell."""

    def __init__(self, seed: int) -> None:
        self.inputs = engine_inputs(seed)

    def setup(self) -> list:
        # engine_samples(jobs=1) runs through this process's sampler cache;
        # building the samplers here keeps world construction in set-up.
        pool.clear_sampler_cache()
        cells = []
        for technique, mttf, base_seed in self.inputs:
            params = PAPER_BASELINE.with_mttf(mttf)
            sampler = pool.worker_sampler(technique, params, DEFAULT_RUN_TIMEOUT)
            cells.append((technique, params, base_seed, sampler))
        return cells

    def drive(self, cells: list) -> tuple:
        out = []
        start = time.perf_counter()
        for technique, params, base_seed, _sampler in cells:
            try:
                samples = engine_samples(
                    technique,
                    params,
                    runs=ENGINE_RUNS,
                    base_seed=base_seed,
                    jobs=1,
                    cache=None,
                )
            except Exception as exc:  # an engine run raised: count the cell
                samples = repr(exc)
            out.append(samples)
        wall = time.perf_counter() - start
        return out, {"throughput_s": wall, "result_s": wall}

    def finish(self, cells: list, out: list, *, replay: bool = False) -> dict:
        digest = hashlib.sha256()
        checks = []
        failed = 0
        for (technique, params, base_seed, _sampler), samples in zip(cells, out):
            label = f"{technique}@mttf={params.mttf:g}"
            if isinstance(samples, str):
                failed += ENGINE_RUNS
                checks.append({"check": f"{label} ran", "ok": False, "detail": samples})
                continue
            digest.update(samples.tobytes())
            first = [
                run_engine_once(technique, params, seed=seed_for(base_seed, i))
                for i in range(ENGINE_REPLAYS)
            ]
            ok_replay = first == samples[:ENGINE_REPLAYS].tolist()
            checks.append(
                {
                    "check": f"{label} first {ENGINE_REPLAYS} == run_engine_once",
                    "ok": ok_replay,
                    "detail": "bit-identical" if ok_replay else "differs",
                }
            )
            ok_model = True
            if technique in ("retrying", "checkpointing"):
                summary = summarize(samples)
                reference = expected_time(params, technique)
                ok_model = _within(
                    summary.mean, reference, summary.ci_halfwidth, ENGINE_MODEL_SLACK
                )
                checks.append(
                    {
                        "check": f"{label} mean vs analytical",
                        "ok": ok_model,
                        "detail": f"{summary.mean:.3f} vs {reference:.3f}",
                    }
                )
            if not (ok_replay and ok_model):
                failed += samples.size
        runs = len(cells) * ENGINE_RUNS
        return {
            "units": runs - failed,
            "memory_units": runs,
            "attempted": runs,
            "failed": failed,
            "digest": digest.hexdigest(),
            "checks": checks,
            "base": {"runs": runs},
        }

    def stats(self, cells: list) -> dict:
        """Bus counters summed over the samplers' engines.  Kernel and host
        counters are reset with the grid every run; the traced pass folds
        them in after each run instead."""
        out = {"publishes": 0, "route_builds": 0}
        for *_cell, sampler in cells:
            if sampler.engine is not None:
                bus = sampler.engine.runtime.bus.stats()
                out["publishes"] += bus["publishes"]
                out["route_builds"] += bus["route_builds"]
        return out


# -- paper_sweep -----------------------------------------------------------------

SWEEP_RUNS = 100_000
SWEEP_TARGET = 0.01
#: D ∈ {0, F, 5F}.  D = 10F is left out: eight of its cells exhaust
#: max_runs and never reach the stated precision.
SWEEP_DOWNTIMES = (0.0, 30.0, 150.0)


def sweep_inputs(seed: int):
    """The Fig 10 grid parameters, reseeded."""
    return dataclasses.replace(
        PAPER_BASELINE, seed=int(np.random.default_rng([seed, 3]).integers(2**31))
    )


class SweepScenario:
    """``paper_sweep``: the fixed-budget and adaptive figure grids."""

    def __init__(self, seed: int) -> None:
        self.params = sweep_inputs(seed)

    def setup(self) -> dict:
        params = self.params
        return {
            "fixed": params,
            "adaptive": [params.with_downtime(d) for d in SWEEP_DOWNTIMES],
            "target": adaptive.CITarget(rel=SWEEP_TARGET),
        }

    def drive(self, state: dict) -> tuple:
        target = state["target"]
        start = time.perf_counter()
        fixed = adaptive.evaluate_grid(
            state["fixed"], PAPER_MTTF_SWEEP, TECHNIQUES, runs=SWEEP_RUNS
        )
        middle = time.perf_counter()
        adapted = [
            adaptive.evaluate_grid(p, PAPER_MTTF_SWEEP, TECHNIQUES, target=target)
            for p in state["adaptive"]
        ]
        end = time.perf_counter()
        timing = {"throughput_s": middle - start, "result_s": end - middle}
        return (fixed, adapted), timing

    def finish(self, state: dict, output: tuple, *, replay: bool = False) -> dict:
        """Checks every cell; with *replay*, also re-draws each fixed-budget
        vector through ``sample_technique`` and compares it bit for bit."""
        fixed, adapted = output
        digest = hashlib.sha256()
        checks = []
        failed = cells = 0
        grids = [("fixed", fixed)]
        for params, grid in zip(state["adaptive"], adapted):
            grids.append((f"D={params.downtime:g}", grid))
        for name, grid in grids:
            bad = []
            for (technique, mttf), cell in grid.cells.items():
                cells += 1
                digest.update(cell.samples.tobytes())
                if not self._cell_ok(name, cell, fixed, replay):
                    bad.append(f"{technique}@{mttf:g}")
            failed += len(bad)
            what = "within CI of expected_time / fixed estimate"
            if name == "fixed" and replay:
                what += ", == sample_technique"
            if name != "fixed":
                what += ", converged"
            checks.append(
                {
                    "check": f"{name}: {len(grid.cells)} cells {what}",
                    "ok": not bad,
                    "detail": ", ".join(bad) or "all",
                }
            )
        drawn = fixed.samples_drawn + sum(g.samples_drawn for g in adapted)
        used = fixed.samples_used + sum(g.samples_used for g in adapted)
        return {
            "units": fixed.samples_drawn,
            "memory_units": drawn,
            "attempted": cells,
            "failed": failed,
            "digest": digest.hexdigest(),
            "checks": checks,
            "base": {"samples": drawn, "samples_used": used},
        }

    @staticmethod
    def _cell_ok(name: str, cell, fixed, replay: bool) -> bool:
        summary = cell.summary
        if cell.technique in ("retrying", "checkpointing"):
            reference = expected_time(cell.params, cell.technique)
            ok = _within(summary.mean, reference, summary.ci_halfwidth, 0.0)
        elif name == "D=0":
            # No closed form: agree with the fixed-budget estimate of the
            # same distribution.  Both standard errors use the fixed
            # budget's standard deviation, because a 1000-draw adaptive
            # cell that saw few failures underestimates its own.
            other = fixed.cells[cell.technique, cell.params.mttf]
            spread = math.sqrt(1 / cell.samples.size + 1 / other.samples.size)
            bound = 2.0 * z_value(0.99) * other.summary.std * spread
            ok = abs(summary.mean - other.summary.mean) <= bound
        else:
            ok = True
        if name != "fixed":
            return ok and cell.converged
        if replay:
            again = sample_technique(cell.technique, cell.params, runs=SWEEP_RUNS)
            return ok and np.array_equal(cell.samples, again)
        return ok

    def stats(self, _state: dict) -> dict:
        return {}


WORKLOADS = ("host_mux", "host_observed", "engine_mc", "paper_sweep")


def make(workload: str, seed: int):
    seed %= 2**63  # numpy seed sequences take non-negative integers only
    if workload == "host_mux":
        return HostScenario(seed, observed=False)
    if workload == "host_observed":
        return HostScenario(seed, observed=True)
    if workload == "engine_mc":
        return EngineScenario(seed)
    if workload == "paper_sweep":
        return SweepScenario(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
