"""Shared workflow-construction helpers for the test suite."""

from __future__ import annotations

from repro.core import FailurePolicy
from repro.engine import WorkflowEngine
from repro.grid import RELIABLE, FixedDurationTask, SimulatedGrid
from repro.wpdl import JoinMode, WorkflowBuilder


def single_task_workflow(
    name: str = "single",
    *,
    host: str = "h1",
    policy: FailurePolicy = FailurePolicy(),
    executable: str = "task",
):
    """A one-activity workflow used by many engine tests."""
    return (
        WorkflowBuilder(name)
        .program(executable, hosts=[host])
        .activity("task", implement=executable, policy=policy)
        .build()
    )


def run_workflow(workflow, grid: SimulatedGrid, *, timeout: float = 1e7):
    """Run *workflow* on *grid* and return the WorkflowResult."""
    engine = WorkflowEngine(workflow, grid, reactor=grid.reactor)
    return engine.run(timeout=timeout)


def run_multiplexed(workflows, grid: SimulatedGrid, *, timeout: float = 1e7):
    """Run *workflows* as concurrent instances on one shared runtime.

    Returns their WorkflowResults in submission order (one per entry;
    repeated spec objects become independent instances).
    """
    from repro.engine import EngineHost

    host = EngineHost(grid, reactor=grid.reactor)
    ids = [host.submit(wf) for wf in workflows]
    results = host.wait_all(timeout=timeout)
    return [results[wfid] for wfid in ids]


def run_isolated(workflows, grid_factory, *, timeout: float = 1e7):
    """Run each workflow alone on a fresh grid from *grid_factory* — the
    sequential reference the multiplexed execution is compared against."""
    return [run_workflow(wf, grid_factory(), timeout=timeout) for wf in workflows]


def result_identity(result):
    """The comparable content of a WorkflowResult (multiplexed instances
    must be bit-identical to isolated runs on these fields)."""
    return (
        result.workflow,
        result.status,
        result.variables,
        result.completion_time,
        result.node_statuses,
        result.failed_tasks,
        result.tries,
    )


def fig4_workflow(*, fu_policy: FailurePolicy = FailurePolicy.retrying(2)):
    """The alternative-task DAG of the paper's Figure 4."""
    return (
        WorkflowBuilder("fig4")
        .program("fast", hosts=["u1"])
        .program("slow", hosts=["r1"])
        .activity("FU", implement="fast", policy=fu_policy)
        .activity("SR", implement="slow")
        .dummy("Join", join=JoinMode.OR)
        .transition("FU", "Join")
        .on_failure("FU", "SR")
        .transition("SR", "Join")
        .build()
    )


def fig5_workflow():
    """The workflow-level redundancy DAG of the paper's Figure 5."""
    return (
        WorkflowBuilder("fig5")
        .program("fast", hosts=["u1"])
        .program("slow", hosts=["r1"])
        .dummy("Split")
        .activity("FU", implement="fast")
        .activity("SR", implement="slow")
        .dummy("Join", join=JoinMode.OR)
        .redundant("Split", "Join", "FU", "SR")
        .build()
    )


def fig6_workflow(*, fu_policy: FailurePolicy = FailurePolicy()):
    """The user-defined exception handling DAG of the paper's Figure 6."""
    return (
        WorkflowBuilder("fig6")
        .program("fast", hosts=["u1"])
        .program("slow", hosts=["r1"])
        .activity("FU", implement="fast", policy=fu_policy)
        .activity("SR", implement="slow")
        .dummy("DJ", join=JoinMode.OR)
        .transition("FU", "DJ")
        .on_exception("FU", "disk_full", "SR")
        .transition("SR", "DJ")
        .build()
    )


def two_reliable_hosts(grid: SimulatedGrid) -> SimulatedGrid:
    grid.add_host(RELIABLE("u1"))
    grid.add_host(RELIABLE("r1"))
    return grid


def install_fixed(grid: SimulatedGrid, host: str, name: str, duration: float, result=None):
    grid.install(host, name, FixedDurationTask(duration, result=result))


class SeededBatch:
    """A seeded multiplexed batch on unreliable hosts with heartbeat crash
    detection: a one-third mix of :mod:`repro.workloads` chains, fork-joins
    and layered DAGs (retrying forever), arriving as a Poisson process
    into one :class:`~repro.engine.EngineHost`.

    With ``mttf`` near the task duration, hosts crash often enough that
    retries, heartbeat suspicions and orphan reports all occur.  With
    ``replicas`` every fifth workflow is instead one checkpointing activity
    replicated over every host (replica wins, checkpoint restarts).  The
    same arguments always build the same inputs; :meth:`run` drives the
    batch until every workflow has finished.
    """

    HOSTS = 4
    TASK_DURATION = 3.0

    def __init__(
        self,
        workflows: int,
        *,
        seed: int = 7,
        mttf: float = 10.0,
        rate: float = 5.0,
        replicas: bool = False,
        tracer=None,
    ) -> None:
        import numpy as np

        from repro import workloads
        from repro.engine import EngineHost
        from repro.grid import UNRELIABLE, CheckpointingTask, GridConfig

        rng = np.random.default_rng([seed, 13])
        retry = FailurePolicy.retrying(None)
        self.grid = SimulatedGrid(
            seed=seed, config=GridConfig(crash_detection="heartbeat")
        )
        for i in range(self.HOSTS):
            self.grid.add_host(UNRELIABLE(f"h{i}", mttf=mttf, mean_downtime=4.0))
        duration = self.TASK_DURATION
        hosts = [f"h{i}" for i in range(self.HOSTS)]
        if replicas:
            self.grid.install_everywhere(
                "ckpt", CheckpointingTask(duration=2 * duration, checkpoints=3)
            )
            replicated = (
                WorkflowBuilder("replicated")
                .program("ckpt", hosts=hosts)
                .activity(
                    "r", implement="ckpt", policy=FailurePolicy.replica(max_tries=None)
                )
                .build()
            )
        specs = []
        for i in range(workflows):
            if replicas and i % 5 == 4:
                specs.append(replicated)
                continue
            if i % 3 == 0:
                spec, install = workloads.chain(
                    int(rng.integers(2, 5)),
                    task_duration=duration,
                    host=f"h{rng.integers(self.HOSTS)}",
                    policy=retry,
                )
            elif i % 3 == 1:
                spec, install = workloads.fork_join(
                    int(rng.integers(2, 5)),
                    task_duration=duration,
                    hosts=self.HOSTS,
                    policy=retry,
                )
            else:
                spec, install = workloads.layered_dag(
                    int(rng.integers(2, 4)),
                    int(rng.integers(2, 4)),
                    task_duration=duration,
                    hosts=self.HOSTS,
                    seed=int(rng.integers(2**31)),
                    policy=retry,
                )
            install(self.grid)
            specs.append(spec)
        self.specs = specs
        self.host = EngineHost(
            self.grid, reactor=self.grid.reactor, heartbeat_timeout=3.0, tracer=tracer
        )
        arrivals = np.cumsum(rng.exponential(1.0 / rate, workflows))
        for i, (spec, at) in enumerate(zip(specs, arrivals)):
            self.grid.reactor.call_later(
                float(at),
                lambda spec=spec, wfid=f"wf-{i + 1}": self.host.submit(
                    spec, workflow_id=wfid
                ),
            )

    def run(self) -> list:
        """Drive the batch to completion; the results in submission order."""
        host, count = self.host, len(self.specs)
        finished = []
        host.runtime.bus.subscribe(
            "engine.workflow_finished", lambda _t, p: finished.append(p)
        )
        host.runtime.reactor.run_until_complete(
            lambda: len(finished) == count, timeout=1e6
        )
        results = host.results()
        assert len(results) == count
        return [results[f"wf-{i + 1}"] for i in range(count)]
