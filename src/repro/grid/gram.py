"""GRAM-style job submission service for the simulated Grid.

Plays the role of Globus GRAM in the paper's prototype: the engine submits a
:class:`repro.execution.SubmitRequest` naming a host, service and
executable; the service instantiates a :class:`JobProcess` that executes the
behaviour's planned timeline on the target host, emitting detection-service
messages through the network as it goes.

Crash observability is configurable (``GramConfig.crash_detection``):

* ``"prompt"`` — when a host crashes, the client's GRAM connection breaks
  and a synthetic ``Done(host_crashed=True)`` is delivered immediately.
  This gives zero failure-detection latency, matching the paper's
  analytical/simulation model (which charges no detection delay).
* ``"heartbeat"`` — nothing is synthesised; the failure is noticed only
  when the heartbeat monitor times out.  This is the realistic path and is
  exercised by the detector tests and the heartbeat ablation benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from ..ckpt.store import CheckpointStore
from ..core.exceptions import UserException
from ..detection.messages import CheckpointNotice, Done, ExceptionNotice, TaskEnd, TaskStart
from ..errors import CheckpointError, GridError
from ..execution import SubmitRequest
from .behaviors import PlanContext, Step
from .host import Host, HostState
from .network import Network
from .random import RandomStreams
from .simkernel import EventHandle, SimKernel

__all__ = ["GramConfig", "GramService", "JobProcess"]

# Bound once: on Python 3.11 an enum member read through its class costs
# about ten times a global read.
_UP = HostState.UP


@dataclass(frozen=True)
class GramConfig:
    """Submission-service configuration."""

    #: "prompt" (synthetic Done on host crash) or "heartbeat" (silence).
    crash_detection: str = "prompt"

    def __post_init__(self) -> None:
        if self.crash_detection not in {"prompt", "heartbeat"}:
            raise GridError(
                f"crash_detection must be 'prompt' or 'heartbeat', "
                f"got {self.crash_detection!r}"
            )


@dataclass(slots=True)
class JobRecord:
    """Service-side record of one submission (for queries and stats)."""

    job_id: str
    request: SubmitRequest
    attempt: int
    status: str = "submitted"  # submitted|queued|running|finished|cancelled


class JobProcess(JobRecord):
    """One attempt executing on a host: schedules the behaviour's steps.

    The process is also the attempt's :class:`JobRecord` (one object per
    submission).  It emits messages *from the host*, so they are subject
    to the network's partitions and latency.  Terminal steps clean the
    process off the host; a host crash aborts all pending steps.

    Steps come from the behaviour's plan in nondecreasing offset order and
    are all scheduled at :meth:`begin`, so they fire in plan order: each
    timer runs the step under ``_cursor``, and the handles before the
    cursor are exactly the timers that already fired.
    """

    __slots__ = (
        "service",
        "host",
        "hostname",
        "_steps",
        "_handles",
        "_cursor",
        "_finished",
    )
    # A live process is an object with an identity, not a value.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        service: "GramService",
        job_id: str,
        request: SubmitRequest,
        host: Host,
        attempt: int,
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.attempt = attempt
        self.status = "submitted"
        self.service = service
        self.host = host
        self.hostname = host.hostname
        self._steps: list[Step] = []
        self._handles: list[EventHandle] = []
        self._cursor = 0
        self._finished = False

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> None:
        """Plan the behaviour and schedule its steps (host is UP)."""
        if self.status == "submitted" or self.status == "queued":
            self.status = "running"
        service = self.service
        host = self.host
        request = self.request
        try:
            behavior = host.software[request.executable]
        except KeyError:
            behavior = host.resolve(request.executable)  # raises
        checkpoint_state: dict[str, Any] | None = None
        if request.checkpoint_flag:
            try:
                checkpoint_state = service.store.load(request.checkpoint_flag)
            except CheckpointError:
                checkpoint_state = None  # lost checkpoint: cold start
        # Records on the per-attempt path are built from positional
        # arguments: binding keywords is about a third of their cost.
        ctx = PlanContext(
            request.activity,
            self.job_id,
            host.spec,
            self.attempt,
            service.streams,
            checkpoint_state,
        )
        self._steps = steps = behavior.plan(ctx)
        schedule = service.kernel.schedule
        speed = host.spec.speed
        fire = self._fire
        self._handles = [schedule(step.offset / speed, fire) for step in steps]

    def abort(self) -> None:
        """Silently stop (cancellation): no further messages."""
        self._finished = True
        self._cancel_pending()
        self._steps = self._handles = ()  # the status stays "cancelled"

    def _cancel_pending(self) -> None:
        """Cancel the timers of the steps that have not fired yet."""
        for handle in self._handles[self._cursor :]:
            handle.cancel()

    def host_crashed(self) -> None:
        """Host died under us: stop, and surface the loss per the crash
        detection mode.

        ``prompt``: the client's GRAM connection breaks immediately — a
        synthetic local ``Done(host_crashed=True)``.

        ``heartbeat``: nothing crosses the network while the host is down
        (the client can only see heartbeat silence).  When the host comes
        back up, its restarted job manager notices the orphaned job and
        reports it — matching real middleware, and necessary so that an
        outage *shorter than the heartbeat timeout* still surfaces the
        lost job instead of wedging the workflow.
        """
        if self._finished:
            return
        self._finished = True
        self._cancel_pending()
        if self.service.config.crash_detection == "prompt":
            self.service.network.send_system(
                Done(
                    sent_at=self.service.kernel.now(),
                    job_id=self.job_id,
                    hostname=self.hostname,
                    exit_code=137,
                    host_crashed=True,
                )
            )
        else:
            reported = {"done": False}

            def report_orphan(host: Host) -> None:
                if reported["done"]:
                    return
                reported["done"] = True
                self.service.network.send(
                    host.hostname,
                    Done(
                        sent_at=self.service.kernel.now(),
                        job_id=self.job_id,
                        hostname=host.hostname,
                        exit_code=137,
                        host_crashed=True,
                    ),
                )

            self.host.on_recover(report_orphan)
        self._ended()

    # -- step execution ----------------------------------------------------------

    def _fire(self) -> None:
        """Run the next step of the plan (see the class docstring)."""
        step = self._steps[self._cursor]
        self._cursor += 1
        if self._finished:
            return
        service = self.service
        now = service.kernel._now
        action = step.action
        if action == "start":
            service.network.send(
                self.hostname,
                TaskStart(now, self.job_id, self.hostname),
            )
        elif action == "end":
            service.network.send(
                self.hostname,
                TaskEnd(now, self.job_id, self.hostname, step.payload.get("result")),
            )
            self._terminate(exit_code=0, now=now)
        elif action == "checkpoint":
            flag = f"{self.request.activity}#{self.job_id}@{step.offset:g}"
            service.store.save(flag, dict(step.payload.get("state", {})))
            service.network.send(
                self.hostname,
                CheckpointNotice(
                    sent_at=now,
                    job_id=self.job_id,
                    hostname=self.hostname,
                    flag=flag,
                    progress=float(step.payload.get("progress", 0.0)),
                ),
            )
        elif action == "exception":
            exc = step.payload.get("exception")
            if not isinstance(exc, UserException):  # pragma: no cover - defensive
                exc = UserException("unknown")
            service.network.send(
                self.hostname,
                ExceptionNotice(
                    sent_at=now,
                    job_id=self.job_id,
                    hostname=self.hostname,
                    exception=exc,
                ),
            )
            self._terminate(exit_code=1, now=now)
        elif action == "crash":
            self._terminate(exit_code=139, now=now)

    def _terminate(self, *, exit_code: int, now: float) -> None:
        self._finished = True
        self._cancel_pending()
        self.host.job_finished(self.job_id)
        self.service.network.send(
            self.hostname,
            Done(now, self.job_id, self.hostname, exit_code),
        )
        self._ended()

    def _ended(self) -> None:
        """The process is gone: record it finished (a cancellation stays
        recorded as such) and drop the plan and timer handles."""
        if self.status != "cancelled":
            self.status = "finished"
        self._steps = self._handles = ()


class GramService:
    """Client-facing submission service over a set of simulated hosts."""

    def __init__(
        self,
        kernel: SimKernel,
        network: Network,
        hosts: dict[str, Host],
        streams: RandomStreams,
        store: CheckpointStore,
        config: GramConfig | None = None,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.hosts = hosts
        self.streams = streams
        self.store = store
        self.config = config or GramConfig()
        #: Every submission's record; the live ones (status submitted,
        #: queued or running) are the :class:`JobProcess` executing them.
        self._jobs: dict[str, JobRecord] = {}
        # Keyed by (workflow_id, activity): concurrent workflow instances
        # running the same specification must not share attempt sequences
        # (a deterministic crash-on-attempt-1 behaviour would otherwise
        # crash in one instance and spuriously succeed in its sibling).
        self._attempt_counters: dict[tuple[str, str], int] = {}
        self._seq = itertools.count(1)

    def reset(self) -> None:
        """Forget all submissions and restart job-id numbering, as if
        freshly constructed over the same hosts/network/store."""
        self._jobs.clear()
        self._attempt_counters.clear()
        self._seq = itertools.count(1)

    # -- submission -----------------------------------------------------------

    def submit(self, request: SubmitRequest) -> str:
        """Submit an attempt; failures surface asynchronously as messages.

        An unknown *hostname* is a configuration error and raises; a down
        host or missing executable behaves like the corresponding GRAM
        failure callback.
        """
        host = self.hosts.get(request.hostname)
        if host is None:
            raise GridError(f"unknown host: {request.hostname!r}")
        job_id = f"job-{next(self._seq):06d}"
        attempt_key = (request.workflow_id, request.activity)
        attempt = self._attempt_counters.get(attempt_key, 0) + 1
        self._attempt_counters[attempt_key] = attempt
        if request.executable not in host.software:
            self._jobs[job_id] = JobRecord(
                job_id=job_id, request=request, attempt=attempt, status="finished"
            )
            self._reject(job_id, request, exit_code=127)
            return job_id
        process = JobProcess(self, job_id, request, host, attempt)
        self._jobs[job_id] = process
        if host.state is _UP:
            process.status = "running"
            host.start_job(process)
        elif request.queue_when_down:
            process.status = "queued"
            host.queue_job(process)
        else:
            process.status = "finished"
            self._reject(job_id, request, exit_code=75)  # EX_TEMPFAIL
        return job_id

    def _reject(self, job_id: str, request: SubmitRequest, *, exit_code: int) -> None:
        """Asynchronous submission failure: Done without TaskStart/TaskEnd."""
        self.network.send_system(
            Done(
                sent_at=self.kernel.now(),
                job_id=job_id,
                hostname=request.hostname,
                exit_code=exit_code,
            )
        )

    # -- cancellation -------------------------------------------------------------

    def cancel(self, job_id: str) -> None:
        """Silently stop a job (no Done is emitted).  Idempotent."""
        process = self._jobs.get(job_id)
        if process is None or process.status in {"finished", "cancelled"}:
            return
        process.status = "cancelled"
        process.host.cancel_job(job_id)
        process.abort()

    # -- queries ---------------------------------------------------------------------

    def job(self, job_id: str) -> JobRecord | None:
        return self._jobs.get(job_id)

    def jobs_for_activity(self, activity: str) -> list[JobRecord]:
        return [r for r in self._jobs.values() if r.request.activity == activity]

    @property
    def submitted_count(self) -> int:
        return len(self._jobs)
