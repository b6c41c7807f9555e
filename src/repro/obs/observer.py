"""Bus-driven run observation: events → spans + metrics, one recording path.

:class:`RunObserver` subscribes to the three topic families the stack
publishes on its :class:`~repro.events.EventBus` —

* ``engine.*``   — node/workflow lifecycle (plain-dict payloads);
* ``task.*``     — the failure detector's per-attempt state changes
  (:class:`~repro.detection.detector.AttemptOutcome` payloads);
* ``recovery.*`` — the recovery coordinator's strategy dispatch (retries,
  backoff waits, checkpoint restarts, replication wins; plain dicts) —

and turns them into nested spans (``workflow.run`` ▸ ``node.run`` ▸
``task.attempt`` / ``recovery.backoff``) and labelled metrics.  Its
handlers do only that span and metric work.  The event stream,
:attr:`RunObserver.events`, is a view over the bus's one event journal
(:class:`~repro.events.EventJournal`): :class:`RecordedEvent` entries are
built when read, from the journal's ``engine.``/``task.``/``recovery.``
records of the observer's attach windows, in publish order.
:class:`~repro.engine.trace.EngineTrace` is a thin query layer over this
recording, and every exporter (:mod:`repro.obs.export`) renders it — the
engine has exactly one observation path.

Topic names are matched as string literals on purpose: the engine
documents its bus payloads as plain dicts precisely so subscribers need no
engine imports, and depending only on the published contract keeps this
module import-cycle-free (``repro.engine`` imports us for ``EngineTrace``).

The observer survives :meth:`WorkflowEngine.reset`: its subscriptions are
its own (the engine only re-subscribes *its* handlers), and per-run span
bookkeeping is cleared when a workflow finishes, so engine-reuse loops
record every run exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..events import BusSubscriber, EventBus, JournalView
from .core import Observability
from .metrics import ATTEMPT_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import WorkflowEngine
    from ..grid.simgrid import SimulatedGrid
    from .metrics import MetricsRegistry
    from .spans import Span

__all__ = [
    "EVENT_BOUND",
    "RecordedEvent",
    "RunObserver",
    "scrape_grid",
    "scrape_kernel",
    "scrape_bus",
    "scrape_detector",
]


@dataclass(frozen=True)
class RecordedEvent:
    """One observed bus event: time, topic, and a flat detail dict."""

    at: float
    topic: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(
            f"{k}={v}" for k, v in self.detail.items() if v is not None
        )
        return f"{self.at:10.3f}  {self.topic:24s} {parts}"


#: The observer reads at most this many journal records of its attach
#: windows (the newest; every topic counts toward the bound), and lists
#: the ``engine.``/``task.``/``recovery.`` ones among them as events.
EVENT_BOUND = 100_000

_OBSERVED_FAMILIES = ("engine.", "task.", "recovery.")
_TERMINAL_TASK_TOPICS = ("task.done", "task.failed", "task.exception")
_TASK_BASE_TOPICS = ("task.active",) + _TERMINAL_TASK_TOPICS


def _base_task_topic(topic: str) -> str:
    """Strip a per-instance scope suffix: ``task.done.wf-3`` → ``task.done``.

    Multiplexed engines publish attempt outcomes on workflow-scoped topics
    (:func:`repro.detection.detector.scoped_topic`); the wildcard
    subscription still delivers them here, but span/metric routing needs
    the base family.
    """
    for base in _TASK_BASE_TOPICS:
        if topic == base or topic.startswith(base + "."):
            return base
    return topic


def _trace_ids(payload: Any) -> dict[str, str]:
    """The causal ids the tracer (:mod:`repro.obs.tracectx`) stamped on a
    dict or AttemptOutcome payload, as span labels."""
    keys = ("span_id", "parent_id")
    if isinstance(payload, dict):
        return {key: payload[key] for key in keys if payload.get(key)}
    return {key: getattr(payload, key) for key in keys if getattr(payload, key, "")}


def _recorded_event(topic: str, payload: Any) -> RecordedEvent:
    """One journal record → the observer's flat event (at read time).

    Dict payloads (engine lifecycle, recovery dispatch) become the detail
    minus their ``at``; ``task.*`` AttemptOutcome payloads are read
    duck-typed through the published contract.
    """
    if topic.startswith("task."):
        job = getattr(payload, "job_id", None)
        if job is not None:
            exception = payload.exception
            detail = {
                "job": job,
                "activity": payload.activity,
                "host": payload.hostname,
                "reason": payload.reason,
                "exception": exception.name if exception else None,
            }
            wfid = getattr(payload, "workflow_id", "") or ""
            if wfid:
                detail["workflow_id"] = wfid
            detail.update(_trace_ids(payload))
            return RecordedEvent(at=payload.at, topic=topic, detail=detail)
        return RecordedEvent(at=0.0, topic=topic, detail={"payload": payload})
    detail = dict(payload) if isinstance(payload, dict) else {"payload": payload}
    at = float(detail.pop("at", 0.0) or 0.0)
    return RecordedEvent(at=at, topic=topic, detail=detail)


class RunObserver(BusSubscriber):
    """Observes engine/detector/recovery bus traffic: spans and metrics
    as it happens, the event stream as a view over the bus's journal."""

    TOPICS = (
        ("engine.*", "_on_engine_event"),
        ("task.*", "_on_task_event"),
        ("recovery.*", "_on_recovery_event"),
    )

    def __init__(
        self,
        bus: EventBus | None = None,
        *,
        obs: Observability | None = None,
        clock: Any = None,
    ) -> None:
        self.obs = obs if obs is not None else Observability()
        if clock is not None:
            self.obs.bind_clock(clock)
        self._view = JournalView(EVENT_BOUND)
        # Per-run span bookkeeping, keyed by workflow_id ("" for a classic
        # single-instance run) so N multiplexed instances never share or
        # clobber each other's spans; cleared per-instance on
        # workflow_finished.  Node spans are indexed per workflow (then
        # by node), so a finish drops its own spans without scanning the
        # other instances' ones.
        self._workflow_spans: dict[str, "Span"] = {}
        self._node_spans: dict[str, dict[str, "Span"]] = {}
        self._attempt_spans: dict[str, "Span"] = {}
        if bus is not None:
            self.attach_bus(bus)

    # -- wiring --------------------------------------------------------------

    @classmethod
    def attach(
        cls, engine: "WorkflowEngine", obs: Observability | None = None
    ) -> "RunObserver":
        """Observe an engine's runtime bus on its reactor's clock."""
        return cls(
            engine.runtime.bus, obs=obs, clock=engine.runtime.reactor.now
        )

    def attach_bus(self, bus: EventBus) -> "RunObserver":
        """Subscribe to *bus*.  Idempotent: re-attaching to the bus we are
        already subscribed to is a no-op, so callers may safely re-attach
        after :meth:`WorkflowEngine.reset` without double-recording.
        Attaching to a different bus starts a new event recording."""
        super().attach_bus(bus)
        self._view.attach(bus)
        return self

    def detach(self) -> None:
        """Stop recording (idempotent; the recording remains readable)."""
        super().detach()
        self._view.detach()

    # -- recorded state ------------------------------------------------------

    @property
    def events(self) -> list[RecordedEvent]:
        """The observed events in publish order, built from the journal
        (at most :data:`EVENT_BOUND` records read)."""
        return [
            _recorded_event(topic, payload)
            for _seq, topic, payload in self._view.records()
            if topic.startswith(_OBSERVED_FAMILIES)
        ]

    @property
    def spans(self) -> list["Span"]:
        return self.obs.spans.spans

    @property
    def metrics(self) -> "MetricsRegistry":
        return self.obs.metrics

    def _node_span(self, wfid: str, node: str) -> "Span | None":
        nodes = self._node_spans.get(wfid)
        return nodes.get(node) if nodes else None

    # -- engine lifecycle ----------------------------------------------------

    def _on_engine_event(self, topic: str, payload: Any) -> None:
        detail = payload if isinstance(payload, dict) else {}
        node = detail.get("node")
        workflow = detail.get("workflow", "")
        wfid = detail.get("workflow_id", "") or ""
        wl = {"workflow_id": wfid} if wfid else {}
        spans = self.obs.spans
        metrics = self.obs.metrics
        if topic == "engine.node_launched":
            workflow_span = self._workflow_spans.get(wfid)
            if workflow_span is None:
                workflow_span = spans.begin(
                    "workflow.run", workflow=workflow, **wl
                )
                self._workflow_spans[wfid] = workflow_span
            metrics.counter(
                "engine_nodes_launched_total",
                help="nodes entering RUNNING",
                workflow=workflow,
                **wl,
            ).inc()
            nodes = self._node_spans.get(wfid)
            if nodes is None:
                nodes = self._node_spans[wfid] = {}
            nodes[node] = spans.begin(
                "node.run",
                parent=workflow_span.id,
                node=node,
                workflow=workflow,
                **wl,
            )
        elif topic in ("engine.node_completed", "engine.node_cancelled"):
            status = detail.get("status", "cancelled")
            nodes = self._node_spans.get(wfid)
            span = nodes.pop(node, None) if nodes else None
            if span is not None:
                span.labels["status"] = status
                spans.end(span)
            metrics.counter(
                "engine_node_completions_total",
                help="terminal node resolutions by status",
                status=status,
                **wl,
            ).inc()
            tries = detail.get("tries")
            if tries:
                metrics.histogram(
                    "task_tries",
                    help="submission attempts consumed per node resolution",
                    buckets=ATTEMPT_BUCKETS,
                    node=node,
                ).observe(float(tries))
        elif topic == "engine.workflow_finished":
            status = detail.get("status", "")
            metrics.counter(
                "engine_workflow_runs_total",
                help="workflow terminations by status",
                status=status,
                **wl,
            ).inc()
            workflow_span = self._workflow_spans.pop(wfid, None)
            if workflow_span is not None:
                workflow_span.labels["status"] = status
                spans.end(workflow_span)
            # Engine reuse starts this instance's next run with fresh
            # bookkeeping; sibling instances' spans are untouched.
            self._node_spans.pop(wfid, None)
            if not wfid:
                self._attempt_spans.clear()

    # -- detector attempts ---------------------------------------------------

    def _on_task_event(self, topic: str, payload: Any) -> None:
        # AttemptOutcome, duck-typed via the published contract.
        job = getattr(payload, "job_id", None)
        if job is None:  # pragma: no cover - defensive
            return
        activity = payload.activity
        wfid = getattr(payload, "workflow_id", "") or ""
        wl = {"workflow_id": wfid} if wfid else {}
        base = _base_task_topic(topic)
        started = base == "task.active"
        if not started and base not in _TERMINAL_TASK_TOPICS:
            return
        spans = self.obs.spans
        span = None if started else self._attempt_spans.pop(job, None)
        if span is None:
            # A start, or a terminal before TaskStart (an instant crash: a
            # zero-duration attempt, so the trace still shows it).
            node_span = self._node_span(wfid, activity)
            span = spans.begin(
                "task.attempt",
                parent=node_span.id if node_span is not None else None,
                activity=activity,
                job=job,
                host=payload.hostname,
                **wl,
                **_trace_ids(payload),
            )
        if started:
            self._attempt_spans[job] = span
            return
        outcome = base.rsplit(".", 1)[1]
        span.labels["outcome"] = outcome
        if payload.reason:
            span.labels["reason"] = payload.reason
        spans.end(span)
        metrics = self.obs.metrics
        metrics.counter(
            "task_attempts_total",
            help="terminal detector outcomes per attempt",
            activity=activity,
            outcome=outcome,
            **wl,
        ).inc()
        metrics.histogram(
            "task_attempt_sim_seconds",
            help="virtual seconds from TaskStart to terminal outcome",
            activity=activity,
        ).observe(span.sim_duration)

    # -- recovery dispatch ---------------------------------------------------

    def _on_recovery_event(self, topic: str, payload: Any) -> None:
        detail = payload if isinstance(payload, dict) else {}
        activity = detail.get("activity", "")
        wfid = detail.get("workflow_id", "") or ""
        wl = {"workflow_id": wfid} if wfid else {}
        metrics = self.obs.metrics
        # Every recovery decision leaves a zero-duration marker span under
        # its node, carrying the causal ids — the chrome_trace exporter
        # draws flow arrows from these to the attempts they spawned.
        if topic != "recovery.resolved":
            node_span = self._node_span(wfid, activity)
            self.obs.spans.instant(
                topic,
                parent=node_span.id if node_span is not None else None,
                activity=activity,
                **wl,
                **_trace_ids(detail),
            )
        if topic == "recovery.retry":
            delay = float(detail.get("delay", 0.0) or 0.0)
            metrics.counter(
                "recovery_retries_total",
                help="resubmissions scheduled after detected crashes",
                activity=activity,
                **wl,
            ).inc()
            metrics.histogram(
                "recovery_retry_delay_seconds",
                help="strategy-chosen wait before each resubmission",
                activity=activity,
            ).observe(delay)
            if delay > 0:
                at = float(detail.get("at", 0.0) or 0.0)
                node_span = self._node_span(wfid, activity)
                self.obs.spans.interval(
                    "recovery.backoff",
                    at,
                    at + delay,
                    parent=node_span.id if node_span is not None else None,
                    activity=activity,
                    slot=detail.get("slot", 0),
                )
        elif topic == "recovery.checkpoint_restart":
            metrics.counter(
                "recovery_checkpoint_restarts_total",
                help="submissions restarting from a saved checkpoint flag",
                activity=activity,
            ).inc()
        elif topic == "recovery.replication_win":
            metrics.counter(
                "recovery_replication_wins_total",
                help="replicated activities resolved by this host's replica",
                activity=activity,
                host=detail.get("host", ""),
            ).inc()
        elif topic == "recovery.exhausted":
            metrics.counter(
                "recovery_slots_exhausted_total",
                help="retry loops that ran out of budget",
                activity=activity,
            ).inc()
        elif topic == "recovery.resolved":
            metrics.histogram(
                "recovery_tries_per_resolution",
                help="total attempts consumed per task-level resolution",
                buckets=ATTEMPT_BUCKETS,
                activity=activity,
                state=detail.get("state", ""),
            ).observe(float(detail.get("tries", 0) or 0))


# -- end-of-run scrapers ------------------------------------------------------


def scrape_kernel(registry: "MetricsRegistry", kernel: Any) -> None:
    """Pull the sim kernel's health counters into *registry*.

    Anything exposing :meth:`SimKernel.stats` works — the kernel keeps
    cheap plain-int counters on its hot path, so scraping once at export
    time costs nothing per event.
    """
    stats = dict(kernel.stats())
    ratio = stats["timers_cancelled"] / max(1, stats["timers_scheduled"])
    stats.update(timer_compactions=stats["compactions"], cancelled_timer_ratio=ratio)
    for key, help_text in (
        ("events_processed", "callbacks executed by the sim kernel"),
        ("timers_scheduled", "timer entries pushed onto the heap"),
        ("timers_cancelled", "timer entries lazily cancelled"),
        ("timer_compactions", "in-place heap compaction passes"),
        (
            "cancelled_timer_ratio",
            "cancelled / scheduled timers (lazy-cancellation pressure)",
        ),
    ):
        registry.gauge(f"sim_{key}", help=help_text).set(stats[key])


def scrape_bus(registry: "MetricsRegistry", bus: "EventBus") -> None:
    """Record the event bus's dispatch-path counters.

    ``bus_route_cache_hit_rate`` is the fraction of publishes served from
    an interned route (1 − route builds / publishes) — the dispatch-cost
    figure the multiplexed-host benchmarks watch.
    """
    stats = bus.stats()
    groups = stats["exact_topics"] + stats["pattern_entries"]
    hit_rate = 1.0 - stats["route_builds"] / max(1, stats["publishes"])
    stats.update(subscription_groups=groups, route_cache_hit_rate=hit_rate)
    for key, help_text in (
        ("publishes", "events published on the bus"),
        ("cached_routes", "interned topic → subscriber routes"),
        ("route_builds", "full matching passes (route-cache misses)"),
        ("subscription_groups", "live exact-topic groups plus pattern entries"),
        ("route_cache_hit_rate", "publishes served without a matching pass"),
        ("prefix_patterns", "wildcard patterns on the startswith fast path"),
        ("regex_patterns", "wildcard patterns requiring a compiled regex"),
        ("prefix_fastpath_share", "fraction of live patterns matched via startswith"),
    ):
        registry.gauge(f"bus_{key}", help=help_text).set(stats[key])


def scrape_grid(registry: "MetricsRegistry", grid: "SimulatedGrid") -> None:
    """Pull the simulated grid's internal counters into *registry*.

    Delegates the kernel block to :func:`scrape_kernel`, then adds the
    network and GRAM counters only a grid has.
    """
    scrape_kernel(registry, grid.kernel)
    gauge = registry.gauge
    net = grid.network.stats
    for name, value, help_text in (
        ("network_messages_sent", net.sent, "messages offered to the network"),
        (
            "network_messages_delivered",
            net.delivered,
            "messages reaching the client sink",
        ),
        (
            "network_messages_dropped_partition",
            net.dropped_partition,
            "drops from host partitions",
        ),
        (
            "network_messages_dropped_loss",
            net.dropped_loss,
            "drops from i.i.d. message loss",
        ),
    ):
        gauge(name, help=help_text).set(value)
    gauge(
        "gram_jobs_submitted", help="submissions accepted by the GRAM service"
    ).set(grid.gram.submitted_count)


def scrape_detector(registry: "MetricsRegistry", detector: Any) -> None:
    """Record the failure detector's heartbeat traffic counter."""
    registry.gauge(
        "detector_heartbeats_observed",
        help="heartbeat messages consumed by the failure detector",
    ).set(getattr(detector, "heartbeats_observed", 0))
