"""Span tracing for the traced pass.

:meth:`Tracer.install` wraps public functions of ``repro`` on the classes
and module attributes that callers resolve them through, and
:meth:`Tracer.uninstall` restores the originals.  Install before anything
is constructed: objects capture bound methods early
(``service.connect(detector.deliver)``, ``bus.subscribe(..., handler)``),
and a method captured before installation is never traced.

Every wrapped call is a span: layer, start, end, parent span and request
id.  Callbacks handed to ``SimKernel.schedule`` and handlers handed to
``EventBus.subscribe`` / ``add_tap`` are wrapped too and named after the
module that owns them, so an engine handler's time counts as
``engine.engine``, not as bus dispatch, and a GRAM job step as
``grid.gram``, not as kernel time.  A scheduled callback inherits the
request id current when it was scheduled, which carries a workflow id from
``EngineHost.submit`` through the network, detector, bus and engine hops
it causes.

A layer's self time is its spans' durations minus their child spans'
durations, accumulated as spans close.  Garbage collections are spans of
their own (layer ``gc``, from ``gc.callbacks``), so collector pauses are
not charged to whatever layer they interrupt.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array

import numpy as np

#: Module → layer.  Modules not listed fall back to :data:`PREFIX_LAYERS`.
MODULE_LAYERS = {
    "repro.grid.simkernel": "grid.simkernel",
    "repro.timerheap": "grid.simkernel",
    "repro.grid.network": "grid.network",
    "repro.grid.gram": "grid.gram",
    "repro.grid.behaviors": "grid.gram",
    "repro.grid.host": "grid.host",
    "repro.detection.detector": "detection.detector",
    "repro.detection.heartbeat": "detection.heartbeat",
    "repro.events": "events",
    "repro.engine.recovery": "engine.recovery",
    "repro.engine.strategies": "engine.strategies",
    "repro.engine.broker": "engine.broker",
    "repro.engine.host": "engine.host",
    "repro.obs.observer": "obs.observer",
    "repro.obs.recorder": "obs.recorder",
    "repro.obs.estimators": "obs.estimators",
    "repro.obs.timeseries": "obs.collector",
    "repro.obs.health": "obs.health",
    "repro.sim.engine_mc": "sim.engine_mc",
    "repro.sim.samplers": "sim.samplers",
    "repro.sim.adaptive": "sim.adaptive",
}
PREFIX_LAYERS = (
    ("repro.engine.", "engine.engine"),
    ("repro.wpdl.", "wpdl"),
    ("repro.ckpt.", "ckpt"),
    ("repro.", "other"),
)
#: Callbacks and handlers defined by the benchmark itself (arrivals, the
#: completion counter).
BENCH_LAYER = "bench"
GC_LAYER = "gc"


def layer_of(module: str | None) -> str:
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    for prefix, layer in PREFIX_LAYERS:
        if module and module.startswith(prefix):
            return layer
    return BENCH_LAYER


class _Handler:
    """A traced bus handler or tap.

    Compares equal to the handler it wraps, because ``EventBus.remove_tap``
    matches taps by equality.
    """

    __slots__ = ("tracer", "inner", "layer", "boundary")

    def __init__(self, tracer: Tracer, inner, layer: int, boundary: str) -> None:
        self.tracer = tracer
        self.inner = inner
        self.layer = layer
        self.boundary = boundary

    def __call__(self, topic, payload):
        tracer = self.tracer
        index = tracer.push(self.layer)
        try:
            return self.inner(topic, payload)
        finally:
            tracer.pop(index, self.boundary)

    def __eq__(self, other):
        if isinstance(other, _Handler):
            other = other.inner
        return self.inner == other

    def __hash__(self):
        return hash(self.inner)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        #: Called with the sampler after every ``EngineSampler.run``.
        self.on_engine_run = None
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.requests: list[str] = [""]
        self._request_ids: dict[str, int] = {"": 0}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack: list[int] = []
        self._child: list[float] = []
        #: Calls and inclusive seconds per wrapped boundary.
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        #: Counters read from public results and ``stats()``.
        self.counters: dict[str, float] = {}
        self.request = 0
        self.gc_collections = 0
        self._gc_layer = self.layer_id(GC_LAYER)
        self._gc_index = -1
        self._module_layers: dict[str | None, int] = {}
        self._restore: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
        return lid

    def request_id(self, name: str) -> int:
        rid = self._request_ids.get(name)
        if rid is None:
            rid = self._request_ids[name] = len(self.requests)
            self.requests.append(name)
        return rid

    def push(self, layer: int) -> int:
        index = len(self.span_start)
        stack = self._stack
        self.span_layer.append(layer)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        stack.append(index)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return index

    def pop(self, index: int, boundary: str) -> None:
        end = time.perf_counter()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self._stack.pop()
        child = self._child.pop()
        self.self_s[self.span_layer[index]] += duration - child
        if self._child:
            self._child[-1] += duration
        self.calls[boundary] = self.calls.get(boundary, 0) + 1
        self.inclusive[boundary] = self.inclusive.get(boundary, 0.0) + duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._gc_index = self.push(self._gc_layer)
        elif self._gc_index >= 0:
            self.pop(self._gc_index, GC_LAYER)
            self._gc_index = -1
            self.gc_collections += 1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, boundary: str, *, request_of=None, after=None):
        """*fn* as a span of *layer*.  ``request_of(args, kwargs)`` names the
        request the call starts; ``after(args, result)`` reads its result."""
        tracer = self
        lid = self.layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = tracer.request
            if request_of is not None:
                tracer.request = tracer.request_id(request_of(args, kwargs))
            index = tracer.push(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(index, boundary)
                tracer.request = saved
            if after is not None:
                after(args, result)
            return result

        return traced

    def _callback(self, callback):
        """A scheduled callback as a span of its owner's layer, run under
        the request id current at scheduling time."""
        module = getattr(callback, "__module__", None)
        lid = self._module_layers.get(module)
        if lid is None:
            lid = self._module_layers[module] = self.layer_id(layer_of(module))
        boundary = self.layers[lid] + ":callback"
        request = self.request
        tracer = self

        def scheduled():
            saved = tracer.request
            tracer.request = request
            index = tracer.push(lid)
            try:
                callback()
            finally:
                tracer.pop(index, boundary)
                tracer.request = saved

        return scheduled

    def _handler(self, handler) -> _Handler:
        layer = layer_of(getattr(handler, "__module__", None))
        return _Handler(self, handler, self.layer_id(layer), layer + ":handler")

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_method(self, cls, name: str, layer: str, **hooks) -> None:
        boundary = f"{cls.__name__}.{name}"
        wrapped = self._wrap(cls.__dict__[name], layer, boundary, **hooks)
        self._patch(cls, name, wrapped)

    def install(self) -> None:
        """Wrap every boundary of the layer table (see the module doc)."""
        from repro.ckpt.manager import CheckpointManager
        from repro.detection.detector import FailureDetector
        from repro.detection.heartbeat import HeartbeatMonitor
        from repro.engine.broker import Broker
        from repro.engine.engine import WorkflowEngine
        from repro.engine.host import EngineHost
        from repro.engine.recovery import RecoveryCoordinator
        from repro.engine.strategies import RecoveryStrategy
        from repro.events import EventBus
        from repro.grid.gram import GramService
        from repro.grid.host import Host
        from repro.grid.network import Network
        from repro.grid.simgrid import SimulatedGrid
        from repro.grid.simkernel import SimKernel
        from repro.obs.timeseries import PeriodicCollector
        from repro.sim import adaptive
        from repro.sim.engine_mc import EngineSampler
        from repro.wpdl import builder

        tracer = self
        boundaries = (
            ("grid.simkernel", SimKernel, "step", "schedule_at"),
            ("grid.network", Network, "send", "send_system"),
            ("grid.gram", GramService, "submit", "cancel"),
            ("grid.host", Host, "crash", "recover"),
            ("detection.detector", FailureDetector, "deliver", "track"),
            ("detection.heartbeat", HeartbeatMonitor, "observe", "observe_batch"),
            ("events", EventBus, "publish"),
            ("engine.recovery", RecoveryCoordinator, "start_activity"),
            ("engine.recovery", RecoveryCoordinator, "handle_outcome"),
            ("engine.broker", Broker, "resolve_all", "resolve_index", "retry_index"),
            ("ckpt", CheckpointManager, "record", "flag_for"),
            ("engine.engine", WorkflowEngine, "start", "reset"),
            ("sim.engine_mc", SimulatedGrid, "reset"),
            ("obs.collector", PeriodicCollector, "tick"),
            ("wpdl", builder.WorkflowBuilder, "build"),
        )
        for layer, cls, *names in boundaries:
            for name in names:
                self._patch_method(cls, name, layer)

        strategies = [RecoveryStrategy]
        for cls in strategies:
            strategies.extend(cls.__subclasses__())
        for cls in strategies:
            for name in ("next_attempt", "plan_slots"):
                fn = cls.__dict__.get(name)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._patch_method(cls, name, "engine.strategies")

        def workflow_id(_args, kwargs):
            return kwargs.get("workflow_id") or ""

        def run_seed(args, _kwargs):
            return f"seed={args[1]}"

        def after_run(args, _result):
            if tracer.on_engine_run is not None:
                tracer.on_engine_run(args[0])

        def cell(args, _kwargs):
            params = args[1]
            return f"{args[0]}@mttf={params.mttf:g},D={params.downtime:g}"

        def drawn(_args, samples):
            tracer.count("samples", samples.size)

        def evaluated(_args, grid):
            tracer.count("samples_drawn", grid.samples_drawn)
            tracer.count("samples_used", grid.samples_used)

        self._patch_method(EngineHost, "submit", "engine.host", request_of=workflow_id)
        self._patch_method(
            EngineSampler, "run", "sim.engine_mc", request_of=run_seed, after=after_run
        )
        sample_technique = self._wrap(
            adaptive.sample_technique,
            "sim.samplers",
            "sample_technique",
            request_of=cell,
            after=drawn,
        )
        self._patch(adaptive, "sample_technique", sample_technique)
        evaluate_grid = self._wrap(
            adaptive.evaluate_grid, "sim.adaptive", "evaluate_grid", after=evaluated
        )
        self._patch(adaptive, "evaluate_grid", evaluate_grid)
        self._patch(
            builder, "validate", self._wrap(builder.validate, "wpdl", "validate")
        )

        schedule = SimKernel.__dict__["schedule"]
        subscribe = EventBus.__dict__["subscribe"]
        add_tap = EventBus.__dict__["add_tap"]
        schedule_lid = self.layer_id("grid.simkernel")

        @functools.wraps(schedule)
        def traced_schedule(kernel, delay, callback):
            index = tracer.push(schedule_lid)
            try:
                return schedule(kernel, delay, tracer._callback(callback))
            finally:
                tracer.pop(index, "SimKernel.schedule")

        @functools.wraps(subscribe)
        def traced_subscribe(bus, pattern, handler):
            return subscribe(bus, pattern, tracer._handler(handler))

        @functools.wraps(add_tap)
        def traced_add_tap(bus, handler):
            return add_tap(bus, tracer._handler(handler))

        self._patch(SimKernel, "schedule", traced_schedule)
        self._patch(EventBus, "subscribe", traced_subscribe)
        self._patch(EventBus, "add_tap", traced_add_tap)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return {
            "self_s": dict(zip(self.layers, self.self_s)),
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "gc_collections": self.gc_collections,
            "spans": len(self.span_start),
            "root_s": float(durations[parents < 0].sum()),
            "requests": len(self.requests) - 1,
        }

    def write(self, path: str) -> None:
        """All spans, with layer and request names, as one ``.npz``."""
        np.savez_compressed(
            path,
            layer=np.frombuffer(self.span_layer, dtype=np.uint16),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            request=np.frombuffer(self.span_request, dtype=np.int64),
            layer_names=np.array(self.layers),
            request_names=np.array(self.requests),
        )
