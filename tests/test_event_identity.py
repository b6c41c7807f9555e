"""Lazy lifecycle payloads change nothing anyone can observe.

Publishers guard ``engine.*``, ``recovery.*`` and ``task.active.*``
payloads with :meth:`repro.events.EventBus.wants`, so a payload nobody
would see is never built.  These tests pin what must not change:

* with a tap and the history attached (every payload wanted), a seeded
  multiplexed run publishes exactly the event sequence it published
  before the guards existed — the digests below were recorded from that
  implementation;
* with no listener at all, the run's results, and the causal span ids
  its tracer minted, equal the fully observed run's;
* a bus without pattern subscriptions caches no routes, however many
  workflows a long-lived host finishes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

from tests.helpers import SeededBatch, result_identity
from repro.obs import FlightRecorder
from repro.obs.tracectx import Tracer

WORKFLOWS = 45

#: Digests of the seeded run (seed 7, 45 workflows, replicas) taken
#: before the payload guards existed: the bus history, the flight
#: recording and the workflow results.
HISTORY_DIGEST = "72dd662c88c3b3b38ad5f17383f0f9837c42ead57c3d087d0b86d05ee9fe7435"
RECORDING_DIGEST = "a5bd34ce1e07851a8a7d23359782efb623201f184ad417b5b08044787a07fc12"
RESULTS_DIGEST = "7e4166680a999bece51e8efa4f0c1c495465925c936ce5147213389f12119368"


def canonical(value):
    """A JSON-able, version-independent rendering of a bus payload."""
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [f.name, canonical(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return [[str(k), canonical(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    name = getattr(value, "name", None)
    if isinstance(name, str):  # UserException
        return [type(value).__name__, name, canonical(getattr(value, "data", {}))]
    return repr(value)


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def observed_run():
    batch = SeededBatch(WORKFLOWS, replicas=True, tracer=Tracer())
    bus = batch.host.runtime.bus
    bus.enable_history()
    recorder = FlightRecorder(bus, capacity=1_000_000)
    results = batch.run()
    history = [(r.seq, r.topic, r.payload) for r in bus.history]
    return batch, results, history, recorder.entries


def test_observed_run_publishes_the_recorded_sequence():
    batch, results, history, recording = observed_run()
    topics = {topic.split(".")[0] for _seq, topic, _payload in history}
    assert {"engine", "recovery", "task", "detector"} <= topics
    for topic in (
        "recovery.retry",
        "recovery.checkpoint_restart",
        "recovery.replication_win",
        "detector.host_suspected",
    ):
        assert any(t == topic for _s, t, _p in history), topic
    assert digest(history) == HISTORY_DIGEST
    assert digest(recording) == RECORDING_DIGEST
    assert digest([result_identity(r) for r in results]) == RESULTS_DIGEST


def test_unobserved_run_matches_observed_run():
    observed, observed_results, history, _recording = observed_run()
    tracer = Tracer()
    batch = SeededBatch(WORKFLOWS, replicas=True, tracer=tracer)
    results = batch.run()
    assert [result_identity(r) for r in results] == [
        result_identity(r) for r in observed_results
    ]
    # Span ids are minted whether or not a payload carries them.
    observed_tracer = observed.host.runtime.tracer
    assert tracer.child(tracer.root("probe")) == observed_tracer.child(
        observed_tracer.root("probe")
    )
    stats = batch.host.runtime.bus.stats()
    # Only the run's own completion counter listens: the guarded
    # lifecycle payloads were never published.
    assert stats["publishes"] < len(history)


def test_routes_do_not_grow_with_finished_workflows():
    cached = []
    for workflows in (6, 30):
        batch = SeededBatch(workflows)
        batch.run()
        cached.append(batch.host.runtime.bus.stats()["cached_routes"])
    assert cached == [0, 0]
