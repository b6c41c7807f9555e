"""One event journal per bus, read through per-consumer views.

``bus.history``, :attr:`RunObserver.events` (and so ``EngineTrace``) and
the flight recorder all read :class:`repro.events.EventJournal`: one tap
appending each publish once.  These tests pin the contracts the views
rely on — publish order, the tap's lifecycle, per-consumer windows and
bounds, and a ring no longer than the largest bound.
"""

from __future__ import annotations

import pytest

from tests.helpers import SeededBatch
from repro.events import EventBus, JournalView
from repro.obs import FlightRecorder, RunObserver
from repro.obs.postmortem import load_recording
from repro.obs.tracectx import Tracer

OBSERVED_FAMILIES = ("engine.", "task.", "recovery.")


def publish(bus: EventBus, first: int, last: int) -> None:
    for i in range(first, last):
        bus.publish("t.x", {"i": i})


def test_observer_events_follow_publish_order():
    batch = SeededBatch(12, replicas=True, tracer=Tracer())
    bus = batch.host.runtime.bus
    observer = RunObserver(bus, clock=batch.host.runtime.reactor.now)
    recorder = FlightRecorder(bus)
    batch.run()
    recorded = [
        entry["topic"]
        for entry in recorder.entries
        if entry["topic"].startswith(OBSERVED_FAMILIES)
    ]
    assert len(recorded) > 100
    assert [event.topic for event in observer.events] == recorded
    assert bus.stats()["taps"] == 1


def test_journal_appends_each_publish_once():
    bus = EventBus()
    bus.enable_history()
    RunObserver(bus)
    recorder = FlightRecorder(bus)
    bus.publish("engine.node_launched", {"node": "a", "at": 1.0})
    bus.publish("other", 3)
    assert len(bus.journal) == 2
    assert bus.stats()["taps"] == 1
    assert [e["topic"] for e in recorder.entries] == ["engine.node_launched", "other"]


def test_journal_copies_dict_payloads_once():
    bus = EventBus()
    bus.enable_history()
    observer = RunObserver(bus)
    payload = {"node": "a", "at": 2.0}
    bus.publish("engine.node_launched", payload)
    payload["node"] = "changed"
    assert bus.history[0].payload == {"node": "a", "at": 2.0}
    (event,) = observer.events
    assert (event.at, event.detail) == (2.0, {"node": "a"})
    # Reading builds fresh events and leaves the journal record intact.
    assert observer.events[0].detail == {"node": "a"}
    assert bus.history[0].payload["at"] == 2.0


class TestTapLifecycle:
    def test_last_detach_removes_the_tap(self):
        bus = EventBus()
        observer = RunObserver(bus)
        recorder = FlightRecorder(bus)
        assert bus.stats()["taps"] == 1
        assert bus.wants("anything")
        observer.detach()
        assert bus.stats()["taps"] == 1
        recorder.detach()
        assert bus.stats()["taps"] == 0
        assert not bus.wants("anything")

    def test_unobserved_bus_has_no_tap(self):
        bus = EventBus()
        JournalView(10)  # made, never attached
        assert bus.stats()["taps"] == 0
        assert not bus.wants("engine.node_launched")

    def test_history_keeps_the_tap(self):
        bus = EventBus()
        bus.enable_history()
        recorder = FlightRecorder(bus)
        recorder.detach()
        assert bus.stats()["taps"] == 1
        assert bus.wants("anything")


class TestPerConsumerBounds:
    def test_small_recorder_beside_history_matches_recorder_alone(self):
        shared, alone = EventBus(), EventBus()
        shared.enable_history()
        beside = FlightRecorder(shared, capacity=5)
        only = FlightRecorder(alone, capacity=5)
        for bus in (shared, alone):
            publish(bus, 0, 8)
        assert beside.entries == only.entries
        assert beside.stats() == only.stats()
        assert [e["seq"] for e in beside.entries] == [3, 4, 5, 6, 7]
        assert len(shared.history) == 8

    def test_recorder_seq_counts_its_own_records(self):
        bus = EventBus()
        publish(bus, 0, 3)
        recorder = FlightRecorder(bus)
        publish(bus, 3, 5)
        assert [(e["seq"], e["i"]) for e in recorder.entries] == [(0, 3), (1, 4)]

    def test_ring_is_no_longer_than_the_largest_bound(self):
        bus = EventBus()
        recorder = FlightRecorder(bus, capacity=5)
        publish(bus, 0, 2_000)
        assert len(bus.journal) == 5
        assert [e["i"] for e in recorder.entries] == list(range(1_995, 2_000))
        assert recorder.stats()["overwritten"] == 1_995
        wider = FlightRecorder(bus, capacity=50)
        publish(bus, 2_000, 2_100)
        assert len(bus.journal) == 50
        assert len(wider.entries) == 50 and len(recorder.entries) == 5

    def test_detached_view_reads_what_the_ring_holds(self):
        bus = EventBus()
        early = FlightRecorder(bus, capacity=10)
        publish(bus, 0, 10)
        early.detach()
        late = FlightRecorder(bus, capacity=100)
        publish(bus, 10, 100)
        assert [e["i"] for e in early.entries] == list(range(10))
        publish(bus, 100, 105)
        assert [e["i"] for e in early.entries] == list(range(5, 10))
        assert early.stats()["recorded"] == 10
        assert early.stats()["retained"] == 5
        assert [e["i"] for e in late.entries] == list(range(10, 105))

    def test_view_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            JournalView(0)


class TestWindows:
    def test_recorder_detach_reattach(self):
        bus = EventBus()
        recorder = FlightRecorder(bus, capacity=4)
        publish(bus, 0, 3)
        recorder.detach()
        publish(bus, 3, 6)
        recorder.attach_bus(bus)
        publish(bus, 6, 8)
        assert [(e["seq"], e["i"]) for e in recorder.entries] == [
            (1, 1),
            (2, 2),
            (3, 6),
            (4, 7),
        ]
        assert recorder.stats() == {
            "recorded": 5,
            "retained": 4,
            "overwritten": 1,
            "spilled": 0,
        }

    def test_observer_detach_reattach(self):
        bus = EventBus()
        observer = RunObserver(bus)
        other = FlightRecorder(bus)
        bus.publish("engine.node_launched", {"node": "a"})
        observer.detach()
        bus.publish("engine.node_launched", {"node": "b"})
        observer.attach_bus(bus)
        bus.publish("engine.node_launched", {"node": "c"})
        assert [e.detail["node"] for e in observer.events] == ["a", "c"]
        assert other.stats()["recorded"] == 3


class TestSpilling:
    def test_two_spilling_recorders_share_a_bus(self, tmp_path):
        bus = EventBus()
        first = FlightRecorder(bus, spill_path=str(tmp_path / "a.jsonl"))
        publish(bus, 0, 3)
        second = FlightRecorder(bus, spill_path=str(tmp_path / "b.jsonl"))
        publish(bus, 3, 5)
        first.close()
        second.close()
        assert bus.stats()["taps"] == 0
        a = load_recording(str(tmp_path / "a.jsonl"))
        b = load_recording(str(tmp_path / "b.jsonl"))
        assert [(e["seq"], e["i"]) for e in a] == [(i, i) for i in range(5)]
        assert [(e["seq"], e["i"]) for e in b] == [(0, 3), (1, 4)]
        assert first.stats()["spilled"] == 5 and second.stats()["spilled"] == 2
