"""Flight recorder: a bounded journal of every bus event, for post-mortems.

A failure-handling framework is judged in the moments *after* something
went wrong — and by then the interesting events have already happened.
:class:`FlightRecorder` is a bounded view over the bus's one event
journal (:class:`~repro.events.EventJournal`): it reads the last
*capacity* publishes made while it was attached, optionally spilling
each entry to a JSON-lines file as it arrives so a crash loses nothing.
``repro inspect`` (:mod:`repro.obs.postmortem`) rebuilds a
causally-linked per-workflow timeline from either source.

Entries are plain JSON-safe dicts built at read time from the published
payload contract — dict payloads (copied once, by the journal) flatten
into the entry, :class:`~repro.detection.detector.AttemptOutcome`-shaped
payloads are read duck-typed, anything else degrades to ``repr``.  An
entry's ``seq`` counts this recorder's own records from 0.  The recorder
never imports engine types and never raises out of the publishing path:
a broken payload becomes a journal entry complaining about itself rather
than a crashed run.
"""

from __future__ import annotations

import json
from typing import IO, Any

from ..events import EventBus, JournalView
from .export import atomic_write_text

__all__ = ["FlightRecorder", "JOURNAL_VERSION"]

#: Stamped into every spill file header line so ``repro inspect`` can
#: refuse recordings from an incompatible future layout.
JOURNAL_VERSION = 1
_HEADER = json.dumps({"journal_version": JOURNAL_VERSION}) + "\n"

#: AttemptOutcome attributes copied into a journal entry when present.
_OUTCOME_FIELDS = (
    "job_id",
    "activity",
    "hostname",
    "reason",
    "at",
    "workflow_id",
    "trace_id",
    "span_id",
    "parent_id",
)


def _json_safe(value: Any) -> Any:
    """Coerce one payload value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    name = getattr(value, "name", None)
    if isinstance(name, str):  # UserException and friends
        return name
    return repr(value)


def _expand(record: tuple[int, str, Any]) -> dict[str, Any]:
    """One raw ring record → the JSON-safe journal entry.

    Runs at read time (``entries`` / ``dump``) or in the spill writer —
    never on the spill-less recording hot path, which is the journal's
    append.  Dict payloads flatten into the entry, AttemptOutcome-shaped
    payloads are read duck-typed, anything else degrades to ``repr``.
    """
    seq, topic, payload = record
    entry: dict[str, Any] = {"seq": seq, "topic": topic}
    try:
        if isinstance(payload, dict):
            for key, value in payload.items():
                entry[str(key)] = _json_safe(value)
        elif hasattr(payload, "job_id"):
            for field_name in _OUTCOME_FIELDS:
                value = getattr(payload, field_name, None)
                if value not in (None, ""):
                    entry[field_name] = _json_safe(value)
            exception = getattr(payload, "exception", None)
            if exception is not None:
                entry["exception"] = _json_safe(exception)
        elif payload is not None:
            entry["payload"] = _json_safe(payload)
    except Exception as exc:  # a broken payload journals its own complaint
        entry["recorder_error"] = repr(exc)
    return entry


class FlightRecorder:
    """A bounded view over a bus's event journal, optionally spilled.

    *capacity* bounds what the recorder reads back (the oldest records
    are overwritten; :meth:`stats` counts the overwrites).  *spill_path*
    streams every entry to a JSON-lines file as it is published, so the
    on-disk journal is complete even when the view has wrapped — and even
    if the process dies mid-run, modulo OS buffering.  Any number of
    recorders, spilling or not, may share one bus.  Attaching to a
    different bus starts a new recording.
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        *,
        capacity: int = 65_536,
        spill_path: str | None = None,
    ) -> None:
        self._view = JournalView(capacity)  # rejects a nonpositive capacity
        self._spilled = 0
        self.spill_path = spill_path
        self._spill: IO[str] | None = None
        if spill_path is not None:
            self._spill = open(spill_path, "w", encoding="utf-8")
            self._spill.write(_HEADER)
        if bus is not None:
            self.attach_bus(bus)

    # -- wiring --------------------------------------------------------------

    def attach_bus(self, bus: EventBus) -> "FlightRecorder":
        """Record everything *bus* publishes.  Idempotent per bus.

        The journal is a bus *tap* (:meth:`EventBus.add_tap`) rather than
        a ``"*"`` subscription: a tap sees every publish in publish order
        without adding a group to every topic's dispatch route.  A
        spilling recorder adds one more tap, its spill writer.
        """
        if self._view.attached and self._view.journal is bus.journal:
            return self
        self.detach()
        self._view.attach(bus)
        if self._spill is not None:
            bus.add_tap(self._spill_event)
        return self

    def detach(self) -> None:
        """Stop recording (idempotent; the journal stays readable)."""
        if self._view.attached:
            self._view.journal.bus.remove_tap(self._spill_event)
            self._view.detach()

    def close(self) -> None:
        """Detach and flush/close the spill file, if any."""
        self.detach()
        if self._spill is not None:
            self._spill.close()
            self._spill = None

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- spilling ------------------------------------------------------------

    def _spill_event(self, topic: str, payload: Any) -> None:
        # The spill writer pays the expansion per event by design — a
        # complete on-disk journal is its whole point.  _expand never
        # raises: a broken payload journals its own complaint.
        entry = _expand((self._spilled, topic, payload))
        self._spill.write(json.dumps(entry) + "\n")  # type: ignore[union-attr]
        self._spilled += 1

    # -- reading -------------------------------------------------------------

    @property
    def entries(self) -> list[dict[str, Any]]:
        """The journal as JSON-safe entries, oldest first (what the view
        still holds), numbered from this recorder's first record."""
        records = self._view.records()
        first = self._view.recorded() - len(records)
        return [
            _expand((first + i, topic, payload))
            for i, (_seq, topic, payload) in enumerate(records)
        ]

    def stats(self) -> dict[str, int]:
        recorded = self._view.recorded()
        retained = len(self._view.records())
        return {
            "recorded": recorded,
            "retained": retained,
            "overwritten": recorded - retained,
            "spilled": self._spilled,
        }

    def dump(self, path: str) -> int:
        """Write the retained journal to *path* as JSON lines, atomically
        (:func:`~repro.obs.export.atomic_write_text`), under the same
        version header as a spill file.  Returns the entries written."""
        lines = [json.dumps(entry) + "\n" for entry in self.entries]
        atomic_write_text(path, _HEADER + "".join(lines))
        return len(lines)
