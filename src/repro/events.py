"""A small synchronous publish/subscribe event bus.

Grid-WFS components are wired together with events rather than direct calls:
the simulated Grid publishes heartbeat and notification messages, the failure
detection service consumes them and publishes task-state changes, and the
engine consumes those to drive navigation and recovery.  Keeping the bus
synchronous and single-threaded (per reactor) preserves determinism inside
the discrete-event simulation.

Topics are plain strings.  Subscribers receive the published payload object.
Hierarchical matching is supported with a ``*`` wildcard, e.g. a
subscription to ``"task.*"`` receives ``"task.done"`` and ``"task.failed"``.
``*`` is the *only* metacharacter: ``?`` and ``[`` are ordinary characters,
so topic names containing them cannot mis-match (earlier versions used
:mod:`fnmatch` rules, where ``"data.[raw]"`` silently became a character
class).

Dispatch is the bus's hot path: a multiplexed engine host pushes every
task-state change, heartbeat suspicion and engine lifecycle event of N
concurrent workflows through one bus.  Publishing therefore never scans the
pattern list per event.  Patterns are classified once at subscription time —

* no ``*``                    → exact-topic dict entry;
* one trailing ``*``          → pre-split prefix test (``"task.*"`` keeps
  ``"task."`` and matches with ``str.startswith``);
* anything else (rare)        → anchored regex, compiled once —

and, while at least one pattern is subscribed, every published topic's
matching handler groups are interned in a per-topic **route cache**: the
first publish on a topic resolves its route (exact dict + matching
pattern entries); subsequent publishes are a single dict lookup.  Routes
hold references to the live handler dicts, so subscriber churn on existing
patterns never invalidates them; only the appearance or pruning of a
pattern/topic does.  With no pattern subscribed the exact-topic dict *is*
the route, and nothing is cached: a long-lived host publishing one topic
per workflow instance (``task.active.wf-N``) would otherwise intern a dead
route for every instance it ever ran.

Publishers whose payload costs something to build ask :meth:`EventBus.wants`
first.  It is true iff a publish on the topic would reach a tap or a
handler, so a payload skipped because it is false is one no one would have
seen; publishes that do happen are delivered in the same order either way.

Each bus keeps one journal of its publishes, :class:`EventJournal`.
Every consumer of past events (the history, the run observer, the flight
recorder) is a :class:`JournalView` over it, reading its own attach
windows, in publish order.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "EventBus",
    "Subscription",
    "EventRecord",
    "BusSubscriber",
    "EventJournal",
    "JournalView",
]

Handler = Callable[[str, Any], None]

#: Route-cache safety valve: a pathological workload publishing unbounded
#: distinct topics (e.g. ids in topic names without ever re-publishing)
#: drops the cache rather than growing it forever.
_MAX_CACHED_ROUTES = 65536


@dataclass(frozen=True, slots=True)
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`, used to unsubscribe."""

    pattern: str
    handler: Handler
    token: int


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One published event, as retained by :meth:`EventBus.enable_history`."""

    seq: int
    topic: str
    payload: Any


def _compile_pattern(pattern: str) -> re.Pattern[str]:
    """Anchored regex for a ``*``-wildcard pattern; everything else is
    matched literally (``?``/``[`` included)."""
    return re.compile(
        ".*".join(re.escape(part) for part in pattern.split("*")) + r"\Z"
    )


class _PatternEntry:
    """One wildcard pattern and its live handlers.

    ``prefix`` is the pre-split fast path: for single-trailing-``*``
    patterns it holds everything before the star, and matching is a
    ``startswith`` instead of a regex search.  ``regex`` backs the general
    case (and :meth:`matches` falls through to it only then).
    """

    __slots__ = ("pattern", "prefix", "regex", "handlers")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        star = pattern.find("*")
        if star == len(pattern) - 1:
            self.prefix: str | None = pattern[:-1]
            self.regex: re.Pattern[str] | None = None
        else:
            self.prefix = None
            self.regex = _compile_pattern(pattern)
        self.handlers: dict[int, Handler] = {}

    def matches(self, topic: str) -> bool:
        if self.prefix is not None:
            return topic.startswith(self.prefix)
        return self.regex.match(topic) is not None  # type: ignore[union-attr]


class EventBus:
    """Synchronous topic-based pub/sub with wildcard patterns.

    Publishing invokes matching handlers immediately, in subscription order
    (exact subscriptions before pattern subscriptions, patterns in first-
    subscription order).  Handlers may themselves publish; recursive
    publishes are delivered depth-first.  Handlers may unsubscribe
    themselves (or others) during delivery: delivery iterates over a
    snapshot of the handler list.
    """

    def __init__(self) -> None:
        self._exact: dict[str, dict[int, Handler]] = {}
        self._patterns: list[_PatternEntry] = []
        self._pattern_index: dict[str, _PatternEntry] = {}
        #: topic → handler-dict groups that match it, resolved lazily.
        self._routes: dict[str, tuple[dict[int, Handler], ...]] = {}
        self._next_token = 0
        self._seq = 0
        #: The bus's one journal of past publishes (module docstring).
        self.journal = EventJournal(self)
        self._history_view: JournalView | None = None
        #: Every-event observers (the journal) invoked on each publish
        #: *before* routed dispatch — in publish order, ahead of any
        #: recursive publishes a handler triggers.  A tuple so the empty
        #: common case costs one truthiness check on the hot path; taps
        #: bypass route resolution entirely (a ``"*"`` subscription would
        #: put one more group into every topic's route).
        self._taps: tuple[Handler, ...] = ()
        #: Number of route resolutions (full matching passes).  A healthy
        #: steady state publishes many times per build; tests and the bus
        #: micro-benchmark assert on it.
        self.route_builds = 0

    # -- subscription ------------------------------------------------------

    def subscribe(self, pattern: str, handler: Handler) -> Subscription:
        """Register *handler* for topics matching *pattern*.

        Patterns without a ``*`` are matched exactly; patterns containing
        ``*`` match any substring at each wildcard position.  Classification
        (exact / prefix / regex) happens here, never per publish.
        """
        token = self._next_token
        self._next_token += 1
        if "*" in pattern:
            entry = self._pattern_index.get(pattern)
            if entry is None:
                entry = _PatternEntry(pattern)
                self._patterns.append(entry)
                self._pattern_index[pattern] = entry
                # A new pattern may match already-routed topics.
                self._routes.clear()
            entry.handlers[token] = handler
        else:
            handlers = self._exact.get(pattern)
            if handlers is None:
                self._exact[pattern] = {token: handler}
                # Only the identical topic can be affected.
                if self._routes:
                    self._routes.pop(pattern, None)
            else:
                handlers[token] = handler
        return Subscription(pattern, handler, token)

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a previously registered subscription.  Idempotent.

        Pattern/topic groups whose last handler leaves are pruned, so
        long-lived buses with subscriber churn (a multiplexed host running
        thousands of workflow instances) never accumulate dead entries.
        """
        if "*" in sub.pattern:
            entry = self._pattern_index.get(sub.pattern)
            if entry is None:
                return
            entry.handlers.pop(sub.token, None)
            if not entry.handlers:
                del self._pattern_index[sub.pattern]
                self._patterns.remove(entry)
                # Cached routes reference the dead entry's handler dict; a
                # later re-subscribe would create a fresh dict the stale
                # routes don't know about.
                self._routes.clear()
        else:
            handlers = self._exact.get(sub.pattern)
            if handlers is None:
                return
            handlers.pop(sub.token, None)
            if not handlers:
                del self._exact[sub.pattern]
                if self._routes:
                    self._routes.pop(sub.pattern, None)

    def add_tap(self, handler: Handler) -> None:
        """Register *handler* to observe every publish (see ``_taps``).
        Idempotent: a handler already tapped is not added twice."""
        if handler not in self._taps:
            self._taps = (*self._taps, handler)

    def remove_tap(self, handler: Handler) -> None:
        """Remove a previously added tap.  Idempotent.

        Matches by equality, not identity: ``obj.method`` creates a fresh
        bound-method object per access, and two of them compare equal.
        """
        self._taps = tuple(t for t in self._taps if t != handler)

    # -- publication -------------------------------------------------------

    def _build_route(self, topic: str) -> tuple[dict[int, Handler], ...]:
        """Resolve the handler groups matching *topic* (the slow path, run
        once per distinct topic per subscription-set change)."""
        self.route_builds += 1
        groups: list[dict[int, Handler]] = []
        exact = self._exact.get(topic)
        if exact is not None:
            groups.append(exact)
        for entry in self._patterns:
            if entry.matches(topic):
                groups.append(entry.handlers)
        if len(self._routes) >= _MAX_CACHED_ROUTES:
            self._routes.clear()
        route = tuple(groups)
        self._routes[topic] = route
        return route

    def _route(self, topic: str) -> tuple[dict[int, Handler], ...]:
        """The handler groups matching *topic* while patterns exist."""
        route = self._routes.get(topic)
        if route is None:
            route = self._build_route(topic)
        return route

    def wants(self, topic: str) -> bool:
        """Whether a publish on *topic* would reach a tap or a handler.

        Publishers guard payloads that cost something to build with this,
        building them only when someone will see them; skipping a publish
        this returns false for changes nothing any tap (the journal
        included) or subscriber observes.
        """
        if self._taps or topic in self._exact:
            return True
        if self._patterns:
            for handlers in self._route(topic):
                if handlers:
                    return True
        return False

    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish *payload* on *topic*; returns number of handlers invoked."""
        self._seq += 1
        taps = self._taps
        if taps:
            for tap in taps:
                tap(topic, payload)
        if not self._patterns:
            handlers = self._exact.get(topic)
            if handlers is None:
                return 0
            delivered = 0
            for handler in list(handlers.values()):
                handler(topic, payload)
                delivered += 1
            return delivered
        delivered = 0
        for handlers in self._route(topic):
            # A group may be empty between its last unsubscribe and the
            # prune/invalidation (exact dicts are pruned eagerly; pattern
            # dicts referenced by this route may have just drained).
            if handlers:
                for handler in list(handlers.values()):
                    handler(topic, payload)
                    delivered += 1
        return delivered

    # -- diagnostics -------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Dispatch-path counters: interned topic routes, route builds
        (full matching passes), and live subscription-group counts.

        ``prefix_patterns`` / ``regex_patterns`` split the pattern
        entries by matching strategy, and ``prefix_fastpath_share`` is
        the fraction of live patterns on the ``startswith`` fast path —
        all derived here, never maintained on the publish path.
        """
        prefix_patterns = sum(
            1 for entry in self._patterns if entry.prefix is not None
        )
        return {
            "publishes": self._seq,
            "cached_routes": len(self._routes),
            "route_builds": self.route_builds,
            "exact_topics": len(self._exact),
            "pattern_entries": len(self._patterns),
            "prefix_patterns": prefix_patterns,
            "regex_patterns": len(self._patterns) - prefix_patterns,
            "prefix_fastpath_share": prefix_patterns
            / max(1, len(self._patterns)),
            "taps": len(self._taps),
        }

    def enable_history(self) -> None:
        """Start retaining every published event (for tests/diagnostics):
        an unbounded, always-attached view over the journal."""
        if self._history_view is None:
            self._history_view = JournalView(None)
            self._history_view.attach(self)

    @property
    def history(self) -> list[EventRecord]:
        """Events recorded since :meth:`enable_history`; empty if disabled."""
        if self._history_view is None:
            return []
        return [EventRecord(*record) for record in self._history_view.records()]

    def clear_history(self) -> None:
        """Start the history afresh.  Its old records stay in the journal's
        ring, which is unbounded while the history is on."""
        if self._history_view is not None:
            self._history_view.detach()
            self._history_view = None
            self.enable_history()


class BusSubscriber:
    """Base for a bus consumer whose handlers are its ``TOPICS``: pairs of
    a pattern and a method name, subscribed in that order by
    :meth:`attach_bus` (idempotent per bus) and unsubscribed by
    :meth:`detach` (idempotent)."""

    TOPICS: tuple[tuple[str, str], ...] = ()
    _bus: EventBus | None = None
    _subscriptions: tuple[Subscription, ...] = ()

    def attach_bus(self, bus: EventBus) -> Any:
        if self._bus is not bus or not self._subscriptions:
            self.detach()
            self._bus = bus
            self._subscriptions = tuple(
                bus.subscribe(pattern, getattr(self, name))
                for pattern, name in self.TOPICS
            )
        return self

    def detach(self) -> None:
        if self._bus is not None:
            for sub in self._subscriptions:
                self._bus.unsubscribe(sub)
        self._subscriptions = ()

    @property
    def attached(self) -> bool:
        return bool(self._subscriptions)


class JournalView:
    """One consumer's reading of a bus's :class:`EventJournal`: the
    records published while it was attached (its windows), at most the
    newest *bound* of them (``None``: no bound)."""

    __slots__ = ("bound", "journal", "_windows")

    def __init__(self, bound: int | None) -> None:
        if bound is not None and bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        self.bound = bound
        self.journal: EventJournal | None = None
        #: ``[start, stop]`` publish sequence numbers, ``stop`` None while
        #: attached.
        self._windows: list[list[Any]] = []

    @property
    def attached(self) -> bool:
        return bool(self._windows) and self._windows[-1][1] is None

    def attach(self, bus: EventBus) -> None:
        """Open a window on *bus* (idempotent).  Attaching to another bus
        starts a new reading."""
        if self.journal is not bus.journal:
            self.detach()
            self.journal, self._windows = bus.journal, []
        if not self.attached:
            self._windows.append([bus._seq, None])
            bus.journal._attach(self.bound)

    def detach(self) -> None:
        """Close the open window (idempotent); what it read stays readable."""
        if self.attached:
            self._windows[-1][1] = self.journal.bus._seq
            self.journal._detach()

    def _spans(self) -> list[tuple[int, int]]:
        end = self.journal.bus._seq if self._windows else 0
        return [(a, end if b is None else b) for a, b in self._windows]

    def recorded(self) -> int:
        """Records published in this view's windows."""
        return sum(stop - start for start, stop in self._spans())

    def records(self) -> list[tuple[int, str, Any]]:
        """What this view reads that the ring still holds, oldest first."""
        spans = self._spans()
        if not spans:
            return []
        ring = self.journal._ring
        out = [r for r in ring if any(a <= r[0] < b for a, b in spans)]
        return out if self.bound is None else out[-self.bound :]


class EventJournal:
    """The one journal of a bus's publishes.

    A bus tap, present while at least one :class:`JournalView` is
    attached, that appends ``(seq, topic, payload)`` records to one ring.
    The ring holds the newest records up to the largest bound an attached
    view has had (all of them once an unbounded view attached).
    """

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        self._ring: deque[tuple[int, str, Any]] = deque(maxlen=1)
        self._attached = 0

    def __len__(self) -> int:
        return len(self._ring)

    def _attach(self, bound: int | None) -> None:
        maxlen = self._ring.maxlen
        if maxlen is not None and (bound is None or bound > maxlen):
            self._ring = deque(self._ring, maxlen=bound)
        if not self._attached:
            self.bus.add_tap(self._record)
        self._attached += 1

    def _detach(self) -> None:
        self._attached -= 1
        if not self._attached:
            self.bus.remove_tap(self._record)

    def _record(self, topic: str, payload: Any) -> None:
        # The tap: one shallow copy guards a dict payload against
        # post-publish mutation; everything else is expanded when read.
        if type(payload) is dict:
            payload = dict(payload)
        self._ring.append((self.bus._seq - 1, topic, payload))
