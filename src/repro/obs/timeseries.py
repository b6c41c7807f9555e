"""Bounded ring-buffer time-series store for the live telemetry plane.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what is the
value *now*"; this module answers "what has it been doing".  A
:class:`TimeSeriesStore` holds one :class:`Series` ring per (name,
labels) pair, downsampled into fixed-step buckets on the **simulation
clock**, with per-series retention (``capacity`` buckets — the oldest
bucket falls off when a newer one arrives).  Histograms are tracked as
:class:`HistogramSeries`: periodic snapshots of the cumulative bucket
counts, so windowed quantiles come from count *deltas* between two
snapshots rather than the whole run.

Design mirrors the registry on purpose:

* **cheap when off** — a store constructed with ``enabled=False`` hands
  out shared no-op series and records nothing;
* **mergeable** — :meth:`TimeSeriesStore.snapshot` /
  :meth:`TimeSeriesStore.merge` fold bucket-aligned points across
  processes the way registry snapshots fold counters;
* **export-agnostic** — :meth:`dump_jsonl` / :meth:`to_csv` are pure
  renderings of the rings.

Feeding happens on a cadence: :class:`PeriodicCollector` re-runs the
end-of-run scrapers against the live registry and samples every registry
family into the store on a recurring reactor timer, so ``/timeseries``
and the drift/health layers see the same numbers ``/metrics`` serves.

A tick costs what changed, not what has ever run.  The store keeps each
family's instruments paired with their series, so a tick builds no label
keys, and an instrument still at the value its series last sampled is
*held*: the tick stores nothing for it, and every read replays the held
value over the ticks taken since, exactly as if each tick had been stored
(see :class:`Series`).  Reads never write, so the HTTP server's thread
can make them while the reactor thread ticks.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from .export import atomic_write_text
from .metrics import LabelItems, _label_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..reactor import Reactor, TimerHandle
    from .metrics import MetricsRegistry

__all__ = [
    "Series",
    "HistogramSeries",
    "TimeSeriesStore",
    "PeriodicCollector",
]

#: Point layout: bucket start time, observation count, sum, min, max,
#: last.  A :class:`Series` ring is one flat list of such six-slot runs
#: (a list per point would be one more object per point for the garbage
#: collector to walk); reads slice it into one list per point.
_T, _N, _SUM, _MIN, _MAX, _LAST = range(6)
_WIDTH = 6


def _fold(ring: list, value: float) -> None:
    """Add one observation to the newest bucket of a flat ring (its count,
    sum, min, max and last are the five trailing slots).  Every path that
    writes or replays an observation uses this, so they agree to the last
    bit."""
    ring[-5] += 1
    ring[-4] += value
    if value < ring[-3]:
        ring[-3] = value
    if value > ring[-2]:
        ring[-2] = value
    ring[-1] = value


def _rows(ring: list[float]) -> list[list[float]]:
    """A flat ring as one six-slot list per point."""
    return [ring[i : i + _WIDTH] for i in range(0, len(ring), _WIDTH)]


class _TickLog:
    """A store's recent collector ticks, run-length encoded by bucket.

    One ``(bucket, first tick number, ticks)`` entry per bucket of the
    store's step, at most ``capacity`` entries.  Held series replay their
    value over these ticks when read.  Older ticks cannot change any read:
    a series held since before the first entry has had ``capacity`` new
    buckets since its last stored point, so its own ring of that capacity
    has evicted everything older.
    """

    __slots__ = ("step", "capacity", "entries", "ticks")

    def __init__(self, step: float, capacity: int) -> None:
        self.step = step
        self.capacity = capacity
        self.entries: list[tuple[float, int, int]] = []
        #: Ticks taken so far, which is also the number of the next one.
        self.ticks = 0

    def advance(self, now: float) -> float:
        """Record one tick at *now* and return the bucket it counts in (a
        late tick folds into the newest bucket, as a late sample does)."""
        bucket = math.floor(now / self.step) * self.step
        entries = self.entries
        if entries and bucket <= entries[-1][0]:
            bucket, first, count = entries[-1]
            entries[-1] = (bucket, first, count + 1)
        else:
            entries.append((bucket, self.ticks, 1))
            if len(entries) > self.capacity:
                del entries[0]
        self.ticks += 1
        return bucket


class Series:
    """One metric's history: fixed-step buckets in a bounded ring.

    ``kind`` shapes the window queries:

    * ``"gauge"``   — sampled level; :meth:`rate` is the slope;
    * ``"counter"`` — sampled monotone total; :meth:`rate` is the delta
      of *last* values over the window span;
    * ``"event"``   — each observation is one occurrence; :meth:`rate`
      is occurrences per second.

    A series the collector samples may be *held*: when a tick finds the
    instrument still at the value it last sampled, the tick stores
    nothing, and every read replays that value over the ticks taken since
    (:meth:`_view`), with the arithmetic :meth:`observe` would have used.
    Reads never write, so the HTTP server's thread may make them while the
    reactor thread ticks.
    """

    __slots__ = (
        "name",
        "labels",
        "kind",
        "step",
        "capacity",
        "_points",
        "_log",
        "_held",
        "_held_from",
    )

    def __init__(
        self,
        name: str,
        *,
        labels: LabelItems = (),
        kind: str = "gauge",
        step: float = 1.0,
        capacity: int = 512,
    ) -> None:
        if step <= 0:
            raise ValueError(f"step must be positive, got {step!r}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity!r}")
        if kind not in ("gauge", "counter", "event"):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.labels = labels
        self.kind = kind
        self.step = step
        self.capacity = capacity
        self._points: list[float] = []
        #: The owning store's tick log; None when this series may not be
        #: held (standalone, or a step or capacity other than the store's).
        self._log: _TickLog | None = None
        #: The value held since tick number ``_held_from``, or None.
        self._held: float | None = None
        self._held_from = 0

    def __len__(self) -> int:
        return len(self._view()) // _WIDTH

    def observe(self, t: float, value: float = 1.0) -> None:
        """Record *value* at simulation time *t* (downsampled into the
        ``t // step`` bucket; out-of-order samples fold into the newest
        bucket rather than being dropped)."""
        self._settle()
        self._observe(t, value)

    def _observe(self, t: float, value: float) -> None:
        bucket = math.floor(t / self.step) * self.step
        points = self._points
        if points and bucket <= points[-_WIDTH]:
            _fold(points, value)
            return
        points += (bucket, 1, value, value, value, value)
        if len(points) > _WIDTH * self.capacity:
            del points[:_WIDTH]

    # -- held samples (collector, reactor thread) ----------------------------

    def _sample(self, now: float, value: float, bucket: float, tick: int) -> None:
        """Collector tick number *tick* found a new *value*: store it, and
        hold it if its point is the tick's own bucket (not one a merge or
        a late sample pushed ahead of the clock)."""
        if self._held is not None:
            self._settle(tick)
        self._observe(now, value)
        if self._log is not None and self._points[-_WIDTH] == bucket:
            self._held = value
            self._held_from = tick + 1

    def _settle(self, until: int | None = None) -> None:
        """Write the held value's ticks (those numbered below *until*, by
        default all taken) into the ring and stop holding."""
        if self._held is not None:
            points = self._view(until)
            self._held = None
            self._points = points

    def _view(self, until: int | None = None) -> list[float]:
        """The flat ring as eager sampling would have left it: the stored
        points plus the held value replayed over ticks ``[_held_from,
        until)``.  Pure: a replay works on a copy."""
        held = self._held
        points = self._points
        log = self._log
        if held is None or log is None:
            return points
        held_from = self._held_from
        if until is None:
            until = log.ticks
        if held_from >= until:
            return points
        view = points[:]
        for bucket, first, count in list(log.entries):
            n = min(first + count, until) - max(first, held_from)
            if n <= 0:
                continue
            if bucket > view[-_WIDTH]:
                view += (bucket, 1, held, held, held, held)
                n -= 1
            for _ in range(n):
                _fold(view, held)
        excess = len(view) - _WIDTH * self.capacity
        if excess > 0:
            del view[:excess]
        return view

    # -- window queries ------------------------------------------------------

    def points(
        self, since: float | None = None, until: float | None = None
    ) -> list[dict[str, float]]:
        """JSON-safe points in ``[since, until]`` (whole ring by default)."""
        return [
            {
                "t": p[_T],
                "count": p[_N],
                "sum": p[_SUM],
                "min": p[_MIN],
                "max": p[_MAX],
                "last": p[_LAST],
            }
            for p in self._window(since, until)
        ]

    def _window(
        self, since: float | None, until: float | None
    ) -> list[list[float]]:
        out = _rows(self._view())
        if since is not None:
            out = [p for p in out if p[_T] >= since]
        if until is not None:
            out = [p for p in out if p[_T] <= until]
        return out

    def latest(self) -> float | None:
        """Most recent observed value, or None on an empty ring."""
        if self._held is not None:
            return self._held
        points = self._points
        return points[-1] if points else None

    def mean(self, since: float | None = None) -> float | None:
        """Mean of the raw observations in the window."""
        window = self._window(since, None)
        total = sum(p[_N] for p in window)
        if not total:
            return None
        return sum(p[_SUM] for p in window) / total

    def rate(self, since: float | None = None) -> float | None:
        """Per-second rate over the window (see class docstring for how
        each kind derives it); None when the window can't support one."""
        window = self._window(since, None)
        if not window:
            return None
        if self.kind == "event":
            span = window[-1][_T] - window[0][_T] + self.step
            return sum(p[_N] for p in window) / span
        if len(window) < 2:
            return None
        span = window[-1][_T] - window[0][_T]
        if span <= 0:
            return None
        return (window[-1][_LAST] - window[0][_LAST]) / span


class HistogramSeries:
    """Periodic snapshots of one histogram's cumulative bucket counts.

    Each sample stores ``(bucket_time, counts_tuple, count, sum)``;
    :meth:`quantile` differences the first and last snapshot of a window
    and reads the bucket-resolution quantile off the *delta* counts —
    "p95 over the last 60 virtual seconds", not since process start.
    """

    __slots__ = ("name", "labels", "bounds", "step", "capacity", "_samples")

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...],
        *,
        labels: LabelItems = (),
        step: float = 1.0,
        capacity: int = 512,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.step = step
        self.capacity = capacity
        self._samples: list[tuple[float, tuple[int, ...], int, float]] = []

    def __len__(self) -> int:
        return len(self._samples)

    def sample(
        self, t: float, counts: list[int] | tuple[int, ...], count: int, total: float
    ) -> None:
        bucket = math.floor(t / self.step) * self.step
        record = (bucket, tuple(counts), count, total)
        if self._samples and bucket <= self._samples[-1][0]:
            self._samples[-1] = record
            return
        self._samples.append(record)
        if len(self._samples) > self.capacity:
            del self._samples[0]

    def _delta(
        self, since: float | None
    ) -> tuple[list[int], int, float] | None:
        if not self._samples:
            return None
        newest = self._samples[-1]
        base: tuple[float, tuple[int, ...], int, float] | None = None
        if since is not None:
            for record in reversed(self._samples):
                if record[0] < since:
                    base = record
                    break
        if base is None:
            counts = list(newest[1])
            return counts, newest[2], newest[3]
        counts = [n - b for n, b in zip(newest[1], base[1])]
        return counts, newest[2] - base[2], newest[3] - base[3]

    def quantile(self, q: float, since: float | None = None) -> float:
        """Windowed bucket-resolution quantile (upper bound of the bucket
        holding the q-th delta observation; NaN on an empty window)."""
        delta = self._delta(since)
        if delta is None or delta[1] <= 0:
            return float("nan")
        counts, count, _ = delta
        target = q * count
        seen = 0
        for i, n in enumerate(counts):
            seen += n
            if seen >= target and n:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def observations(self, since: float | None = None) -> int:
        delta = self._delta(since)
        return 0 if delta is None else delta[1]


class _NullSeries:
    """Shared do-nothing series a disabled store hands out."""

    __slots__ = ()
    name = ""
    labels: LabelItems = ()
    kind = "gauge"
    step = 1.0
    capacity = 0

    def __len__(self) -> int:
        return 0

    def observe(self, t: float, value: float = 1.0) -> None:
        pass

    def points(self, since=None, until=None):
        return []

    def latest(self):
        return None

    def mean(self, since=None):
        return None

    def rate(self, since=None):
        return None


_NULL_SERIES = _NullSeries()


class TimeSeriesStore:
    """Label-keyed table of bounded series rings.

    ``step`` and ``capacity`` are store-wide defaults; individual series
    may override both.  A store constructed with ``enabled=False``
    returns the shared no-op series and records nothing — the disabled
    telemetry path stays allocation-free.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        step: float = 1.0,
        capacity: int = 512,
    ) -> None:
        self.enabled = enabled
        self.step = step
        self.capacity = capacity
        self._series: dict[tuple[str, LabelItems], Series] = {}
        self._histograms: dict[tuple[str, LabelItems], HistogramSeries] = {}
        self._log = _TickLog(step, capacity)
        #: The registry :meth:`collect` last sampled, and one entry per
        #: family of it, in registration order.
        self._source: "MetricsRegistry | None" = None
        self._tracked: list[_Tracked] = []

    # -- series lookup -------------------------------------------------------

    def series(
        self,
        name: str,
        *,
        kind: str = "gauge",
        step: float | None = None,
        capacity: int | None = None,
        **labels: Any,
    ) -> Series | _NullSeries:
        if not self.enabled:
            return _NULL_SERIES
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._new_series(key, kind, step, capacity)
        return series

    def _new_series(
        self,
        key: tuple[str, LabelItems],
        kind: str,
        step: float | None = None,
        capacity: int | None = None,
    ) -> Series:
        series = self._series[key] = Series(
            key[0],
            labels=key[1],
            kind=kind,
            step=step if step is not None else self.step,
            capacity=capacity if capacity is not None else self.capacity,
        )
        log = self._log
        if series.step == log.step and series.capacity == log.capacity:
            series._log = log
        return series

    def histogram_series(
        self,
        name: str,
        bounds: tuple[float, ...],
        *,
        step: float | None = None,
        capacity: int | None = None,
        **labels: Any,
    ) -> HistogramSeries | None:
        if not self.enabled:
            return None
        key = (name, _label_key(labels))
        series = self._histograms.get(key)
        if series is None:
            series = HistogramSeries(
                name,
                bounds,
                labels=key[1],
                step=step if step is not None else self.step,
                capacity=capacity if capacity is not None else self.capacity,
            )
            self._histograms[key] = series
        return series

    def observe(
        self, name: str, t: float, value: float = 1.0, *, kind: str = "gauge",
        **labels: Any,
    ) -> None:
        self.series(name, kind=kind, **labels).observe(t, value)

    # -- registry sampling ---------------------------------------------------

    def collect(self, registry: "MetricsRegistry", now: float) -> None:
        """Sample every registry family into the store at time *now*:
        counters and gauges land in value series, histograms in
        cumulative-count snapshots.

        A counter or gauge still holding the value object (or an equal
        nonzero float) its series last sampled is skipped: the series
        holds that value, and reads replay it over this tick.  Equal zeros
        are stored, since ``0.0 == -0.0``.
        """
        if not self.enabled:
            return
        tracked = self._track(registry)
        tick = self._log.ticks
        bucket = self._log.advance(now)
        for entry in tracked:
            if entry.histogram:
                for hist, track in zip(entry.instruments, entry.series):
                    track.sample(now, hist.counts, hist.count, hist.sum)
                continue
            for instrument, series in zip(entry.instruments, entry.series):
                value = instrument.value
                held = series._held
                if value is held or (held is not None and value == held and value):
                    continue
                series._sample(now, value, bucket, tick)

    def _track(self, registry: "MetricsRegistry") -> "list[_Tracked]":
        """Bring the (instrument, series) pairs up to date with *registry*.

        A registry only ever appends families and instruments until
        :meth:`MetricsRegistry.clear`, which replaces its families with new
        objects, so an identity check per family and a length check on its
        series find everything that changed.
        """
        tracked = self._tracked
        if registry is not self._source:
            self._release(0)
            self._source = registry
        i = 0
        for family in registry.families():
            if i < len(tracked) and tracked[i].family is family:
                entry = tracked[i]
            else:
                self._release(i)
                entry = _Tracked(family)
                tracked.append(entry)
            if len(family.series) != entry.seen:
                self._pair(entry)
            i += 1
        if i < len(tracked):
            self._release(i)
        return tracked

    def _pair(self, entry: "_Tracked") -> None:
        """Pair the instruments added to a family since it was last seen."""
        family = entry.family
        name = family.name
        added = islice(family.series.items(), entry.seen, None)
        add_instrument = entry.instruments.append
        add_series = entry.series.append
        if entry.histogram:
            tracks = self._histograms
            for key, hist in added:
                track = tracks.get((name, key))
                if track is None:
                    track = tracks[(name, key)] = HistogramSeries(
                        name,
                        hist.bounds,
                        labels=key,
                        step=self.step,
                        capacity=self.capacity,
                    )
                add_instrument(hist)
                add_series(track)
        else:
            kind = "counter" if family.kind == "counter" else "gauge"
            known = self._series
            for key, instrument in added:
                series = known.get((name, key))
                if series is None:
                    series = self._new_series((name, key), kind)
                add_instrument(instrument)
                add_series(series)
        entry.seen = len(family.series)

    def _release(self, start: int) -> None:
        """Stop sampling the families tracked from index *start* on (their
        registry was cleared or replaced): each held series keeps its
        value through the last tick taken, and no later one."""
        for entry in self._tracked[start:]:
            if not entry.histogram:
                for series in entry.series:
                    series._settle()
        del self._tracked[start:]

    # -- queries -------------------------------------------------------------

    def names(self) -> list[str]:
        names = {name for name, _ in self._series}
        names.update(name for name, _ in self._histograms)
        return sorted(names)

    def get(self, name: str, **labels: Any) -> Series | None:
        return self._series.get((name, _label_key(labels)))

    def all_series(self) -> Iterator[Series]:
        return iter(self._series.values())

    def matching(self, name: str) -> list[Series]:
        """Every labelled series of one family name."""
        return [s for (n, _), s in self._series.items() if n == name]

    def matching_histograms(self, name: str) -> list[HistogramSeries]:
        return [s for (n, _), s in self._histograms.items() if n == name]

    # -- snapshots (cross-process aggregation) -------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of every series ring (the merge wire format)."""
        out: dict[str, list[dict[str, Any]]] = {}
        for (name, _key), series in self._series.items():
            out.setdefault(name, []).append(
                {
                    "labels": dict(series.labels),
                    "kind": series.kind,
                    "step": series.step,
                    "points": series.points(),
                }
            )
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another store's :meth:`snapshot` into this one: points
        align by bucket time (counts/sums add, min/max widen, the later
        snapshot's *last* wins)."""
        if not self.enabled:
            return
        for name, records in snapshot.items():
            for record in records:
                series = self.series(
                    name, kind=record.get("kind", "gauge"), **record["labels"]
                )
                series._settle()
                rows = _rows(series._points)
                by_bucket = {p[_T]: p for p in rows}
                for point in record["points"]:
                    mine = by_bucket.get(point["t"])
                    if mine is None:
                        rows.append(
                            [
                                point["t"],
                                point["count"],
                                point["sum"],
                                point["min"],
                                point["max"],
                                point["last"],
                            ]
                        )
                    else:
                        mine[_N] += point["count"]
                        mine[_SUM] += point["sum"]
                        mine[_MIN] = min(mine[_MIN], point["min"])
                        mine[_MAX] = max(mine[_MAX], point["max"])
                        mine[_LAST] = point["last"]
                rows.sort(key=lambda p: p[_T])
                if len(rows) > series.capacity:
                    del rows[: len(rows) - series.capacity]
                series._points = [x for row in rows for x in row]

    # -- exports -------------------------------------------------------------

    def dump_jsonl(self, path: str | Path) -> int:
        """One JSON line per series ring; returns the line count."""
        lines = []
        for (name, _key), series in sorted(
            self._series.items(), key=lambda item: item[0]
        ):
            lines.append(
                json.dumps(
                    {
                        "series": name,
                        "labels": dict(series.labels),
                        "kind": series.kind,
                        "step": series.step,
                        "points": series.points(),
                    },
                    sort_keys=True,
                )
            )
        atomic_write_text(path, "".join(line + "\n" for line in lines))
        return len(lines)

    def to_csv(self, name: str | None = None) -> str:
        """Flat CSV of the rings (one row per point), optionally filtered
        to one family name."""
        rows = ["series,labels,t,count,sum,min,max,last"]
        for (family, _key), series in sorted(
            self._series.items(), key=lambda item: item[0]
        ):
            if name is not None and family != name:
                continue
            label_text = ";".join(f"{k}={v}" for k, v in series.labels)
            for p in series.points():
                rows.append(
                    f"{family},{label_text},{p['t']:g},{p['count']:g},"
                    f"{p['sum']:g},{p['min']:g},{p['max']:g},{p['last']:g}"
                )
        return "\n".join(rows) + "\n"


class _Tracked:
    """One registry family as :meth:`TimeSeriesStore.collect` samples it:
    its instruments, the series (or histogram track) of each at the same
    index, and how many of the family's instruments they cover.  Two flat
    lists rather than a list of pairs: a pair tuple per instrument would
    be one more object for the garbage collector to walk."""

    __slots__ = ("family", "histogram", "instruments", "series", "seen")

    def __init__(self, family: Any) -> None:
        self.family = family
        self.histogram = family.kind == "histogram"
        self.instruments: list[Any] = []
        self.series: list[Any] = []
        self.seen = 0


class PeriodicCollector:
    """Recurring reactor timer feeding the store from the live registry.

    Each tick runs the registered *scrapers* (callables taking the
    registry — the CLI passes closures over :func:`scrape_bus`,
    :func:`scrape_kernel`, :func:`scrape_detector`), lets the estimator
    suite export its gauges, samples every registry family into the
    store, and finally evaluates the health rules — one cadence for the
    whole statistical plane, in dependency order.
    """

    def __init__(
        self,
        *,
        store: TimeSeriesStore,
        registry: "MetricsRegistry",
        reactor: "Reactor",
        interval: float = 5.0,
        scrapers: tuple[Callable[["MetricsRegistry"], None], ...] = (),
        estimators: Any = None,
        health: Any = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.store = store
        self.registry = registry
        self.interval = interval
        self.scrapers = tuple(scrapers)
        self.estimators = estimators
        self.health = health
        self.ticks = 0
        self._reactor = reactor
        self._handle: "TimerHandle | None" = None
        self._running = False

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._schedule()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _schedule(self) -> None:
        self._handle = self._reactor.call_later(self.interval, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.tick()
        self._schedule()

    def tick(self, now: float | None = None) -> None:
        """One collection pass (callable directly for tests/benchmarks)."""
        at = self._reactor.now() if now is None else now
        for scraper in self.scrapers:
            scraper(self.registry)
        if self.estimators is not None:
            self.estimators.export(self.registry)
        self.store.collect(self.registry, at)
        if self.health is not None:
            self.health.evaluate(at)
        self.ticks += 1
