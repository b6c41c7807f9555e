"""Time-series store tests: fixed-step downsampling, ring retention,
per-kind rate queries, windowed histogram quantiles, registry sampling,
snapshot/merge folding, the JSONL/CSV dumps, the disabled no-op path,
and the PeriodicCollector cadence + tick ordering."""

from __future__ import annotations

import json
import math

import pytest

from repro.grid import SimReactor
from repro.obs import (
    HistogramSeries,
    MetricsRegistry,
    PeriodicCollector,
    Series,
    TimeSeriesStore,
)


class TestSeries:
    def test_downsamples_into_fixed_step_buckets(self):
        series = Series("s", step=10.0)
        series.observe(1.0, 4.0)
        series.observe(4.0, 8.0)
        series.observe(12.0, 2.0)
        points = series.points()
        assert [p["t"] for p in points] == [0.0, 10.0]
        first, second = points
        assert first["count"] == 2 and first["sum"] == 12.0
        assert first["min"] == 4.0 and first["max"] == 8.0
        assert first["last"] == 8.0
        assert second["count"] == 1 and second["last"] == 2.0
        assert series.latest() == 2.0

    def test_out_of_order_sample_folds_into_newest_bucket(self):
        series = Series("s", step=10.0)
        series.observe(25.0, 1.0)
        series.observe(3.0, 9.0)  # late arrival, not dropped
        (point,) = series.points()
        assert point["t"] == 20.0
        assert point["count"] == 2 and point["max"] == 9.0

    def test_ring_evicts_oldest_bucket(self):
        series = Series("s", step=1.0, capacity=4)
        for t in range(10):
            series.observe(float(t), float(t))
        assert len(series) == 4
        assert [p["t"] for p in series.points()] == [6.0, 7.0, 8.0, 9.0]

    def test_window_queries(self):
        series = Series("s", step=1.0)
        for t in range(6):
            series.observe(float(t), float(t))
        assert [p["t"] for p in series.points(since=2.0, until=4.0)] == [
            2.0,
            3.0,
            4.0,
        ]
        assert series.mean(since=4.0) == pytest.approx(4.5)
        assert series.mean() == pytest.approx(2.5)

    def test_gauge_rate_is_the_slope(self):
        series = Series("s", kind="gauge", step=1.0)
        series.observe(0.0, 10.0)
        series.observe(4.0, 30.0)
        assert series.rate() == pytest.approx(5.0)

    def test_counter_rate_is_delta_of_totals(self):
        series = Series("s", kind="counter", step=1.0)
        series.observe(0.0, 100.0)
        series.observe(10.0, 160.0)
        assert series.rate() == pytest.approx(6.0)
        assert series.rate(since=10.0) is None  # one-point window

    def test_event_rate_is_occurrences_per_second(self):
        series = Series("s", kind="event", step=2.0)
        for t in (0.0, 1.0, 2.0, 3.0):
            series.observe(t)
        # Two buckets (0, 2) spanning 4 seconds including the open step.
        assert series.rate() == pytest.approx(4 / 4.0)

    def test_empty_series_answers_none(self):
        series = Series("s")
        assert series.latest() is None
        assert series.mean() is None
        assert series.rate() is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Series("s", step=0.0)
        with pytest.raises(ValueError):
            Series("s", capacity=1)
        with pytest.raises(ValueError):
            Series("s", kind="mystery")


class TestHistogramSeries:
    def make(self):
        track = HistogramSeries("h", bounds=(1.0, 10.0), step=5.0)
        # Cumulative snapshots: 3 obs below 1.0 by t=0, then 4 more
        # landing in the (1, 10] bucket by t=10.
        track.sample(0.0, (3, 0, 0), 3, 1.5)
        track.sample(10.0, (3, 4, 0), 7, 21.5)
        return track

    def test_whole_run_quantile(self):
        track = self.make()
        # 7 observations: 3 under 1.0, 4 in (1, 10] — the 25th percentile
        # sits in the first bucket, the median in the second.
        assert track.quantile(0.25) == 1.0
        assert track.quantile(0.5) == 10.0
        assert track.quantile(0.95) == 10.0
        assert track.observations() == 7

    def test_windowed_quantile_uses_count_deltas(self):
        track = self.make()
        # Window past the first snapshot: only the 4 later observations,
        # all in the (1, 10] bucket.
        assert track.quantile(0.5, since=5.0) == 10.0
        assert track.observations(since=5.0) == 4

    def test_empty_window_is_nan(self):
        track = HistogramSeries("h", bounds=(1.0,))
        assert math.isnan(track.quantile(0.5))
        assert track.observations() == 0

    def test_same_bucket_sample_overwrites(self):
        track = HistogramSeries("h", bounds=(1.0,), step=5.0)
        track.sample(0.0, (1, 0), 1, 0.5)
        track.sample(2.0, (2, 0), 2, 1.0)  # same 5s bucket
        assert len(track) == 1
        assert track.observations() == 2


class TestTimeSeriesStore:
    def test_series_is_memoised_per_label_set(self):
        store = TimeSeriesStore()
        a = store.series("s", host="h1")
        b = store.series("s", host="h1")
        c = store.series("s", host="h2")
        assert a is b and a is not c
        assert store.names() == ["s"]
        assert len(store.matching("s")) == 2
        assert store.get("s", host="h1") is a

    def test_collect_samples_registry_families(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", technique="retrying").inc(3)
        registry.gauge("pool_workers").set(4.0)
        hist = registry.histogram("attempt_seconds", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)

        store = TimeSeriesStore(step=5.0)
        store.collect(registry, now=0.0)
        registry.counter("jobs_total", technique="retrying").inc(2)
        store.collect(registry, now=10.0)

        counter = store.get("jobs_total", technique="retrying")
        assert counter.kind == "counter"
        assert [p["last"] for p in counter.points()] == [3.0, 5.0]
        assert counter.rate() == pytest.approx(0.2)
        assert store.get("pool_workers").latest() == 4.0
        (track,) = store.matching_histograms("attempt_seconds")
        assert track.quantile(0.5) == 1.0
        assert "attempt_seconds" in store.names()

    def test_snapshot_merge_folds_bucket_aligned_points(self):
        a = TimeSeriesStore(step=1.0)
        b = TimeSeriesStore(step=1.0)
        a.observe("s", 0.0, 2.0, host="h1")
        b.observe("s", 0.0, 6.0, host="h1")
        b.observe("s", 1.0, 1.0, host="h1")
        a.merge(b.snapshot())
        points = a.get("s", host="h1").points()
        assert [p["t"] for p in points] == [0.0, 1.0]
        merged = points[0]
        assert merged["count"] == 2 and merged["sum"] == 8.0
        assert merged["min"] == 2.0 and merged["max"] == 6.0
        assert merged["last"] == 6.0  # the merged snapshot's last wins

    def test_dump_jsonl_and_csv(self, tmp_path):
        store = TimeSeriesStore(step=1.0)
        store.observe("s", 0.0, 2.0, host="h1")
        store.observe("s", 1.0, 3.0, host="h1")
        path = tmp_path / "series.jsonl"
        assert store.dump_jsonl(path) == 1
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record["series"] == "s"
        assert record["labels"] == {"host": "h1"}
        assert len(record["points"]) == 2

        csv = store.to_csv()
        header, *rows = csv.strip().splitlines()
        assert header.startswith("series,labels,t,")
        assert rows[0].startswith("s,host=h1,0,")
        assert store.to_csv(name="absent").strip() == header

    def test_disabled_store_is_inert(self):
        store = TimeSeriesStore(enabled=False)
        series = store.series("s", host="h1")
        series.observe(0.0, 1.0)
        assert len(series) == 0 and series.points() == []
        assert store.histogram_series("h", (1.0,)) is None
        registry = MetricsRegistry()
        registry.counter("c").inc()
        store.collect(registry, now=0.0)
        store.merge({"s": [{"labels": {}, "points": []}]})
        assert store.names() == []


def _eager(name, ticks, *, step, capacity=512, kind="gauge"):
    """The reference: a standalone series fed one observe per sampled tick."""
    series = Series(name, kind=kind, step=step, capacity=capacity)
    for t, value in ticks:
        series.observe(t, value)
    return series


def _reads(series, since):
    return (
        series.points(),
        series.points(since=since),
        len(series),
        series.latest(),
        series.mean(),
        series.mean(since),
        series.rate(),
        series.rate(since),
    )


def _stored(series):
    return (list(series._points), series._held, series._held_from)


class TestHeldSamples:
    """A tick stores nothing for an instrument still at its last sampled
    value; every read replays that value over the ticks since."""

    def test_quiet_ticks_store_nothing_but_read_one_point_per_tick(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3.0)
        store = TimeSeriesStore(step=1.0)
        for t in range(10):
            store.collect(registry, float(t))
        series = store.get("g")
        assert len(series._points) == 6  # one stored point (six slots)
        assert len(series) == 10
        assert [p["t"] for p in series.points()] == [float(t) for t in range(10)]
        reference = _eager("g", [(float(t), 3.0) for t in range(10)], step=1.0)
        assert _reads(series, 4.0) == _reads(reference, 4.0)

    def test_reads_are_pure(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        store = TimeSeriesStore(step=1.0, capacity=4)
        for t in range(7):
            store.collect(registry, float(t))
        series = store.get("c")
        before = _stored(series)
        first = _reads(series, 3.0)
        assert _stored(series) == before
        assert _reads(series, 3.0) == first
        assert store.snapshot() == store.snapshot()
        assert _stored(series) == before

    @pytest.mark.parametrize(
        "step, capacity", [(1.0, 512), (1.0, 3), (2.5, 4), (0.5, 2)]
    )
    def test_matches_eager_sampling_through_folds_and_evictions(self, step, capacity):
        # Values change on some ticks and hold on others; ticks fall two
        # or three to a bucket (step 2.5), one apart, or skip buckets
        # (step 0.5), and the small rings turn over many times.
        import random

        rng = random.Random(11)
        registry = MetricsRegistry()
        gauges = [registry.gauge("g", i=i) for i in range(6)]
        fed = {i: [] for i in range(6)}
        store = TimeSeriesStore(step=step, capacity=capacity)
        since = None
        for tick in range(60):
            now = tick * 1.0
            for i, gauge in enumerate(gauges):
                if rng.random() < (0.1 * i):
                    gauge.set(float(rng.randint(0, 3)))
                fed[i].append((now, gauge.value))
            store.collect(registry, now)
            if tick % 7 == 3:
                since = now - 3.0
                for i in range(6):
                    reference = _eager("g", fed[i], step=step, capacity=capacity)
                    series = store.get("g", i=i)
                    assert _reads(series, since) == _reads(reference, since)
        assert len(store._log.entries) <= capacity

    def test_late_tick_folds_like_a_late_sample(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        store = TimeSeriesStore(step=10.0, capacity=4)
        times = [0.0, 5.0, 25.0, 12.0, 31.0, 44.0, 41.0]
        for now in times:
            store.collect(registry, now)
        reference = _eager("g", [(t, 1.0) for t in times], step=10.0, capacity=4)
        assert _reads(store.get("g"), 20.0) == _reads(reference, 20.0)

    def test_series_first_sampled_by_a_late_tick(self):
        # The late tick at 12 opens a bucket (10) behind the newest one
        # the store has seen (20); the next late tick must fold into it.
        registry = MetricsRegistry()
        registry.gauge("old").set(1.0)
        store = TimeSeriesStore(step=10.0)
        store.collect(registry, 0.0)
        store.collect(registry, 25.0)
        registry.gauge("new").set(2.0)
        for now in (12.0, 18.0, 33.0):
            store.collect(registry, now)
        fed = [(12.0, 2.0), (18.0, 2.0), (33.0, 2.0)]
        reference = _eager("new", fed, step=10.0)
        assert _reads(store.get("new"), 0.0) == _reads(reference, 0.0)

    def test_direct_observe_and_merge_settle_first(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.0)
        store = TimeSeriesStore(step=1.0)
        fed = []
        for t in range(3):
            store.collect(registry, float(t))
            fed.append((float(t), 2.0))
        store.observe("g", 2.5, 9.0)
        fed.append((2.5, 9.0))
        for t in range(3, 6):
            store.collect(registry, float(t))
            fed.append((float(t), 2.0))
        other = TimeSeriesStore(step=1.0)
        other.observe("g", 4.0, 7.0)
        store.merge(other.snapshot())
        # The reference store is only ever written eagerly.
        reference_store = TimeSeriesStore(step=1.0)
        reference = reference_store.series("g")
        for t, value in fed:
            reference.observe(t, value)
        reference_store.merge(other.snapshot())
        for t in range(6, 9):
            store.collect(registry, float(t))
            reference.observe(float(t), 2.0)
        assert _reads(store.get("g"), 5.0) == _reads(reference, 5.0)

    def test_cleared_registry_stops_its_series(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        store = TimeSeriesStore(step=1.0)
        for t in range(3):
            store.collect(registry, float(t))
        registry.clear()
        for t in range(3, 6):
            store.collect(registry, float(t))
        assert len(store.get("g")) == 3
        registry.gauge("g").set(1.0)
        store.collect(registry, 6.0)
        assert [p["t"] for p in store.get("g").points()] == [0.0, 1.0, 2.0, 6.0]

    def test_another_registry_replaces_the_sampled_one(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("g").set(1.0)
        second.gauge("g").set(1.0)
        store = TimeSeriesStore(step=1.0)
        store.collect(first, 0.0)
        store.collect(first, 1.0)
        store.collect(second, 2.0)
        first.gauge("g").set(5.0)
        store.collect(second, 3.0)
        reference = _eager("g", [(t, 1.0) for t in (0.0, 1.0, 2.0, 3.0)], step=1.0)
        assert _reads(store.get("g"), 1.0) == _reads(reference, 1.0)

    def test_signed_zero_is_stored_not_held(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(0.0)
        store = TimeSeriesStore(step=1.0)
        store.collect(registry, 0.0)
        gauge.set(-0.0)
        store.collect(registry, 1.0)
        assert [math.copysign(1.0, p["last"]) for p in store.get("g").points()] == [
            1.0,
            -1.0,
        ]

    def test_tick_log_stays_within_the_ring_capacity(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        store = TimeSeriesStore(step=1.0, capacity=8)
        for t in range(1000):
            store.collect(registry, float(t))
        assert len(store._log.entries) == 8
        assert len(store.get("g")) == 8
        assert len(store.get("g")._points) == 6


class _Recorder:
    """Stub estimators/health recording the collector's call order."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def export(self, registry):
        self.log.append(self.tag)

    def evaluate(self, at):
        self.log.append((self.tag, at))


class TestPeriodicCollector:
    def test_tick_runs_the_plane_in_dependency_order(self):
        log: list = []
        registry = MetricsRegistry()
        store = TimeSeriesStore(step=1.0)
        reactor = SimReactor()
        collector = PeriodicCollector(
            store=store,
            registry=registry,
            reactor=reactor,
            interval=5.0,
            scrapers=(lambda reg: log.append("scrape"),),
            estimators=_Recorder(log, "export"),
            health=_Recorder(log, "health"),
        )
        registry.gauge("g").set(1.0)
        collector.tick(now=7.0)
        assert log == ["scrape", "export", ("health", 7.0)]
        assert collector.ticks == 1
        # The registry sample landed in the store at the tick time.
        (point,) = store.get("g").points()
        assert point["t"] == 7.0

    def test_recurring_timer_fires_on_the_reactor_cadence(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.0)
        reactor = SimReactor()
        store = TimeSeriesStore(step=5.0)
        collector = PeriodicCollector(
            store=store, registry=registry, reactor=reactor, interval=5.0
        )
        collector.start()
        reactor.run_until_idle(timeout=16.0)
        collector.stop()
        assert collector.ticks == 3  # t=5, 10, 15
        assert [p["t"] for p in store.get("g").points()] == [5.0, 10.0, 15.0]
        # Stopped: driving the reactor further adds nothing.
        reactor.run_until_idle(timeout=50.0)
        assert collector.ticks == 3

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            PeriodicCollector(
                store=TimeSeriesStore(),
                registry=MetricsRegistry(),
                reactor=SimReactor(),
                interval=0.0,
            )
