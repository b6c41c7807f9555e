"""The statistical telemetry plane reports exactly what it always reported.

A seeded multiplexed batch runs with the whole plane wired the way
``serve-batch --serve-telemetry --telemetry-interval`` wires it: tracer,
run observer, flight recorder, estimator suite, health engine with the
default rules, and a periodic collector with the grid, bus and detector
scrapers.  Everything the plane lets anyone read is digested, both at the
end of the run and between collector ticks partway through it:

* the Prometheus text of the registry;
* the store's snapshot, JSON-lines dump and CSV;
* every series' ``latest`` / ``mean`` / ``rate`` / ``len`` (whole ring and
  a trailing window);
* every histogram track's windowed quantiles and observation counts;
* the ``/timeseries/<name>`` rendering of every family;
* the ``obs.alert.*`` events and the estimator snapshot.

The digests below were recorded from the eager collector, which appended
one point per series on every tick.  Two more runs pin the corners the
held-sample bookkeeping has to get right: a small ring whose buckets span
two ticks (folding, eviction and tick-log turnover), and a registry that
is cleared, merged into, and written past between ticks.
"""

from __future__ import annotations

import hashlib
import json

from tests.helpers import SeededBatch
from repro.obs import (
    EstimatorSuite,
    FlightRecorder,
    HealthEngine,
    MetricsRegistry,
    PeriodicCollector,
    RunObserver,
    TelemetryServer,
    TimeSeriesStore,
    default_rules,
    priors_from_grid,
    prometheus_text,
    scrape_bus,
    scrape_detector,
    scrape_grid,
)
from repro.obs.tracectx import Tracer

WORKFLOWS = 45
INTERVAL = 2.0
#: Simulated times of the partway reads: each lies between two ticks.
READ_AT = (3.3, 9.3, 17.3, 31.3)

#: Digests of the plane wired as the CLI wires it (step = interval).
PLANE_DIGESTS = {
    "prometheus": "17bf23e66dda05c38887362724cce07e7b163e06769c206b79957122d31edbe7",
    "snapshot": "ac27bac49094fc157beaf30da7f907a6aebfc234f8ffff3d5306a3ece177cc0d",
    "jsonl": "6c05d2bffbd8d279d80223927ad0e23bfef7dbfb57d71fa5952e516307f49f51",
    "csv": "03e6a1a022b4dd0597d12a81a62761fd66875fad209643ef4323a3b87e393bfa",
    "series": "08b2178eb5dfee0633ff8d88ede659ee18086671d171040455158c166d7f1346",
    "histograms": "fe49ff3aa7e1c38e35c2aa8ce1ffa74845efd2dd8fab2de5ee75f1845a187815",
    "timeseries": "216ee374fe9d9683c19d2e089aaea85e088386b281ef9db20edcd2301985ca16",
    "alerts": "217dfe378d888901dd712599af59007bddbd51ef0ad63e7ad2f7e4d6d0c3f1bf",
    "estimators": "0dde16ba13e62d77dd62ff812f71812cc0d42cae1ba5425d2a1afa19d56f2d3e",
}
#: Digests of a two-ticks-per-bucket, four-bucket ring.
SMALL_RING_DIGESTS = {
    "prometheus": "7954249687f562634aa0ca6238e6e34b47e1665ecf96a342d8ab0a7c25c27f9a",
    "snapshot": "4aee68b7f061067849801dceb9471a11b0e7c73d7b7fc05744f97ab23205fe85",
    "jsonl": "610a4f9511df88edcbe0fe9454b673d6a124c0a64a3c24ff60f1653adc077032",
    "csv": "f7755070a551fb795b2963e4bd46bf42a3ec891a9ee4b4e1e12a5b55cc597b80",
    "series": "6620a452d49c563333d11bbf2afa2995718efa1a073d0db266b9104c2744db90",
    "histograms": "254eac839a2576da1b17c81b72184c12c05c14b50d91d98f038cf25ca31d5e8f",
    "timeseries": "440f4372f5e38dc2f146befdedf6c452bf4f9a3b747544104e5e0b8b239c0d1c",
    "alerts": "5f7bc0e204014b5c13413e89dce6d962b315916e16f3de6032bd5e5492411054",
    "estimators": "bcb8c1fb5a18525bb11487504939d9a9a2c3fa13d5766a83c1d0381bceb0bc2f",
}
#: Digests of a run whose registry and store are cleared, merged into
#: and written to directly between ticks.
DISTURBED_DIGESTS = {
    "prometheus": "be5277b00cdf96234724498a54e0f9b4aa954a99d903d064d5fa737e0cb211fd",
    "snapshot": "a1beb6e89c1c56eb56024c6b261c16622695f7277d4060ed154e3037492d1f51",
    "jsonl": "4a38bf157d580f7e69c1f384ac9f5c55261ac6c0c5403ce36bace56b43b41ce2",
    "csv": "c96589dbd5563de85a5f5dbecc8e36fbe0d4afb2a0e823531583b022759ea7e5",
    "series": "985a31ba1dfcae537ea60565a9eb47658482d3599d2a3acb1aa7ae29423a8066",
    "histograms": "7d40627fcc75386e205108f296fe297ad7cad2036d361f5f2f1cfc9d90a55ee0",
    "timeseries": "294525c81760a482af97154ae364abb96764fa9a471958a8df5145cb3e759694",
    "alerts": "217dfe378d888901dd712599af59007bddbd51ef0ad63e7ad2f7e4d6d0c3f1bf",
    "estimators": "0dde16ba13e62d77dd62ff812f71812cc0d42cae1ba5425d2a1afa19d56f2d3e",
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Plane:
    """The seeded batch with the full statistical plane attached."""

    def __init__(
        self,
        *,
        interval: float = INTERVAL,
        step: float = INTERVAL,
        capacity: int = 512,
        rules: dict | None = None,
    ) -> None:
        self.batch = SeededBatch(WORKFLOWS, replicas=True, tracer=Tracer())
        grid = self.batch.grid
        runtime = self.batch.host.runtime
        bus, reactor, detector = runtime.bus, runtime.reactor, runtime.detector
        self.reactor = reactor
        observer = RunObserver(bus, clock=reactor.now)
        FlightRecorder(bus)
        self.registry = observer.metrics
        self.store = TimeSeriesStore(step=step, capacity=capacity)
        self.estimators = EstimatorSuite(
            bus, clock=reactor.now, priors=priors_from_grid(grid), store=self.store
        )
        health = HealthEngine(clock=reactor.now, bus=bus)
        default_rules(
            health, store=self.store, estimators=self.estimators, **(rules or {})
        )
        self.estimators.health = health
        self.alerts: list = []
        bus.subscribe(
            "obs.alert.*", lambda topic, payload: self.alerts.append([topic, payload])
        )
        self.collector = PeriodicCollector(
            store=self.store,
            registry=self.registry,
            reactor=reactor,
            interval=interval,
            scrapers=(
                lambda reg: scrape_grid(reg, grid),
                lambda reg: scrape_bus(reg, bus),
                lambda reg: scrape_detector(reg, detector),
                lambda reg: self.estimators.ingest_liveness(
                    detector.liveness_snapshot()
                ),
            ),
            estimators=self.estimators,
            health=health,
        )
        self.collector.start()
        self.server = TelemetryServer(
            registry=self.registry,
            store=self.store,
            health=health,
            estimators=self.estimators,
        )
        self.partway: list[dict] = []

    def read_partway(self, tmp_path) -> None:
        """Take every read at each of :data:`READ_AT` (on the reactor)."""
        for at in READ_AT:
            self.reactor.call_later(
                at, lambda: self.partway.append(self.reads(tmp_path))
            )

    def at(self, when: float, action) -> None:
        self.reactor.call_later(when, action)

    def run(self) -> None:
        self.batch.run()
        self.collector.stop()

    def reads(self, tmp_path) -> dict:
        store = self.store
        since = self.reactor.now() - 5 * INTERVAL
        path = tmp_path / "series.jsonl"
        store.dump_jsonl(path)
        series = sorted(store.all_series(), key=lambda s: (s.name, s.labels))
        histograms = [
            h for name in store.names() for h in store.matching_histograms(name)
        ]
        return {
            "prometheus": prometheus_text(self.registry),
            "snapshot": store.snapshot(),
            "jsonl": path.read_text(),
            "csv": store.to_csv(),
            "series": [
                [
                    s.name,
                    s.labels,
                    s.kind,
                    len(s),
                    s.latest(),
                    s.mean(),
                    s.rate(),
                    s.mean(since),
                    s.rate(since),
                    s.points(since=since),
                ]
                for s in series
            ],
            "histograms": [
                [
                    h.name,
                    h.labels,
                    len(h),
                    [h.quantile(q) for q in (0.5, 0.95, 0.99)],
                    [h.quantile(q, since) for q in (0.5, 0.95, 0.99)],
                    h.observations(),
                    h.observations(since),
                ]
                for h in histograms
            ],
            "timeseries": {
                name: self.server.render_timeseries(name) for name in store.names()
            },
            "alerts": list(self.alerts),
            "estimators": self.estimators.snapshot(),
        }

    def digests(self, tmp_path) -> dict[str, str]:
        final = self.reads(tmp_path)
        reads = self.partway + [final]
        return {part: _digest([r[part] for r in reads]) for part in final}


def test_plane_reads_match_the_recorded_digests(tmp_path):
    plane = Plane()
    plane.read_partway(tmp_path)
    plane.run()
    assert len(plane.partway) == len(READ_AT)
    assert plane.collector.ticks > 10
    assert plane.digests(tmp_path) == PLANE_DIGESTS


def test_small_ring_reads_match_the_recorded_digests(tmp_path):
    # Two ticks land in every bucket, and the four-bucket ring (and the
    # collector's own record of recent ticks) turns over many times.  The
    # rule thresholds are low enough for alerts to fire and resolve.
    plane = Plane(
        interval=INTERVAL / 4,
        step=INTERVAL / 2,
        capacity=4,
        rules={
            "failure_probability_threshold": 0.2,
            "heartbeat_loss_threshold": 0.05,
            "sustain": 1.0,
        },
    )
    plane.read_partway(tmp_path)
    plane.run()
    assert plane.collector.ticks > 4 * 2 * 4
    assert plane.alerts
    assert plane.digests(tmp_path) == SMALL_RING_DIGESTS


def test_disturbed_registry_reads_match_the_recorded_digests(tmp_path):
    plane = Plane()
    saved: dict = {}

    def save() -> None:
        saved["registry"] = plane.registry.snapshot()
        saved["store"] = plane.store.snapshot()

    plane.at(5.0, save)
    plane.at(7.0, plane.registry.clear)
    plane.at(11.0, lambda: plane.store.merge(saved["store"]))
    plane.at(13.0, lambda: plane.registry.merge(saved["registry"]))
    plane.at(
        15.0,
        lambda: plane.store.series("sim_events_processed").observe(
            plane.reactor.now(), 123.0
        ),
    )
    plane.at(19.0, lambda: plane.registry.merge(MetricsRegistry().snapshot()))
    plane.read_partway(tmp_path)
    plane.run()
    assert plane.digests(tmp_path) == DISTURBED_DIGESTS
