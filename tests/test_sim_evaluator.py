"""Tests for the one (technique, params) → samples evaluator.

Every entry point — ``evaluate_grid``, ``adaptive_samples``,
``sweep_mttf``, the declarative ``sweep``, ``mc --cache`` and
``engine_samples`` — runs through one cell loop.  These tests pin the
cache contract that loop must keep: each path writes exactly the entry
named by ``SampleCache.key`` over the documented fields, so caches
written before the paths were unified keep hitting.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.sim import (
    CITarget,
    SampleCache,
    SimulationParams,
    adaptive_samples,
    engine_samples,
    evaluate_grid,
    sample_technique,
    sweep,
    sweep_mttf,
)
from repro.sim.parallel import DEFAULT_RUN_TIMEOUT

BASE = SimulationParams(mttf=20.0, downtime=5.0, runs=300, seed=11)


def _target_spec(target: CITarget) -> dict:
    return {
        "rel": target.rel,
        "abs": target.abs,
        "confidence": target.confidence,
        "min_runs": target.min_runs,
        "growth": target.growth,
    }


def _entries(store: SampleCache) -> list[str]:
    return sorted(p.stem for p in store.root.glob("*.npy"))


class TestPlainCellsAreCached:
    """Without a target or variance reduction, cells are plain sampler
    draws and must be cached under kind ``"sampler"`` like
    ``sweep_mttf``'s points."""

    def test_evaluate_grid_stores_and_reloads_one_entry_per_cell(self, tmp_path):
        store = SampleCache(tmp_path)
        mttfs = (10.0, 50.0)
        cold = evaluate_grid(BASE, mttfs, ["retrying", "replication"], cache=store)
        expected = sorted(
            store.key(
                kind="sampler",
                technique=technique,
                params=BASE.with_mttf(mttf),
                runs=BASE.runs,
                base_seed=BASE.seed,
            )
            for technique in ("retrying", "replication")
            for mttf in mttfs
        )
        assert _entries(store) == expected
        assert cold.samples_drawn == 4 * BASE.runs

        warm = evaluate_grid(BASE, mttfs, ["retrying", "replication"], cache=store)
        assert warm.samples_drawn == 0
        for cell, estimate in warm.cells.items():
            assert estimate.cached
            assert np.array_equal(estimate.samples, cold.cells[cell].samples)
            assert estimate.summary == cold.cells[cell].summary

    def test_adaptive_samples_stores_and_reloads(self, tmp_path):
        store = SampleCache(tmp_path)
        cold = adaptive_samples("checkpointing", BASE, cache=store)
        assert not cold.cached
        assert _entries(store) == [
            store.key(
                kind="sampler",
                technique="checkpointing",
                params=BASE,
                runs=BASE.runs,
                base_seed=BASE.seed,
            )
        ]
        warm = adaptive_samples("checkpointing", BASE, cache=store)
        assert warm.cached and warm.converged
        assert warm.boundaries == (BASE.runs,)
        assert np.array_equal(warm.samples, cold.samples)
        assert np.array_equal(warm.samples, sample_technique("checkpointing", BASE))

    def test_entry_of_another_size_is_redrawn(self, tmp_path):
        store = SampleCache(tmp_path)
        adaptive_samples("retrying", BASE, cache=store)
        [key] = _entries(store)
        store.store(key, np.ones(7))
        again = adaptive_samples("retrying", BASE, cache=store)
        assert not again.cached and again.samples.size == BASE.runs


#: Entry names each path wrote before the entry points shared one loop
#: (SAMPLERS_VERSION 1).  A samplers-version bump renames every entry, so
#: these digests then change with it.
PINNED = {
    "sweep_mttf": "f589a7ee052bab30d9674ee5f2952da9573038063075f40e7b6f063bf55bb03e",
    "sweep_mttf_runs": "598b89b4ef7c0657272061b4fa45ed04032e262c13e26cba0f2aca22fe9e000d",
    "sweep": "185bbd1a126c33046c8541251bb41704dcdd22e6c684bb1f57826b2b51e5811b",
    "mc": "79c4c2654202627613760d1bdb04a230600364dca2a54247f5e4426eaf2ccd24",
    "grid_target": "824362c110240ae79b464bec87f4ce9ce99fee08ea02e6b0c6f52b58c8f3c470",
    "grid_vr": "9deabb58b2ce552070a44ec302b7a60b32c1a80c17073247f89a4398ea016838",
    "engine": "a10e73d0998a916239f5b214cd0ef361ad7e1e0dd6709cbc9f65301d62ef57a0",
    "engine_target": "9f8ee1b8dc0eb476ce60ca7eb640a83d33e3d96606c766b293ceb3b00d723960",
    "engine_float": "8797ee70315b281efb7298c0514dd9eb9f45f1b6e3aba9c7023cba209b26e559",
}


class TestCacheKeyContract:
    """Each path's entry is ``cache.key(...)`` over the documented fields,
    and equal to the digest it had before the paths were unified."""

    @pytest.fixture
    def store(self, tmp_path):
        return SampleCache(tmp_path / "mc")

    def _check(self, store, name, **fields):
        expected = store.key(**fields)
        assert _entries(store) == [expected]
        assert expected == PINNED[name]

    def test_sweep_mttf(self, store):
        sweep_mttf(BASE, [10.0], ["retrying"], cache=store)
        self._check(
            store,
            "sweep_mttf",
            kind="sampler",
            technique="retrying",
            params=BASE.with_mttf(10.0),
            runs=BASE.runs,
            base_seed=BASE.seed,
        )

    def test_sweep_mttf_explicit_runs(self, store):
        sweep_mttf(BASE, [10.0], ["retrying"], runs=200, cache=store)
        self._check(
            store,
            "sweep_mttf_runs",
            kind="sampler",
            technique="retrying",
            params=BASE.with_mttf(10.0),
            runs=200,
            base_seed=BASE.seed,
        )

    def test_declarative_sweep(self, store):
        cell = dataclasses.replace(BASE, replicas=2)
        sweep(
            [2],
            technique="replication",
            params_of=lambda n: dataclasses.replace(BASE, replicas=int(n)),
            label="replicas",
            cache=store,
        )
        self._check(
            store,
            "sweep",
            kind="sampler",
            technique="replication",
            params=cell,
            runs=cell.runs,
            base_seed=cell.seed,
        )

    def test_mc_cache_flag(self, store, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store.root))
        argv = ["mc", "--technique", "retry", "--runs", "200", "--cache"]
        assert main(argv) == 0
        capsys.readouterr()
        params = SimulationParams(
            mttf=20.0,
            downtime=0.0,
            retry_interval=1.0,
            backoff_factor=2.0,
            max_retry_interval=8.0,
            runs=200,
            seed=20030623,
        )
        self._check(
            store,
            "mc",
            kind="sampler",
            technique="retrying",
            params=params,
            runs=200,
            base_seed=params.seed,
        )

    def test_evaluate_grid_with_target(self, store):
        target = CITarget(rel=0.05, min_runs=100, max_runs=400)
        evaluate_grid(BASE, [10.0], ["retrying"], target=target, cache=store)
        self._check(
            store,
            "grid_target",
            kind="adaptive",
            technique="retrying",
            params=BASE.with_mttf(10.0).with_runs(1),
            runs=0,
            base_seed=BASE.seed,
            extra={"variance_reduction": None, "target": _target_spec(target)},
        )

    def test_evaluate_grid_variance_reduced(self, store):
        evaluate_grid(
            BASE,
            [10.0],
            ["retrying"],
            variance_reduction="antithetic",
            cache=store,
        )
        self._check(
            store,
            "grid_vr",
            kind="adaptive",
            technique="retrying",
            params=BASE.with_mttf(10.0).with_runs(1),
            runs=BASE.runs,
            base_seed=BASE.seed,
            extra={"variance_reduction": "antithetic", "target": None},
        )

    def test_engine_samples(self, store):
        engine_samples("retrying", BASE, runs=5, cache=store)
        self._check(
            store,
            "engine",
            kind="engine",
            technique="retrying",
            params=BASE,
            runs=5,
            base_seed=BASE.seed,
            extra={"timeout": DEFAULT_RUN_TIMEOUT},
        )

    def test_engine_samples_with_target(self, store):
        target = CITarget(rel=0.9, min_runs=5, max_runs=20)
        engine_samples("retrying", BASE, runs=20, target_ci=target, cache=store)
        self._check(
            store,
            "engine_target",
            kind="engine-adaptive",
            technique="retrying",
            params=BASE.with_runs(1),
            runs=0,
            base_seed=BASE.seed,
            extra={"timeout": DEFAULT_RUN_TIMEOUT, "target": _target_spec(target)},
        )

    def test_engine_samples_with_bare_target(self, store):
        engine_samples("retrying", BASE, runs=20, target_ci=0.5, cache=store)
        # A bare number is a relative target with runs as the ceiling.
        target = CITarget(rel=0.5, min_runs=20, max_runs=20)
        self._check(
            store,
            "engine_float",
            kind="engine-adaptive",
            technique="retrying",
            params=BASE.with_runs(1),
            runs=0,
            base_seed=BASE.seed,
            extra={"timeout": DEFAULT_RUN_TIMEOUT, "target": _target_spec(target)},
        )


class TestJobsInvariance:
    def test_evaluate_grid_jobs_is_invisible(self):
        seq = evaluate_grid(BASE, [10.0, 50.0], ["retrying", "replication"])
        par = evaluate_grid(BASE, [10.0, 50.0], ["retrying", "replication"], jobs=2)
        assert list(seq.cells) == list(par.cells)
        for cell, estimate in seq.cells.items():
            assert np.array_equal(estimate.samples, par.cells[cell].samples)
