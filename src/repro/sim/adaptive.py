"""Adaptive, variance-reduced Monte-Carlo sampling.

The paper's standard experiment (E[T] vs MTTF per technique, Figures
10–12) spends an identical fixed run budget on every (technique, MTTF,
downtime) cell even though the confidence-interval width varies by orders
of magnitude across the grid: checkpointing at MTTF = 100 is almost
deterministic while plain retrying at MTTF = 10 is heavy-tailed.  This
module draws *fewer, smarter* samples:

CI-targeted adaptive stopping
    :class:`CITarget` declares the precision a cell must reach — a
    relative (``rel``) and/or absolute (``abs``) CI half-width — bounded
    by ``min_runs``/``max_runs``.  Cells are sampled in geometric batches
    (``growth`` ×, starting at ``min_runs``) and stop as soon as the
    estimate meets the target, so easy cells cost ``min_runs`` draws
    while only the hardest cells spend the full budget.

Antithetic variates
    :class:`AntitheticGenerator` duck-types the ``Generator`` methods the
    samplers consume (``exponential``/``geometric``/``random``) but
    produces each draw block as *m* fresh uniforms followed by their
    mirrors ``1 − u``, pushed through the inverse CDF.  Every marginal
    draw is exact, so the estimator is unbiased; paired runs are
    negatively correlated, so the pair-mean estimator
    (:func:`pair_means`) has lower variance than i.i.d. sampling and the
    CI target is reached with fewer raw draws.  The delivered
    :class:`~repro.sim.stats.Summary` carries the correlation-aware CI
    and the effective sample size ``ess = Var(x)·n_pairs/Var(pairs)``.

Common random numbers (CRN)
    :class:`CRNGenerator` replays one technique-wide
    :class:`UniformPool` from position zero for every MTTF point,
    scaling through the inverse CDF.  Per-point estimates are unchanged
    in distribution, but *differences* between points — curve shapes and
    :func:`~repro.sim.runner.crossover` estimates — are computed on
    positively correlated noise and are far more stable across the grid.

One evaluation loop
    :func:`evaluate_grid` is the entry point for every (technique,
    params) → samples computation; :func:`adaptive_samples`,
    :func:`~repro.sim.runner.sweep_mttf`, the declarative
    :func:`~repro.sim.runner.sweep` and
    :func:`~repro.sim.engine_mc.engine_samples` are thin aliases over the
    same private cell loop.  That loop owns the sample-cache lookup,
    acceptance and store, the fixed-budget single draw, the round-based
    CI schedule (each round draws the next geometric batch for every
    still-unconverged cell, sharing the CRN pool across a technique's
    cells) and the ``jobs=`` fan-out over the persistent worker pool.

With ``variance_reduction=None`` and no CI target every cell is the
untouched sampler of :mod:`repro.sim.samplers`, bit-identical to
fixed-budget sampling and cached under kind ``"sampler"``.  Otherwise
batches are seeded ``SeedSequence(entropy=seed, spawn_key=(salt,
batch))`` — disjoint from the single-shot ``spawn_key=(salt,)`` streams —
so adaptive estimates are deterministic in their inputs and cacheable
(:mod:`repro.sim.cache` kind ``"adaptive"``; the key deliberately
excludes ``max_runs`` so a cached cell that satisfies the CI target is a
hit regardless of the requested budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .cache import resolve_cache
from .parallel import (
    cell_samples_parallel,
    engine_samples_parallel,
    resolve_jobs,
    seed_for,
)
from .params import SimulationParams
from .samplers import EXTENDED_TECHNIQUES, TECHNIQUES, sample_technique
from .stats import Summary, summarize, z_value

__all__ = [
    "CITarget",
    "CellEstimate",
    "GridEvaluation",
    "AntitheticGenerator",
    "CRNGenerator",
    "UniformPool",
    "VR_MODES",
    "adaptive_samples",
    "evaluate_grid",
    "pair_means",
    "resolve_variance_reduction",
]

#: Accepted ``variance_reduction=`` spellings.
VR_MODES = (None, "antithetic", "crn")

#: Technique → RNG salt, matching the single-shot streams hardcoded in
#: :mod:`repro.sim.samplers` (``spawn_key=(salt,)``); adaptive batches use
#: ``spawn_key=(salt, batch_index)`` and therefore never collide.
_SALTS = {
    "retrying": 1,
    "checkpointing": 2,
    "replication": 3,
    "replication_checkpointing": 4,
    "backoff_retry": 5,
}

#: Spawn-key tail marking the CRN uniform pool's stream (prime, far from
#: any batch index a realistic schedule reaches).
_CRN_STREAM = 104_729

#: Uniforms drawn per pool extension (amortises generator calls).
_POOL_BLOCK = 1 << 16

#: One below the largest double < 1, the top of ``random``'s [0, 1) range.
_ALMOST_ONE = np.nextafter(1.0, 0.0)


def resolve_variance_reduction(mode: str | None) -> str | None:
    """Normalise a ``variance_reduction=`` argument (None/"antithetic"/
    "crn"; the CLI's ``--antithetic``/``--crn`` map onto it)."""
    if mode is not None and mode not in VR_MODES:
        raise SimulationError(
            f"variance_reduction must be one of {VR_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class CITarget:
    """Precision contract for one Monte-Carlo estimate.

    Sampling stops at the first geometric batch boundary where the CI
    half-width is at or below ``rel * |mean|`` (when ``rel`` is set) or
    ``abs`` (when set; either criterion suffices), never before
    ``min_runs`` draws and never beyond ``max_runs``.
    """

    #: Relative CI half-width target (half-width / |mean|).
    rel: float | None = 0.01
    #: Absolute CI half-width target (same units as the samples).
    abs: float | None = None
    confidence: float = 0.99
    min_runs: int = 1_000
    max_runs: int = 200_000
    #: Geometric batch growth: after *n* total draws the next batch brings
    #: the total to ``ceil(n * growth)`` (capped at ``max_runs``).
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.rel is None and self.abs is None:
            raise SimulationError("CITarget needs rel and/or abs set")
        if self.rel is not None and self.rel <= 0:
            raise SimulationError(f"rel must be positive, got {self.rel!r}")
        if self.abs is not None and self.abs <= 0:
            raise SimulationError(f"abs must be positive, got {self.abs!r}")
        if self.min_runs < 2:
            raise SimulationError(
                f"min_runs must be >= 2, got {self.min_runs!r}"
            )
        if self.max_runs < self.min_runs:
            raise SimulationError(
                f"max_runs ({self.max_runs!r}) must be >= min_runs "
                f"({self.min_runs!r})"
            )
        if self.growth <= 1.0:
            raise SimulationError(f"growth must be > 1, got {self.growth!r}")
        z_value(self.confidence)  # validate eagerly

    @classmethod
    def of(cls, value: "CITarget | float | None") -> "CITarget | None":
        """Normalise a ``target_ci=`` argument: ``None`` stays ``None``, a
        bare number is a relative half-width target with the default
        bounds, a :class:`CITarget` passes through."""
        if value is None or isinstance(value, CITarget):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(rel=float(value))
        raise SimulationError(
            f"target_ci must be a CITarget, a number or None, "
            f"got {type(value).__name__}"
        )

    def threshold(self, mean: float) -> float:
        """The half-width this estimate must reach, given its mean."""
        candidates = []
        if self.rel is not None:
            candidates.append(self.rel * abs(mean))
        if self.abs is not None:
            candidates.append(self.abs)
        return max(candidates)

    def met(self, summary: Summary) -> bool:
        if summary.ci_halfwidth == 0.0:
            return True
        return summary.ci_halfwidth <= self.threshold(summary.mean)

    def batch_sizes(self) -> list[int]:
        """The geometric batch schedule up to ``max_runs``."""
        return list(self.boundaries_for(self.max_runs))

    def boundaries_for(self, n: int) -> tuple[int, ...]:
        """Reconstruct the batch sizes that produced an *n*-draw vector.

        The schedule depends only on ``min_runs``/``growth`` (both part of
        the cache key); a stored vector's final batch may have been
        truncated at *its* ``max_runs``, which the replay reproduces by
        capping at *n*.
        """
        sizes: list[int] = []
        total = 0
        while total < n:
            nxt = (
                self.min_runs
                if total == 0
                else math.ceil(total * self.growth)
            )
            nxt = min(nxt, n)
            sizes.append(nxt - total)
            total = nxt
        return tuple(sizes)


# -- variance-reduction kernels ------------------------------------------------


def _flat_size(size) -> tuple[int, tuple[int, ...] | None]:
    """Normalise a numpy ``size`` argument to (count, reshape-target)."""
    if size is None:
        return 1, None
    if isinstance(size, tuple):
        return int(np.prod(size, dtype=np.int64)), size
    return int(size), None


def _shape(values: np.ndarray, size) -> np.ndarray:
    if isinstance(size, tuple):
        return values.reshape(size)
    if size is None:
        return values[0]
    return values


def _inverse_exponential(u: np.ndarray, scale: float) -> np.ndarray:
    return -scale * np.log1p(-u)


def _inverse_geometric(u: np.ndarray, p: float) -> np.ndarray:
    """Inverse-CDF geometric (trials to first success, >= 1), matching
    ``Generator.geometric``'s support."""
    if p >= 1.0:
        return np.ones(u.shape, dtype=np.int64)
    return (np.floor(np.log1p(-u) / math.log1p(-p)) + 1).astype(np.int64)


class AntitheticGenerator:
    """Duck-typed ``Generator`` producing antithetic uniform blocks.

    Each draw of *n* values consumes ``ceil(n/2)`` fresh uniforms ``u``
    and appends their mirrors ``1 − u`` (the antithetic second half), then
    applies the requested inverse CDF.  Run *i* of a batch therefore
    pairs with run ``i + ceil(n/2)`` on mirrored noise — the pairing
    :func:`pair_means` exploits.  Marginally every draw is exact, so any
    sampler consuming this generator stays unbiased.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def _uniforms(self, n: int) -> np.ndarray:
        fresh = (n + 1) // 2
        u = self._rng.random(fresh)
        out = np.concatenate([u, 1.0 - u[: n - fresh]])
        # 1 - 0.0 == 1.0 falls outside random()'s [0, 1) contract; clip
        # rather than bias every transform with an epsilon.
        return np.minimum(out, _ALMOST_ONE, out=out)

    def exponential(self, scale: float = 1.0, size=None) -> np.ndarray:
        n, _ = _flat_size(size)
        return _shape(_inverse_exponential(self._uniforms(n), scale), size)

    def geometric(self, p: float, size=None) -> np.ndarray:
        n, _ = _flat_size(size)
        return _shape(_inverse_geometric(self._uniforms(n), p), size)

    def random(self, size=None) -> np.ndarray:
        n, _ = _flat_size(size)
        return _shape(self._uniforms(n), size)


class UniformPool:
    """Lazily-extended pool of uniforms shared by every MTTF point of a
    technique under CRN.  Deterministic in its seed: position *i* always
    holds the same uniform, so any two consumers reading from position 0
    see identical noise regardless of how far the other has read."""

    def __init__(self, seed_seq: np.random.SeedSequence) -> None:
        self._rng = np.random.default_rng(seed_seq)
        self._data = np.empty(0)

    @property
    def size(self) -> int:
        return self._data.size

    def take(self, start: int, n: int) -> np.ndarray:
        needed = start + n - self._data.size
        if needed > 0:
            block = self._rng.random(max(needed, _POOL_BLOCK))
            self._data = np.concatenate([self._data, block])
        return self._data[start : start + n]


class CRNGenerator:
    """Duck-typed ``Generator`` replaying a shared :class:`UniformPool`.

    Each point of a sweep gets its own cursor starting at 0, so all
    points consume the *same* uniform sequence in call order and differ
    only through the inverse-CDF parameters — positively correlating the
    resulting curves and stabilising their differences.
    """

    def __init__(self, pool: UniformPool) -> None:
        self._pool = pool
        self.cursor = 0

    def _uniforms(self, n: int) -> np.ndarray:
        u = self._pool.take(self.cursor, n)
        self.cursor += n
        return u

    def exponential(self, scale: float = 1.0, size=None) -> np.ndarray:
        n, _ = _flat_size(size)
        return _shape(_inverse_exponential(self._uniforms(n), scale), size)

    def geometric(self, p: float, size=None) -> np.ndarray:
        n, _ = _flat_size(size)
        return _shape(_inverse_geometric(self._uniforms(n), p), size)

    def random(self, size=None) -> np.ndarray:
        n, _ = _flat_size(size)
        return _shape(self._uniforms(n).copy(), size)


def pair_means(samples: np.ndarray) -> np.ndarray:
    """Antithetic pair-mean vector of one batch.

    Pairs element *i* with ``i + ceil(n/2)`` — the mirror layout of
    :class:`AntitheticGenerator` — and keeps an odd batch's unpaired
    middle element as its own singleton, preserving the sample mean
    exactly.
    """
    n = samples.size
    fresh = (n + 1) // 2
    pairs = n - fresh
    out = (samples[:pairs] + samples[fresh:]) / 2.0
    if fresh > pairs:
        out = np.concatenate([out, samples[pairs:fresh]])
    return out


def _vr_summary(
    samples: np.ndarray,
    boundaries: tuple[int, ...],
    mode: str | None,
    confidence: float,
) -> Summary:
    """Variance-reduction-aware summary of a (possibly batched) vector.

    Plain and CRN draws are i.i.d. within a point, so the ordinary
    normal-approximation summary applies.  Antithetic draws are
    negatively correlated in pairs; the estimator is summarised over the
    per-batch pair means, which restores (approximate) independence and
    credits the cancellation to the CI — with the effective sample size
    reporting how many i.i.d. draws the correlation was worth.
    """
    if mode != "antithetic":
        return summarize(samples, confidence=confidence)
    z = z_value(confidence)
    pm_parts = []
    offset = 0
    for size in boundaries:
        pm_parts.append(pair_means(samples[offset : offset + size]))
        offset += size
    if offset != samples.size:
        raise SimulationError(
            f"batch boundaries cover {offset} of {samples.size} samples"
        )
    pm = np.concatenate(pm_parts)
    var_pm = float(pm.var(ddof=1)) if pm.size > 1 else 0.0
    half = z * math.sqrt(var_pm / pm.size) if pm.size > 0 else 0.0
    var_raw = float(samples.var(ddof=1)) if samples.size > 1 else 0.0
    if var_pm > 0.0:
        ess = var_raw * pm.size / var_pm
    else:
        ess = float(samples.size)
    return summarize(samples, confidence=confidence, ci_halfwidth=half, ess=ess)


# -- adaptive cell evaluation --------------------------------------------------


@dataclass(frozen=True, eq=False)
class CellEstimate:
    """One (technique, params) cell's estimate."""

    technique: str
    params: SimulationParams
    #: Raw per-run completion times actually drawn (or loaded).
    samples: np.ndarray
    #: Variance-reduction-aware summary (CI, effective sample size);
    #: None for fixed-budget engine cells, whose only caller
    #: (:func:`~repro.sim.engine_mc.engine_samples`) returns bare samples.
    summary: Summary | None
    #: Batch sizes in draw order (reconstructs antithetic pairing).
    boundaries: tuple[int, ...]
    #: Whether the CI target was met (False means max_runs exhausted).
    converged: bool
    #: Served from the content-addressed cache without drawing.
    cached: bool = False


def _batch_rng(
    params: SimulationParams, technique: str, batch: int
) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=params.seed, spawn_key=(_SALTS[technique], batch)
        )
    )


def _crn_pool(params: SimulationParams, technique: str) -> UniformPool:
    """The technique's CRN pool — seeded independently of MTTF (every
    sweep point shares it) and of any batch stream."""
    return UniformPool(
        np.random.SeedSequence(
            entropy=params.seed, spawn_key=(_SALTS[technique], _CRN_STREAM)
        )
    )


class _CellSampler:
    """Draws successive batches for one standalone-sampler cell.

    A plain cell (no VR mode, no CI target) draws on the sampler's own
    single-shot stream, bit-identical to :func:`sample_technique`; every
    other cell draws batch *b* on ``spawn_key=(salt, b)`` under its VR
    mode, or replays the technique's CRN pool.
    """

    def __init__(
        self,
        technique: str,
        params: SimulationParams,
        mode: str | None,
        pool: UniformPool | None,
        plain: bool,
    ) -> None:
        self.technique = technique
        self.params = params
        self.mode = mode
        self.plain = plain
        self._crn = CRNGenerator(pool) if mode == "crn" else None
        self._batch = 0

    def draw(self, runs: int) -> np.ndarray:
        if self._crn is not None:
            rng = self._crn  # cursor persists across batches
        elif self.plain:
            rng = None
        else:
            rng = _batch_rng(self.params, self.technique, self._batch)
            if self.mode == "antithetic":
                rng = AntitheticGenerator(rng)
        self._batch += 1
        return sample_technique(self.technique, self.params, rng=rng, runs=runs)


@dataclass(frozen=True)
class _EngineRuns:
    """Draw cells as end-to-end engine runs instead of sampler draws."""

    base_seed: int
    timeout: float
    #: Optional :class:`~repro.obs.metrics.MetricsRegistry` for per-run
    #: histograms and pool counters.
    metrics: object = None


class _EngineCell:
    """Draws successive batches of engine runs for one cell.

    Batches are contiguous in run-index space: the batch after *total*
    runs covers indices ``[total, total + size)`` with the per-index
    seeds of :func:`~repro.sim.parallel.seed_for`, so an adaptive vector
    is an exact prefix of the fixed-budget vector for the same
    ``base_seed``.
    """

    def __init__(
        self,
        technique: str,
        params: SimulationParams,
        engine: _EngineRuns,
        jobs: int | None,
    ) -> None:
        self.technique = technique
        self.params = params
        self.engine = engine
        self.jobs = jobs
        self._total = 0

    def draw(self, runs: int) -> np.ndarray:
        samples = engine_samples_parallel(
            self.technique,
            self.params,
            runs=runs,
            base_seed=seed_for(self.engine.base_seed, self._total),
            jobs=self.jobs,
            timeout=self.engine.timeout,
            metrics=self.engine.metrics,
        )
        self._total += runs
        return samples


def _cell_key(
    store,
    technique: str,
    params: SimulationParams,
    budget: int,
    mode: str | None,
    target: CITarget | None,
    engine: _EngineRuns | None,
) -> str:
    """Cache key for one cell.

    A plain fixed-budget cell keys on its full params and run count
    (kind ``"sampler"`` or ``"engine"``).  A CI-targeted or
    variance-reduced cell (``"adaptive"``/``"engine-adaptive"``) keys on
    ``params.with_runs(1)`` and, under a target, on the target precision,
    bounds floor and growth but *not* ``max_runs`` (run count 0):
    acceptance (:func:`_accept`) decides at load time whether a stored
    vector satisfies the caller's budget.
    """
    plain = mode is None and target is None
    if engine is None:
        kind = "sampler" if plain else "adaptive"
        base_seed = params.seed
        extra = {} if plain else {"variance_reduction": mode}
    else:
        kind = "engine" if plain else "engine-adaptive"
        base_seed = engine.base_seed
        extra = {"timeout": engine.timeout}
    if not plain:
        params = params.with_runs(1)
        extra["target"] = None
        if target is not None:
            extra["target"] = {
                "rel": target.rel,
                "abs": target.abs,
                "confidence": target.confidence,
                "min_runs": target.min_runs,
                "growth": target.growth,
            }
    return store.key(
        kind=kind,
        technique=technique,
        params=params,
        runs=0 if target is not None else budget,
        base_seed=base_seed,
        extra=extra,
    )


def _accept(
    samples: np.ndarray, budget: int, target: CITarget | None, summarise
) -> tuple[Summary | None, tuple[int, ...], bool] | None:
    """Re-evaluate a cached vector against the *caller's* budget:
    ``(summary, boundaries, converged)``, or None to draw afresh."""
    if target is None:
        if samples.size != budget:
            return None
        boundaries = (samples.size,)
    elif samples.size < target.min_runs:
        return None
    else:
        boundaries = target.boundaries_for(samples.size)
    summary = summarise(samples, boundaries)
    converged = target is None or target.met(summary)
    if not converged and samples.size < target.max_runs:
        return None  # caller's budget allows refining further: recompute
    return summary, boundaries, converged


def _evaluate_cells(
    cells: list[tuple[str, SimulationParams]],
    *,
    target: "CITarget | float | None" = None,
    variance_reduction: str | None = None,
    runs: int | None = None,
    cache=None,
    jobs: int | None = None,
    engine: _EngineRuns | None = None,
) -> dict[int, CellEstimate]:
    """The one (technique, params) → samples loop behind every entry point.

    Every cell is first looked up in the sample cache and kept when the
    stored vector satisfies this request.  The rest are drawn in rounds:
    round *r* draws batch *r* of the :class:`CITarget` schedule for each
    cell that has neither met the target nor exhausted ``max_runs``, so
    the easy bulk drops out after the first round and only the hard tail
    keeps sampling.  Without a target each cell draws one fixed batch of
    *runs* (its ``params.runs`` when unset).  Every finished cell is
    stored in the cache.  Returns ``{cell index: estimate}`` in the order
    the cells finished.

    Draws come from the standalone samplers, looked up through this
    module's ``sample_technique`` global, or with *engine* from
    end-to-end engine runs.  *jobs* fans work out over the persistent
    worker pool: plain fixed-budget sampler cells one per task, engine
    batches in run-index shards.  Adaptive sampler rounds run in
    process.  Results are bit-identical for every *jobs*.
    """
    mode = resolve_variance_reduction(variance_reduction)
    target = CITarget.of(target)
    for technique, _ in cells:
        if technique not in EXTENDED_TECHNIQUES:
            raise SimulationError(
                f"unknown technique {technique!r}; "
                f"expected one of {EXTENDED_TECHNIQUES}"
            )
    store = resolve_cache(cache)
    plain = mode is None and target is None
    budgets = [runs if runs is not None else p.runs for _, p in cells]
    confidence = target.confidence if target is not None else 0.99

    def summarise(samples, boundaries):
        if engine is not None and target is None:
            # Nothing reads it (engine_samples returns bare samples), and
            # its percentile pass would be the only numpy.ma use on the
            # engine path.
            return None
        return _vr_summary(samples, boundaries, mode, confidence)

    out: dict[int, CellEstimate] = {}
    keys: list[str | None] = [None] * len(cells)
    if store is not None:
        for i, (technique, params) in enumerate(cells):
            keys[i] = _cell_key(
                store, technique, params, budgets[i], mode, target, engine
            )
            hit = store.load(keys[i])
            if hit is None:
                continue
            accepted = _accept(hit, budgets[i], target, summarise)
            if accepted is not None:
                out[i] = CellEstimate(technique, params, hit, *accepted, cached=True)
    pending = [i for i in range(len(cells)) if i not in out]

    pools: dict[tuple[str, int], UniformPool] = {}
    draws: dict[int, _CellSampler | _EngineCell] = {}
    for i in pending:
        technique, params = cells[i]
        if engine is not None:
            draws[i] = _EngineCell(technique, params, engine, jobs)
            continue
        pool = None
        if mode == "crn":  # one pool per technique stream, shared by cells
            if (technique, params.seed) not in pools:
                pools[technique, params.seed] = _crn_pool(params, technique)
            pool = pools[technique, params.seed]
        draws[i] = _CellSampler(technique, params, mode, pool, plain)
    fan_out = plain and engine is None and len(pending) > 1 and resolve_jobs(jobs) > 1

    chunks: dict[int, list[np.ndarray]] = {i: [] for i in pending}
    schedule = target.batch_sizes() if target is not None else [None]
    for size in schedule:
        if not pending:
            break
        if fan_out:
            drawn = cell_samples_parallel(
                [cells[i] for i in pending], runs=runs, jobs=jobs
            )
        else:
            drawn = (
                draws[i].draw(budgets[i] if size is None else size)
                for i in pending
            )
        for i, batch in zip(pending, drawn):
            chunks[i].append(batch)
            samples = batch if len(chunks[i]) == 1 else np.concatenate(chunks[i])
            boundaries = tuple(c.size for c in chunks[i])
            summary = summarise(samples, boundaries)
            converged = target is None or target.met(summary)
            if converged or samples.size >= target.max_runs:
                technique, params = cells[i]
                out[i] = CellEstimate(
                    technique, params, samples, summary, boundaries, converged
                )
                if store is not None:
                    store.store(keys[i], samples)
        pending = [i for i in pending if i not in out]
    if pending:  # pragma: no cover - schedule always covers max_runs
        raise SimulationError(
            f"{len(pending)} cell(s) left unsampled by the batch schedule"
        )
    return out


def adaptive_samples(
    technique: str,
    params: SimulationParams,
    *,
    target: "CITarget | float | None" = None,
    variance_reduction: str | None = None,
    runs: int | None = None,
    cache=None,
) -> CellEstimate:
    """One (technique, params) cell of :func:`evaluate_grid`.

    With both *target* and *variance_reduction* unset this is the plain
    fixed-budget sampler (bit-identical to
    :func:`~repro.sim.samplers.sample_technique`).  Otherwise draws
    geometric batches under the VR mode until the :class:`CITarget` is
    met (or ``max_runs`` spent); with a *target* the *runs* argument is
    ignored in favour of the target's bounds.
    """
    grid = evaluate_grid(
        params,
        [params.mttf],
        [technique],
        target=target,
        variance_reduction=variance_reduction,
        runs=runs,
        cache=cache,
    )
    return grid.cells[(technique, float(params.mttf))]


@dataclass(frozen=True, eq=False)
class GridEvaluation:
    """Result of one fused (technique × MTTF) grid evaluation."""

    cells: dict[tuple[str, float], CellEstimate]
    mttfs: tuple[float, ...]
    techniques: tuple[str, ...]

    @property
    def samples_drawn(self) -> int:
        """Raw draws actually sampled this evaluation (cache hits free)."""
        return sum(
            c.samples.size for c in self.cells.values() if not c.cached
        )

    @property
    def samples_used(self) -> int:
        """Raw draws backing the estimates, drawn or loaded."""
        return sum(c.samples.size for c in self.cells.values())

    @property
    def all_converged(self) -> bool:
        return all(c.converged for c in self.cells.values())

    def series(self) -> dict:
        """Per-technique :class:`~repro.sim.runner.Series`, the shape
        :func:`~repro.sim.runner.sweep_mttf` returns."""
        from .runner import Series, TECHNIQUE_LABELS

        out = {}
        for technique in self.techniques:
            summaries = tuple(
                self.cells[(technique, m)].summary for m in self.mttfs
            )
            out[technique] = Series(
                label=TECHNIQUE_LABELS.get(technique, technique),
                x=self.mttfs,
                y=tuple(s.mean for s in summaries),
                summaries=summaries,
            )
        return out


def evaluate_grid(
    params: SimulationParams,
    mttfs,
    techniques=TECHNIQUES,
    *,
    target: "CITarget | float | None" = None,
    variance_reduction: str | None = None,
    runs: int | None = None,
    cache=None,
    jobs: int | None = None,
) -> GridEvaluation:
    """Monte-Carlo estimates for a (technique × MTTF) grid — the
    evaluation entry point.

    Without *target* or *variance_reduction* every cell draws *runs*
    (``params.runs`` when unset) from the untouched single-shot sampler,
    exactly :func:`~repro.sim.samplers.sample_technique`'s vector; *jobs*
    spreads those cells over the persistent worker pool (see
    :func:`~repro.sim.parallel.resolve_jobs`), bit-identically.  With a
    *target* the grid is evaluated round by round until every cell meets
    the :class:`CITarget` or its ``max_runs``; under CRN all cells of a
    technique share one :class:`UniformPool`, each replaying it from
    position zero.  *cache* content-addresses every cell in the sample
    cache (:mod:`repro.sim.cache`).
    """
    techniques = tuple(techniques)
    mttfs = tuple(float(m) for m in mttfs)
    grid = [(t, m) for t in techniques for m in mttfs]
    estimates = _evaluate_cells(
        [(t, params.with_mttf(m)) for t, m in grid],
        target=target,
        variance_reduction=variance_reduction,
        runs=runs,
        cache=cache,
        jobs=jobs,
    )
    return GridEvaluation(
        cells={grid[i]: cell for i, cell in estimates.items()},
        mttfs=mttfs,
        techniques=techniques,
    )
