"""repro.sweep — multi-seed replication sweeps with cached shards and CIs.

The paper's findings are single-drive point estimates; this subsystem
replicates the whole campaign across many seeds and reports a confidence
interval for every paper statistic, the way large measurement platforms
aggregate repeated vantage-point runs.  It is built directly on the
:mod:`repro.engine` execution core:

1. the **driver** (:func:`run_sweep`) plans one shard set per seed, then
   interleaves *all* seeds' shard batches through a single shared
   :class:`~repro.engine.WorkerPool` — seed boundaries never serialise the
   pipeline, and no per-seed pool is ever spun up;
2. the **content-addressed shard cache** (:mod:`repro.sweep.cache`) sits
   under the executor: shards are keyed on ``(config_fingerprint,
   shard_index, shard_seed)``, so repeated sweeps — the same seeds again, a
   superset of seeds, a resumed run — replay overlapping shards instead of
   recomputing them, with LRU size bounding and hit/miss counters.  It is
   the same store the engine checkpoints into, so a sweep's ``cache_dir``
   is a valid ``EngineConfig.checkpoint_dir``;
3. the **statistics layer** (:mod:`repro.sweep.stats`) evaluates a registry
   of paper statistics on each seed's merged dataset and aggregates them
   into mean/median/std plus percentile-bootstrap confidence intervals;
4. the **report** (:mod:`repro.sweep.report`) serialises the whole sweep —
   per-seed wall time and cache hit ratio, cache-wide counters, and every
   interval — to versioned JSON, mirroring the engine's ``EngineReport``.

Determinism carries over unchanged: each seed's dataset is bit-identical to
a standalone ``run_engine`` of that seed, whether its shards were computed,
interleaved with other seeds, or replayed from cache.

Quickstart::

    from repro.sweep import SweepConfig, run_sweep

    result = run_sweep(SweepConfig(
        seeds=tuple(range(42, 52)), scale=0.05, cache_dir="out/shard-cache",
    ))
    ci = result.report.statistic("coverage_5g_share_T")
    print(f"T-Mobile 5G coverage: {ci.mean:.1%} "
          f"[{ci.ci_low:.1%}, {ci.ci_high:.1%}] over {ci.n_seeds} seeds")

Or from the command line::

    python -m repro.sweep --seeds 42,43,44 --scale 0.05 --cache-dir cache/
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Hashable

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.campaign.validation import validate_dataset
from repro.engine import (
    EngineConfig,
    EngineReport,
    PlannerParams,
    WorkerPool,
    build_task_batches,
    execute_jobs,
)
from repro.engine.checkpoint import config_fingerprint, route_digest, source_digest
from repro.engine.merge import merge_shard_results
from repro.engine.metrics import ShardMetrics
from repro.engine.planner import ShardPlan, plan_campaign
from repro.engine.worker import ShardResult, ShardTask
from repro.errors import EngineError, SweepError
from repro.geo.route import Route, build_cross_country_route
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import get_tracer
from repro.store.format import STORE_FORMAT_VERSION
from repro.sweep.cache import CacheStats, ShardCache
from repro.sweep.report import SeedRunMetrics, SweepReport
from repro.sweep.stats import (
    evaluate_statistics,
    get_statistic,
    registered_statistics,
    summarize_statistic,
)

__all__ = [
    "CacheStats",
    "SeedRunMetrics",
    "ShardCache",
    "SweepConfig",
    "SweepReport",
    "SweepResult",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one multi-seed replication sweep."""

    #: Seeds to replicate the campaign under; order defines report order.
    seeds: tuple[int, ...]
    #: Campaign knobs, applied identically to every seed.
    scale: float = 1.0
    include_apps: bool = True
    include_static: bool = True
    #: Execution topology — one shared pool for the whole sweep.
    workers: int | None = None
    shards: int | None = None
    executor: str = "process"
    planner: PlannerParams = field(default_factory=PlannerParams)
    #: Shared shard-cache directory; ``None`` disables caching.
    cache_dir: str | None = None
    #: LRU size bound of the cache in bytes; ``None`` means unbounded.
    cache_max_bytes: int | None = None
    max_retries: int = 2
    #: Where to write the JSON :class:`SweepReport`; ``None`` skips it.
    report_path: str | None = None
    #: Statistic names to aggregate; ``None`` means every registered one.
    statistics: tuple[str, ...] | None = None
    confidence: float = 0.95
    bootstrap_samples: int = 1000
    #: Validate every per-seed merged dataset and raise on issues.
    validate: bool = False
    #: Columnar store catalog directory (:class:`repro.store.Catalog`);
    #: every seed's merged dataset is ingested as one partition.  ``None``
    #: skips ingestion.
    store_dir: str | None = None
    #: JSONL trace file (see :mod:`repro.obs`): the sweep's phase spans,
    #: per-seed plan/merge spans, worker shard spans, and cache counters
    #: all append there, and ``SweepReport.metrics`` is populated.
    #: ``None`` (the default) disables tracing entirely.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise SweepError("a sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepError(f"duplicate seeds in {self.seeds}")
        if self.executor not in ("process", "serial"):
            raise SweepError(f"unknown executor {self.executor!r}")
        if not 0.0 < self.confidence < 1.0:
            raise SweepError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.bootstrap_samples < 1:
            raise SweepError("bootstrap_samples must be >= 1")
        if self.statistics is not None:
            for name in self.statistics:
                get_statistic(name)  # fail fast on unknown names

    def campaign_config(self, seed: int) -> CampaignConfig:
        return CampaignConfig(
            seed=seed,
            scale=self.scale,
            include_apps=self.include_apps,
            include_static=self.include_static,
        )


@dataclass
class SweepResult:
    """Everything a sweep produced, keyed by seed where applicable."""

    #: Per-seed merged datasets, bit-identical to standalone engine runs.
    datasets: dict[int, DriveDataset]
    #: Per-seed engine-style reports (shard metrics, cache hits, walls).
    engine_reports: dict[int, EngineReport]
    #: The sweep-level report (statistics + cache counters).
    report: SweepReport
    #: The live cache used, if any (its ``stats`` cover this sweep only).
    cache: ShardCache | None = None


def run_sweep(config: SweepConfig, route: Route | None = None) -> SweepResult:
    """Replicate one campaign across seeds and aggregate the statistics.

    Plans each seed's shard set, replays every shard the cache can serve,
    interleaves all remaining batches round-robin across seeds through one
    shared executor, merges each seed's shards into its dataset, and
    bootstraps confidence intervals for the registered paper statistics.
    Raises :class:`EngineError` if any shard exhausts its retry budget, and
    :class:`SweepError` for configuration problems.
    """
    tracer = get_tracer(config.trace_path)
    registry = MetricsRegistry() if tracer.enabled else None
    started = time.perf_counter()
    with tracer.span(
        "sweep.run",
        seeds=len(config.seeds),
        scale=config.scale,
        executor=config.executor,
    ) as root:
        campaign_route = route or build_cross_country_route()
        cache = (
            ShardCache(config.cache_dir, config.cache_max_bytes, metrics=registry)
            if config.cache_dir is not None
            else None
        )

        # -- plan every seed, replaying whatever the cache can serve ------
        engine_cfgs: dict[int, EngineConfig] = {}
        plans: dict[int, ShardPlan] = {}
        fingerprints: dict[int, str] = {}
        results: dict[int, dict[int, ShardResult]] = {}
        retries: dict[int, dict[int, int]] = {}
        hits: dict[int, int] = {}
        pendings: dict[int, list] = {}
        seed_batches: dict[int, list[tuple[ShardTask, ...]]] = {}

        for seed in config.seeds:
            with tracer.span("sweep.plan", seed=seed) as plan_span:
                engine_cfg = EngineConfig(
                    campaign=config.campaign_config(seed),
                    workers=config.workers,
                    shards=config.shards,
                    executor=config.executor,
                    planner=config.planner,
                    max_retries=config.max_retries,
                    trace_path=config.trace_path,
                )
                plan = plan_campaign(
                    engine_cfg.campaign, campaign_route, config.planner
                )
                fingerprint = config_fingerprint(
                    engine_cfg.campaign, plan, campaign_route
                )
                indices = [w.index for w in plan.windows]

                seed_results: dict[int, ShardResult] = {}
                if cache is not None:
                    seed_results.update(cache.load_many(fingerprint, seed, indices))
                plan_span.set(shards=len(indices), cache_hits=len(seed_results))

            engine_cfgs[seed] = engine_cfg
            plans[seed] = plan
            fingerprints[seed] = fingerprint
            results[seed] = seed_results
            retries[seed] = {index: 0 for index in seed_results}
            hits[seed] = len(seed_results)
            pendings[seed] = [
                w for w in plan.windows if w.index not in seed_results
            ]

        def on_result(
            tag: Hashable, outcomes: list[ShardResult], attempt: int
        ) -> None:
            seed, _position = tag
            for outcome in outcomes:
                results[seed][outcome.index] = outcome
                retries[seed][outcome.index] = attempt
                if cache is not None:
                    cache.store(fingerprints[seed], seed, outcome)

        # -- interleave all seeds' batches through one shared executor ----
        # Round-robin across seeds so no seed's tail straggles behind
        # another seed's entire campaign, and early seeds produce complete
        # datasets (hence statistics) even while later seeds still execute.
        with tracer.span("sweep.execute") as exec_span:
            for seed in config.seeds:
                seed_batches[seed] = build_task_batches(
                    engine_cfgs[seed], plans[seed], pendings[seed],
                    fingerprints[seed], route,
                    trace_parent=exec_span.span_id,
                )
            jobs: list[tuple[Hashable, tuple[ShardTask, ...]]] = []
            depth = max((len(b) for b in seed_batches.values()), default=0)
            for position in range(depth):
                for seed in config.seeds:
                    if position < len(seed_batches[seed]):
                        jobs.append(((seed, position), seed_batches[seed][position]))
            exec_span.set(jobs=len(jobs))

            # One pool for the entire sweep: execute_jobs leaves a borrowed
            # pool running, so even future multi-call drivers would reuse
            # this handle.
            with WorkerPool(config.workers or os.cpu_count() or 1) as pool:
                stats = execute_jobs(
                    jobs,
                    on_result,
                    executor=config.executor,
                    workers=config.workers,
                    max_retries=config.max_retries,
                    pool=pool,
                )

        # -- merge, validate, and report every seed -----------------------
        catalog = None
        if config.store_dir is not None:
            from repro.store.catalog import Catalog

            catalog = Catalog(config.store_dir)
        datasets: dict[int, DriveDataset] = {}
        engine_reports: dict[int, EngineReport] = {}
        seed_runs: list[SeedRunMetrics] = []
        digests = dict(
            route_digest=route_digest(campaign_route),
            source_digest=source_digest(),
            store_format_version=STORE_FORMAT_VERSION,
        )
        for seed in config.seeds:
            plan = plans[seed]
            merge_started = time.perf_counter()
            with tracer.span("sweep.merge", seed=seed) as merge_span:
                dataset = merge_shard_results(
                    engine_cfgs[seed].campaign,
                    plan,
                    results[seed],
                    campaign_route.total_length_km,
                )
                merge_s = time.perf_counter() - merge_started
                # The trace and the per-seed report quote the same float.
                merge_span.dur_s = merge_s
            if config.validate:
                outcome = validate_dataset(dataset)
                if not outcome.ok:
                    raise EngineError(
                        f"seed {seed} dataset failed validation: "
                        + "; ".join(str(issue) for issue in outcome.issues[:5])
                    )
            datasets[seed] = dataset
            if catalog is not None:
                with tracer.span("sweep.ingest", seed=seed):
                    catalog.ingest(dataset, seed=seed)

            window_span = {w.index: (w.start_m, w.end_m) for w in plan.windows}
            report = EngineReport(
                executor=stats.executor,
                workers=stats.workers,
                n_windows=plan.n_windows,
                n_batches=len(seed_batches[seed]),
                cache_hits=hits[seed],
                cache_misses=(plan.n_windows - hits[seed]) if cache else 0,
                validated=config.validate,
                merge_s=merge_s,
                **digests,
            )
            report.shards = [
                ShardMetrics(
                    index=index,
                    start_km=window_span[index][0] / 1000.0,
                    end_km=window_span[index][1] / 1000.0,
                    wall_s=result.wall_s,
                    records=result.records,
                    retries=retries[seed].get(index, 0),
                    from_checkpoint=result.from_checkpoint,
                    from_cache=result.from_cache,
                )
                for index, result in sorted(results[seed].items())
            ]
            report.total_wall_s = report.shard_wall_s
            engine_reports[seed] = report

            seed_runs.append(
                SeedRunMetrics(
                    seed=seed,
                    fingerprint=fingerprints[seed],
                    compute_wall_s=report.shard_wall_s,
                    records=report.total_records,
                    n_shards=plan.n_windows,
                    cache_hits=report.cache_hits,
                    cache_misses=report.cache_misses,
                    retries=report.total_retries,
                    **digests,
                )
            )
        if catalog is not None:
            catalog.close()

        # -- aggregate the paper statistics across seeds ------------------
        with tracer.span("sweep.stats"):
            names = (
                tuple(config.statistics)
                if config.statistics is not None
                else registered_statistics()
            )
            values: dict[str, dict[int, float]] = {name: {} for name in names}
            for seed in config.seeds:
                per_seed = evaluate_statistics(datasets[seed], names)
                for name, value in per_seed.items():
                    values[name][seed] = value

            summaries = []
            skipped = []
            for name in names:
                summary = summarize_statistic(
                    name, values[name], config.confidence,
                    config.bootstrap_samples,
                )
                if summary is None:
                    skipped.append(name)
                else:
                    summaries.append(summary)

        merged_metrics = None
        if registry is not None:
            registry.count("sweep.seeds", len(config.seeds))
            registry.count("sweep.pool_rebuilds", stats.pool_rebuilds)
            registry.count(
                "sweep.retries", sum(sum(r.values()) for r in retries.values())
            )
            # Fold per-worker shard snapshots in report order (seed order,
            # then shard index) so the merged section is identical for any
            # executor topology.  Replayed shards fold too — cache/checkpoint
            # sidecars persist the snapshot of the computation that produced
            # them, and each (seed, index) appears exactly once — so a warm
            # sweep reports the same shard-level totals as a cold one.
            merged_metrics = merge_snapshots(
                [registry.snapshot()]
                + [
                    result.metrics
                    for seed in config.seeds
                    for _, result in sorted(results[seed].items())
                    if result.metrics is not None
                ]
            )
            tracer.emit_metrics(merged_metrics, scope="sweep")

        # total_wall_s and the root span must quote the SAME float, so the
        # per-phase breakdown printed by ``python -m repro.obs`` sums to
        # the report total exactly.
        total_wall_s = time.perf_counter() - started
        root.dur_s = total_wall_s

        sweep_report = SweepReport(
            seeds=tuple(config.seeds),
            scale=config.scale,
            executor=stats.executor,
            workers=stats.workers,
            n_windows=max(p.n_windows for p in plans.values()),
            confidence=config.confidence,
            bootstrap_samples=config.bootstrap_samples,
            seed_runs=seed_runs,
            statistics=summaries,
            skipped_statistics=skipped,
            cache=cache.stats if cache is not None else None,
            total_wall_s=total_wall_s,
            pool_rebuilds=stats.pool_rebuilds,
            metrics=merged_metrics,
        )
    if config.report_path is not None:
        sweep_report.save(config.report_path)

    return SweepResult(
        datasets=datasets,
        engine_reports=engine_reports,
        report=sweep_report,
        cache=cache,
    )
