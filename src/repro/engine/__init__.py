"""repro.engine — sharded, fault-tolerant campaign execution.

This package is the one way a campaign runs: it regenerates the paper's
8-day, 5711 km dataset as a set of independent **route shards**:

1. the :mod:`planner <repro.engine.planner>` splits the route into canonical
   distance windows on deployment-tile edges — a pure function of the
   campaign config, never of the executor topology;
2. :mod:`workers <repro.engine.worker>` run each window as a
   :class:`~repro.campaign.runner.DriveCampaign` on the seed's one network,
   with a deterministic per-shard RNG substream
   (``RngFactory(seed).shard(i)``), in parallel processes or in-process;
3. the :mod:`merger <repro.engine.merge>` stitches shard outputs back into
   one :class:`~repro.campaign.dataset.DriveDataset` in canonical order.

The same root seed therefore yields a **bit-identical dataset for any worker
count** — including the serial path used by :func:`repro.generate_dataset`.
Robustness rides on top: stored shards let an interrupted run resume from
completed windows, failed workers are retried with bounded budgets (hard
worker deaths rebuild the process pool), and every run emits an
:class:`~repro.engine.metrics.EngineReport`.

:func:`run_shards` is the one execution core, shared by :func:`run_engine`
and the multi-seed :func:`repro.sweep.run_sweep`: planned campaigns of one
or many seeds in, per-seed shard results out.  It replays whatever the
shard store (a :class:`~repro.sweep.cache.ShardCache`) holds, runs every
pending window as its own job — round-robin across seeds, through one
process pool — and stores each fresh result from the driver as it arrives.
A checkpoint directory is a shard cache without a size bound, addressed by
:func:`~repro.engine.checkpoint.config_fingerprint`, so a sweep's
``cache_dir`` is a valid ``checkpoint_dir`` and :func:`run_engine` replays
the shards a sweep computed.

Quickstart::

    from repro.engine import generate_dataset_parallel
    dataset = generate_dataset_parallel(seed=42, scale=0.2, workers=4)
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.campaign.validation import validate_dataset
from repro.engine import worker
from repro.engine.checkpoint import config_fingerprint, route_digest, source_digest
from repro.engine.merge import merge_shard_results
from repro.engine.metrics import EngineReport, ShardMetrics
from repro.engine.planner import PlannerParams, ShardPlan, plan_campaign
from repro.engine.worker import FaultSpec, ShardResult, ShardTask
from repro.errors import EngineError, ReproError
from repro.geo.route import Route, build_cross_country_route
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import get_tracer
from repro.store.format import STORE_FORMAT_VERSION

if TYPE_CHECKING:
    from repro.sweep.cache import ShardCache

__all__ = [
    "EngineConfig",
    "EngineReport",
    "FaultSpec",
    "PlannerParams",
    "SeedRun",
    "ShardPlan",
    "check_execution",
    "fold_metrics",
    "generate_dataset_parallel",
    "plan_campaign",
    "process_pool_usable",
    "run_engine",
    "run_shards",
    "seed_report",
]


def check_execution(
    executor: str,
    workers: int | None,
    max_retries: int,
    error: type[ReproError] = EngineError,
) -> None:
    """Reject execution knobs no run can honour, raising ``error``.

    Every driver config (:class:`EngineConfig`, the sweep's) runs this same
    check at construction, so a bad knob fails before any work starts.
    """
    if executor not in ("process", "serial"):
        raise error(f"unknown executor {executor!r}")
    if workers is not None and workers < 1:
        raise error("workers must be >= 1")
    if max_retries < 0:
        raise error("max_retries must be >= 0")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one engine run."""

    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: Worker processes; ``None`` uses the machine's CPU count.
    workers: int | None = None
    #: ``"process"`` (ProcessPoolExecutor) or ``"serial"`` (in-process).
    executor: str = "process"
    planner: PlannerParams = field(default_factory=PlannerParams)
    #: Shard store directory (:class:`~repro.sweep.cache.ShardCache`
    #: layout, e.g. a sweep's ``cache_dir``) for per-shard checkpoints;
    #: ``None`` disables them.
    checkpoint_dir: str | None = None
    #: Retries per shard before the run is abandoned.
    max_retries: int = 2
    #: Where to write the JSON :class:`EngineReport`; ``None`` skips it.
    report_path: str | None = None
    #: Run :func:`validate_dataset` on the merged result and raise on issues.
    validate: bool = False
    #: Columnar store catalog directory (:class:`repro.store.Catalog`); the
    #: merged dataset is ingested as a per-seed partition.  ``None`` skips.
    store_dir: str | None = None
    #: JSONL trace file (see :mod:`repro.obs`): phase spans, per-shard
    #: worker spans, and a merged metrics snapshot are appended there, and
    #: ``EngineReport.metrics`` is populated.  ``None`` (the default)
    #: disables tracing entirely — every instrumentation point degrades to
    #: the no-op tracer.  Deliberately excluded from the checkpoint/cache
    #: fingerprint: tracing may never change what gets computed.
    trace_path: str | None = None
    #: Testing hook: per-window injected faults (see :class:`FaultSpec`).
    inject_faults: Mapping[int, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_execution(self.executor, self.workers, self.max_retries)


# -- executors ---------------------------------------------------------------

#: Memoized result of the process-pool availability probe.  One probe pool
#: per *process*, not per engine run — a 50-seed sweep must not spawn 50
#: throwaway pools just to learn, 50 times, what the platform supports.
_POOL_PROBE_OK: bool | None = None


def process_pool_usable() -> bool:
    """Whether this platform can actually run ProcessPoolExecutor tasks.

    Runs one trivial task through a single-worker pool so the probe
    exercises real worker spawning — with lazily-spawning start methods,
    merely constructing the pool can succeed on platforms where running
    tasks would fail.  The verdict is memoized at module level.
    """
    global _POOL_PROBE_OK
    if _POOL_PROBE_OK is None:
        try:
            with ProcessPoolExecutor(max_workers=1) as probe:
                probe.submit(int).result()
            _POOL_PROBE_OK = True
        except (OSError, ValueError, NotImplementedError, BrokenProcessPool):
            _POOL_PROBE_OK = False  # sandboxed platforms without process pools
    return _POOL_PROBE_OK


@dataclass
class ExecutionStats:
    """What the executor observed while draining a job list."""

    #: Executor actually used ("serial" after the platform fallback).
    executor: str
    workers: int
    pool_rebuilds: int = 0


#: One job: an opaque unique tag and the window to compute.
Job = tuple[Hashable, ShardTask]
#: Callback invoked once per finished job: ``(tag, result, retries)``.
ResultCallback = Callable[[Hashable, ShardResult, int], None]


def _exhausted(task: ShardTask, attempts: int, exc: BaseException) -> EngineError:
    return EngineError(
        f"shard {task.index} failed after {attempts} attempts: {exc}",
        shard_index=task.index,
    )


def _execute_serial(
    jobs: Sequence[Job], max_retries: int, on_result: ResultCallback
) -> None:
    for tag, task in jobs:
        attempt = 0
        while True:
            try:
                # Looked up on the module at call time, so a wrapped
                # ``worker.execute_shard`` (a profiler's hook) is honoured.
                result = worker.execute_shard(replace(task, attempt=attempt))
            except Exception as exc:
                attempt += 1
                if attempt > max_retries:
                    raise _exhausted(task, attempt, exc) from exc
                continue
            on_result(tag, result, attempt)
            break


def _execute_process(
    jobs: Sequence[Job], max_retries: int, on_result: ResultCallback, workers: int
) -> int:
    """Drain ``jobs`` through a process pool; returns the number of pool
    rebuilds after hard worker deaths."""
    outstanding: dict[Hashable, ShardTask] = dict(jobs)
    if len(outstanding) != len(jobs):
        raise EngineError("job tags must be unique")
    attempts: dict[Hashable, int] = {tag: 0 for tag in outstanding}
    rebuilds = 0

    def record(tag: Hashable, result: ShardResult) -> None:
        on_result(tag, result, attempts[tag])
        del outstanding[tag]

    def charge(tag: Hashable, exc: BaseException) -> None:
        attempts[tag] += 1
        if attempts[tag] > max_retries:
            raise _exhausted(outstanding[tag], attempts[tag], exc) from exc

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while outstanding:
            futures = {
                pool.submit(
                    worker.execute_shard, replace(task, attempt=attempts[tag])
                ): tag
                for tag, task in outstanding.items()
            }
            pool_broken = False
            charged: set[Hashable] = set()
            not_done = set(futures)
            while not_done and not pool_broken:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    tag = futures[future]
                    try:
                        record(tag, future.result())
                    except BrokenProcessPool as exc:
                        # The pool is unusable: salvage nothing more from
                        # this round, charge the still-unfinished shards
                        # one attempt each, and rebuild the pool.
                        pool_broken = True
                        broken_exc = exc
                    except Exception as exc:
                        # Soft shard failure — the worker survived, so the
                        # pool is still usable: spend one retry and leave
                        # the shard outstanding for the next round.
                        charge(tag, exc)
                        charged.add(tag)
            if pool_broken:
                # Futures that finished before the crash may still hold
                # usable results — keep them, retry only the rest.
                for future, tag in futures.items():
                    if tag not in outstanding or tag in charged or not future.done():
                        continue
                    try:
                        record(tag, future.result())
                    except BaseException as exc:
                        # Charge the shard with its real failure, not the
                        # generic pool error, so the root cause surfaces
                        # if the retry budget runs out.
                        charge(tag, exc)
                        charged.add(tag)
                for tag in list(outstanding):
                    if tag not in charged:
                        charge(tag, broken_exc)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=workers)
                rebuilds += 1
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return rebuilds


def _execute(
    jobs: Sequence[Job],
    on_result: ResultCallback,
    executor: str,
    workers: int | None,
    max_retries: int,
) -> ExecutionStats:
    """Run every job to completion with retries and pool recovery; raises
    :class:`EngineError` once any shard exhausts ``max_retries``."""
    n_workers = workers or os.cpu_count() or 1
    if executor == "process" and jobs and not process_pool_usable():
        executor = "serial"
    stats = ExecutionStats(
        executor=executor, workers=n_workers if executor == "process" else 1
    )
    if executor == "serial" or not jobs:
        _execute_serial(jobs, max_retries, on_result)
    else:
        stats.pool_rebuilds = _execute_process(jobs, max_retries, on_result, n_workers)
    return stats


# -- the shard core ------------------------------------------------------------


@dataclass
class SeedRun:
    """One planned campaign's shards, as :func:`run_shards` leaves them."""

    campaign: CampaignConfig
    plan: ShardPlan
    fingerprint: str
    #: Every window's result, replayed or computed, by window index.
    results: dict[int, ShardResult] = field(default_factory=dict)
    #: Failed attempts before each computed window's result arrived.
    retries: dict[int, int] = field(default_factory=dict)
    #: Windows replayed from / missing in the shard store (both zero when
    #: the run has no store).
    cache_hits: int = 0
    cache_misses: int = 0


def run_shards(
    planned: Sequence[tuple[CampaignConfig, ShardPlan, str]],
    cache: ShardCache | None,
    route: Route | None,
    *,
    executor: str,
    workers: int | None,
    max_retries: int,
    trace_path: str | None,
    phase: str,
    inject_faults: Mapping[int, FaultSpec] | None = None,
) -> tuple[list[SeedRun], ExecutionStats]:
    """Bring every window of every planned campaign to a result.

    ``planned`` holds ``(campaign, plan, fingerprint)`` per seed.  Windows
    ``cache`` can serve are replayed; the rest run as one job each, ordered
    position-major round-robin across seeds so no seed's tail straggles
    behind another seed's whole campaign.  Each fresh result is stored in
    ``cache`` by this driver the moment it arrives, so an interrupted run
    keeps every finished window.  ``route`` is the caller's custom route
    (``None``: workers build the canonical one); ``phase`` prefixes the
    ``<phase>.replay`` and ``<phase>.execute`` spans; ``inject_faults`` maps
    window indices to :class:`FaultSpec` (testing hook).  Raises
    :class:`EngineError` once any window exhausts ``max_retries``.
    """
    tracer = get_tracer(trace_path)
    faults = inject_faults or {}
    runs = [SeedRun(campaign, plan, fp) for campaign, plan, fp in planned]
    if cache is not None:
        with tracer.span(f"{phase}.replay") as span:
            for run in runs:
                run.results.update(
                    cache.load_many(
                        run.fingerprint,
                        run.campaign.seed,
                        [w.index for w in run.plan.windows],
                    )
                )
                run.cache_hits = len(run.results)
                run.cache_misses = run.plan.n_windows - run.cache_hits
            span.set(hits=sum(run.cache_hits for run in runs))

    def on_result(tag: Hashable, result: ShardResult, attempt: int) -> None:
        run = runs[tag[0]]
        run.results[result.index] = result
        run.retries[result.index] = attempt
        if cache is not None:
            cache.store(run.fingerprint, run.campaign.seed, result)

    with tracer.span(f"{phase}.execute") as exec_span:
        pending = [
            [w for w in run.plan.windows if w.index not in run.results]
            for run in runs
        ]
        jobs = [
            (
                (i, window.index),
                ShardTask(
                    config=runs[i].campaign,
                    window=window,
                    fault=faults.get(window.index),
                    parent_pid=os.getpid(),
                    route=route,
                    trace_path=trace_path,
                    trace_parent=exec_span.span_id,
                ),
            )
            for column in itertools.zip_longest(*pending)
            for i, window in enumerate(column)
            if window is not None
        ]
        exec_span.set(jobs=len(jobs))
        stats = _execute(jobs, on_result, executor, workers, max_retries)
    return runs, stats


def seed_report(run: SeedRun, stats: ExecutionStats, route: Route) -> EngineReport:
    """One seed's :class:`EngineReport` as far as execution knows it: the
    executor, replay counts, fingerprint inputs and one row per shard.
    Callers add merge time, wall time, validation and metrics."""
    windows = {w.index: w for w in run.plan.windows}
    return EngineReport(
        executor=stats.executor,
        workers=stats.workers,
        n_windows=run.plan.n_windows,
        pool_rebuilds=stats.pool_rebuilds,
        cache_hits=run.cache_hits,
        cache_misses=run.cache_misses,
        route_digest=route_digest(route),
        source_digest=source_digest(),
        store_format_version=STORE_FORMAT_VERSION,
        shards=[
            ShardMetrics(
                index=index,
                start_km=windows[index].start_m / 1000.0,
                end_km=windows[index].end_m / 1000.0,
                wall_s=result.wall_s,
                records=result.records,
                retries=run.retries.get(index, 0),
                from_cache=result.from_cache,
            )
            for index, result in sorted(run.results.items())
        ],
    )


def fold_metrics(
    driver: MetricsRegistry,
    runs: Sequence[SeedRun],
    stats: ExecutionStats,
    phase: str,
) -> dict:
    """The driver's counters plus every shard's snapshot, as one snapshot.

    Shard snapshots fold in run order, then shard index, so the section is
    identical for every executor topology.  Replayed shards fold too:
    their sidecars carry the snapshot recorded when the shard was computed,
    and each window appears once, so a resumed or warm run reports the same
    shard-level totals as an uninterrupted cold one.
    """
    driver.count(f"{phase}.pool_rebuilds", stats.pool_rebuilds)
    driver.count(f"{phase}.retries", sum(sum(run.retries.values()) for run in runs))
    return merge_snapshots(
        [driver.snapshot()]
        + [
            result.metrics
            for run in runs
            for _, result in sorted(run.results.items())
            if result.metrics is not None
        ]
    )


# -- entry points ------------------------------------------------------------


def run_engine(
    config: EngineConfig, route: Route | None = None
) -> tuple[DriveDataset, EngineReport]:
    """Execute a campaign under the sharded engine.

    Returns the merged dataset and the execution report.  Raises
    :class:`EngineError` when a shard exhausts its retry budget or (with
    ``config.validate``) the merged dataset violates an invariant.

    With ``config.checkpoint_dir`` set, every shard stored there under this
    run's fingerprint is replayed instead of recomputed, and each fresh
    shard is stored the moment it finishes.
    """
    tracer = get_tracer(config.trace_path)
    driver = MetricsRegistry() if tracer.enabled else None
    started = time.perf_counter()
    with tracer.span(
        "engine.run",
        seed=config.campaign.seed,
        scale=config.campaign.scale,
        executor=config.executor,
    ) as root:
        with tracer.span("engine.plan"):
            campaign_route = route or build_cross_country_route()
            plan = plan_campaign(config.campaign, campaign_route, config.planner)
            fingerprint = config_fingerprint(config.campaign, plan, campaign_route)

        cache = None
        if config.checkpoint_dir is not None:
            # Imported lazily: repro.sweep imports this package.
            from repro.sweep.cache import ShardCache

            cache = ShardCache(config.checkpoint_dir, metrics=driver)
        (run,), stats = run_shards(
            [(config.campaign, plan, fingerprint)],
            cache,
            route,
            executor=config.executor,
            workers=config.workers,
            max_retries=config.max_retries,
            trace_path=config.trace_path,
            phase="engine",
            inject_faults=config.inject_faults,
        )
        report = seed_report(run, stats, campaign_route)

        merge_started = time.perf_counter()
        with tracer.span("engine.merge", seed=config.campaign.seed) as merge_span:
            dataset = merge_shard_results(
                config.campaign, plan, run.results, campaign_route.total_length_km
            )
            report.merge_s = time.perf_counter() - merge_started
            # Freeze the span to the report's merge_s: the trace and the
            # report must quote the *same* float.
            merge_span.dur_s = report.merge_s

        if config.validate:
            with tracer.span("engine.validate"):
                outcome = validate_dataset(dataset)
                report.validated = True
                if not outcome.ok:
                    raise EngineError(
                        "merged dataset failed validation: "
                        + "; ".join(str(issue) for issue in outcome.issues[:5])
                    )
        if config.store_dir is not None:
            from repro.store.catalog import Catalog

            with tracer.span("engine.ingest", seed=config.campaign.seed):
                with Catalog(config.store_dir) as catalog:
                    catalog.ingest(dataset)

        if driver is not None:
            driver.count("engine.runs", 1)
            report.metrics = fold_metrics(driver, [run], stats, "engine")
            tracer.emit_metrics(report.metrics, scope="engine")

        # total_wall_s and the root span must quote the SAME float, so the
        # per-phase breakdown printed by ``python -m repro.obs`` sums to
        # the report total exactly.
        report.total_wall_s = time.perf_counter() - started
        root.dur_s = report.total_wall_s

    if config.report_path is not None:
        report.save(config.report_path)
    return dataset, report


def generate_dataset_parallel(
    seed: int = 42,
    scale: float = 1.0,
    include_apps: bool = True,
    include_static: bool = True,
    *,
    workers: int | None = None,
    executor: str = "process",
    checkpoint_dir: str | None = None,
    max_retries: int = 2,
    report_path: str | None = None,
    validate: bool = False,
    store_dir: str | None = None,
    window_km: float | None = None,
    trace_path: str | None = None,
) -> DriveDataset:
    """Generate a campaign dataset on all available cores.

    Drop-in parallel counterpart of :func:`repro.generate_dataset`: the same
    ``seed`` and ``scale`` produce a bit-identical dataset at any
    ``workers`` setting, because shard decomposition and per-shard RNG
    substreams depend only on the campaign configuration.

    Parameters beyond the :func:`repro.generate_dataset` quartet:

    workers / executor:
        Execution topology (see :class:`EngineConfig`) — result-neutral.
    checkpoint_dir:
        Enables per-shard checkpoints; rerunning with the same directory and
        configuration resumes from completed shards.
    max_retries / report_path / validate:
        Fault-tolerance budget, JSON report output, and post-merge
        validation.
    store_dir:
        Ingest the merged dataset into a columnar store catalog
        (:mod:`repro.store`) at this directory.
    window_km:
        Override the planner's adaptive shard window length.
    trace_path:
        Append a structured JSONL trace (:mod:`repro.obs`) to this file.
    """
    config = EngineConfig(
        campaign=CampaignConfig(
            seed=seed, scale=scale,
            include_apps=include_apps, include_static=include_static,
        ),
        workers=workers,
        executor=executor,
        planner=PlannerParams(window_km=window_km),
        checkpoint_dir=checkpoint_dir,
        max_retries=max_retries,
        report_path=report_path,
        validate=validate,
        store_dir=store_dir,
        trace_path=trace_path,
    )
    dataset, _report = run_engine(config)
    return dataset
