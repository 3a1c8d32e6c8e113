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

The same root seed therefore yields a **bit-identical dataset for any shard
batching or worker count** — including the serial path used by
:func:`repro.generate_dataset`.  Robustness rides on top: per-shard
checkpoints let an interrupted run resume from completed shards, failed
workers are retried with bounded budgets (hard worker deaths rebuild the
process pool), and every run emits an
:class:`~repro.engine.metrics.EngineReport`.

A checkpoint directory is a :class:`~repro.sweep.cache.ShardCache` without
a size bound, addressed by :func:`~repro.engine.checkpoint.config_fingerprint`
— the same store a sweep's shard cache uses, so a sweep's ``cache_dir`` is
a valid ``checkpoint_dir`` and :func:`run_engine` replays the shards a
sweep computed.

For multi-run drivers such as :mod:`repro.sweep`, :func:`execute_jobs` is
the seed-agnostic execution core — tagged batches in, results out — and a
:class:`WorkerPool` can be shared across many calls so a 50-seed sweep
reuses one process pool instead of spinning up fifty.

Quickstart::

    from repro.engine import generate_dataset_parallel
    dataset = generate_dataset_parallel(seed=42, scale=0.2, workers=4)
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig, CampaignWindow
from repro.campaign.validation import validate_dataset
from repro.engine.checkpoint import config_fingerprint, route_digest, source_digest
from repro.engine.merge import merge_shard_results
from repro.engine.metrics import EngineReport, ShardMetrics
from repro.engine.planner import PlannerParams, ShardPlan, plan_campaign
from repro.engine.worker import (
    FaultSpec,
    ShardResult,
    ShardTask,
    execute_batch,
    with_attempt,
)
from repro.errors import EngineError
from repro.geo.route import Route, build_cross_country_route
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import get_tracer
from repro.store.format import STORE_FORMAT_VERSION

__all__ = [
    "EngineConfig",
    "EngineReport",
    "FaultSpec",
    "PlannerParams",
    "ShardPlan",
    "WorkerPool",
    "build_task_batches",
    "execute_jobs",
    "generate_dataset_parallel",
    "plan_campaign",
    "process_pool_usable",
    "run_engine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one engine run."""

    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: Worker processes; ``None`` uses the machine's CPU count.
    workers: int | None = None
    #: Number of execution batches the windows are grouped into; ``None``
    #: submits every window as its own batch.  Pure scheduling knob — the
    #: merged dataset is identical for every value.
    shards: int | None = None
    #: ``"process"`` (ProcessPoolExecutor) or ``"serial"`` (in-process).
    executor: str = "process"
    planner: PlannerParams = field(default_factory=PlannerParams)
    #: Shard store directory (:class:`~repro.sweep.cache.ShardCache`
    #: layout, e.g. a sweep's ``cache_dir``) for per-shard checkpoints;
    #: ``None`` disables them.
    checkpoint_dir: str | None = None
    #: Retries per shard batch before the run is abandoned.
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
        if self.executor not in ("process", "serial"):
            raise EngineError(f"unknown executor {self.executor!r}")
        if self.workers is not None and self.workers < 1:
            raise EngineError("workers must be >= 1")
        if self.max_retries < 0:
            raise EngineError("max_retries must be >= 0")


# -- task construction -------------------------------------------------------


def build_task_batches(
    config: EngineConfig,
    plan: ShardPlan,
    pending_windows: list[CampaignWindow],
    fingerprint: str,
    route: Route | None,
    trace_parent: str | None = None,
) -> list[tuple[ShardTask, ...]]:
    """Group the pending windows into submission batches.

    ``trace_parent`` is the orchestrator's execute-span id; it rides on
    every task so worker-emitted shard spans attach under it.
    """

    def task(window: CampaignWindow) -> ShardTask:
        return ShardTask(
            config=config.campaign,
            window=window,
            checkpoint_dir=config.checkpoint_dir,
            fingerprint=fingerprint,
            fault=config.inject_faults.get(window.index),
            parent_pid=os.getpid(),
            route=route,
            trace_path=config.trace_path,
            trace_parent=trace_parent,
        )

    window_plan = ShardPlan(
        windows=tuple(pending_windows),
        nominal_cycle_s=plan.nominal_cycle_s,
        window_km=plan.window_km,
    )
    return [
        tuple(task(w) for w in group) for group in window_plan.batches(config.shards)
    ]


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


class WorkerPool:
    """A reusable, rebuildable process pool shared across engine calls.

    The engine rebuilds the underlying ``ProcessPoolExecutor`` in place
    after a hard worker death, so a handle stays valid across failures and
    across any number of :func:`execute_jobs` / :func:`run_engine` calls.
    Callers that pass their own pool keep ownership: the engine never shuts
    down a borrowed pool, only :meth:`shutdown` (or the context manager
    exit) does.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise EngineError("workers must be >= 1")
        self.workers = workers
        self.rebuilds = 0
        self._pool: ProcessPoolExecutor | None = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        """The live pool, created lazily on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def rebuild(self) -> None:
        """Discard a broken pool and start a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self.rebuilds += 1

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


@dataclass
class ExecutionStats:
    """What :func:`execute_jobs` observed while draining its job list."""

    #: Executor actually used ("serial" after the platform fallback).
    executor: str
    workers: int
    pool_rebuilds: int = 0


#: Callback invoked once per completed batch: ``(tag, outcomes, retries)``.
ResultCallback = Callable[[Hashable, list[ShardResult], int], None]


def _execute_serial(
    jobs: Sequence[tuple[Hashable, tuple[ShardTask, ...]]],
    max_retries: int,
    on_result: ResultCallback,
) -> None:
    for tag, batch in jobs:
        attempt = 0
        while True:
            try:
                outcomes = execute_batch(with_attempt(batch, attempt))
            except Exception as exc:
                attempt += 1
                if attempt > max_retries:
                    raise EngineError(
                        f"shard batch {[t.index for t in batch]} failed after "
                        f"{attempt} attempts: {exc}",
                        shard_index=batch[0].index,
                    ) from exc
                continue
            on_result(tag, outcomes, attempt)
            break


def _execute_process(
    jobs: Sequence[tuple[Hashable, tuple[ShardTask, ...]]],
    max_retries: int,
    on_result: ResultCallback,
    pool: WorkerPool,
) -> int:
    """Drain ``jobs`` through ``pool``; returns the number of pool rebuilds."""
    outstanding: dict[Hashable, tuple[ShardTask, ...]] = dict(jobs)
    if len(outstanding) != len(jobs):
        raise EngineError("job tags must be unique")
    attempts: dict[Hashable, int] = {tag: 0 for tag in outstanding}
    rebuilds = 0

    def record(tag: Hashable, outcomes: list[ShardResult]) -> None:
        on_result(tag, outcomes, attempts[tag])
        del outstanding[tag]

    def charge(tag: Hashable, exc: BaseException) -> None:
        attempts[tag] += 1
        if attempts[tag] > max_retries:
            batch = outstanding[tag]
            raise EngineError(
                f"shard batch {[t.index for t in batch]} failed after "
                f"{attempts[tag]} attempts: {exc}",
                shard_index=batch[0].index,
            ) from exc

    while outstanding:
        futures = {
            pool.executor.submit(execute_batch, with_attempt(batch, attempts[tag])): tag
            for tag, batch in outstanding.items()
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
                    # this round, charge the still-unfinished batches
                    # one attempt each, and rebuild the pool.
                    pool_broken = True
                    broken_exc = exc
                except Exception as exc:
                    # Soft shard failure — the worker survived, so the
                    # pool is still usable: spend one retry and leave the
                    # batch outstanding for the next submission round.
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
                    # Charge the batch with its real failure, not the
                    # generic pool error, so the root cause surfaces if
                    # the retry budget runs out.
                    charge(tag, exc)
                    charged.add(tag)
            for tag in list(outstanding):
                if tag not in charged:
                    charge(tag, broken_exc)
            pool.rebuild()
            rebuilds += 1
    return rebuilds


def execute_jobs(
    jobs: Sequence[tuple[Hashable, tuple[ShardTask, ...]]],
    on_result: ResultCallback,
    *,
    executor: str = "process",
    workers: int | None = None,
    max_retries: int = 2,
    pool: WorkerPool | None = None,
) -> ExecutionStats:
    """Run tagged shard batches to completion with retries and pool recovery.

    The seed-agnostic execution core shared by :func:`run_engine` and the
    multi-seed sweep driver: each job is an opaque ``tag`` plus a batch of
    :class:`ShardTask`; ``on_result(tag, outcomes, retries)`` fires as each
    batch completes.  A borrowed :class:`WorkerPool` is reused and left
    running; otherwise a private pool is created and torn down.  Raises
    :class:`EngineError` once any batch exhausts ``max_retries``.
    """
    n_workers = workers or os.cpu_count() or 1
    if executor == "process" and jobs and not process_pool_usable():
        executor = "serial"
    stats = ExecutionStats(
        executor=executor, workers=n_workers if executor == "process" else 1
    )
    if executor == "serial" or not jobs:
        _execute_serial(jobs, max_retries, on_result)
        return stats
    if pool is not None:
        stats.pool_rebuilds = _execute_process(jobs, max_retries, on_result, pool)
        return stats
    with WorkerPool(n_workers) as owned:
        stats.pool_rebuilds = _execute_process(jobs, max_retries, on_result, owned)
    return stats


# -- entry points ------------------------------------------------------------


def run_engine(
    config: EngineConfig,
    route: Route | None = None,
    *,
    pool: WorkerPool | None = None,
) -> tuple[DriveDataset, EngineReport]:
    """Execute a campaign under the sharded engine.

    Returns the merged dataset and the execution report.  Raises
    :class:`EngineError` when a shard exhausts its retry budget or (with
    ``config.validate``) the merged dataset violates an invariant.

    With ``config.checkpoint_dir`` set, every shard stored there under this
    run's fingerprint is replayed instead of recomputed, and workers store
    each fresh shard the moment it finishes.  ``pool`` lets repeated calls
    share one :class:`WorkerPool` instead of spinning up a process pool per
    run.
    """
    tracer = get_tracer(config.trace_path)
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
        indices = [w.index for w in plan.windows]

        results: dict[int, ShardResult] = {}
        retries: dict[int, int] = {}
        if config.checkpoint_dir is not None:
            # Imported lazily: repro.sweep imports this package.
            from repro.sweep.cache import ShardCache

            with tracer.span("engine.checkpoint.load") as sp:
                store = ShardCache(config.checkpoint_dir)
                results.update(
                    store.load_many(fingerprint, config.campaign.seed, indices)
                )
                for result in results.values():
                    result.from_cache, result.from_checkpoint = False, True
                retries.update({index: 0 for index in results})
                sp.set(hits=len(results))

        pending = [w for w in plan.windows if w.index not in results]

        def on_result(
            tag: Hashable, outcomes: list[ShardResult], attempt: int
        ) -> None:
            for outcome in outcomes:
                results[outcome.index] = outcome
                retries[outcome.index] = attempt

        with tracer.span("engine.execute") as exec_span:
            batches = build_task_batches(
                config, plan, pending, fingerprint, route,
                trace_parent=exec_span.span_id,
            )
            exec_span.set(batches=len(batches))
            stats = execute_jobs(
                list(enumerate(batches)),
                on_result,
                executor=config.executor,
                workers=config.workers,
                max_retries=config.max_retries,
                pool=pool,
            )

        report = EngineReport(
            executor=stats.executor,
            workers=stats.workers,
            n_windows=plan.n_windows,
            n_batches=len(batches),
            pool_rebuilds=stats.pool_rebuilds,
            route_digest=route_digest(campaign_route),
            source_digest=source_digest(),
            store_format_version=STORE_FORMAT_VERSION,
        )

        merge_started = time.perf_counter()
        with tracer.span("engine.merge", seed=config.campaign.seed) as merge_span:
            dataset = merge_shard_results(
                config.campaign, plan, results, campaign_route.total_length_km
            )
            report.merge_s = time.perf_counter() - merge_started
            # Freeze the span to the report's merge_s: the trace and the
            # report must quote the *same* float.
            merge_span.dur_s = report.merge_s

        window_span = {w.index: (w.start_m, w.end_m) for w in plan.windows}
        report.shards = [
            ShardMetrics(
                index=index,
                start_km=window_span[index][0] / 1000.0,
                end_km=window_span[index][1] / 1000.0,
                wall_s=result.wall_s,
                records=result.records,
                retries=retries.get(index, 0),
                from_checkpoint=result.from_checkpoint,
                from_cache=result.from_cache,
            )
            for index, result in sorted(results.items())
        ]

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

        if tracer.enabled:
            driver = MetricsRegistry()
            driver.count("engine.runs", 1)
            driver.count("engine.pool_rebuilds", stats.pool_rebuilds)
            driver.count("engine.retries", sum(retries.values()))
            # Fold worker snapshots in sorted shard order so the merged
            # section is identical for every executor topology.  Replayed
            # checkpoint shards fold too: their sidecars carry the
            # snapshot recorded when the shard was computed, and the results
            # dict holds each shard exactly once, so a resumed run reports
            # the same shard-level totals as an uninterrupted one.
            report.metrics = merge_snapshots(
                [driver.snapshot()]
                + [
                    result.metrics
                    for _, result in sorted(results.items())
                    if result.metrics is not None
                ]
            )
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
    shards: int | None = None,
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
    ``seed`` and ``scale`` produce a bit-identical dataset at any ``workers``
    or ``shards`` setting, because shard decomposition and per-shard RNG
    substreams depend only on the campaign configuration.

    Parameters beyond the :func:`repro.generate_dataset` quartet:

    workers / shards / executor:
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
        shards=shards,
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
