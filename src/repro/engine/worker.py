"""Shard execution: the unit of work a campaign engine worker performs.

:func:`execute_shard` is the top-level (picklable) entry point submitted to
``ProcessPoolExecutor`` — or called inline by the serial executor.  It runs
one :class:`ShardTask` to a :class:`ShardResult` and returns it; storing the
result is the driver's job, never the worker's.

Every shard is one route window: a :class:`DriveCampaign` over the window,
with the phones' RNG substreams derived from
``RngFactory(seed).shard(index)`` — a pure function of (root seed, window
index) — on the seed's shared network.  Its result carries the window's
dataset (active records, passive segments and macro handover count) plus
the cell ids its phones connected to, so the merge can count cells exactly.

For fault-tolerance testing, a task may carry a :class:`FaultSpec` that
makes early attempts fail — either by raising (exercising the retry path)
or by killing the worker process outright (exercising pool recovery).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
from repro.errors import EngineError
from repro.geo.route import Route, build_cross_country_route
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.radio.operators import Operator
from repro.rng import RngFactory

__all__ = ["FaultSpec", "ShardTask", "ShardResult", "execute_shard"]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Injected failure for one shard (testing hook).

    The first ``times`` attempts fail; later attempts succeed.  ``kind`` is
    ``"raise"`` (worker raises :class:`EngineError`) or ``"exit"`` (worker
    process dies with ``os._exit``, simulating a hard crash — only
    meaningful under the process executor; in-process execution degrades it
    to a raise so the host survives).
    """

    times: int = 1
    kind: str = "raise"

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "exit"):
            raise EngineError(f"unknown fault kind {self.kind!r}")
        if self.times < 1:
            raise EngineError("fault times must be >= 1")


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything a worker needs to execute one shard, picklable."""

    config: CampaignConfig
    window: CampaignWindow
    attempt: int = 0
    fault: FaultSpec | None = None
    #: Pid of the orchestrating process; lets an "exit" fault detect whether
    #: it is running in a separate worker process it may safely kill.
    parent_pid: int = 0
    #: Custom route, if the caller supplied one; workers otherwise rebuild
    #: the canonical cross-country route themselves.
    route: Route | None = None
    #: Trace file this shard's spans append to (``None`` = tracing off).
    #: Workers open the file independently (O_APPEND), so the path is the
    #: only thing that needs to cross the process boundary.
    trace_path: str | None = None
    #: Span id of the orchestrator's execute span, so shard spans emitted
    #: in a worker process attach under it in the reconstructed tree.
    trace_parent: str | None = None

    @property
    def index(self) -> int:
        return self.window.index


@dataclass(slots=True)
class ShardResult:
    """One shard's contribution to the merged dataset."""

    index: int
    dataset: DriveDataset
    #: Sorted sequence numbers of the active-layer cells each operator's
    #: phone connected to.
    active_cell_ids: dict[Operator, list[int]] = field(default_factory=dict)
    #: Distinct macro-grid cells of the window's own tiles, per operator.
    macro_cells: dict[Operator, int] = field(default_factory=dict)
    wall_s: float = 0.0
    #: Replayed from the shard store (``repro.sweep.cache``), not computed.
    from_cache: bool = False
    #: Metrics snapshot (``repro.obs.metrics`` shape) recorded while the
    #: shard computed; ``None`` unless the run was traced.  Rides back on
    #: the result so per-worker registries fold into the run report.
    metrics: dict | None = None

    @property
    def records(self) -> int:
        ds = self.dataset
        return (
            len(ds.throughput_samples) + len(ds.rtt_samples) + len(ds.tests)
            + len(ds.handovers) + len(ds.passive_coverage)
            + len(ds.offload_runs) + len(ds.video_runs) + len(ds.gaming_runs)
        )


def _maybe_fail(task: ShardTask) -> None:
    if task.fault is None or task.attempt >= task.fault.times:
        return
    if task.fault.kind == "exit" and os.getpid() != task.parent_pid:
        os._exit(17)
    raise EngineError(
        f"injected fault on shard {task.index} (attempt {task.attempt})",
        shard_index=task.index,
    )


def _run_window_shard(task: ShardTask) -> ShardResult:
    campaign = DriveCampaign(
        task.config,
        route=task.route if task.route is not None else build_cross_country_route(),
        window=task.window,
        rng_factory=RngFactory(seed=task.config.seed).shard(task.window.index),
    )
    dataset = campaign.run()
    return ShardResult(
        index=task.window.index,
        dataset=dataset,
        active_cell_ids=campaign.connected_cell_ids(),
        macro_cells=campaign.macro_cells,
    )


def execute_shard(task: ShardTask) -> ShardResult:
    """Run one shard to completion and return its result.

    When the task carries a ``trace_path``, the whole execution (including
    an injected-fault raise, which closes the span with ``status="error"``)
    is recorded as one ``engine.shard`` span parented under the
    orchestrator's execute span, and a per-shard metrics snapshot travels
    back on ``result.metrics``.  Untraced tasks hit the null tracer: no
    allocation, no clock reads, no I/O.
    """
    tracer = get_tracer(task.trace_path)
    with tracer.span(
        "engine.shard",
        parent=task.trace_parent,
        index=task.index,
        attempt=task.attempt,
        seed=task.config.seed,
    ) as span:
        _maybe_fail(task)
        started = time.perf_counter()
        result = _run_window_shard(task)
        result.wall_s = time.perf_counter() - started
        span.set(records=result.records)
        if tracer.enabled:
            registry = MetricsRegistry()
            registry.count("engine.shards_computed")
            registry.count("engine.records_generated", result.records)
            registry.observe("engine.shard_s", result.wall_s)
            result.metrics = registry.snapshot()
    return result
