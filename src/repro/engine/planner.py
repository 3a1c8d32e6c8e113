"""Shard planning: split one drive campaign into canonical route windows.

The planner is the determinism anchor of the engine.  It decomposes the
LA→Boston route into contiguous distance windows **as a pure function of the
campaign configuration** — never of the worker count or any runtime
state.  Each window later runs as an independent shard with its own
RNG substream for the phones (``RngFactory(seed).shard(index)``), so the
merged dataset is bit-identical however the windows are scheduled.

Windows are whole runs of deployment tiles, so each zone of the seed's
network belongs to exactly one window, whose passive loggers walk it.

Window sizing adapts to the campaign's duty cycle: one measurement cycle plus
its fast-forward skip covers ``nominal_cycle_km / scale`` of road, and a
window should hold a few such strides — enough that the record count keeps
tracking the scale, while still producing tens of shards for parallel
execution at production scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.campaign.runner import (
    CampaignConfig,
    CampaignWindow,
    NOMINAL_CRUISE_MPS,
)
from repro.campaign.tests import TEST_DURATIONS_S, TestType
from repro.errors import EngineError
from repro.geo.route import Route
from repro.radio.deployment import TILE_LENGTH_M

__all__ = [
    "PlannerParams",
    "ShardPlan",
    "nominal_cycle_duration_s",
    "plan_campaign",
    "TEST_ID_STRIDE",
]

#: Test-id namespace stride: window ``i`` allocates ids in
#: ``(i+1)*STRIDE + 1 ..``, keeping ids disjoint and deterministic without a
#: renumbering pass at merge time.
TEST_ID_STRIDE = 1_000_000


@dataclass(frozen=True, slots=True)
class PlannerParams:
    """Knobs of the window decomposition.

    ``window_km`` overrides the adaptive sizing entirely; otherwise a window
    spans ``cycles_per_window`` nominal cycle strides (cycle distance divided
    by the duty-cycle scale), clamped below by ``min_window_km`` so shards
    stay coarse enough to amortise their per-shard set-up.
    """

    window_km: float | None = None
    cycles_per_window: float = 4.0
    min_window_km: float = 150.0

    def __post_init__(self) -> None:
        if self.window_km is not None and self.window_km <= 0.0:
            raise EngineError(f"window_km must be positive, got {self.window_km}")
        if self.cycles_per_window <= 0.0:
            raise EngineError("cycles_per_window must be positive")
        if self.min_window_km <= 0.0:
            raise EngineError("min_window_km must be positive")


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The canonical decomposition of one campaign into route windows."""

    windows: tuple[CampaignWindow, ...]
    nominal_cycle_s: float
    window_km: float

    @property
    def n_windows(self) -> int:
        return len(self.windows)


def nominal_cycle_duration_s(config: CampaignConfig) -> float:
    """Wall-clock length of one round-robin cycle under ``config``.

    Uses the configured video/gaming session lengths (which may differ from
    the defaults in :data:`TEST_DURATIONS_S`) and counts the AR/CAV
    compression doubling plus one inter-test gap per run — mirroring exactly
    what :meth:`DriveCampaign._run_cycle` executes.
    """
    plan = config.cycle if config.include_apps else config.cycle.without_apps()
    total = 0.0
    runs = 0
    for test in plan.tests:
        multiplier = 2 if test in (TestType.AR, TestType.CAV) else 1
        if test is TestType.VIDEO_360:
            duration = config.video_duration_s
        elif test is TestType.CLOUD_GAMING:
            duration = config.gaming_duration_s
        else:
            duration = TEST_DURATIONS_S[test]
        total += multiplier * duration
        runs += multiplier
    return total + runs * config.inter_test_gap_s


def plan_campaign(
    config: CampaignConfig,
    route: Route,
    params: PlannerParams | None = None,
) -> ShardPlan:
    """Split ``route`` into the canonical shard windows for ``config``.

    The decomposition depends only on ``(config, route, params)`` — equal
    inputs always produce the identical window list: ``ceil(route length /
    window_km)`` windows (at most one per tile) of whole tiles, dealt evenly.
    """
    params = params or PlannerParams()
    cycle_s = nominal_cycle_duration_s(config)
    stride_km = cycle_s * NOMINAL_CRUISE_MPS / 1000.0 / config.scale

    if params.window_km is not None:
        window_km = params.window_km
    else:
        window_km = max(params.cycles_per_window * stride_km, params.min_window_km)

    total_m = route.total_length_m
    n_tiles = math.ceil(total_m / TILE_LENGTH_M)
    n = min(max(1, math.ceil(route.total_length_km / window_km)), n_tiles)

    windows = []
    for i in range(n):
        first, last = i * n_tiles // n, (i + 1) * n_tiles // n
        windows.append(
            CampaignWindow(
                index=i,
                start_m=first * TILE_LENGTH_M,
                end_m=min(last * TILE_LENGTH_M, total_m),
                test_id_base=(i + 1) * TEST_ID_STRIDE,
            )
        )
    return ShardPlan(
        windows=tuple(windows),
        nominal_cycle_s=cycle_s,
        window_km=total_m / n / 1000.0,
    )
