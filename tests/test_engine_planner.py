"""Planner: canonical window decomposition and its invariants."""

import dataclasses

import pytest

from repro.campaign.runner import CampaignConfig
from repro.engine import PlannerParams, plan_campaign
from repro.engine.checkpoint import config_fingerprint
from repro.engine.planner import (
    TEST_ID_STRIDE,
    nominal_cycle_duration_s,
)
from repro.radio.deployment import TILE_LENGTH_M
from repro.errors import EngineError
from repro.geo.coords import LatLon
from repro.geo.regions import RegionType
from repro.geo.route import Route, build_cross_country_route


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(seed=42, scale=0.01)


@pytest.fixture(scope="module")
def plan(config, route):
    return plan_campaign(config, route, PlannerParams(window_km=500.0))


class TestDecomposition:
    def test_windows_tile_route_exactly(self, plan, route):
        assert plan.windows[0].start_m == 0.0
        assert plan.windows[-1].end_m == pytest.approx(route.total_length_m)
        for prev, nxt in zip(plan.windows, plan.windows[1:]):
            assert nxt.start_m == pytest.approx(prev.end_m)

    def test_indices_and_id_namespaces(self, plan):
        for i, window in enumerate(plan.windows):
            assert window.index == i
            assert window.test_id_base == (i + 1) * TEST_ID_STRIDE

    def test_plan_is_pure_function(self, config, route):
        params = PlannerParams(window_km=500.0)
        assert plan_campaign(config, route, params) == plan_campaign(
            config, route, params
        )

    def test_windows_lie_on_tile_edges(self, plan, route):
        # Every window is a run of whole deployment tiles, so each zone of
        # the seed's network belongs to exactly one window.
        for window in plan.windows:
            assert window.start_m % TILE_LENGTH_M == 0.0
            assert window.end_m - window.start_m >= min(
                TILE_LENGTH_M, route.total_length_m - window.start_m
            )
            assert (
                window.end_m % TILE_LENGTH_M == 0.0
                or window.end_m == route.total_length_m
            )

    def test_window_km_override(self, config, route):
        coarse = plan_campaign(config, route, PlannerParams(window_km=2000.0))
        fine = plan_campaign(config, route, PlannerParams(window_km=400.0))
        assert coarse.n_windows < fine.n_windows
        assert fine.n_windows >= 10


class TestAdaptiveSizing:
    def test_smaller_scale_means_fewer_windows(self, route):
        # Window length tracks the duty-cycle stride (~1/scale), keeping the
        # per-window cycle count roughly scale-independent.
        small = plan_campaign(CampaignConfig(seed=1, scale=0.003), route)
        large = plan_campaign(CampaignConfig(seed=1, scale=0.05), route)
        assert small.n_windows <= large.n_windows
        assert small.window_km > large.window_km

    def test_cycle_duration_shrinks_without_apps(self, route):
        with_apps = nominal_cycle_duration_s(CampaignConfig(include_apps=True))
        without = nominal_cycle_duration_s(CampaignConfig(include_apps=False))
        assert without < with_apps


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_km": 0.0},
            {"window_km": -5.0},
            {"cycles_per_window": 0.0},
            {"min_window_km": -1.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(EngineError):
            PlannerParams(**kwargs)


class TestFingerprint:
    def test_stable_for_equal_inputs(self, config, route, plan):
        assert config_fingerprint(config, plan, route) == config_fingerprint(
            config, plan, build_cross_country_route()
        )

    def test_sensitive_to_seed_scale_and_windows(self, config, route, plan):
        base = config_fingerprint(config, plan, route)
        other_seed = CampaignConfig(seed=43, scale=config.scale)
        other_scale = CampaignConfig(seed=config.seed, scale=0.02)
        other_plan = plan_campaign(config, route, PlannerParams(window_km=900.0))
        assert config_fingerprint(other_seed, plan, route) != base
        assert config_fingerprint(other_scale, plan, route) != base
        assert config_fingerprint(config, other_plan, route) != base

    def test_sensitive_to_every_route_field(self, config, route, plan):
        base = config_fingerprint(config, plan, route)
        seg = route.segments[1]
        edits = [
            {"region": RegionType.CITY},
            {"city": "Elsewhere"},
            {"length_m": seg.length_m + 1.0},
            {"end_point": LatLon(seg.end_point.lat + 0.01, seg.end_point.lon)},
        ]
        for edit in edits:
            segments = list(route.segments)
            segments[1] = dataclasses.replace(seg, **edit)
            other = Route(segments=segments, cities=route.cities)
            assert config_fingerprint(config, plan, other) != base, edit
        fewer_cities = Route(segments=list(route.segments), cities=route.cities[:-1])
        assert config_fingerprint(config, plan, fewer_cities) != base
