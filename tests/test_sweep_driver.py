"""The sweep driver: per-seed determinism, cache replay, and the report.

The acceptance bar mirrors the engine's: every seed's dataset must be
bit-identical to a standalone ``run_engine`` of that seed — whether its
shards were computed cold, interleaved with other seeds, or replayed from a
warm cache — and a warm re-sweep must be served entirely from cache.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.conftest import ENGINE_CAMPAIGN, ENGINE_WINDOW_KM, engine_dataset_bytes
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.engine.checkpoint import route_digest, source_digest
from repro.errors import SweepError
from repro.geo.regions import RegionType
from repro.geo.route import Route, build_cross_country_route
from repro.sweep import SweepConfig, SweepReport, run_sweep
from repro.store.format import STORE_FORMAT_VERSION
from repro.sweep.report import SWEEP_SCHEMA_VERSION

SEEDS = (ENGINE_CAMPAIGN.seed, ENGINE_CAMPAIGN.seed + 1)
PLANNER = PlannerParams(window_km=ENGINE_WINDOW_KM)


def sweep_config(tmp_path, **overrides):
    kwargs = dict(
        seeds=SEEDS,
        scale=ENGINE_CAMPAIGN.scale,
        include_apps=False,
        include_static=False,
        executor="serial",
        planner=PLANNER,
        cache_dir=str(tmp_path / "shard-cache"),
        bootstrap_samples=200,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One cold sweep over two seeds, shared by the read-only tests."""
    tmp = tmp_path_factory.mktemp("sweep")
    config = sweep_config(tmp, report_path=str(tmp / "sweep.json"))
    return config, run_sweep(config), tmp


class TestConfigValidation:
    def test_rejects_empty_seeds(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, seeds=())

    def test_rejects_duplicate_seeds(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, seeds=(1, 1))

    def test_rejects_unknown_statistic(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, statistics=("not_a_stat",))

    def test_rejects_bad_confidence(self, tmp_path):
        with pytest.raises(SweepError):
            sweep_config(tmp_path, confidence=1.0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"workers": 0},
            {"workers": -1},
            {"max_retries": -1},
            {"executor": "threads"},
        ],
    )
    def test_rejects_bad_execution_knobs(self, tmp_path, knobs):
        """The engine's own execution check, raised at construction."""
        with pytest.raises(SweepError):
            sweep_config(tmp_path, **knobs)


class TestPerSeedDeterminism:
    def test_seed_datasets_match_standalone_engine_runs(
        self, swept, engine_baseline, tmp_path
    ):
        """Interleaved multi-seed execution changes nothing per seed."""
        _, result, _ = swept
        _, base = engine_baseline  # standalone run of SEEDS[0]
        assert engine_dataset_bytes(result.datasets[SEEDS[0]], tmp_path) == base

        other = EngineConfig(
            campaign=ENGINE_CAMPAIGN.__class__(
                seed=SEEDS[1],
                scale=ENGINE_CAMPAIGN.scale,
                include_apps=False,
                include_static=False,
            ),
            executor="serial",
            planner=PLANNER,
        )
        standalone, _ = run_engine(other)
        assert engine_dataset_bytes(
            result.datasets[SEEDS[1]], tmp_path
        ) == engine_dataset_bytes(standalone, tmp_path)

    def test_process_sweep_matches_serial(self, swept, tmp_path):
        """The process executor computes the same bytes per seed, and the
        driver stores each shard exactly once."""
        _, serial, _ = swept
        result = run_sweep(sweep_config(tmp_path, executor="process", workers=2))
        for seed in SEEDS:
            assert engine_dataset_bytes(
                result.datasets[seed], tmp_path
            ) == engine_dataset_bytes(serial.datasets[seed], tmp_path)
        n_shards = sum(r.n_shards for r in result.report.seed_runs)
        assert result.cache.stats.stores == n_shards

    def test_seeds_produce_distinct_datasets(self, swept, tmp_path):
        _, result, _ = swept
        a = engine_dataset_bytes(result.datasets[SEEDS[0]], tmp_path)
        b = engine_dataset_bytes(result.datasets[SEEDS[1]], tmp_path)
        assert a != b


class TestCacheReplay:
    def test_cold_sweep_misses_then_populates(self, swept):
        _, result, _ = swept
        n_shards = sum(r.n_shards for r in result.report.seed_runs)
        assert result.cache.stats.misses == n_shards
        assert result.cache.stats.stores == n_shards
        assert result.report.cache_hit_ratio() == 0.0

    def test_warm_sweep_replays_every_shard(self, swept, tmp_path):
        config, cold, sweep_tmp = swept
        warm_config = sweep_config(
            sweep_tmp, cache_dir=str(sweep_tmp / "shard-cache")
        )
        warm = run_sweep(warm_config)
        assert warm.report.cache_hit_ratio() == 1.0
        assert warm.cache.stats.misses == 0
        for seed in SEEDS:
            assert engine_dataset_bytes(
                warm.datasets[seed], tmp_path
            ) == engine_dataset_bytes(cold.datasets[seed], tmp_path)
            report = warm.engine_reports[seed]
            assert all(s.from_cache for s in report.shards)
            assert report.cache_hits == len(report.shards)

    def test_warm_sweep_metrics_match_cold(self, tmp_path):
        """Regression: cache-replayed shards used to be dropped from the
        merged sweep metrics, so a warm traced sweep reported zero
        ``engine.shards_computed``.  Cached sidecars now carry the snapshot
        of the computation that produced them — warm equals cold."""
        from repro.obs.trace import reset_tracers

        try:
            cold = run_sweep(
                sweep_config(
                    tmp_path,  # fresh cache: every shard computes
                    trace_path=str(tmp_path / "cold.jsonl"),
                )
            )
            warm = run_sweep(
                sweep_config(
                    tmp_path,  # same cache dir: every shard replays
                    trace_path=str(tmp_path / "warm.jsonl"),
                )
            )
        finally:
            reset_tracers()
        assert warm.report.cache_hit_ratio() == 1.0
        cold_counters = cold.report.metrics["counters"]
        warm_counters = warm.report.metrics["counters"]
        for key in ("engine.shards_computed", "engine.records_generated"):
            assert warm_counters[key] == cold_counters[key], key

    def test_partial_overlap_reuses_shared_seeds(self, swept, tmp_path):
        """A later sweep over an overlapping seed list replays the overlap."""
        _, _, sweep_tmp = swept
        config = sweep_config(
            sweep_tmp,
            seeds=(SEEDS[1], SEEDS[1] + 1),  # one cached, one new
            cache_dir=str(sweep_tmp / "shard-cache"),
        )
        result = run_sweep(config)
        by_seed = {r.seed: r for r in result.report.seed_runs}
        assert by_seed[SEEDS[1]].cache_hit_ratio() == 1.0
        assert by_seed[SEEDS[1] + 1].cache_hits == 0

    def test_changed_planner_invalidates(self, swept):
        """A different window decomposition is a different computation: the
        cache must recompute everything, not merge foreign shards."""
        _, _, sweep_tmp = swept
        config = sweep_config(
            sweep_tmp,
            planner=PlannerParams(window_km=ENGINE_WINDOW_KM * 2),
            cache_dir=str(sweep_tmp / "shard-cache"),
        )
        result = run_sweep(config)
        assert result.cache.stats.hits == 0
        assert all(r.cache_hits == 0 for r in result.report.seed_runs)

    def test_sweep_cache_serves_run_engine(self, swept, engine_baseline, tmp_path):
        """One store: a sweep's cache_dir is a valid checkpoint_dir, and
        run_engine replays every sweep-computed shard byte-identically."""
        _, _, sweep_tmp = swept
        _, base = engine_baseline
        ds, report = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN, executor="serial", planner=PLANNER,
                checkpoint_dir=str(sweep_tmp / "shard-cache"),
            )
        )
        assert engine_dataset_bytes(ds, tmp_path) == base
        # Nothing was recomputed: every shard replayed, none missed.
        assert all(s.from_cache for s in report.shards)
        assert report.cache_hits == len(report.shards)
        assert report.cache_misses == 0

    def test_other_route_never_replays(self, swept, tmp_path):
        """Regression: the fingerprint ignored the route geometry, so a
        route of equal length that differs in one segment's region replayed
        the first route's shards from the same cache."""
        _, _, sweep_tmp = swept
        route_a = build_cross_country_route()
        index = next(
            i for i, seg in enumerate(route_a.segments)
            if seg.region is RegionType.HIGHWAY
        )
        segments = list(route_a.segments)
        segments[index] = dataclasses.replace(
            segments[index], region=RegionType.SUBURBAN
        )
        route_b = Route(segments=segments, cities=route_a.cities)
        assert route_b.total_length_m == route_a.total_length_m

        seeds = (SEEDS[0],)
        cached = run_sweep(
            sweep_config(
                sweep_tmp, seeds=seeds, cache_dir=str(sweep_tmp / "shard-cache")
            ),
            route_b,
        )
        fresh = run_sweep(sweep_config(tmp_path, seeds=seeds, cache_dir=None), route_b)
        assert cached.cache.stats.hits == 0
        assert engine_dataset_bytes(
            cached.datasets[SEEDS[0]], tmp_path
        ) == engine_dataset_bytes(fresh.datasets[SEEDS[0]], tmp_path)


class TestSweepReport:
    def test_confidence_intervals_on_paper_statistics(self, swept):
        _, result, _ = swept
        report = result.report
        assert len(report.statistics) >= 5
        for summary in report.statistics:
            assert summary.n_seeds == len(SEEDS)
            assert summary.ci_low <= summary.ci_high
            assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_app_statistics_skipped_without_apps(self, swept):
        _, result, _ = swept
        assert "video_qoe_median" in result.report.skipped_statistics

    def test_per_seed_metrics(self, swept):
        config, result, _ = swept
        report = result.report
        assert [r.seed for r in report.seed_runs] == list(SEEDS)
        for run in report.seed_runs:
            assert run.records > 0
            assert run.compute_wall_s > 0.0
            assert run.n_shards == report.n_windows
            assert run.route_digest == route_digest(build_cross_country_route())
            assert run.source_digest == source_digest()
            assert run.store_format_version == STORE_FORMAT_VERSION
        assert report.total_wall_s > 0.0

    def test_statistic_lookup(self, swept):
        _, result, _ = swept
        summary = result.report.statistic("driving_rtt_median_ms_V")
        assert summary.unit == "ms"
        with pytest.raises(KeyError):
            result.report.statistic("nope")

    def test_schema_version_and_round_trip(self, swept):
        _, result, tmp = swept
        obj = json.loads((tmp / "sweep.json").read_text())
        assert obj["schema_version"] == SWEEP_SCHEMA_VERSION
        rebuilt = SweepReport.from_obj(obj)
        assert rebuilt.to_obj() == obj
        assert rebuilt.cache_hit_ratio() == result.report.cache_hit_ratio()

    def test_statistics_subset_honoured(self, swept):
        _, _, sweep_tmp = swept
        config = sweep_config(
            sweep_tmp,
            cache_dir=str(sweep_tmp / "shard-cache"),
            statistics=("driving_rtt_median_ms_V", "unique_cells_total"),
        )
        result = run_sweep(config)
        assert [s.name for s in result.report.statistics] == [
            "driving_rtt_median_ms_V",
            "unique_cells_total",
        ]
