"""Reports parse JSON written by newer schema versions without breaking."""

from __future__ import annotations

import math

import pytest

from repro.engine.metrics import EngineReport, ShardMetrics
from repro.sweep.report import SeedRunMetrics, SweepReport
from repro.sweep.stats import StatisticSummary


def _engine_obj(**extra) -> dict:
    report = EngineReport(
        executor="serial", workers=1, n_windows=2,
        route_digest="r" * 64, source_digest="s" * 64, store_format_version=1,
    )
    report.shards = [
        ShardMetrics(
            index=0, start_km=0.0, end_km=100.0, wall_s=1.5,
            records=10, retries=0, from_cache=False,
        )
    ]
    obj = report.to_obj()
    obj.update(extra)
    return obj


def _sweep_obj(**extra) -> dict:
    report = SweepReport(
        seeds=(41, 42), scale=0.01, executor="serial", workers=1,
        n_windows=3, confidence=0.95, bootstrap_samples=100,
        seed_runs=[
            SeedRunMetrics(
                seed=41, fingerprint="abc", compute_wall_s=2.0, records=5,
                n_shards=4, cache_hits=1, cache_misses=3, retries=0,
                route_digest="r" * 64, source_digest="s" * 64,
                store_format_version=1,
            )
        ],
        statistics=[
            StatisticSummary(
                name="s", description="d", unit="u", confidence=0.95,
                n_boot=100, seeds=(41,), values=(1.0,), mean=1.0,
                median=1.0, std=0.0, ci_low=1.0, ci_high=1.0,
            )
        ],
    )
    obj = report.to_obj()
    obj.update(extra)
    return obj


class TestEngineReportForwardCompat:
    def test_unknown_toplevel_fields_ignored(self):
        obj = _engine_obj(
            schema_version=3, gpu_seconds=12.5, scheduler={"kind": "fair"}
        )
        report = EngineReport.from_obj(obj)
        assert report.executor == "serial"
        assert report.total_records == 10

    def test_unknown_shard_fields_ignored(self):
        obj = _engine_obj()
        obj["shards"][0]["numa_node"] = 1
        report = EngineReport.from_obj(obj)
        assert report.shards[0].records == 10

    def test_missing_auxiliary_fields_default(self):
        # A future version might drop or rename non-structural fields;
        # parsing still succeeds from the structural core alone.
        obj = {
            "executor": "process", "workers": 4,
            "n_windows": 7, "n_batches": 3,
        }
        report = EngineReport.from_obj(obj)
        assert report.total_wall_s == 0.0
        assert report.validated is False
        assert report.shards == []

    def test_roundtrip_still_exact(self):
        obj = _engine_obj()
        assert EngineReport.from_obj(obj).to_obj() == obj

    def test_fingerprint_inputs_round_trip(self):
        report = EngineReport.from_obj(_engine_obj())
        assert report.route_digest == "r" * 64
        assert report.source_digest == "s" * 64
        assert report.store_format_version == 1

    def test_fingerprint_inputs_default_when_absent(self):
        obj = _engine_obj()
        for key in ("route_digest", "source_digest", "store_format_version"):
            del obj[key]
        report = EngineReport.from_obj(obj)
        assert (report.route_digest, report.source_digest) == ("", "")
        assert report.store_format_version == 0

    def test_schema_4_report_parses(self):
        """A v4 report: its checkpoint replay flag reads as ``from_cache``;
        the batch count and checkpoint hit count it carried are ignored."""
        obj = {
            "schema_version": 4, "executor": "process", "workers": 2,
            "n_windows": 2, "n_batches": 1, "checkpoint_hits": 1,
            "cache_hits": 0, "cache_misses": 0,
            "shards": [
                {"index": 0, "start_km": 0.0, "end_km": 50.0, "wall_s": 0.0,
                 "records": 4, "retries": 0,
                 "from_checkpoint": True, "from_cache": False},
                {"index": 1, "start_km": 50.0, "end_km": 100.0, "wall_s": 1.0,
                 "records": 6, "retries": 1,
                 "from_checkpoint": False, "from_cache": False},
            ],
        }
        report = EngineReport.from_obj(obj)
        assert [s.from_cache for s in report.shards] == [True, False]
        assert report.shard_wall_s == 1.0
        assert report.to_obj()["schema_version"] == 5

    def test_missing_structural_field_still_fails(self):
        obj = _engine_obj()
        del obj["executor"]
        with pytest.raises(KeyError):
            EngineReport.from_obj(obj)


class TestSweepReportForwardCompat:
    def test_unknown_fields_ignored_everywhere(self):
        obj = _sweep_obj(schema_version=2, store_dir="out/store")
        obj["seed_runs"][0]["ingest_s"] = 0.2
        obj["statistics"][0]["kurtosis"] = 3.0
        report = SweepReport.from_obj(obj)
        assert report.seeds == (41, 42)
        assert report.seed_runs[0].records == 5
        assert report.statistics[0].mean == 1.0

    def test_missing_auxiliary_fields_default(self):
        obj = {
            "seeds": [41], "scale": 0.01, "executor": "serial",
            "workers": 1, "n_windows": 3, "confidence": 0.9,
            "bootstrap_samples": 10,
        }
        report = SweepReport.from_obj(obj)
        assert report.seed_runs == []
        assert report.statistics == []
        assert report.cache is None
        assert report.total_wall_s == 0.0

    def test_statistic_summary_minimal(self):
        summary = StatisticSummary.from_obj({
            "name": "x", "seeds": [41], "values": [2.0],
            "mean": 2.0, "ci_low": 2.0, "ci_high": 2.0,
        })
        assert summary.median == 2.0  # falls back to the mean
        assert summary.unit == ""
        assert math.isclose(summary.confidence, 0.95)

    def test_roundtrip_still_exact(self):
        obj = _sweep_obj()
        assert SweepReport.from_obj(obj).to_obj() == obj

    def test_fingerprint_inputs_round_trip(self):
        run = SweepReport.from_obj(_sweep_obj()).seed_runs[0]
        assert run.route_digest == "r" * 64
        assert run.source_digest == "s" * 64
        assert run.store_format_version == 1

    def test_fingerprint_inputs_default_when_absent(self):
        obj = _sweep_obj()
        for key in ("route_digest", "source_digest", "store_format_version"):
            del obj["seed_runs"][0][key]
        run = SweepReport.from_obj(obj).seed_runs[0]
        assert (run.route_digest, run.source_digest) == ("", "")
        assert run.store_format_version == 0
