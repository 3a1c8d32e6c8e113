"""Query engine: parity with the row path, pushdown, analysis functions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.coverage import active_coverage_shares, passive_coverage_shares
from repro.analysis.performance import static_vs_driving
from repro.errors import StoreError, SweepError
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES
from repro.store import (
    Between,
    Catalog,
    DatasetReader,
    Eq,
    In,
    QueryStats,
    query,
    where_speed_bin,
    write_dataset,
)
from repro.sweep.stats import (
    evaluate_statistics,
    evaluate_statistics_from_store,
    registered_statistics,
)
from repro.units import SPEED_BIN_LABELS, speed_bin


@pytest.fixture(scope="module")
def reader(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("query") / "full.rcol"
    write_dataset(dataset, path)
    with DatasetReader(path) as r:
        yield r


class TestKernelParity:
    """Every kernel agrees with the straight row-object computation."""

    def test_select_matches_row_filter(self, dataset, reader):
        for op in Operator:
            row = dataset.tput_values(
                operator=op, direction="downlink", static=False
            )
            col = query.select(
                reader, "tput", "tput_mbps",
                where=(
                    Eq("operator", op),
                    Eq("direction", "downlink"),
                    Eq("static", False),
                ),
            )
            assert np.array_equal(np.sort(row), np.sort(col))

    def test_count_and_total(self, dataset, reader):
        where = (Eq("operator", Operator.VERIZON), Eq("static", False))
        rows = [
            s for s in dataset.throughput_samples
            if s.operator is Operator.VERIZON and not s.static
        ]
        assert query.count(reader, "tput", where) == len(rows)
        assert query.total(reader, "tput", "tput_mbps", where) == pytest.approx(
            sum(s.tput_mbps for s in rows)
        )
        assert query.mean(reader, "tput", "tput_mbps", where) == pytest.approx(
            sum(s.tput_mbps for s in rows) / len(rows)
        )

    def test_percentile_matches_numpy(self, dataset, reader):
        values = dataset.rtt_values(static=False)
        got = query.percentile(
            reader, "rtt", "rtt_ms", 0.95, where=(Eq("static", False),)
        )
        assert got == pytest.approx(float(np.quantile(values, 0.95)))

    def test_speed_bin_predicate_matches_row_binning(self, dataset, reader):
        for label in SPEED_BIN_LABELS:
            row = sum(
                1 for s in dataset.throughput_samples
                if not s.static and speed_bin(s.speed_mph) == label
            )
            col = query.count(
                reader, "tput",
                (Eq("static", False), where_speed_bin(label)),
            )
            assert col == row, label

    def test_in_predicate(self, dataset, reader):
        ops = (Operator.VERIZON, Operator.TMOBILE)
        row = sum(1 for s in dataset.rtt_samples if s.operator in ops)
        assert query.count(reader, "rtt", (In("operator", ops),)) == row

    def test_between_on_route_km_range(self, dataset, reader):
        lo_m, hi_m = 1_000_000.0, 3_000_000.0
        row = sum(
            1 for s in dataset.throughput_samples if lo_m <= s.mark_m <= hi_m
        )
        got = query.count(
            reader, "tput", (Between("mark_m", lo=lo_m, hi=hi_m),)
        )
        assert got == row

    def test_group_total_matches_row_sums(self, dataset, reader):
        sums = query.group_total(
            reader, "passive", "tech", "length_m",
            where=(Eq("operator", Operator.ATT),),
        )
        for tech, got in sums.items():
            want = sum(
                seg.length_m for seg in dataset.passive_coverage
                if seg.operator is Operator.ATT and seg.tech.name == tech
            )
            assert got == pytest.approx(want)

    def test_unknown_column_raises(self, reader):
        with pytest.raises(StoreError, match="no column"):
            query.count(reader, "tput", (Eq("nope", 1),))


class TestPushdown:
    def test_stats_short_circuit_all_and_none(self, reader):
        # static spans {False, True} per-value but a predicate on an
        # impossible numeric range must answer from the footer stats alone.
        qstats = QueryStats()
        n = query.count(
            reader, "tput", (Between("tput_mbps", lo=1e9),), qstats=qstats
        )
        assert n == 0
        assert qstats.columns_decoded == 0
        assert qstats.predicates_short_circuited >= 1

    def test_dict_value_absent_short_circuits(self, reader):
        qstats = QueryStats()
        n = query.count(
            reader, "tput", (Eq("direction", "sideways"),), qstats=qstats
        )
        assert n == 0
        assert qstats.columns_decoded == 0

    def test_cdf_kernel_feeds_empirical_cdf(self, dataset, reader):
        curve = query.cdf(
            reader, "tput", "tput_mbps",
            where=(Eq("direction", "downlink"), Eq("static", False)),
        )
        values = dataset.tput_values(direction="downlink", static=False)
        assert curve.n == len(values)
        assert curve.median == pytest.approx(float(np.median(values)))


class TestAnalysisBridges:
    """The analysis functions read a store file like the dataset it holds."""

    def test_passive_coverage_parity(self, dataset, reader):
        for op in Operator:
            want = dict.fromkeys(ALL_TECHNOLOGIES, 0.0)
            for seg in dataset.passive_coverage:
                if seg.operator is op:
                    want[seg.tech] += seg.length_m
            col = passive_coverage_shares(reader, op)
            assert col == passive_coverage_shares(dataset, op)
            assert col.total_weight == sum(want.values())
            for tech, share in col.shares.items():
                assert share == want[tech] / col.total_weight

    def test_active_coverage_parity(self, dataset, reader):
        for op in Operator:
            want = dict.fromkeys(ALL_TECHNOLOGIES, 0.0)
            for s in dataset.tput(operator=op, direction="downlink", static=False):
                want[s.tech] += s.speed_mph
            col = active_coverage_shares(reader, op, direction="downlink")
            assert col == active_coverage_shares(dataset, op, direction="downlink")
            assert col.total_weight == sum(want.values())
            for tech, share in col.shares.items():
                assert share == want[tech] / col.total_weight

    def test_static_vs_driving_parity(self, dataset, reader):
        row = static_vs_driving(dataset, Operator.VERIZON)
        col = static_vs_driving(reader, Operator.VERIZON)
        want = {
            "static_dl": dataset.tput_values(
                operator=Operator.VERIZON, direction="downlink", static=True),
            "driving_ul": dataset.tput_values(
                operator=Operator.VERIZON, direction="uplink", static=False),
            "driving_rtt": dataset.rtt_values(
                operator=Operator.VERIZON, static=False),
        }
        for attr, values in want.items():
            assert np.array_equal(getattr(col, attr).sorted_values, np.sort(values))
        for attr in (
            "static_dl", "static_ul", "static_rtt",
            "driving_dl", "driving_ul", "driving_rtt",
        ):
            assert np.array_equal(
                getattr(row, attr).sorted_values,
                getattr(col, attr).sorted_values,
            ), attr

    # Statistic-level parity against row-object references lives in
    # tests/test_parity_differential.py, which sweeps the whole registry.

    def test_unknown_statistic_raises(self, dataset, reader):
        with pytest.raises(SweepError, match="unknown statistic"):
            evaluate_statistics(dataset, ["nope"])
        with pytest.raises(SweepError, match="unknown statistic"):
            evaluate_statistics_from_store(reader, ["nope"])

    def test_every_statistic_evaluates_from_store(self, dataset, reader):
        values = evaluate_statistics_from_store(reader)
        assert tuple(values) == registered_statistics()
        assert values == evaluate_statistics(dataset)


class TestSeedSelection:
    """``seeds=`` selects partitions for every statistic, metadata included."""

    META = ("unique_cells_total", "passive_handovers_total")

    def test_reader_of_another_seed_yields_nan(self, dataset, reader):
        values = evaluate_statistics_from_store(reader, seeds=(dataset.seed + 1,))
        assert all(math.isnan(v) for v in values.values()), values
        own = evaluate_statistics_from_store(
            reader, self.META, seeds=(dataset.seed,)
        )
        assert own["unique_cells_total"] == sum(dataset.connected_cells.values())

    def test_catalog_without_the_seed_yields_nan(self, dataset, tmp_path):
        with Catalog(tmp_path / "cat") as catalog:
            catalog.ingest(dataset)
            missing = evaluate_statistics_from_store(
                catalog, self.META, seeds=(dataset.seed + 1,)
            )
            assert all(math.isnan(v) for v in missing.values()), missing
            present = evaluate_statistics_from_store(
                catalog, self.META, seeds=(dataset.seed,)
            )
        assert present["passive_handovers_total"] == sum(
            dataset.passive_handover_counts.values()
        )
