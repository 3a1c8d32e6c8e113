"""Parity: each paper statistic's one implementation vs row-object references.

Every registered statistic, and the four analysis functions it builds on
(``passive_coverage_shares``, ``active_coverage_shares``,
``static_vs_driving``, ``handovers_per_mile``), is written once, over the
:mod:`repro.store.query` kernels.  This module checks that implementation
against independent reference computations written here over row objects
(``ds.tput_values``, ``ds.rtt_values``, per-segment sums, per-test handover
counts), on seeded-random datasets (NaN/±inf floats, random enums, an
almost-empty case), through three sources: the in-memory
:class:`~repro.store.format.DatasetView`, a
:class:`~repro.store.format.DatasetReader` over the dataset's ``.rcol``
file, and a two-partition :class:`~repro.store.catalog.Catalog` queried
for the dataset's seed.

One parametrized test covers the whole registry, and a statistic registered
without a reference here fails :func:`test_registry_coverage`.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.analysis.coverage import active_coverage_shares, passive_coverage_shares
from repro.analysis.handovers import handovers_per_mile
from repro.analysis.performance import static_vs_driving
from repro.campaign.dataset import (
    DriveDataset,
    HandoverRecord,
    ThroughputSample,
)
from repro.campaign.dataset import TestRecord as RowTestRecord
from repro.campaign.tests import TestType
from repro.errors import AnalysisError
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.mobility.events import HandoverEvent
from repro.net.servers import ServerKind
from repro.radio.cells import CellId
from repro.radio.operators import Operator
from repro.radio.technology import (
    ALL_TECHNOLOGIES,
    HIGH_THROUGHPUT_TECHS,
    RadioTechnology,
)
from repro.store import Catalog, DatasetReader, DatasetView, write_dataset
from repro.sweep.stats import (
    evaluate_statistics,
    evaluate_statistics_from_store,
    registered_statistics,
)
from repro.units import SPEED_BIN_LABELS, speed_bin
from tests.test_store_properties import _SPECIALS, _random_dataset

#: Seeds for the randomized datasets.  Three draws of each generator plus
#: the mostly-empty case below keep the runtime small while varying the
#: enum mix, NaN placement, and table sizes across cases.
CASE_SEEDS = (0, 1, 2)

_TEST_TYPES = {
    "downlink": TestType.DOWNLINK_THROUGHPUT,
    "uplink": TestType.UPLINK_THROUGHPUT,
}


# -- row-object references ---------------------------------------------------


def _quantile(values, q: float) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.quantile(arr, q)) if arr.size else math.nan


def _coverage_shares(weights: dict) -> dict | None:
    """Shares of per-technology weights; ``None`` when there is no weight."""
    total = sum(weights.values())
    if total <= 0.0:
        return None
    return {t: w / total for t, w in weights.items()}


def _passive_weights(ds: DriveDataset, op: Operator) -> dict:
    weights = dict.fromkeys(ALL_TECHNOLOGIES, 0.0)
    for seg in ds.passive_coverage:
        if seg.operator is op:
            weights[seg.tech] += seg.end_m - seg.start_m
    return weights


def _active_weights(ds: DriveDataset, op: Operator, **slice_) -> dict:
    """Speed-weighted technology sums of driving samples.

    The documented rule: a negative or NaN speed covers no known distance,
    so such a sample carries no weight.
    """
    weights = dict.fromkeys(ALL_TECHNOLOGIES, 0.0)
    label = slice_.pop("speed_bin_label", None)
    for s in ds.tput(operator=op, static=False, **slice_):
        if not s.speed_mph >= 0.0:
            continue
        if label is not None and speed_bin(s.speed_mph) != label:
            continue
        weights[s.tech] += s.speed_mph
    return weights


def _handover_rates(ds: DriveDataset, op: Operator, direction: str) -> np.ndarray:
    """Finite per-test handover rates, sorted (the CDF's sample)."""
    per_test = Counter(
        h.test_id for h in ds.handovers_of(operator=op, direction=direction)
    )
    rates = [
        per_test[t.test_id] / t.distance_miles
        for t in ds.tests_of(test_type=_TEST_TYPES[direction], operator=op, static=False)
        if not t.distance_miles < 0.02
    ]
    arr = np.asarray(rates, dtype=float)
    return np.sort(arr[np.isfinite(arr)])


def _passive_share(ds, op, techs) -> float:
    shares = _coverage_shares(_passive_weights(ds, op))
    return math.nan if shares is None else sum(
        v for t, v in shares.items() if t in techs
    )


def _driving_tput(ds, op, direction) -> np.ndarray:
    return ds.tput_values(operator=op, direction=direction, static=False)


def _dl_below_5mbps(ds) -> float:
    values = ds.tput_values(direction="downlink", static=False)
    return float(np.mean(values < 5.0)) if values.size else math.nan


def _app_median(runs, value, keep=lambda r: True) -> float:
    return _quantile([value(r) for r in runs if keep(r) and not r.static], 0.5)


def _references() -> dict:
    refs = {}
    five_g = {t for t in RadioTechnology if t.is_5g}
    for op in Operator:
        code = op.code
        refs[f"coverage_5g_share_{code}"] = (
            lambda ds, op=op: _passive_share(ds, op, five_g)
        )
        refs[f"coverage_hs5g_share_{code}"] = (
            lambda ds, op=op: _passive_share(ds, op, HIGH_THROUGHPUT_TECHS)
        )
        refs[f"driving_dl_median_mbps_{code}"] = (
            lambda ds, op=op: _quantile(_driving_tput(ds, op, "downlink"), 0.5)
        )
        refs[f"driving_ul_median_mbps_{code}"] = (
            lambda ds, op=op: _quantile(_driving_tput(ds, op, "uplink"), 0.5)
        )
        refs[f"driving_rtt_median_ms_{code}"] = (
            lambda ds, op=op: _quantile(ds.rtt_values(operator=op, static=False), 0.5)
        )
        refs[f"handovers_per_mile_median_{code}"] = (
            lambda ds, op=op: _quantile(_handover_rates(ds, op, "downlink"), 0.5)
        )
    refs["driving_dl_below_5mbps_fraction"] = _dl_below_5mbps
    refs["driving_rtt_p95_ms"] = lambda ds: _quantile(ds.rtt_values(static=False), 0.95)
    refs["unique_cells_total"] = lambda ds: float(sum(ds.connected_cells.values()))
    refs["passive_handovers_total"] = (
        lambda ds: float(sum(ds.passive_handover_counts.values()))
    )
    for app in ("AR", "CAV"):
        refs[f"{app.lower()}_e2e_median_ms"] = lambda ds, app=app: _app_median(
            ds.offload_runs, lambda r: r.median_e2e_ms, lambda r: r.app.name == app
        )
    refs["video_qoe_median"] = lambda ds: _app_median(ds.video_runs, lambda r: r.qoe)
    refs["gaming_bitrate_median_mbps"] = (
        lambda ds: _app_median(ds.gaming_runs, lambda r: r.avg_bitrate_mbps)
    )
    return refs


REFERENCES = _references()


def _same(got: float, want: float) -> bool:
    """Equal, with every non-finite reference standing for NaN."""
    if not math.isfinite(want):
        return math.isnan(got)
    return got == want


def _same_floats(got, want) -> bool:
    return all(
        (math.isnan(g) and math.isnan(w)) or g == w for g, w in zip(got, want)
    ) and len(got) == len(want)


# -- sources -----------------------------------------------------------------


def _handover_dataset(rng: random.Random) -> DriveDataset:
    """Throughput tests and their handovers, dense enough to give rates.

    Test ids repeat (two records may share one), handovers also point at
    ids with no test, and test marks draw NaN/±inf and reversed spans.
    """
    ds = DriveDataset(seed=rng.randint(0, 10_000), scale=1.0, route_length_km=1.0)
    cell = CellId(Operator.VERIZON, RadioTechnology.LTE, 1)

    def mark() -> float:
        return rng.choice(_SPECIALS) if rng.random() < 0.1 else rng.uniform(0, 8e3)

    for _ in range(80):
        ds.tests.append(RowTestRecord(
            test_id=rng.randint(0, 30), test_type=rng.choice(list(_TEST_TYPES.values())),
            operator=rng.choice(list(Operator)), start_time_s=0.0, end_time_s=30.0,
            start_mark_m=mark(), end_mark_m=mark(), server_kind=ServerKind.CLOUD,
            static=rng.random() < 0.2,
        ))
    for _ in range(400):
        ds.handovers.append(HandoverRecord(
            test_id=rng.randint(0, 35), direction=rng.choice(list(_TEST_TYPES)),
            event=HandoverEvent(
                operator=rng.choice(list(Operator)), time_s=0.0, mark_m=0.0,
                duration_ms=50.0, from_cell=cell, to_cell=cell,
                from_tech=RadioTechnology.LTE, to_tech=RadioTechnology.LTE,
            ),
        ))
    return ds


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """(dataset, sources): random draws, handover-rich draws, an almost-empty one.

    Each dataset is read through a view, its ``.rcol`` file, and a catalog
    holding it beside a decoy partition (the next case, ingested under the
    next seed) that a ``seeds=`` restriction must skip.
    """
    tmp = tmp_path_factory.mktemp("differential")
    built = [_random_dataset(random.Random(seed)) for seed in CASE_SEEDS]
    built += [_handover_dataset(random.Random(seed)) for seed in CASE_SEEDS]
    # Degenerate case: nearly everything empty, so statistics that divide
    # by a count exercise their NaN path.
    built.append(
        _random_dataset(
            random.Random(99),
            empty_tables=frozenset(
                ("tput", "rtt", "ho", "passive", "offload", "video", "gaming")
            ),
        )
    )
    opened = []
    for i, dataset in enumerate(built):
        path = tmp / f"case-{i}.rcol"
        write_dataset(dataset, path)
        catalog = Catalog(tmp / f"catalog-{i}")
        catalog.ingest(dataset)
        catalog.ingest(built[(i + 1) % len(built)], seed=dataset.seed + 1)
        sources = (
            ("view", DatasetView(dataset), None),
            ("reader", DatasetReader(path), None),
            ("catalog", catalog, (dataset.seed,)),
        )
        opened.append((dataset, sources))
    yield opened
    for _, sources in opened:
        for _, source, _ in sources[1:]:
            source.close()


def _each_source(cases):
    for i, (dataset, sources) in enumerate(cases):
        for kind, source, seeds in sources:
            yield dataset, source, seeds, f"case {i} via {kind}"


# -- statistics --------------------------------------------------------------


def test_registry_coverage():
    """Every registered statistic has a reference, and none is left out."""
    assert set(REFERENCES) == set(registered_statistics())
    assert len(REFERENCES) == 26


@pytest.mark.parametrize("name", registered_statistics())
def test_row_and_store_paths_agree(name, cases):
    """The statistic equals its row-object reference through every source."""
    for dataset, source, seeds, label in _each_source(cases):
        got = evaluate_statistics_from_store(source, [name], seeds=seeds)[name]
        want = REFERENCES[name](dataset)
        assert _same(got, want), (label, got, want)


def test_batch_evaluation_matches_per_name(cases):
    """The dataset entry point equals per-name evaluation on its file."""
    dataset, sources = cases[0]
    reader = sources[1][1]
    names = registered_statistics()
    batch = evaluate_statistics(dataset)
    assert tuple(batch) == names
    for name in names:
        one = evaluate_statistics_from_store(reader, [name])[name]
        assert _same_floats([batch[name]], [one]), name


# -- analysis functions ------------------------------------------------------


def _assert_shares(compute, weights: dict, label: str) -> None:
    want = _coverage_shares(weights)
    if want is None:
        with pytest.raises(AnalysisError):
            compute()
        return
    got = compute()
    assert list(got.shares) == list(want), label
    assert _same_floats(list(got.shares.values()), list(want.values())), label
    assert _same_floats([got.total_weight], [sum(weights.values())]), label


def test_passive_coverage_shares_match_reference(cases):
    for dataset, source, seeds, label in _each_source(cases):
        for op in Operator:
            _assert_shares(
                lambda: passive_coverage_shares(source, op, seeds=seeds),
                _passive_weights(dataset, op),
                f"{label} {op.code}",
            )


ACTIVE_SLICES = (
    {},
    {"direction": "downlink"},
    {"direction": "uplink"},
    {"timezone": Timezone.CENTRAL},
    *({"speed_bin_label": label} for label in SPEED_BIN_LABELS),
)


@pytest.mark.parametrize("slice_", ACTIVE_SLICES, ids=repr)
def test_active_coverage_shares_match_reference(slice_, cases):
    for dataset, source, seeds, label in _each_source(cases):
        for op in Operator:
            _assert_shares(
                lambda: active_coverage_shares(source, op, seeds=seeds, **slice_),
                _active_weights(dataset, op, **slice_),
                f"{label} {op.code}",
            )


def test_active_coverage_ignores_negative_and_nan_speeds(tmp_path):
    """The chosen rule: only a non-negative speed is a distance weight.

    A negative or NaN speed covers no known distance, so the sample adds
    nothing to any technology — it neither subtracts miles nor poisons the
    shares with NaN.
    """
    ds = DriveDataset(seed=5, scale=1.0, route_length_km=1.0)
    for speed, tech in (
        (10.0, RadioTechnology.LTE),
        (30.0, RadioTechnology.NR_MID),
        (-5.0, RadioTechnology.NR_MID),
        (math.nan, RadioTechnology.NR_LOW),
    ):
        ds.throughput_samples.append(ThroughputSample(
            test_id=1, operator=Operator.ATT, direction="downlink", time_s=0.0,
            mark_m=0.0, speed_mph=speed, region=RegionType.HIGHWAY,
            timezone=Timezone.CENTRAL, tech=tech, rsrp_dbm=-90.0, mcs=10,
            bler=0.1, n_ccs=1, tput_mbps=50.0, server_kind=ServerKind.CLOUD,
            ho_count=0, static=False,
        ))
    write_dataset(ds, tmp_path / "speeds.rcol")
    with DatasetReader(tmp_path / "speeds.rcol") as reader:
        for source in (ds, reader):
            shares = active_coverage_shares(source, Operator.ATT)
            assert shares.total_weight == 40.0
            assert shares.shares[RadioTechnology.LTE] == 0.25
            assert shares.shares[RadioTechnology.NR_MID] == 0.75
            assert shares.shares[RadioTechnology.NR_LOW] == 0.0
            assert active_coverage_shares(
                source, Operator.ATT, speed_bin_label="20-60 mph"
            ).shares[RadioTechnology.NR_MID] == 1.0


def _finite_sorted(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return np.sort(arr[np.isfinite(arr)])


def test_static_vs_driving_matches_reference(cases):
    for dataset, source, seeds, label in _each_source(cases):
        for op in Operator:
            want = {
                f"{'static' if static else 'driving'}_{key}": _finite_sorted(values)
                for static in (True, False)
                for key, values in (
                    ("dl", dataset.tput_values(
                        operator=op, direction="downlink", static=static)),
                    ("ul", dataset.tput_values(
                        operator=op, direction="uplink", static=static)),
                    ("rtt", dataset.rtt_values(operator=op, static=static)),
                )
            }
            if any(v.size == 0 for v in want.values()):
                with pytest.raises(AnalysisError):
                    static_vs_driving(source, op, seeds=seeds)
                continue
            got = static_vs_driving(source, op, seeds=seeds)
            for attr, values in want.items():
                assert np.array_equal(
                    getattr(got, attr).sorted_values, values
                ), (label, op.code, attr)


def test_handovers_per_mile_matches_reference(cases):
    for dataset, source, seeds, label in _each_source(cases):
        for op in Operator:
            for direction in ("downlink", "uplink"):
                want = _handover_rates(dataset, op, direction)
                if want.size == 0:
                    with pytest.raises(AnalysisError):
                        handovers_per_mile(source, op, direction, seeds=seeds)
                    continue
                got = handovers_per_mile(source, op, direction, seeds=seeds)
                assert np.array_equal(got.sorted_values, want), (
                    label, op.code, direction,
                )


def test_handovers_per_mile_joins_within_each_partition(cases):
    """Across a catalog, handovers count only against their own seed's tests.

    The two partitions reuse test ids, so a pooled join would misattribute
    handovers; the rates must be the union of the per-dataset rates.
    """
    for i, (dataset, sources) in enumerate(cases):
        catalog = sources[2][1]
        decoy = cases[(i + 1) % len(cases)][0]
        for op in Operator:
            want = np.sort(np.concatenate([
                _handover_rates(dataset, op, "downlink"),
                _handover_rates(decoy, op, "downlink"),
            ]))
            if want.size == 0:
                continue
            got = handovers_per_mile(catalog, op, "downlink")
            assert np.array_equal(got.sorted_values, want), (i, op.code)
