"""Store query scaling — pushdown queries vs row-object load+filter.

Builds a multi-seed catalog from the shared benchmark campaign, then answers
the same analytical questions two ways:

* **row path** — load each seed's saved ``.rcol`` file fully into row
  objects, filter in Python, aggregate with numpy (how the analysis layer
  worked before :mod:`repro.store`);
* **store path** — :mod:`repro.store.query` kernels over the catalog, with
  partition pruning and footer-stats predicate pushdown.

The measured speedups land in ``benchmarks/_reports/store_query.txt``.  The
pushdown path must be at least 5× faster on the load+filter comparison:
decoding only the touched columns beats materialising every row object.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.campaign.persistence import load_dataset, save_dataset
from repro.radio.operators import Operator
from repro.reporting.tables import render_table
from repro.store import Catalog, Eq, QueryStats, query
from repro.units import SPEED_BIN_LABELS, speed_bin

SEEDS = (42, 43, 44, 45)


def _build_corpus(dataset, tmp_path):
    """One saved dataset file and one catalog partition per seed.

    The same records are re-labelled per seed instead of re-running the
    campaign: the benchmark times storage and query, not generation, and
    identical per-partition volume makes the comparison clean.
    """
    row_files = []
    catalog = Catalog(tmp_path / "store")
    for seed in SEEDS:
        ds = copy.deepcopy(dataset)
        ds.seed = seed
        path = tmp_path / f"seed{seed}.rcol"
        save_dataset(ds, path)
        row_files.append(path)
        catalog.ingest(ds)
    return row_files, catalog


def _row_median_dl(row_files) -> tuple[float, float]:
    started = time.perf_counter()
    values = []
    for path in row_files:
        ds = load_dataset(path)
        values.append(
            ds.tput_values(
                operator=Operator.VERIZON, direction="downlink", static=False
            )
        )
    result = float(np.median(np.concatenate(values)))
    return time.perf_counter() - started, result


def _store_median_dl(catalog) -> tuple[float, float, QueryStats]:
    qstats = QueryStats()
    started = time.perf_counter()
    result = query.percentile(
        catalog, "tput", "tput_mbps", 0.5,
        where=(
            Eq("operator", Operator.VERIZON),
            Eq("direction", "downlink"),
            Eq("static", False),
        ),
        qstats=qstats,
    )
    return time.perf_counter() - started, float(result), qstats


def _row_speed_bin_counts(row_files) -> tuple[float, dict]:
    started = time.perf_counter()
    counts = {label: 0 for label in SPEED_BIN_LABELS}
    for path in row_files:
        ds = load_dataset(path)
        for s in ds.throughput_samples:
            if not s.static:
                counts[speed_bin(s.speed_mph)] += 1
    return time.perf_counter() - started, counts


def _store_speed_bin_counts(catalog) -> tuple[float, dict]:
    started = time.perf_counter()
    counts = {
        label: query.count(
            catalog, "tput",
            (Eq("static", False), query.where_speed_bin(label)),
        )
        for label in SPEED_BIN_LABELS
    }
    return time.perf_counter() - started, counts


def test_store_query_scaling(dataset, tmp_path, report, bench):
    row_files, catalog = _build_corpus(dataset, tmp_path)
    with catalog:
        # Row baseline first so the page cache warms the store's inputs
        # no more than the row path's own files.
        row_s, row_median = _row_median_dl(row_files)
        store_s, store_median, qstats = _store_median_dl(catalog)
        assert store_median == row_median

        row_bin_s, row_counts = _row_speed_bin_counts(row_files)
        store_bin_s, store_counts = _store_speed_bin_counts(catalog)
        assert store_counts == row_counts

        # Seed-restricted query: pruning must keep untouched partitions
        # unopened (manifest-only answer for the other three).
        pruned = QueryStats()
        query.count(catalog, "tput", (), seeds=(SEEDS[0],), qstats=pruned)
        assert pruned.partitions_scanned == 1

    median_speedup = row_s / store_s if store_s > 0 else float("inf")
    bins_speedup = row_bin_s / store_bin_s if store_bin_s > 0 else float("inf")

    bench.record("store.row_median_dl", [row_s])
    bench.record(
        "store.pushdown_median_dl", [store_s],
        counters={
            "store.bytes_decoded": qstats.bytes_decoded,
            "store.columns_decoded": qstats.columns_decoded,
            "store.predicates_short_circuited": qstats.predicates_short_circuited,
        },
    )
    bench.record("store.row_speed_bins", [row_bin_s])
    bench.record("store.pushdown_speed_bins", [store_bin_s])

    rows = [
        [
            "median DL tput (V, driving)",
            f"{row_s * 1e3:.1f}", f"{store_s * 1e3:.1f}",
            f"{median_speedup:.0f}x",
        ],
        [
            "speed-bin sample counts",
            f"{row_bin_s * 1e3:.1f}", f"{store_bin_s * 1e3:.1f}",
            f"{bins_speedup:.0f}x",
        ],
    ]
    report(
        "store_query",
        render_table(
            ["query", "row path (ms)", "store path (ms)", "speedup"],
            rows,
        )
        + f"\nseeds: {len(SEEDS)}  rows/partition: "
        f"{len(dataset.throughput_samples)} tput samples"
        + f"\npushdown: {qstats.columns_decoded} columns decoded, "
        f"{qstats.predicates_short_circuited} predicates answered by stats",
    )

    # The acceptance bar: pushdown beats row load+filter by at least 5x
    # (self-relative), and neither store path regressed past the committed
    # baseline (relative gate; record-only off the reference machine).
    assert median_speedup >= 5.0, (
        f"store path only {median_speedup:.1f}x faster than the row path"
    )
    bench.gate("store.pushdown_median_dl")
    bench.gate("store.pushdown_speed_bins")
