"""The benchmark's three workloads, driven only through the public API.

All three are serial and single-process, and derive every seed from one
benchmark seed ``s``:

* ``sweep_cold`` -- ``repro.run_sweep`` over seeds {s, s+1} at scale 0.004,
  no apps or static tests, 600 km windows, into a fresh shard cache and
  store, validated.  Radio deployment building dominates it; it also writes
  through ``persist``, ``sweep.cache`` and ``store``.
* ``campaign_full`` -- ``repro.run_engine`` for seed s at scale 0.1 with
  apps and static tests, validated.  The per-sample campaign cycle
  dominates it, and it persists nothing.
* ``sweep_warm`` -- seeds {s, s+1, s+2} at scale 0.02 with apps and static
  tests (so every statistic has data).  Set-up runs one cold sweep that
  fills a shard cache and ingests a catalog; the timed operation replays
  the sweep from the cache, evaluates the store statistics per seed and
  runs a fixed set of pushdown queries.  It simulates nothing.

The cold sweep and the campaign run with ``validate=True``, so the program
raises, and the benchmark counts a failed operation, when a merged dataset
does not validate.  The warm replay only reads; its datasets must have the
same digest as the cold sweep's, which set-up validated.  After every
operation the benchmark checks that each seed's dataset digest is the same
on every operation of one invocation, that a replayed dataset's digest
equals its cold digest from set-up, that every store statistic equals the row path exactly, and
that every query equals its row-path answer.  No golden digest is pinned,
so an intended change of the simulated data does not fail the benchmark.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import shutil
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.campaign.persistence import save_dataset
from repro.engine import PlannerParams
from repro.radio.operators import Operator
from repro.store import Catalog, Eq, QueryStats, query
from repro.sweep import stats as sweep_stats


def dataset_digest(dataset, scratch: pathlib.Path) -> str:
    """SHA-256 of the dataset's byte-stable columnar serialisation."""
    path = scratch / "digest.rcol"
    save_dataset(dataset, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


@dataclass
class Outcome:
    """What one timed operation produced, for the checks and the metrics."""

    datasets: dict
    records: int
    #: Sub-operations attempted inside the operation: shards computed or
    #: replayed, statistics evaluated, queries.
    operations: int
    #: Work counts read from the outputs, reported as per-layer metrics.
    work: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Workload:
    name: str
    #: Set-ups per untimed run; the median is reported as ``setup_s``.
    setup_repeats: int
    seed_offsets: tuple[int, ...]

    def __init__(self, seed: int, workdir: pathlib.Path, route) -> None:
        self.seeds = tuple(seed + k for k in self.seed_offsets)
        self.workdir = workdir
        self.route = route
        self._ops = 0
        self._digests: dict[int, str] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Work that makes the timed operation possible (beyond the route)."""

    def op(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, tally: Tally) -> None:
        """Check one operation's outputs and clean up after it (untimed)."""
        for seed, dataset in outcome.datasets.items():
            digest = dataset_digest(dataset, self.workdir)
            expected = self._digests.setdefault(seed, digest)
            tally.check(digest == expected, f"seed {seed} dataset digest changed")
        self._ops += 1

    @staticmethod
    def _from_sweep(result) -> Outcome:
        report = result.report
        return Outcome(
            datasets=result.datasets,
            records=sum(run.records for run in report.seed_runs),
            operations=sum(run.n_shards for run in report.seed_runs)
            + len(report.seeds)
            * (len(report.statistics) + len(report.skipped_statistics)),
            extra={"report": report},
        )


class SweepCold(Workload):
    """Radio deployment building, and the write side of persist/cache/store."""

    name = "sweep_cold"
    setup_repeats = 5
    seed_offsets = (0, 1)

    def _config(self, directory: pathlib.Path) -> repro.SweepConfig:
        return repro.SweepConfig(
            seeds=self.seeds,
            scale=0.004,
            include_apps=False,
            include_static=False,
            executor="serial",
            planner=PlannerParams(window_km=600.0),
            cache_dir=str(directory / "cache"),
            store_dir=str(directory / "store"),
            validate=True,
        )

    def op(self) -> Outcome:
        return self._from_sweep(
            repro.run_sweep(self._config(self.workdir / f"op{self._ops}"), self.route)
        )

    def check(self, outcome: Outcome, tally: Tally) -> None:
        super().check(outcome, tally)
        shutil.rmtree(self.workdir / f"op{self._ops - 1}")


class CampaignFull(Workload):
    """The per-sample campaign cycle with every test type; no persistence."""

    name = "campaign_full"
    setup_repeats = 5
    seed_offsets = (0,)

    def op(self) -> Outcome:
        config = repro.EngineConfig(
            campaign=repro.CampaignConfig(seed=self.seeds[0], scale=0.1),
            executor="serial",
            validate=True,
        )
        dataset, report = repro.run_engine(config, self.route)
        return Outcome(
            datasets={self.seeds[0]: dataset},
            records=report.total_records,
            operations=len(report.shards),
            work={"campaign.tests": len(dataset.tests)},
        )


def _queries() -> list[tuple[str, object, object]]:
    """The fixed pushdown queries: ``(label, store call, row-path answer)``."""
    out = []
    for op in Operator:
        out.append((
            f"count tput {op.code}",
            lambda cat, qs, op=op: query.count(
                cat, "tput", (Eq("operator", op),), qstats=qs),
            lambda ds, op=op: len(ds.tput(operator=op)),
        ))
        for direction in ("downlink", "uplink"):
            out.append((
                f"median {direction} {op.code}",
                lambda cat, qs, op=op, d=direction: query.percentile(
                    cat, "tput", "tput_mbps", 0.5,
                    where=(Eq("operator", op), Eq("direction", d), Eq("static", False)),
                    qstats=qs),
                lambda ds, op=op, d=direction: ds.tput_values(
                    operator=op, direction=d, static=False),
            ))
        out.append((
            f"median rtt {op.code}",
            lambda cat, qs, op=op: query.percentile(
                cat, "rtt", "rtt_ms", 0.5,
                where=(Eq("operator", op), Eq("static", False)), qstats=qs),
            lambda ds, op=op: ds.rtt_values(operator=op, static=False),
        ))
    return out


QUERIES = _queries()


def _row_answer(row_fn, datasets) -> float:
    parts = [row_fn(ds) for ds in datasets]
    if isinstance(parts[0], int):
        return float(sum(parts))
    return float(np.quantile(np.concatenate(parts), 0.5))


class SweepWarm(Workload):
    """Reads: shard replay, store statistics and pushdown queries."""

    name = "sweep_warm"
    # One cold sweep takes 16-29 s on a 2-core shared machine; a second
    # set-up per run would not fit the benchmark's time budget.
    setup_repeats = 1
    seed_offsets = (0, 1, 2)

    def _config(self, **options) -> repro.SweepConfig:
        return repro.SweepConfig(
            seeds=self.seeds, scale=0.02, executor="serial", **options
        )

    def setup(self) -> None:
        self.cache_dir = self.workdir / "cache"
        self.store_dir = self.workdir / "store"
        cold = repro.run_sweep(
            self._config(
                cache_dir=str(self.cache_dir), store_dir=str(self.store_dir),
                validate=True,
            ),
            self.route,
        )
        self._digests = {
            seed: dataset_digest(ds, self.workdir) for seed, ds in cold.datasets.items()
        }
        ordered = [cold.datasets[seed] for seed in self.seeds]
        self._answers = [_row_answer(row, ordered) for _, _, row in QUERIES]

    def op(self) -> Outcome:
        outcome = self._from_sweep(
            repro.run_sweep(self._config(cache_dir=str(self.cache_dir)), self.route)
        )
        qstats = QueryStats()
        with Catalog(self.store_dir) as catalog:
            store_values = {
                seed: sweep_stats.evaluate_statistics_from_store(catalog, seeds=(seed,))
                for seed in self.seeds
            }
            answers = [call(catalog, qstats) for _, call, _ in QUERIES]
        outcome.operations += sum(len(v) for v in store_values.values()) + len(answers)
        outcome.extra.update(store_values=store_values, answers=answers)
        outcome.work = {
            "store.bytes_decoded": qstats.bytes_decoded,
            "store.partitions_scanned": qstats.partitions_scanned,
        }
        return outcome

    def check(self, outcome: Outcome, tally: Tally) -> None:
        super().check(outcome, tally)
        report = outcome.extra["report"]
        tally.check(
            report.cache.misses == 0 and report.cache.hits == sum(
                run.n_shards for run in report.seed_runs),
            "replay missed the shard cache",
        )
        row: dict[tuple[str, int], float] = {}
        for summary in report.statistics:
            row.update({(summary.name, s): v for s, v in zip(summary.seeds, summary.values)})
        for seed, values in outcome.extra["store_values"].items():
            for name, value in values.items():
                tally.check(
                    _same(value, row.get((name, seed), math.nan)),
                    f"store statistic {name} seed {seed} differs from the row path",
                )
        for (label, _, _), got, want in zip(QUERIES, outcome.extra["answers"], self._answers):
            tally.check(_same(float(got), want), f"query {label} differs from the row path")


WORKLOADS = {cls.name: cls for cls in (SweepCold, CampaignFull, SweepWarm)}
