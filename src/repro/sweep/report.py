"""The sweep report: one JSON document describing a whole replication sweep.

Mirrors :class:`~repro.engine.metrics.EngineReport` one level up: where the
engine report describes one campaign's shards, the sweep report describes
one sweep's seeds — per-seed wall time, record counts, and cache hit/miss
splits — plus the cache-wide counters and the aggregated
mean/median/std/CI summary of every paper statistic.  ``schema_version``
lets campaign farms scraping report directories detect format drift, and
:meth:`SweepReport.from_obj` round-trips the JSON form.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

from repro.sweep.cache import CacheStats
from repro.sweep.stats import StatisticSummary

__all__ = ["SeedRunMetrics", "SweepReport", "SWEEP_SCHEMA_VERSION"]

#: Version of the sweep report JSON format; bump on any field change.
#: History: 1 = initial sweep report; 2 = timings at full precision (must
#: reconcile exactly with trace-derived sums — see ``repro.obs``) and the
#: optional run-level ``metrics`` snapshot; 3 = per-seed fingerprint inputs
#: (``route_digest``, ``source_digest``, ``store_format_version``).
SWEEP_SCHEMA_VERSION = 3


@dataclass(frozen=True, slots=True)
class SeedRunMetrics:
    """Execution statistics of one seed's replication inside a sweep."""

    seed: int
    fingerprint: str
    #: Summed per-shard compute time.  Seeds interleave through one shared
    #: pool, so a per-seed *elapsed* time is meaningless; this is the CPU
    #: cost the seed added (0.0 when fully served from cache).
    compute_wall_s: float
    records: int
    n_shards: int
    cache_hits: int
    cache_misses: int
    retries: int
    #: Inputs of ``fingerprint`` (see ``EngineReport``).
    route_digest: str = ""
    source_digest: str = ""
    store_format_version: int = 0

    def cache_hit_ratio(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def to_obj(self) -> dict:
        # Timings are serialised at full precision (same policy as
        # ``ShardMetrics.to_obj``): trace-derived sums must reconcile with
        # report fields exactly, not to within rounding error.
        return {
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "compute_wall_s": self.compute_wall_s,
            "records": self.records,
            "n_shards": self.n_shards,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": round(self.cache_hit_ratio(), 4),
            "retries": self.retries,
            "route_digest": self.route_digest,
            "source_digest": self.source_digest,
            "store_format_version": self.store_format_version,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SeedRunMetrics":
        """Parse the JSON form; unknown fields are ignored.

        Only ``seed`` and ``fingerprint`` are required, so entries written
        by a newer schema version still parse with defaults filling in.
        """
        return cls(
            seed=int(obj["seed"]),
            fingerprint=str(obj["fingerprint"]),
            compute_wall_s=float(obj.get("compute_wall_s", 0.0)),
            records=int(obj.get("records", 0)),
            n_shards=int(obj.get("n_shards", 0)),
            cache_hits=int(obj.get("cache_hits", 0)),
            cache_misses=int(obj.get("cache_misses", 0)),
            retries=int(obj.get("retries", 0)),
            route_digest=str(obj.get("route_digest", "")),
            source_digest=str(obj.get("source_digest", "")),
            store_format_version=int(obj.get("store_format_version", 0)),
        )


@dataclass
class SweepReport:
    """Everything observable about one multi-seed replication sweep."""

    seeds: tuple[int, ...]
    scale: float
    executor: str
    workers: int
    n_windows: int
    confidence: float
    bootstrap_samples: int
    seed_runs: list[SeedRunMetrics] = field(default_factory=list)
    statistics: list[StatisticSummary] = field(default_factory=list)
    #: Statistics with no finite value on any seed (e.g. app QoE when the
    #: sweep ran with ``include_apps=False``) — reported, not silently lost.
    skipped_statistics: list[str] = field(default_factory=list)
    cache: CacheStats | None = None
    total_wall_s: float = 0.0
    pool_rebuilds: int = 0
    #: Optional merged metrics snapshot (``repro.obs.metrics`` shape);
    #: populated only when the sweep was traced.
    metrics: dict | None = None

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)

    @property
    def total_records(self) -> int:
        return sum(r.records for r in self.seed_runs)

    def cache_hit_ratio(self) -> float:
        """Hits over lookups across every seed; 0.0 without a cache."""
        hits = sum(r.cache_hits for r in self.seed_runs)
        looked_up = hits + sum(r.cache_misses for r in self.seed_runs)
        return hits / looked_up if looked_up else 0.0

    def statistic(self, name: str) -> StatisticSummary:
        """Look up one aggregated statistic by name."""
        for summary in self.statistics:
            if summary.name == name:
                return summary
        raise KeyError(name)

    def to_obj(self) -> dict:
        obj = {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "seeds": list(self.seeds),
            "n_seeds": self.n_seeds,
            "scale": self.scale,
            "executor": self.executor,
            "workers": self.workers,
            "n_windows": self.n_windows,
            "confidence": self.confidence,
            "bootstrap_samples": self.bootstrap_samples,
            "total_wall_s": self.total_wall_s,
            "pool_rebuilds": self.pool_rebuilds,
            "total_records": self.total_records,
            "cache_hit_ratio": round(self.cache_hit_ratio(), 4),
            "cache": self.cache.to_obj() if self.cache is not None else None,
            "seed_runs": [r.to_obj() for r in self.seed_runs],
            "statistics": [s.to_obj() for s in self.statistics],
            "skipped_statistics": list(self.skipped_statistics),
        }
        if self.metrics is not None:
            obj["metrics"] = self.metrics
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "SweepReport":
        """Rebuild a report from its JSON form (derived fields recomputed).

        Tolerant of **newer** schema versions: fields this build doesn't
        know are ignored, and auxiliary fields fall back to defaults —
        only the sweep's identity (seeds/scale/executor/workers) and the
        aggregation parameters are required.  Scrapers that need strict
        parsing should compare ``schema_version`` themselves.
        """
        cache_obj = obj.get("cache")
        cache = None
        if cache_obj is not None:
            cache = CacheStats(
                hits=int(cache_obj.get("hits", 0)),
                misses=int(cache_obj.get("misses", 0)),
                stores=int(cache_obj.get("stores", 0)),
                evictions=int(cache_obj.get("evictions", 0)),
            )
        return cls(
            seeds=tuple(int(s) for s in obj["seeds"]),
            scale=float(obj["scale"]),
            executor=str(obj["executor"]),
            workers=int(obj["workers"]),
            n_windows=int(obj["n_windows"]),
            confidence=float(obj["confidence"]),
            bootstrap_samples=int(obj["bootstrap_samples"]),
            seed_runs=[
                SeedRunMetrics.from_obj(r) for r in obj.get("seed_runs", [])
            ],
            statistics=[
                StatisticSummary.from_obj(s) for s in obj.get("statistics", [])
            ],
            skipped_statistics=[
                str(n) for n in obj.get("skipped_statistics", [])
            ],
            cache=cache,
            total_wall_s=float(obj.get("total_wall_s", 0.0)),
            pool_rebuilds=int(obj.get("pool_rebuilds", 0)),
            metrics=obj.get("metrics"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    def save(self, path: str | os.PathLike) -> None:
        """Write the report as JSON, atomically."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(self.to_json() + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
