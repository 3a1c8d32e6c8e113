"""The shard store: content-addressed shard results on disk.

Every shard an engine run computes is a pure function of
``(config_fingerprint, shard_index, shard_seed)``
(:func:`repro.engine.checkpoint.config_fingerprint`); this store keeps shard
results under the SHA-256 of exactly that triple, so *any* later run that
plans an identical shard — the same seed re-appearing in a different sweep,
a resumed campaign, a re-run at the same scale — replays it instead of
recomputing it.  It is the only shard store: a sweep's ``cache_dir`` and an
engine's ``checkpoint_dir`` are the same kind of directory, so either can
serve the other.  A checkpoint directory is a store without a size bound.

On-disk layout (one entry per shard, fanned out by key prefix)::

    <directory>/objects/<key[:2]>/<key>/
        data.rcol     shard-local dataset, columnar
                      (byte-reproducible, atomic — repro.store.format)
        meta.json     sidecar: fingerprint, seed, index, connected cell
                      ids, macro-cell counts, wall time, record count,
                      metrics snapshot

Guarantees:

* **Atomic writes** — both files land via temp-file + ``os.replace``, and
  ``meta.json`` is written last, so a torn entry is never visible: an entry
  without a valid sidecar is simply a miss.
* **Safe reads** — a hit must match fingerprint, seed, *and* index; a
  truncated or corrupt ``.rcol`` file, an unreadable sidecar, or a foreign
  entry is treated as absent.  A store can make a run faster, never wrong.
* **LRU size bounding** — with ``max_bytes`` set, the store evicts
  least-recently-used entries (hits refresh recency) until it fits.
  Recency is stamped from a **logical clock** — strictly increasing, seeded
  at or above every existing entry's timestamp — so access order survives
  coarse-mtime filesystems (batch hits would otherwise tie and fall back to
  size order) and clock skew (an entry stamped in the future would otherwise
  outrank the shard that was *just* used).
* **Counters** — hits/misses/stores/evictions accumulate in
  :class:`CacheStats` for the sweep report.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import time
from dataclasses import dataclass
from typing import Sequence

from repro.campaign.persistence import load_dataset, save_dataset
from repro.engine.worker import ShardResult
from repro.errors import ReproError, SweepError
from repro.obs.metrics import MetricsRegistry
from repro.radio.operators import Operator

__all__ = ["CacheStats", "ShardCache", "shard_stem"]

_DATA_NAME = "data.rcol"
_META_NAME = "meta.json"


def shard_stem(index: int) -> str:
    """Canonical name of one shard (``shard-0007``)."""
    return f"shard-{index:04d}"


def _shard_meta(result: ShardResult, fingerprint: str, seed: int) -> dict:
    """JSON-able sidecar describing one shard result (sans dataset).

    The metrics snapshot a traced worker recorded rides along, so a replayed
    shard re-enters the run report with the counters of the computation
    that produced it — a resumed run's merged metrics match an
    uninterrupted run's (resume parity).
    """
    meta = {
        "fingerprint": fingerprint,
        "seed": seed,
        "index": result.index,
        "wall_s": result.wall_s,
        "records": result.records,
        "active_cell_ids": {
            op.name: ids for op, ids in result.active_cell_ids.items()
        },
        "macro_cells": {op.name: n for op, n in result.macro_cells.items()},
    }
    if result.metrics is not None:
        meta["metrics"] = result.metrics
    return meta


def _shard_from_parts(index: int, meta: dict, dataset) -> ShardResult:
    """Rebuild a :class:`ShardResult` from its sidecar and dataset."""
    metrics = meta.get("metrics")
    return ShardResult(
        index=index,
        dataset=dataset,
        active_cell_ids={
            Operator[name]: [int(i) for i in ids]
            for name, ids in meta["active_cell_ids"].items()
        },
        macro_cells={Operator[name]: n for name, n in meta["macro_cells"].items()},
        wall_s=float(meta["wall_s"]),
        metrics=metrics if isinstance(metrics, dict) else None,
    )


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ShardCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup happened."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_obj(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio(), 4),
        }


class ShardCache:
    """Content-addressed, optionally LRU-bounded store of shard results."""

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise SweepError(f"max_bytes must be positive, got {max_bytes}")
        self.directory = pathlib.Path(directory)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        #: Logical recency clock (ns).  ``None`` until first use, then
        #: lazily seeded to the newest existing entry's mtime so every
        #: stamp this instance hands out outranks what is already on disk.
        self._recency_ns: int | None = None
        #: Optional ``repro.obs`` registry mirroring :attr:`stats` under
        #: ``cache.*`` counter names, so a traced sweep's report carries the
        #: same counts the cache itself saw (counted at source, not
        #: re-derived).  ``None`` keeps the untraced path allocation-free.
        self.metrics = metrics

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    # -- addressing --------------------------------------------------------

    @staticmethod
    def key(fingerprint: str, index: int, seed: int) -> str:
        """Content address of one shard result.

        The digest of ``(config_fingerprint, shard_index, shard_seed)`` —
        the complete identity of a shard's computation.  The fingerprint
        already commits to the campaign seed, but the seed participates
        explicitly so a key is self-describing and survives
        fingerprint-scheme evolution.
        """
        canon = f"{fingerprint}:{shard_stem(index)}:{seed}"
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def entry_dir(self, key: str) -> pathlib.Path:
        return self.directory / "objects" / key[:2] / key

    # -- read --------------------------------------------------------------

    def load(self, fingerprint: str, seed: int, index: int) -> ShardResult | None:
        """Replay one shard, or ``None`` (counted as a miss) if absent.

        A hit revalidates the sidecar against the full identity triple —
        a key collision or a foreign/corrupt entry can only produce a miss,
        never a wrong result — and refreshes the entry's LRU recency.
        """
        entry = self.entry_dir(self.key(fingerprint, index, seed))
        meta_path = entry / _META_NAME
        try:
            meta = json.loads(meta_path.read_text())
            if (
                meta.get("fingerprint") != fingerprint
                or meta.get("seed") != seed
                or meta.get("index") != index
            ):
                raise ValueError("cache entry does not match its address")
            dataset = load_dataset(entry / _DATA_NAME)
            result = _shard_from_parts(index, meta, dataset)
        except (OSError, ValueError, KeyError, EOFError, ReproError):
            self.stats.misses += 1
            self._count("cache.misses")
            return None
        result.from_cache = True
        self._touch(meta_path)
        self.stats.hits += 1
        self._count("cache.hits")
        return result

    def load_many(
        self, fingerprint: str, seed: int, indices: Sequence[int]
    ) -> dict[int, ShardResult]:
        """Replay every shard among ``indices`` the cache can serve.

        One :meth:`load` per index — the *same* path single lookups take —
        so every batch hit counts toward the stats/metrics and refreshes
        LRU recency, with strictly increasing stamps in ``indices`` order:
        eviction never punishes an entry for arriving via a batch.
        """
        found: dict[int, ShardResult] = {}
        for index in indices:
            result = self.load(fingerprint, seed, index)
            if result is not None:
                found[index] = result
        return found

    # -- write -------------------------------------------------------------

    def store(self, fingerprint: str, seed: int, result: ShardResult) -> None:
        """Persist one shard result atomically, then enforce the size bound.

        Storing an already-present key simply rewrites the same bytes
        (datasets serialise byte-reproducibly), so last-write-wins races
        between concurrent sweeps sharing a cache directory are harmless.
        """
        entry = self.entry_dir(self.key(fingerprint, result.index, seed))
        entry.mkdir(parents=True, exist_ok=True)
        save_dataset(result.dataset, entry / _DATA_NAME)
        meta = _shard_meta(result, fingerprint, seed)
        meta_path = entry / _META_NAME
        tmp = meta_path.with_name(f"{_META_NAME}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(meta, sort_keys=True, indent=1))
            os.replace(tmp, meta_path)
        finally:
            tmp.unlink(missing_ok=True)
        # Stamp the fresh entry through the same logical clock hits use,
        # so stores and hits share one total recency order.
        self._touch(meta_path)
        self.stats.stores += 1
        self._count("cache.stores")
        if self.max_bytes is not None:
            self._evict(keep=entry)

    # -- bookkeeping -------------------------------------------------------

    def _next_recency_ns(self) -> int:
        """Next stamp of the logical recency clock, strictly increasing.

        Tracks ``max(wall clock, previous stamp + 1)``, seeded from the
        newest entry already on disk.  Two properties the raw wall clock
        lacks: consecutive accesses (e.g. the hits of one ``load_many``
        batch) never tie even on coarse-mtime filesystems, and an entry
        whose stored mtime lies in the future (clock skew, another host's
        writes) can never outrank a shard that was just used.
        """
        if self._recency_ns is None:
            existing = [ns for ns, _, _ in self._entries()]
            self._recency_ns = max(existing) if existing else 0
        self._recency_ns = max(time.time_ns(), self._recency_ns + 1)
        return self._recency_ns

    def _touch(self, path: pathlib.Path) -> None:
        try:
            stamp = self._next_recency_ns()
            os.utime(path, ns=(stamp, stamp))
        except OSError:
            pass  # recency refresh is best-effort

    def _entries(self) -> list[tuple[int, int, pathlib.Path]]:
        """All valid-looking entries as ``(last_use_ns, bytes, entry_dir)``."""
        objects = self.directory / "objects"
        entries = []
        for meta_path in objects.glob(f"*/*/{_META_NAME}"):
            entry = meta_path.parent
            try:
                mtime_ns = meta_path.stat().st_mtime_ns
                size = sum(p.stat().st_size for p in entry.iterdir())
            except OSError:
                continue  # concurrently evicted
            entries.append((mtime_ns, size, entry))
        return entries

    def total_bytes(self) -> int:
        """Disk footprint of every entry currently in the cache."""
        return sum(size for _, size, _ in self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    def _evict(self, keep: pathlib.Path) -> None:
        """Drop LRU entries until the cache fits ``max_bytes``.

        The just-written entry is exempt, so a single oversized shard still
        caches (the bound is then best-effort) and a store can never evict
        its own result.
        """
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, entry in entries:
            if total <= self.max_bytes:
                break
            if entry == keep:
                continue
            self._remove_entry(entry)
            total -= size
            self.stats.evictions += 1
            self._count("cache.evictions")

    def _remove_entry(self, entry: pathlib.Path) -> None:
        # Remove the sidecar first: a half-removed entry is invalid (a
        # miss), never a torn read.
        (entry / _META_NAME).unlink(missing_ok=True)
        shutil.rmtree(entry, ignore_errors=True)
