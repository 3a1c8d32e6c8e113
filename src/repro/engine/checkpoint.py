"""Checkpoint identity: the fingerprint every stored shard is addressed by.

Completed shards are persisted in a :class:`~repro.sweep.cache.ShardCache`
— an engine checkpoint directory is simply a shard cache without a size
bound — under the key ``(config_fingerprint, shard_index, seed)``.  On
start-up the engine replays every stored shard whose key matches the
current run and recomputes the rest.

The fingerprint commits to everything a shard's bytes depend on:

* the campaign knobs (seed, scale, tick, test cycle, app durations);
* the exact window decomposition of the plan;
* the route geometry (:func:`route_digest`) — two routes of equal length
  that differ in one segment's region are different computations;
* the on-disk format version and the model code itself
  (:func:`source_digest`), so editing a calibration constant invalidates
  every stored shard without anyone bumping a version by hand.

A checkpoint written by any other computation is therefore never replayed:
a checkpoint can make a run faster, never wrong.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

from repro.campaign.runner import CampaignConfig
from repro.engine.planner import ShardPlan
from repro.geo.route import Route
from repro.store.format import STORE_FORMAT_VERSION

__all__ = ["config_fingerprint", "route_digest", "source_digest"]

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


@functools.cache
def source_digest() -> str:
    """SHA-256 over every ``.py`` source of the ``repro`` package.

    Computed on first use and memoized for the life of the process, so
    importing the package costs nothing.
    """
    h = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        h.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def route_digest(route: Route) -> str:
    """SHA-256 of a route's geometry: every segment and the city list."""
    payload = {
        "segments": [
            [
                [s.start_point.lat, s.start_point.lon],
                [s.end_point.lat, s.end_point.lon],
                s.length_m,
                s.region.name,
                s.city,
            ]
            for s in route.segments
        ],
        "cities": [
            [c.name, c.location.lat, c.location.lon, c.has_edge_server]
            for c in route.cities
        ],
    }
    canon = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_fingerprint(config: CampaignConfig, plan: ShardPlan, route: Route) -> str:
    """Digest identifying the exact computation a checkpoint belongs to."""
    payload = {
        "format": STORE_FORMAT_VERSION,
        "source": source_digest(),
        "route": route_digest(route),
        "seed": config.seed,
        "scale": config.scale,
        "tick_s": config.tick_s,
        "include_apps": config.include_apps,
        "include_static": config.include_static,
        "video_duration_s": config.video_duration_s,
        "gaming_duration_s": config.gaming_duration_s,
        "inter_test_gap_s": config.inter_test_gap_s,
        "cycle": [t.name for t in config.cycle.tests],
        "windows": [
            [w.index, round(w.start_m, 3), round(w.end_m, 3)]
            for w in plan.windows
        ],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
