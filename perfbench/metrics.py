"""Every metric the benchmark reports, with what each one should move.

``BENCHMARK.json`` lists the same names, units and directions; this table
adds, for each per-layer metric, the hooked layer it is read from and the
"should move / on" prediction: which end-to-end metric a change to that
layer should move, and on which workload.  Later changes cite these names.

Per-layer names starting with ``setup.`` are read from the traced set-up
phase; all others from the traced timed operation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.radio.operators import Operator


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


@dataclass(frozen=True)
class LayerMetric(Metric):
    #: Hooked layer the value comes from; ``None`` for the benchmark's own
    #: figures (work counts read from outputs, run-level ratios).
    layer: str | None
    should_move: str
    on: str


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("run_s", "s", "lower"),
    Metric("records_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_ALL = "sweep_cold, campaign_full, sweep_warm"
_DEPLOY_MOVES = "run_s, records_per_s; peak_rss_mb if the world is held"
_DEPLOY_ON = "sweep_cold mainly, campaign_full partly"


def _m(name, unit, better, layer, should_move, on) -> LayerMetric:
    return LayerMetric(name, unit, better, layer, should_move, on)


PER_LAYER: tuple[LayerMetric, ...] = (
    _m("setup.geo.route_build.calls", "count", "lower", "geo.route_build", "setup_s", _ALL),
    _m("setup.geo.route_build.busy_s", "s", "lower", "geo.route_build", "setup_s", _ALL),
    _m("geo.position_at.calls", "count", "lower", "geo.position_at",
       "run_s", "sweep_cold, campaign_full"),
    _m("radio.deploy_build.calls", "count", "lower", "radio.deploy_build", _DEPLOY_MOVES, _DEPLOY_ON),
    _m("radio.deploy_build.busy_s", "s", "lower", "radio.deploy_build", _DEPLOY_MOVES, _DEPLOY_ON),
    _m("radio.deploy_build.self_s", "s", "lower", "radio.deploy_build", _DEPLOY_MOVES, _DEPLOY_ON),
    _m("radio.zones_built", "count", "lower", "radio.deploy_build", _DEPLOY_MOVES, _DEPLOY_ON),
    _m("radio.deploy_km_ratio", "ratio", "lower", "radio.deploy_build", _DEPLOY_MOVES, _DEPLOY_ON),
    _m("setup.radio.deploy_build.busy_s", "s", "lower", "radio.deploy_build", "setup_s", "sweep_warm"),
    _m("xcal.passive_walk.calls", "count", "lower", "xcal.passive_walk", "run_s", "sweep_cold"),
    _m("xcal.passive_walk.busy_s", "s", "lower", "xcal.passive_walk", "run_s", "sweep_cold"),
    _m("campaign.window_run.calls", "count", "lower", "campaign.window_run", "run_s", "campaign_full"),
    _m("campaign.window_run.busy_s", "s", "lower", "campaign.window_run", "run_s", "campaign_full"),
    _m("campaign.window_run.self_s", "s", "lower", "campaign.window_run", "run_s", "campaign_full"),
    _m("campaign.link_tick.calls", "count", "lower", "campaign.link_tick", "run_s", "campaign_full"),
    _m("campaign.tests", "count", "higher", None, "- (work count)", "-"),
    _m("apps.offload.calls", "count", "lower", "apps.offload", "run_s", "campaign_full only"),
    _m("apps.offload.busy_s", "s", "lower", "apps.offload", "run_s", "campaign_full only"),
    _m("apps.video.calls", "count", "lower", "apps.video", "run_s", "campaign_full only"),
    _m("apps.video.busy_s", "s", "lower", "apps.video", "run_s", "campaign_full only"),
    _m("apps.gaming.calls", "count", "lower", "apps.gaming", "run_s", "campaign_full only"),
    _m("apps.gaming.busy_s", "s", "lower", "apps.gaming", "run_s", "campaign_full only"),
    _m("engine.plan.busy_s", "s", "lower", "engine.plan", "run_s (small)", _ALL),
    _m("engine.shard.calls", "count", "lower", "engine.shard", "run_s (small)", _ALL),
    _m("engine.shard.busy_s", "s", "lower", "engine.shard", "run_s (small)", _ALL),
    _m("engine.merge.busy_s", "s", "lower", "engine.merge", "run_s (small)", _ALL),
    _m("engine.validate.busy_s", "s", "lower", "engine.validate", "run_s (small)",
       "sweep_cold, campaign_full"),
    _m("persist.load.calls", "count", "lower", "persist.load", "run_s", "sweep_warm only"),
    _m("persist.load.busy_s", "s", "lower", "persist.load", "run_s", "sweep_warm only"),
    _m("persist.load.bytes", "B", "lower", "persist.load", "run_s", "sweep_warm only"),
    _m("persist.save.calls", "count", "lower", "persist.save", "run_s", "sweep_cold"),
    _m("persist.save.busy_s", "s", "lower", "persist.save", "run_s", "sweep_cold"),
    _m("persist.save.bytes", "B", "lower", "persist.save", "run_s", "sweep_cold"),
    _m("setup.persist.save.busy_s", "s", "lower", "persist.save", "setup_s", "sweep_warm"),
    _m("sweep.cache_load.busy_s", "s", "lower", "sweep.cache_load", "run_s", "sweep_warm"),
    _m("sweep.cache_lookups", "count", "lower", "sweep.cache_load", "- (base of the hit ratio)", "sweep_cold, sweep_warm"),
    _m("sweep.cache_hit_ratio", "ratio", "higher", "sweep.cache_load", "run_s", "sweep_warm"),
    _m("sweep.cache_store.calls", "count", "lower", "sweep.cache_store", "run_s", "sweep_cold"),
    _m("sweep.cache_store.busy_s", "s", "lower", "sweep.cache_store", "run_s", "sweep_cold"),
    _m("sweep.stats_eval.busy_s", "s", "lower", "sweep.stats_eval", "run_s", "sweep_warm"),
    _m("sweep.stats_summarize.busy_s", "s", "lower", "sweep.stats_summarize", "run_s", "sweep_warm"),
    _m("sweep.stats_evaluated", "count", "higher", "sweep.stats_eval", "run_s", "sweep_warm"),
    _m("store.ingest.calls", "count", "lower", "store.ingest", "run_s", "sweep_cold"),
    _m("store.ingest.busy_s", "s", "lower", "store.ingest", "run_s", "sweep_cold"),
    _m("store.ingest.bytes", "B", "lower", "store.ingest", "run_s", "sweep_cold"),
    _m("setup.store.ingest.busy_s", "s", "lower", "store.ingest", "setup_s", "sweep_warm"),
    _m("store.stats_eval.busy_s", "s", "lower", "store.stats_eval", "run_s", "sweep_warm"),
    _m("store.query.calls", "count", "lower", "store.query", "run_s", "sweep_warm"),
    _m("store.query.busy_s", "s", "lower", "store.query", "run_s", "sweep_warm"),
    _m("store.bytes_decoded", "B", "lower", None, "run_s", "sweep_warm"),
    _m("store.partitions_scanned", "count", "lower", None, "run_s", "sweep_warm"),
    _m("bench.traced_run_s", "s", "lower", None, "- (base of the layer shares)", _ALL),
    _m("bench.untraced_remainder_s", "s", "lower", None, "-", _ALL),
    _m("bench.trace_overhead_frac", "ratio", "lower", None, "-", _ALL),
    _m("failed_frac", "ratio", "lower", None, "- (must stay 0)", _ALL),
)


def add_ratios(figs: dict[str, float], route_km: float, n_seeds: int) -> None:
    """Add the ratio metrics to one phase's figures, each over its base."""
    base_km = route_km * len(Operator) * n_seeds
    figs["radio.deploy_km_ratio"] = figs.get("radio.deploy_km", 0.0) / base_km
    lookups = figs.get("sweep.cache_lookups", 0)
    figs["sweep.cache_lookups"] = lookups
    figs["sweep.cache_hit_ratio"] = (
        figs.get("sweep.cache_hits", 0) / lookups if lookups else 0.0
    )


#: Per-layer metrics computed once per traced run rather than per operation.
RUN_LEVEL = ("bench.trace_overhead_frac", "failed_frac")


def layer_values(
    per_op: list[dict], setup_figs: dict, missing: set[str]
) -> tuple[dict[str, tuple[float, int]], list[str]]:
    """``({name: (median, samples)}, missing names)`` of the per-operation
    metrics: ``per_op`` holds one figures dict per traced operation,
    ``missing`` the layers whose hooks did not resolve."""
    values: dict[str, tuple[float, int]] = {}
    gone: list[str] = []
    for metric in PER_LAYER:
        name = metric.name
        if metric.layer in missing:
            gone.append(name)
        elif name.startswith("setup."):
            values[name] = (setup_figs.get(name[len("setup."):], 0), 1)
        elif per_op and name not in RUN_LEVEL:
            samples = [figs.get(name, 0) for figs in per_op]
            values[name] = (statistics.median(samples), len(samples))
    return values, gone
