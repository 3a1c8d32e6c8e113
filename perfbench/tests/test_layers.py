"""Tests of the benchmark's layer hooks, metric tables and span arithmetic.

Run from the repository root (the workload test takes about a minute)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

import pytest

import layers
import metrics
import workloads
from layers import CAMPAIGN, COLD, HOOKS, WARM, Hook, Hooks, Recorder, Span

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _raw(hook: Hook) -> object:
    owner, name = layers._resolve(hook.target)
    return vars(owner)[name]


def test_every_hook_resolves_and_every_wrapper_is_removed():
    originals = [_raw(hook) for hook in HOOKS]
    with Hooks(Recorder("run")) as installed:
        assert installed.missing == []
        assert all(_raw(h) is not o for h, o in zip(HOOKS, originals))
    assert all(_raw(h) is o for h, o in zip(HOOKS, originals))


def test_calls_after_the_traced_run_reach_no_wrapper():
    from repro.geo import route as route_module

    recorder = Recorder("run")
    with Hooks(recorder):
        route_module.build_cross_country_route().position_at(1000.0)
    seen = dict(recorder.calls)
    assert seen["geo.route_build"] == 1 and seen["geo.position_at"] >= 1
    route_module.build_cross_country_route().position_at(1000.0)
    assert dict(recorder.calls) == seen
    assert recorder.spans and all(span.end > 0.0 for span in recorder.spans)


def test_a_hook_that_no_longer_resolves_is_a_missing_metric_not_a_crash():
    gone = (
        Hook("persist.load", "repro.sweep.cache:load_dataset_renamed", ((WARM, "run"),)),
        Hook("store.query", "repro.store.no_such_module:count", ((WARM, "run"),)),
    )
    with Hooks(Recorder("run"), hooks=gone) as installed:
        assert installed.missing == list(gone)
    missing = {hook.layer for hook in installed.missing}
    values, names = metrics.layer_values([{"engine.shard.calls": 3}], {}, missing)
    assert {"persist.load.calls", "persist.load.bytes", "store.query.busy_s"} <= set(names)
    assert not set(names) & set(values)
    assert values["engine.shard.calls"] == (3, 1)


def test_busy_self_and_the_untraced_remainder_sum_to_the_run():
    recorder = Recorder("run")
    recorder.spans = [
        Span("engine.shard", 1.0, 5.0, None),
        Span("radio.deploy_build", 1.5, 3.5, 0),
        Span("store.query", 6.0, 8.0, None),
        Span("store.query", 6.5, 7.5, 2),
    ]
    times = layers.layer_times(recorder)
    assert times["engine.shard"] == {"busy_s": 4.0, "self_s": 2.0}
    assert times["radio.deploy_build"] == {"busy_s": 2.0, "self_s": 2.0}
    # A call nested in a call of the same layer is busy time only once.
    assert times["store.query"] == {"busy_s": 2.0, "self_s": 2.0}
    assert layers.top_level_remainder(recorder, 0.0, 10.0) == pytest.approx(4.0)
    recorder.spans.append(Span("engine.merge", 4.0, 6.0, None))
    with pytest.raises(ValueError):
        layers.top_level_remainder(recorder, 0.0, 10.0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in spec["end_to_end"]] == [
        dataclasses.asdict(m) for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    hooked = {hook.layer for hook in HOOKS}
    assert all(m.layer is None or m.layer in hooked for m in metrics.PER_LAYER)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload's set-up and one operation, counted per hook target and
    timed per layer."""
    from repro.geo import route as route_module

    by_target = tuple(dataclasses.replace(hook, layer=hook.target) for hook in HOOKS)
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        setup_targets, run_targets, run_layers = (
            Recorder("setup"), Recorder("run"), Recorder("run"),
        )
        with Hooks(setup_targets, by_target):
            workload = cls(42, tmp_path_factory.mktemp(name),
                           route_module.build_cross_country_route())
            workload.setup()
        with Hooks(run_targets, by_target), Hooks(run_layers):
            started = time.perf_counter()
            outcome = workload.op()
            ended = time.perf_counter()
        tally = workloads.Tally()
        workload.check(outcome, tally)
        assert tally.failed == 0, tally.problems
        out[name] = {
            "setup": setup_targets,
            "run": run_targets,
            "layers": layers.figures(run_layers, HOOKS),
            "run_s": ended - started,
            "remainder_s": layers.top_level_remainder(run_layers, started, ended),
        }
    return out


@pytest.mark.parametrize("hook", HOOKS, ids=lambda hook: hook.target)
def test_every_hook_records_calls_on_the_workloads_it_names(hook, traced):
    for workload, phase in hook.exercised_on:
        assert traced[workload][phase].calls[hook.target] >= 1, (workload, phase)


def test_each_workload_stresses_its_layer(traced):
    cold, campaign, warm = traced[COLD], traced[CAMPAIGN], traced[WARM]
    assert cold["layers"]["radio.deploy_build.busy_s"] > 0.5 * cold["run_s"]
    assert campaign["layers"]["campaign.window_run.busy_s"] > 0.5 * campaign["run_s"]
    assert warm["layers"]["persist.load.busy_s"] > 0.5 * warm["run_s"]
    assert warm["layers"]["radio.deploy_build.calls"] == 0
    assert warm["layers"]["persist.load.calls"] > 0
    assert cold["layers"]["persist.load.calls"] == 0
    assert campaign["layers"]["persist.load.calls"] == 0
    for run in traced.values():
        assert run["remainder_s"] >= 0.0
