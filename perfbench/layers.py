"""Layer hooks for the traced benchmark run, and the metrics derived from them.

The program's own source carries no spans below the shard level, so the
traced run wraps a fixed list of public layer functions from here, at the
binding its caller looks up (a module attribute or a class attribute).
Every wrapper appends a span to an in-memory :class:`Recorder`; the spans
are written out only when the benchmark ends.  Two layers are count-only
(``Route.position_at`` and the link ticks run hundreds of thousands of
times per seed, where a span would cost more than the work it measures).

:class:`Hooks` installs the wrappers and restores the exact original
attributes on exit, so an untraced run always calls the unwrapped
functions.  A hook whose target no longer resolves (a later refactor
renamed or removed it) is skipped and reported as missing; the metrics
of its layer are then left out of the result instead of crashing the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable

# -- hooks --------------------------------------------------------------------

#: ``work(args, kwargs, result) -> {counter: amount}``: work counted at the
#: layer boundary, next to the span.
WorkFn = Callable[[tuple, dict, object], dict]


def _deploy_work(args, kwargs, model) -> dict:
    # DeploymentModel.build(cls, operator, route, rng, tech_mix=None, *,
    #                       start_m=0.0, end_m=None)
    route = args[2] if len(args) > 2 else kwargs["route"]
    start_m = kwargs.get("start_m", 0.0)
    end_m = kwargs.get("end_m")
    if end_m is None:
        end_m = route.total_length_m
    return {
        "radio.zones_built": len(model.zones) + len(model.macro_zones),
        "radio.deploy_km": (end_m - start_m) / 1000.0,
    }


def _load_work(args, kwargs, _dataset) -> dict:
    return {"persist.load.bytes": os.path.getsize(args[0])}


def _save_work(args, kwargs, _none) -> dict:
    return {"persist.save.bytes": os.path.getsize(args[1])}


def _cache_load_work(args, kwargs, found) -> dict:
    # ShardCache.load_many(self, fingerprint, seed, indices)
    return {"sweep.cache_lookups": len(args[3]), "sweep.cache_hits": len(found)}


def _stats_work(args, kwargs, values) -> dict:
    return {"sweep.stats_evaluated": len(values)}


def _ingest_work(args, kwargs, info) -> dict:
    return {"store.ingest.bytes": info.nbytes}


@dataclass(frozen=True)
class Hook:
    """One wrapped binding: ``target`` is ``"module:attr[.attr]"``."""

    layer: str
    target: str
    #: Workloads on which this binding must record at least one call, in
    #: the timed operation (``"run"``) or in set-up (``"setup"``).
    exercised_on: tuple[tuple[str, str], ...]
    #: ``False`` counts calls without recording spans.
    spans: bool = True
    work: WorkFn | None = None


COLD, CAMPAIGN, WARM = "sweep_cold", "campaign_full", "sweep_warm"

HOOKS: tuple[Hook, ...] = (
    Hook("geo.route_build", "repro.geo.route:build_cross_country_route",
         ((COLD, "setup"), (CAMPAIGN, "setup"), (WARM, "setup"))),
    Hook("geo.position_at", "repro.geo.route:Route.position_at",
         ((COLD, "run"), (CAMPAIGN, "run")), spans=False),
    Hook("radio.deploy_build", "repro.radio.deployment:DeploymentModel.build",
         ((COLD, "run"), (CAMPAIGN, "run"), (WARM, "setup")), work=_deploy_work),
    Hook("xcal.passive_walk", "repro.xcal.handover_logger:run_handover_logger",
         ((COLD, "run"), (CAMPAIGN, "run"))),
    Hook("campaign.window_run", "repro.campaign.runner:DriveCampaign.run",
         ((COLD, "run"), (CAMPAIGN, "run"))),
    Hook("campaign.link_tick", "repro.campaign.link:UESession.tick",
         ((COLD, "run"), (CAMPAIGN, "run")), spans=False),
    Hook("campaign.link_tick", "repro.campaign.link:UESession.static_tick",
         ((CAMPAIGN, "run"),), spans=False),
    Hook("apps.offload", "repro.campaign.runner:run_offload_app",
         ((CAMPAIGN, "run"),)),
    Hook("apps.video", "repro.campaign.runner:run_video_session",
         ((CAMPAIGN, "run"),)),
    Hook("apps.gaming", "repro.campaign.runner:run_gaming_session",
         ((CAMPAIGN, "run"),)),
    Hook("engine.plan", "repro.sweep:plan_campaign", ((COLD, "run"), (WARM, "run"))),
    Hook("engine.plan", "repro.engine:plan_campaign", ((CAMPAIGN, "run"),)),
    Hook("engine.shard", "repro.engine.worker:execute_shard",
         ((COLD, "run"), (CAMPAIGN, "run"))),
    Hook("engine.merge", "repro.sweep:merge_shard_results",
         ((COLD, "run"), (WARM, "run"))),
    Hook("engine.merge", "repro.engine:merge_shard_results", ((CAMPAIGN, "run"),)),
    Hook("engine.validate", "repro.sweep:validate_dataset",
         ((COLD, "run"), (WARM, "setup"))),
    Hook("engine.validate", "repro.engine:validate_dataset", ((CAMPAIGN, "run"),)),
    Hook("persist.load", "repro.sweep.cache:load_dataset", ((WARM, "run"),),
         work=_load_work),
    Hook("persist.save", "repro.sweep.cache:save_dataset",
         ((COLD, "run"), (WARM, "setup")), work=_save_work),
    Hook("sweep.cache_load", "repro.sweep.cache:ShardCache.load_many",
         ((COLD, "run"), (WARM, "run")), work=_cache_load_work),
    Hook("sweep.cache_store", "repro.sweep.cache:ShardCache.store",
         ((COLD, "run"), (WARM, "setup"))),
    Hook("sweep.stats_eval", "repro.sweep:evaluate_statistics",
         ((COLD, "run"), (WARM, "run")), work=_stats_work),
    Hook("sweep.stats_summarize", "repro.sweep:summarize_statistic",
         ((COLD, "run"), (WARM, "run"))),
    Hook("store.ingest", "repro.store.catalog:Catalog.ingest",
         ((COLD, "run"), (WARM, "setup")), work=_ingest_work),
    Hook("store.stats_eval", "repro.sweep.stats:evaluate_statistics_from_store",
         ((WARM, "run"),)),
    Hook("store.query", "repro.store.query:count", ((WARM, "run"),)),
    Hook("store.query", "repro.store.query:select", ((WARM, "run"),)),
    Hook("store.query", "repro.store.query:percentile", ((WARM, "run"),)),
)


# -- recording ----------------------------------------------------------------


@dataclass
class Span:
    layer: str
    start: float
    end: float
    #: Index of the enclosing span in the same recorder, or ``None``.
    parent: int | None


@dataclass
class Recorder:
    """Spans, call counts and work counts of one traced phase, in memory."""

    phase: str
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    work: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        if not hook.spans:

            @wraps(fn)
            def counted(*args, **kwargs):
                self.calls[hook.layer] += 1
                return fn(*args, **kwargs)

            return counted

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(hook.layer, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            self.calls[hook.layer] += 1
            if hook.work is not None:
                self.work.update(hook.work(args, kwargs, result))
            return result

        return traced

    def to_lines(self, op: str) -> list[dict]:
        return [
            {"phase": self.phase, "op": op, "index": i, "layer": s.layer,
             "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]


def _resolve(target: str) -> tuple[object, str]:
    """``(owner, attribute name)`` of a hook target; raises if it is gone."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"{target} does not resolve")
    return owner, name


class Hooks:
    """Context manager that installs ``hooks`` into ``recorder``.

    ``missing`` lists the hooks whose targets did not resolve.  On exit the
    exact original attribute objects are put back.
    """

    def __init__(self, recorder: Recorder, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.recorder = recorder
        self.hooks = hooks
        self.missing: list[Hook] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for hook in self.hooks:
            try:
                owner, name = _resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.append(hook)
                continue
            raw = vars(owner)[name]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.recorder.wrap(hook, raw.__func__))
            else:
                wrapped = self.recorder.wrap(hook, raw)
            self._originals.append((owner, name, raw))
            setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._originals:
            owner, name, raw = self._originals.pop()
            setattr(owner, name, raw)


# -- per-layer figures ----------------------------------------------------------


def layer_times(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Per layer: ``busy_s`` (wall time inside the layer, a call nested in a
    call of the same layer counted once) and ``self_s`` (span time minus the
    part its child spans cover)."""
    spans = recorder.spans
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        figures = out.setdefault(span.layer, {"busy_s": 0.0, "self_s": 0.0})
        figures["self_s"] += span.end - span.start - child_s[i]
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].layer != span.layer:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            figures["busy_s"] += span.end - span.start
    return out


def top_level_remainder(recorder: Recorder, start: float, end: float) -> float:
    """Traced wall time outside every top-level span.

    Raises :class:`ValueError` when the top-level spans overlap or leave the
    ``[start, end]`` interval, i.e. when the layers cannot sum to the run.
    """
    tops = sorted((s.start, s.end) for s in recorder.spans if s.parent is None)
    cursor = start
    covered = 0.0
    for s_start, s_end in tops:
        if s_start < cursor or s_end < s_start or s_end > end:
            raise ValueError("top-level layer spans overlap or leave the run")
        covered += s_end - s_start
        cursor = s_end
    return (end - start) - covered


def figures(recorder: Recorder, hooks: tuple[Hook, ...]) -> dict[str, float]:
    """Flat ``{metric name: value}`` of one phase, for the installed ``hooks``.

    Every installed layer reports ``.calls``, span layers also ``.busy_s``
    and ``.self_s``; work counts appear under the names their hooks give.
    """
    times = layer_times(recorder)
    out: dict[str, float] = dict(recorder.work)
    for hook in hooks:
        out[f"{hook.layer}.calls"] = recorder.calls[hook.layer]
        if hook.spans:
            for kind in ("busy_s", "self_s"):
                out[f"{hook.layer}.{kind}"] = times.get(hook.layer, {}).get(kind, 0.0)
    return out
