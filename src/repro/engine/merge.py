"""Deterministic merge: stitch shard outputs back into one dataset.

The merger concatenates every record family in **canonical window order**
regardless of the order shards completed in — so the merged dataset is a
pure function of the shard results.  Because each window owns a disjoint,
deterministic test-id namespace (``(index+1) * TEST_ID_STRIDE``), no
renumbering pass is needed and referential integrity (samples → tests,
handovers → tests) is preserved by construction.

Boundary semantics: every window queries the seed's one network
(:class:`~repro.radio.deployment.TiledDeployment`) and owns the tiles it
spans, so the windows' passive segments tile the route once and their macro
handover counts sum to the full-route count.  Connected cells are counted
once however many windows used them: ``|union of active cell ids| + sum of
(disjoint) macro cells``.  Each window's active phones start freshly
attached — the same reset that follows every duty-cycle fast-forward.  The
merger verifies its invariants (windows present exactly once, id namespaces
disjoint) and raises :class:`EngineError` on violation.
"""

from __future__ import annotations

from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig
from repro.engine.planner import ShardPlan, TEST_ID_STRIDE
from repro.engine.worker import ShardResult
from repro.errors import EngineError
from repro.radio.operators import Operator

__all__ = ["merge_shard_results"]

_FAMILIES = (
    "throughput_samples",
    "rtt_samples",
    "tests",
    "handovers",
    "passive_coverage",
    "offload_runs",
    "video_runs",
    "gaming_runs",
)


def merge_shard_results(
    config: CampaignConfig,
    plan: ShardPlan,
    results: dict[int, ShardResult],
    route_length_km: float,
) -> DriveDataset:
    """Combine shard results into one :class:`DriveDataset`.

    Parameters
    ----------
    results:
        Mapping of window index → result; must contain every window of
        ``plan``.
    """
    missing = [w.index for w in plan.windows if w.index not in results]
    if missing:
        raise EngineError(
            f"cannot merge: shards {missing} missing", shard_index=missing[0]
        )
    ordered = [results[w.index] for w in plan.windows]

    for window, result in zip(plan.windows, ordered):
        base = (window.index + 1) * TEST_ID_STRIDE
        for test in result.dataset.tests:
            if not base < test.test_id <= base + TEST_ID_STRIDE:
                raise EngineError(
                    f"shard {window.index} produced test id {test.test_id} "
                    f"outside its namespace ({base}, {base + TEST_ID_STRIDE}]",
                    shard_index=window.index,
                )

    merged = DriveDataset(
        seed=config.seed,
        scale=config.scale,
        route_length_km=route_length_km,
    )
    for result in ordered:
        for family in _FAMILIES:
            getattr(merged, family).extend(getattr(result.dataset, family))

    merged.passive_handover_counts = {
        op: sum(r.dataset.passive_handover_counts.get(op, 0) for r in ordered)
        for op in Operator
    }
    merged.connected_cells = {
        op: len(set().union(*(r.active_cell_ids.get(op, ()) for r in ordered)))
        + sum(r.macro_cells.get(op, 0) for r in ordered)
        for op in Operator
    }
    return merged
