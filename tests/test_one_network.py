"""One radio network per seed, shared by every phone and every shard.

The paper's six phones rode in one vehicle through one network (§3): the
passive loggers and the active XCAL phones must resolve the same cell at the
same route mark, a tile of the network must not depend on which window built
it, and a sharded run must count passive handovers and connected cells
exactly as one drive over the whole route would.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import ENGINE_CAMPAIGN, ENGINE_WINDOW_KM
from repro.campaign.dataset import DriveDataset
from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.engine.merge import merge_shard_results
from repro.engine.planner import TEST_ID_STRIDE, ShardPlan
from repro.engine.worker import ShardResult
from repro.errors import CampaignError
from repro.radio.deployment import DeploymentModel
from repro.radio.operators import Operator
from repro.rng import RngFactory


def segment_set(dataset):
    return {(s.operator, s.start_m, s.end_m) for s in dataset.passive_coverage}


@pytest.fixture(scope="module")
def world(route):
    """Every tile of the seed-42 network, per operator."""
    from repro.radio.deployment import TiledDeployment

    out = {}
    for op in Operator:
        tiled = TiledDeployment(op, route, seed=ENGINE_CAMPAIGN.seed)
        out[op] = tiled.span(0.0, route.total_length_m)
    return out


class TestPassiveAndActiveShareCells:
    def test_same_cell_id_at_the_same_mark(self, monkeypatch):
        """Every cell an active phone handed over to is the cell of the
        zone the passive logger walked at that mark."""
        from repro.xcal import handover_logger

        walked: dict[Operator, list[DeploymentModel]] = {op: [] for op in Operator}
        real = handover_logger.run_handover_logger

        def recording(operator, deployment, rng):
            walked[operator].append(deployment)
            return real(operator, deployment, rng)

        monkeypatch.setattr(handover_logger, "run_handover_logger", recording)
        ds, _ = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                executor="serial",
                planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
            )
        )
        checked = {op: 0 for op in Operator}
        for op, models in walked.items():
            models = sorted(models, key=lambda m: m.zones[0].start_m)
            passive = DeploymentModel(
                op,
                zones=[z for m in models for z in m.zones],
                macro_zones=[z for m in models for z in m.macro_zones],
            )
            for record in ds.handovers:
                ev = record.event
                phantom = ev.to_cell.sequence - ev.from_cell.sequence == 500_000
                if ev.operator is not op or phantom:
                    continue
                zone = passive.zone_at(ev.mark_m)
                assert ev.to_cell in {c.cell_id for c in zone.cells.values()}, ev
                checked[op] += 1
        assert all(n > 0 for n in checked.values()), checked


class TestTiles:
    def test_zone_at_is_independent_of_build_order(self, route):
        from repro.radio.deployment import TILE_LENGTH_M, TiledDeployment

        forward = TiledDeployment(Operator.TMOBILE, route, seed=3)
        backward = TiledDeployment(Operator.TMOBILE, route, seed=3)
        marks = [t * TILE_LENGTH_M + off for t in range(6) for off in (0.0, 17_345.5)]
        for mark in marks:
            forward.zone_at(mark)
        for mark in reversed(marks):
            backward.zone_at(mark)
        for mark in marks:
            assert forward.zone_at(mark) == backward.zone_at(mark)
            assert forward.macro_zone_at(mark) == backward.macro_zone_at(mark)

    def test_zone_at_is_independent_of_the_window(self, route):
        from repro.radio.deployment import TILE_LENGTH_M

        config = CampaignConfig(seed=11, scale=0.01, include_apps=False)
        first, second = (
            DriveCampaign(
                config, route,
                window=CampaignWindow(
                    index=i, start_m=i * 2 * TILE_LENGTH_M,
                    end_m=(i + 1) * 2 * TILE_LENGTH_M,
                ),
                rng_factory=RngFactory(seed=11).shard(i),
            )
            for i in (0, 1)
        )
        # Marks on both sides of the windows' shared edge, each built by
        # whichever window looks first.
        marks = np.linspace(1.5 * TILE_LENGTH_M, 2.5 * TILE_LENGTH_M, 41)
        for op in Operator:
            for mark in marks:
                assert first.deployments[op].zone_at(mark) == (
                    second.deployments[op].zone_at(mark)
                )

    def test_cell_ids_unique_across_tiles_and_layers(self, world):
        for op, model in world.items():
            active = [c.cell_id.sequence for z in model.zones for c in z.cells.values()]
            macro = {
                c.cell_id.sequence for z in model.macro_zones for c in z.cells.values()
            }
            assert len(set(active)) == len(active), op
            phantoms = {seq + 500_000 for seq in active}
            ids = set(active) | macro | phantoms
            assert len(ids) == len(active) + len(macro) + len(phantoms), op
            indices = [z.index for z in model.zones]
            assert len(set(indices)) == len(indices), op

    def test_window_off_tile_edges_rejected(self, route):
        with pytest.raises(CampaignError):
            DriveCampaign(
                CampaignConfig(seed=1),
                route,
                window=CampaignWindow(index=0, start_m=0.0, end_m=75_000.0),
            )


class TestShardedPassiveLayer:
    def test_passive_layer_independent_of_window_size(
        self, engine_baseline, world, route
    ):
        from repro.xcal.handover_logger import run_handover_logger

        coarse, _ = engine_baseline
        fine, _ = run_engine(
            EngineConfig(
                campaign=ENGINE_CAMPAIGN,
                executor="serial",
                planner=PlannerParams(window_km=ENGINE_WINDOW_KM / 2),
            )
        )
        assert fine.passive_handover_counts == coarse.passive_handover_counts
        assert segment_set(fine) == segment_set(coarse)

        walk = {
            op: run_handover_logger(op, model, np.random.default_rng(0))
            for op, model in world.items()
        }
        assert coarse.passive_handover_counts == {
            op: trace.macro_handovers for op, trace in walk.items()
        }
        assert segment_set(coarse) == {
            (s.operator, s.start_m, s.end_m)
            for trace in walk.values()
            for s in trace.segments
        }


class TestMergeCountsCells:
    def test_cell_connected_by_adjacent_windows_counts_once(self):
        windows = (
            CampaignWindow(index=0, start_m=0.0, end_m=50_000.0,
                           test_id_base=TEST_ID_STRIDE),
            CampaignWindow(index=1, start_m=50_000.0, end_m=100_000.0,
                           test_id_base=2 * TEST_ID_STRIDE),
        )
        plan = ShardPlan(windows=windows, nominal_cycle_s=100.0, window_km=50.0)
        config = CampaignConfig(seed=1, scale=0.01)

        def result(index, ids, macro, handovers):
            ds = DriveDataset(seed=1, scale=0.01, route_length_km=100.0)
            ds.passive_handover_counts = {Operator.VERIZON: handovers}
            return ShardResult(
                index=index, dataset=ds,
                active_cell_ids={Operator.VERIZON: ids},
                macro_cells={Operator.VERIZON: macro},
            )

        merged = merge_shard_results(
            config, plan,
            {0: result(0, [1, 2, 3], 10, 4), 1: result(1, [3, 4], 5, 3)},
            100.0,
        )
        assert merged.connected_cells[Operator.VERIZON] == 4 + 15
        assert merged.connected_cells[Operator.ATT] == 0
        assert merged.passive_handover_counts[Operator.VERIZON] == 7
