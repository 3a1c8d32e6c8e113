"""Cycle plans and their wiring into the campaign."""

import pytest

from repro.campaign.runner import CampaignConfig
from repro.campaign.scheduler import FULL_CYCLE, NETWORK_ONLY_CYCLE, CyclePlan
from repro.campaign.tests import TestType
from repro.engine import EngineConfig, run_engine
from repro.errors import CampaignError


def run_campaign(config: CampaignConfig):
    dataset, _report = run_engine(EngineConfig(campaign=config, executor="serial"))
    return dataset


class TestCyclePlan:
    def test_full_cycle_matches_paper_suite(self):
        assert set(FULL_CYCLE.tests) == set(TestType)

    def test_network_only(self):
        assert set(NETWORK_ONLY_CYCLE.tests) == {
            TestType.DOWNLINK_THROUGHPUT,
            TestType.UPLINK_THROUGHPUT,
            TestType.RTT,
        }

    def test_empty_plan_rejected(self):
        with pytest.raises(CampaignError):
            CyclePlan(tests=())

    def test_without_apps_requires_network_tests(self):
        with pytest.raises(CampaignError):
            CyclePlan(tests=(TestType.AR,)).without_apps()

    def test_run_counts_double_offload_apps(self):
        assert FULL_CYCLE.run_count(TestType.AR) == 2
        assert FULL_CYCLE.run_count(TestType.CAV) == 2
        assert FULL_CYCLE.run_count(TestType.RTT) == 1
        assert NETWORK_ONLY_CYCLE.run_count(TestType.AR) == 0

    def test_nominal_duration(self):
        # 30+30+20 + 2*20*2 + 180 + 60 = 400 s of tests + 9 gaps of 4 s.
        assert FULL_CYCLE.nominal_duration_s(gap_s=4.0) == pytest.approx(436.0)


class TestCustomCycles:
    def test_rtt_only_campaign(self):
        config = CampaignConfig(
            seed=3, scale=0.004, include_static=False,
            cycle=CyclePlan(tests=(TestType.RTT,)),
        )
        ds = run_campaign(config)
        assert ds.rtt_samples
        assert not ds.throughput_samples
        assert not ds.video_runs

    def test_single_app_campaign(self):
        config = CampaignConfig(
            seed=3, scale=0.004, include_static=False,
            cycle=CyclePlan(tests=(TestType.DOWNLINK_THROUGHPUT, TestType.VIDEO_360)),
        )
        ds = run_campaign(config)
        assert ds.video_runs
        assert not ds.gaming_runs
        assert not ds.offload_runs

    def test_include_apps_false_strips_plan(self):
        config = CampaignConfig(
            seed=3, scale=0.004, include_apps=False, include_static=False,
        )
        ds = run_campaign(config)
        assert ds.throughput_samples
        assert not ds.offload_runs
