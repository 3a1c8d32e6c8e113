"""Dataset comparison (KS-based ablation tooling)."""

import pytest

from repro.analysis.compare import compare_datasets
from repro.campaign.runner import generate_dataset
from repro.errors import AnalysisError
from repro.campaign.dataset import DriveDataset


@pytest.fixture(scope="module")
def pair():
    a = generate_dataset(seed=11, scale=0.008, include_apps=False, include_static=False)
    b = generate_dataset(seed=12, scale=0.008, include_apps=False, include_static=False)
    return a, b


class TestCompareDatasets:
    def test_self_comparison_identical(self, pair):
        a, _ = pair
        result = compare_datasets(a, a)
        for c in result.comparisons:
            assert c.ks_statistic == 0.0
            assert c.median_ratio == pytest.approx(1.0)
        assert not result.any_difference()

    def test_different_seeds_same_distribution(self, pair):
        """Two seeds of the same generator should rarely diverge strongly
        at the distribution level."""
        a, b = pair
        result = compare_datasets(a, b)
        # KS statistics stay small even if p-values fluctuate with n.
        assert result.max_divergence().ks_statistic < 0.35

    def test_metric_slicing(self, pair):
        a, b = pair
        result = compare_datasets(a, b)
        rtts = result.for_metric("rtt")
        assert len(rtts) == 3
        assert all(c.metric == "rtt" for c in rtts)

    def test_shifted_dataset_detected(self, pair):
        """A systematic throughput scaling must be flagged."""
        import dataclasses

        a, _ = pair
        shifted = DriveDataset(
            seed=a.seed, scale=a.scale, route_length_km=a.route_length_km
        )
        shifted.throughput_samples = [
            dataclasses.replace(s, tput_mbps=s.tput_mbps * 3.0)
            for s in a.throughput_samples
        ]
        shifted.rtt_samples = list(a.rtt_samples)
        shifted.tests = list(a.tests)
        shifted.handovers = list(a.handovers)
        result = compare_datasets(a, shifted)
        dl = [c for c in result.for_metric("tput_dl")]
        assert all(c.differs() for c in dl)
        assert all(c.median_ratio == pytest.approx(3.0) for c in dl)

    def test_empty_comparison_rejected(self):
        empty = DriveDataset(seed=0, scale=1.0, route_length_km=1.0)
        with pytest.raises(AnalysisError):
            compare_datasets(empty, empty)
