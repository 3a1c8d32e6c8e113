"""Dataset save/load round trip."""

import pytest

from repro.campaign.persistence import load_dataset, save_dataset
from repro.errors import ReproError
from repro.radio.operators import Operator


@pytest.fixture(scope="module")
def saved(bare_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("persist") / "dataset.rcol"
    save_dataset(bare_dataset, path)
    return path, bare_dataset


class TestRoundTrip:
    def test_header_metadata(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert loaded.seed == original.seed
        assert loaded.scale == original.scale
        assert loaded.route_length_km == original.route_length_km
        assert loaded.passive_handover_counts == original.passive_handover_counts
        assert loaded.connected_cells == original.connected_cells

    def test_record_counts(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert len(loaded.throughput_samples) == len(original.throughput_samples)
        assert len(loaded.rtt_samples) == len(original.rtt_samples)
        assert len(loaded.tests) == len(original.tests)
        assert len(loaded.handovers) == len(original.handovers)
        assert len(loaded.passive_coverage) == len(original.passive_coverage)

    def test_sample_equality(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert loaded.throughput_samples[0] == original.throughput_samples[0]
        assert loaded.rtt_samples[-1] == original.rtt_samples[-1]
        assert loaded.tests[3] == original.tests[3]
        if original.handovers:
            assert loaded.handovers[0] == original.handovers[0]

    def test_analyses_agree(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        import numpy as np

        for op in Operator:
            a = original.tput_values(operator=op, direction="downlink")
            b = loaded.tput_values(operator=op, direction="downlink")
            assert np.allclose(a, b)

    def test_summary_agrees(self, saved):
        path, original = saved
        loaded = load_dataset(path)
        assert loaded.summary().handovers == original.summary().handovers


class TestAppRunsRoundTrip:
    def test_app_records_preserved(self, dataset, tmp_path):
        path = tmp_path / "full.rcol"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded.offload_runs) == len(dataset.offload_runs)
        assert len(loaded.video_runs) == len(dataset.video_runs)
        assert len(loaded.gaming_runs) == len(dataset.gaming_runs)
        assert loaded.offload_runs[0] == dataset.offload_runs[0]
        assert loaded.video_runs[0] == dataset.video_runs[0]
        assert loaded.gaming_runs[0] == dataset.gaming_runs[0]


class TestAtomicSave:
    def test_byte_reproducible(self, bare_dataset, tmp_path):
        a = tmp_path / "a.rcol"
        b = tmp_path / "b.rcol"
        save_dataset(bare_dataset, a)
        save_dataset(bare_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_overwrite_is_atomic(self, bare_dataset, tmp_path, monkeypatch):
        """A crash mid-write must leave an existing file untouched."""
        path = tmp_path / "dataset.rcol"
        save_dataset(bare_dataset, path)
        good = path.read_bytes()

        import repro.store.format as fmt

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(fmt.os, "fsync", boom)
        with pytest.raises(OSError):
            save_dataset(bare_dataset, path)
        assert path.read_bytes() == good

    def test_no_temp_file_left_behind(self, bare_dataset, tmp_path, monkeypatch):
        path = tmp_path / "dataset.rcol"
        import repro.store.format as fmt

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(fmt.os, "fsync", boom)
        with pytest.raises(OSError):
            save_dataset(bare_dataset, path)
        assert list(tmp_path.iterdir()) == []


class TestErrorHandling:
    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "junk.rcol"
        path.write_bytes(b"this is not a dataset\n")
        with pytest.raises(ReproError):
            load_dataset(path)


class TestColumnarBackend:
    """Every saved dataset is one columnar store file."""

    def test_auto_format_by_suffix(self, bare_dataset, tmp_path):
        from repro.store import is_store_file

        path = tmp_path / "dataset.rcol"
        save_dataset(bare_dataset, path)
        assert is_store_file(path)
        back = load_dataset(path)
        assert back.throughput_samples == bare_dataset.throughput_samples
        assert back.passive_coverage == bare_dataset.passive_coverage
