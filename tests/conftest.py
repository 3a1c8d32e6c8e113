"""Shared fixtures.

The expensive fixtures are session-scoped: one small-but-complete campaign
dataset (apps + static baselines included) shared by all analysis tests, and
one bare-bones dataset for tests that only need throughput/RTT records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.runner import CampaignConfig, generate_dataset
from repro.geo.route import build_cross_country_route


@pytest.fixture(scope="session")
def route():
    return build_cross_country_route()


@pytest.fixture(scope="session")
def dataset():
    """A small but complete campaign (apps + static), shared read-only."""
    return generate_dataset(seed=42, scale=0.035)


@pytest.fixture(scope="session")
def bare_dataset():
    """Throughput/RTT-only dataset (no apps, no static) for faster tests."""
    return generate_dataset(
        seed=7, scale=0.008, include_apps=False, include_static=False
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# -- engine fixtures ---------------------------------------------------------

#: One shared engine configuration for the determinism / fault-tolerance
#: tests: small enough to run in a few seconds, large enough for several
#: shard windows.
ENGINE_CAMPAIGN = CampaignConfig(
    seed=42, scale=0.004, include_apps=False, include_static=False
)
ENGINE_WINDOW_KM = 600.0


def engine_dataset_bytes(ds, tmp_dir) -> bytes:
    """Canonical serialised form of a dataset (saves are byte-reproducible)."""
    from repro.campaign.persistence import save_dataset

    path = tmp_dir / "digest.rcol"
    save_dataset(ds, path)
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.fixture(scope="session")
def engine_baseline(tmp_path_factory):
    """Serial single-batch engine run of ENGINE_CAMPAIGN → (dataset, bytes)."""
    from repro.engine import EngineConfig, PlannerParams, run_engine

    ds, _report = run_engine(
        EngineConfig(
            campaign=ENGINE_CAMPAIGN,
            executor="serial",
            planner=PlannerParams(window_km=ENGINE_WINDOW_KM),
        )
    )
    tmp = tmp_path_factory.mktemp("engine-baseline")
    return ds, engine_dataset_bytes(ds, tmp)
