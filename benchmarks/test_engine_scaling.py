"""Engine scaling — serial vs multi-worker generation of one campaign.

Times ``repro.engine`` generating the same scale-0.2 dataset serially and on
4 worker processes, verifies the two runs are byte-identical, and records the
speedup into ``benchmarks/_reports/engine_scaling.txt``.  The ≥2× speedup
assertion only applies on machines with at least 4 cores — on smaller hosts
(CI containers) the numbers are still recorded, honestly, without the gate.
"""

from __future__ import annotations

import hashlib
import os
import time

from repro.campaign.persistence import save_dataset
from repro.engine import EngineConfig, PlannerParams, run_engine
from repro.campaign.runner import CampaignConfig
from repro.reporting.tables import render_table

SCALE = 0.2
SEED = 42
WORKERS = 4


def _run(executor: str, workers: int, tmp_path):
    config = EngineConfig(
        campaign=CampaignConfig(
            seed=SEED, scale=SCALE, include_apps=False, include_static=False
        ),
        executor=executor,
        workers=workers,
        planner=PlannerParams(window_km=600.0),
    )
    started = time.perf_counter()
    dataset, engine_report = run_engine(config)
    wall = time.perf_counter() - started
    path = tmp_path / f"{executor}-{workers}.rcol"
    save_dataset(dataset, path)
    return wall, hashlib.sha256(path.read_bytes()).hexdigest(), engine_report


def test_engine_scaling(tmp_path, report, bench):
    cores = os.cpu_count() or 1
    serial_s, serial_hash, serial_rep = _run("serial", 1, tmp_path)
    parallel_s, parallel_hash, parallel_rep = _run("process", WORKERS, tmp_path)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    bench.record(
        "engine.scaling_serial", [serial_s],
        counters={"engine.windows": serial_rep.n_windows},
    )
    bench.record(
        "engine.scaling_parallel", [parallel_s],
        counters={
            "engine.workers": parallel_rep.workers,
            "engine.windows": parallel_rep.n_windows,
        },
    )

    rows = [
        ["serial", 1, f"{serial_s:.2f}", "1.00x", serial_hash[:16]],
        [
            parallel_rep.executor, parallel_rep.workers,
            f"{parallel_s:.2f}", f"{speedup:.2f}x", parallel_hash[:16],
        ],
    ]
    report(
        "engine_scaling",
        render_table(
            ["executor", "workers", "wall (s)", "speedup", "dataset sha256"],
            rows,
            title=(
                f"Engine scaling (scale={SCALE}, {serial_rep.n_windows} windows, "
                f"{cores} cores, utilisation "
                f"{parallel_rep.worker_utilisation():.2f})"
            ),
        ),
    )

    assert parallel_hash == serial_hash, "parallel dataset diverged from serial"
    if cores >= WORKERS and parallel_rep.executor == "process":
        assert speedup >= 2.0, (
            f"expected >=2x speedup on {cores} cores, measured {speedup:.2f}x"
        )
    # Wall times gate against the committed baseline when comparable.
    bench.gate("engine.scaling_serial")
    bench.gate("engine.scaling_parallel")
