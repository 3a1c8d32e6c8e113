"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 42 --seconds 20 --trace 0

``--trace 0`` runs untraced and reports the end-to-end metrics: the median
set-up time over several set-ups, and the median run time, record rate and
peak resident memory over the timed operations.  Operations repeat while
at least half of the next one is expected to fall within ``--seconds``
(the first always runs).  ``--trace 1`` alternates an untraced and a
traced operation the same way and reports the per-layer metrics of the
traced ones (median over operations), the tracing overhead and the set-up
phase's layers; it also prints, without reporting them, the end-to-end
figures of its untraced operations.  The spans are written to
``.perfbench_out/`` at the end.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` next to this directory; without it the run fails before printing
a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up cost of a fresh process: importing the packages the workloads use.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.store, repro.sweep.stats, repro.campaign.persistence; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reset_peak_rss() -> None:
    """Reset this process's resident-memory high-water mark to its current RSS,
    so a peak reached before the operation cannot mask the operation's own."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        kib = int(re.search(r"VmHWM:\s+(\d+)\s+kB", fh.read()).group(1))
    return kib / 1024.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_cold", "campaign_full", "sweep_warm"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    def __init__(self, args: argparse.Namespace, workdir: pathlib.Path) -> None:
        import layers
        import metrics
        import workloads

        self.layers, self.metrics = layers, metrics
        self.args = args
        self.workdir = workdir
        self.cls = workloads.WORKLOADS[args.workload]
        self.tally = workloads.Tally()
        self.correct = True
        self.span_lines: list[dict] = []

    # -- pieces ----------------------------------------------------------

    def setup_once(self, index: int):
        """Route build plus the workload's own set-up: ``(workload, seconds)``."""
        from repro.geo import route as route_module

        started = time.perf_counter()
        route = route_module.build_cross_country_route()
        workload = self.cls(self.args.seed, self.workdir / f"setup{index}", route)
        workload.setup()
        return workload, time.perf_counter() - started

    def timed_op(self, workload, hooks=None):
        """One checked operation: ``(start, end, records, work counts, peak MB)``,
        or ``None`` if it raised.  Its outputs are dropped before returning,
        so they cannot raise the next operation's memory baseline."""
        gc.collect()
        reset_peak_rss()
        try:
            with hooks or contextlib.nullcontext():
                started = time.perf_counter()
                outcome = workload.op()
                ended = time.perf_counter()
        except Exception:
            traceback.print_exc()
            self.tally.check(False, "operation raised")
            self.correct = False
            return None
        peak = peak_rss_mb()
        self.tally.attempted += outcome.operations
        workload.check(outcome, self.tally)
        return started, ended, outcome.records, outcome.work, peak

    def another_op(self, measured: float, last: float) -> bool:
        """Whether at least half of another operation is expected to fall
        within ``--seconds``."""
        return measured + last / 2 < self.args.seconds

    def phase_figures(self, recorder, installed, workload) -> dict:
        figs = self.layers.figures(recorder, installed)
        self.metrics.add_ratios(figs, workload.route.total_length_km, len(workload.seeds))
        return figs

    @staticmethod
    def end_to_end(setups: list[float], ops: list[tuple]) -> dict:
        """End-to-end values from set-up times and ``(seconds, records, peak)``
        of untraced operations."""
        median = statistics.median
        values = {"setup_s": (median(setups), len(setups))}
        if ops:
            values.update(
                run_s=(median([t for t, _, _ in ops]), len(ops)),
                records_per_s=(median([r / t for t, r, _ in ops]), len(ops)),
                peak_rss_mb=(median([p for _, _, p in ops]), len(ops)),
            )
        return values

    # -- runs ------------------------------------------------------------

    def run_untraced(self) -> dict:
        setups, import_s = [], []
        workload = None
        for index in range(self.cls.setup_repeats):
            import_s.append(import_seconds())
            if workload is not None:
                shutil.rmtree(workload.workdir)
            workload, seconds = self.setup_once(index)
            setups.append(import_s[-1] + seconds)
        print(f"import: {statistics.median(import_s):.6g} s "
              f"(median of {len(import_s)} samples, part of setup_s)")
        ops = []
        measured = 0.0
        while not ops or self.another_op(measured, ops[-1][0]):
            done = self.timed_op(workload)
            if done is None:
                break
            started, ended, records, _, peak = done
            ops.append((ended - started, records, peak))
            measured += ended - started
        return self.end_to_end(setups, ops)

    def run_traced(self) -> dict:
        layers = self.layers
        setup_rec = layers.Recorder("setup")
        setup_hooks = layers.Hooks(setup_rec)
        import_s = import_seconds()
        with setup_hooks:
            workload, setup_s = self.setup_once(0)
        missing = {hook.layer for hook in setup_hooks.missing}
        installed = tuple(h for h in layers.HOOKS if h.layer not in missing)
        setup_figs = self.phase_figures(setup_rec, installed, workload)
        self.span_lines += setup_rec.to_lines("setup")

        untraced, traced, per_op = [], [], []
        measured = 0.0
        while not traced or self.another_op(measured, untraced[-1][0] + traced[-1]):
            plain = self.timed_op(workload)
            if plain is None:
                break
            untraced.append((plain[1] - plain[0], plain[2], plain[4]))
            recorder = layers.Recorder("run")
            done = self.timed_op(workload, layers.Hooks(recorder))
            if done is None:
                break
            started, ended, _, work, _ = done
            traced.append(ended - started)
            self.span_lines += recorder.to_lines(f"op{len(traced)}")
            figs = self.phase_figures(recorder, installed, workload)
            figs.update(work)
            figs["bench.traced_run_s"] = ended - started
            try:
                figs["bench.untraced_remainder_s"] = layers.top_level_remainder(
                    recorder, started, ended
                )
            except ValueError as exc:
                print(f"layer-sum check failed: {exc}")
                self.correct = False
            per_op.append(figs)
            measured += untraced[-1][0] + traced[-1]

        print("end-to-end, from the untraced operations of this run "
              "(set-up traced, once):")
        self.print_values(
            self.end_to_end([import_s + setup_s], untraced), self.metrics.END_TO_END
        )
        values, gone = self.metrics.layer_values(per_op, setup_figs, missing)
        for name in gone:
            print(f"missing layer metric {name}: its hooked function does not resolve")
        if untraced and traced:
            values["bench.trace_overhead_frac"] = (
                statistics.median(traced)
                / statistics.median([t for t, _, _ in untraced]) - 1.0,
                len(traced),
            )
        return values

    @staticmethod
    def print_values(values: dict, metrics) -> dict:
        """Print ``{name: (value, samples)}`` with units; return the JSON form."""
        units = {m.name: m.unit for m in metrics}
        out = {}
        for name, (value, n) in values.items():
            print(f"{name}: {value:.6g} {units[name]} (median of {n} samples)")
            out[name] = {"value": value, "unit": units[name]}
        return out

    def write_spans(self) -> None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
        with open(path, "w") as fh:
            for line in self.span_lines:
                fh.write(json.dumps(line) + "\n")

    def run(self) -> dict:
        if self.args.trace:
            values = self.run_traced()
            self.write_spans()
            values["failed_frac"] = (self.tally.failed / self.tally.attempted, 1)
        else:
            values = self.run_untraced()
        for problem in self.tally.problems:
            print(f"check failed: {problem}")
        wanted = self.metrics.PER_LAYER if self.args.trace else self.metrics.END_TO_END
        result = self.print_values(values, wanted)
        print(f"workload {self.args.workload}, seed {self.args.seed}: "
              f"{self.tally.attempted} operations, {self.tally.failed} failed")
        return {
            "correct": self.correct and self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": result,
        }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = Bench(args, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
