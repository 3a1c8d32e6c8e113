"""repro.obs unit tests: span emission, writer atomicity, metrics, reports.

Trace *integrity under fault injection* lives with the engine's fault
tests (``test_engine_fault_tolerance.py``); this module pins down the
building blocks — the null tracer's no-op contract, span nesting and
cross-process parenting, whole-line JSONL appends under thread contention,
snapshot/merge determinism, and the summary math (phase breakdowns that
sum exactly, critical paths, validation verdicts).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import __main__ as obs_cli
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.report import (
    critical_path,
    load_summary,
    phase_breakdown,
    top_spans,
    validate_trace,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_FORMAT_VERSION,
    TraceWriter,
    get_tracer,
    iter_trace,
    reset_tracers,
)


@pytest.fixture(autouse=True)
def _fresh_tracers():
    """Tracers memoize per path per process; drop them between tests."""
    yield
    reset_tracers()


def spans_of(path):
    return [r for r in iter_trace(path) if r["kind"] == "span"]


class TestNullTracer:
    def test_no_path_yields_the_null_singleton(self):
        assert get_tracer(None) is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_null_span_is_reusable_and_inert(self):
        ctx_a = NULL_TRACER.span("a", whatever=1)
        ctx_b = NULL_TRACER.span("b")
        assert ctx_a is ctx_b  # one shared context: no per-call allocation
        with ctx_a as span:
            assert span.span_id is None
            span.set(x=1)
            assert span.elapsed() == 0.0
            span.dur_s = 123.0  # discarded, not stored
            assert span.dur_s is None

    def test_null_tracer_surface_is_a_noop(self):
        assert NULL_TRACER.current_id() is None
        NULL_TRACER.emit_metrics({"counters": {"x": 1}}, scope="t")
        NULL_TRACER.close()

    def test_exceptions_pass_through_null_spans(self):
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("x"):
                raise RuntimeError("boom")


class TestSpanEmission:
    def test_nested_spans_link_parent_ids(self, tmp_path):
        tracer = get_tracer(tmp_path / "t.jsonl")
        assert tracer.enabled
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_id() == inner.span_id
            assert tracer.current_id() == outer.span_id
        records = spans_of(tmp_path / "t.jsonl")
        # Spans are written on close: inner first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner_rec, outer_rec = records
        assert outer_rec["parent_id"] is None
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert all(r["v"] == TRACE_FORMAT_VERSION for r in records)

    def test_explicit_parent_overrides_the_stack(self, tmp_path):
        tracer = get_tracer(tmp_path / "t.jsonl")
        with tracer.span("outer"):
            with tracer.span("adopted", parent="4242:1:7"):
                pass
        adopted = spans_of(tmp_path / "t.jsonl")[0]
        assert adopted["parent_id"] == "4242:1:7"

    def test_exception_marks_status_error_and_propagates(self, tmp_path):
        tracer = get_tracer(tmp_path / "t.jsonl")
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        rec = spans_of(tmp_path / "t.jsonl")[0]
        assert rec["status"] == "error"

    def test_frozen_duration_is_written_verbatim(self, tmp_path):
        """A caller may pin dur_s so trace and report share the same float."""
        tracer = get_tracer(tmp_path / "t.jsonl")
        frozen = 1.2345678901234567
        with tracer.span("run") as span:
            span.dur_s = frozen
        assert spans_of(tmp_path / "t.jsonl")[0]["dur_s"] == frozen

    def test_attrs_from_kwargs_and_set(self, tmp_path):
        tracer = get_tracer(tmp_path / "t.jsonl")
        with tracer.span("s", index=3) as span:
            span.set(records=99, index=4)
        rec = spans_of(tmp_path / "t.jsonl")[0]
        assert rec["attrs"] == {"index": 4, "records": 99}

    def test_threads_keep_independent_span_stacks(self, tmp_path):
        tracer = get_tracer(tmp_path / "t.jsonl")
        seen = {}

        def worker():
            # Must NOT inherit the main thread's active span as parent.
            with tracer.span("thread-span") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["parent"] is None

    def test_tracers_are_memoized_per_path(self, tmp_path):
        a = get_tracer(tmp_path / "t.jsonl")
        b = get_tracer(tmp_path / "t.jsonl")
        c = get_tracer(tmp_path / "other.jsonl")
        assert a is b
        assert a is not c


class TestWriterAtomicity:
    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        n_threads, per_thread = 8, 200

        def blast(tid):
            for i in range(per_thread):
                writer.write_obj(
                    {"kind": "span", "tid": tid, "i": i, "pad": "x" * 100}
                )

        threads = [
            threading.Thread(target=blast, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == n_threads * per_thread
        decoded = [json.loads(line) for line in lines]  # every line parses
        assert {(r["tid"], r["i"]) for r in decoded} == {
            (t, i) for t in range(n_threads) for i in range(per_thread)
        }

    def test_two_writers_on_one_file_interleave_whole_lines(self, tmp_path):
        # Two descriptors on the same path model two worker processes.
        path = tmp_path / "t.jsonl"
        a, b = TraceWriter(path), TraceWriter(path)
        for i in range(50):
            a.write_obj({"kind": "span", "src": "a", "i": i})
            b.write_obj({"kind": "span", "src": "b", "i": i})
        a.close()
        b.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 100

    def test_write_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.write_obj({"kind": "span", "i": 0})
        writer.close()
        writer.write_obj({"kind": "span", "i": 1})  # silently ignored
        writer.close()  # idempotent
        assert len(path.read_text().splitlines()) == 1


class TestIterTrace:
    def test_rejects_unparseable_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "span"}\n{broken\n')
        with pytest.raises(ValueError, match="unparseable"):
            list(iter_trace(path))

    def test_rejects_record_without_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "x"}\n')
        with pytest.raises(ValueError, match="kind"):
            list(iter_trace(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "span"}\n\n{"kind": "metrics"}\n')
        assert len(list(iter_trace(path))) == 2


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.count("hits")
        reg.count("hits", 4)
        reg.gauge("bytes", 10.0)
        reg.gauge("bytes", 20.0)
        for v in (3.0, 1.0, 2.0):
            reg.observe("lat", v)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 5}
        assert snap["gauges"] == {"bytes": 20.0}
        assert snap["histograms"] == {
            "lat": {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}
        }

    def test_snapshot_keys_are_sorted(self):
        reg = MetricsRegistry()
        for name in ("z", "a", "m"):
            reg.count(name)
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]

    def test_concurrent_counting_is_lossless(self):
        reg = MetricsRegistry()

        def bump():
            for _ in range(1000):
                reg.count("n")
                reg.observe("v", 1.0)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 8000
        assert snap["histograms"]["v"]["count"] == 8000


class TestMergeSnapshots:
    def test_merge_semantics(self):
        a = {
            "counters": {"hits": 2},
            "gauges": {"size": 1.0},
            "histograms": {"lat": {"count": 2, "total": 3.0, "min": 1.0, "max": 2.0}},
        }
        b = {
            "counters": {"hits": 3, "misses": 1},
            "gauges": {"size": 9.0},
            "histograms": {"lat": {"count": 1, "total": 0.5, "min": 0.5, "max": 0.5}},
        }
        merged = merge_snapshots([a, b])
        assert merged["counters"] == {"hits": 5, "misses": 1}
        assert merged["gauges"] == {"size": 9.0}  # last write wins
        assert merged["histograms"]["lat"] == {
            "count": 3, "total": 3.5, "min": 0.5, "max": 2.0,
        }

    def test_merge_is_deterministic_for_an_input_order(self):
        snaps = [
            {"counters": {"c": i}, "gauges": {"g": float(i)}} for i in range(5)
        ]
        assert merge_snapshots(snaps) == merge_snapshots(list(snaps))
        # Reversing the order flips only the gauge (last-write-wins).
        reversed_merge = merge_snapshots(snaps[::-1])
        assert reversed_merge["counters"] == merge_snapshots(snaps)["counters"]
        assert reversed_merge["gauges"] == {"g": 0.0}

    def test_tolerates_empty_and_partial_snapshots(self):
        merged = merge_snapshots([{}, {"counters": {"x": 1}}, {"gauges": {}}])
        assert merged["counters"] == {"x": 1}
        assert merged["histograms"] == {}


def _write_run_trace(tracer):
    """A small synthetic run: root with two phases and parallel shards."""
    with tracer.span("engine.run", seed=7) as root:
        with tracer.span("engine.plan"):
            pass
        with tracer.span("engine.execute") as ex:
            with tracer.span("engine.shard", index=0):
                pass
            with tracer.span("engine.shard", index=1):
                pass
        root.dur_s = max(root.elapsed(), 1e-6)
    return root


class TestReportAnalysis:
    def test_tree_phases_and_critical_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = get_tracer(path)
        _write_run_trace(tracer)
        tracer.emit_metrics({"counters": {"engine.runs": 1}}, scope="engine")

        summary = load_summary(path)
        assert summary.orphans == 0
        assert summary.n_pids == 1
        assert summary.metrics["counters"] == {"engine.runs": 1}
        (root,) = summary.roots
        assert root.name == "engine.run"
        assert [c.name for c in root.children] == [
            "engine.plan", "engine.execute",
        ]

        rows = phase_breakdown(root)
        assert [name for name, _, _ in rows] == [
            "engine.plan", "engine.execute", "(untraced)",
        ]
        assert sum(wall for _, wall, _ in rows) == root.dur_s  # exact

        chain = critical_path(root)
        assert chain[0] is root
        assert chain[1].name == "engine.execute"
        assert chain[2].name == "engine.shard"

        slowest = top_spans(summary.spans, "engine.shard", n=1)
        assert len(slowest) == 1

        assert validate_trace(path) == []

    def test_orphan_spans_survive_as_roots(self, tmp_path):
        """A span whose parent was never written (killed worker) must load."""
        path = tmp_path / "t.jsonl"
        tracer = get_tracer(path)
        with tracer.span("engine.shard", parent="999:1:1", index=0):
            pass
        summary = load_summary(path)
        assert summary.orphans == 1
        assert summary.roots[0].orphan
        assert validate_trace(path) == []  # crash shape, not a defect

    def test_validate_flags_child_longer_than_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        base = {
            "kind": "span", "v": 1, "ts": 0.0, "pid": 1, "tid": 1,
            "status": "ok", "attrs": {},
        }
        writer.write_obj({**base, "name": "p", "span_id": "1:1:1",
                          "parent_id": None, "dur_s": 1.0})
        writer.write_obj({**base, "name": "c", "span_id": "1:1:2",
                          "parent_id": "1:1:1", "dur_s": 5.0})
        writer.close()
        problems = validate_trace(path)
        assert len(problems) == 1
        assert "longer than parent" in problems[0]

    def test_validate_flags_bad_duration_and_missing_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path)
        writer.write_obj({"kind": "span", "name": "x"})  # missing fields
        writer.write_obj({
            "kind": "span", "name": "y", "span_id": "1:1:1",
            "parent_id": None, "ts": 0.0, "dur_s": -1.0, "pid": 1,
            "tid": 1, "status": "ok", "attrs": {},
        })
        writer.close()
        problems = validate_trace(path)
        assert any("missing fields" in p for p in problems)
        assert any("bad dur_s" in p for p in problems)

    def test_unknown_record_kinds_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = get_tracer(path)
        _write_run_trace(tracer)
        tracer.writer.write_obj({"kind": "future-thing", "data": 1})
        assert validate_trace(path) == []
        load_summary(path)


class TestCli:
    def test_render_and_json_and_validate(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        tracer = get_tracer(path)
        _write_run_trace(tracer)
        tracer.emit_metrics({"counters": {"engine.runs": 1}}, scope="engine")

        assert obs_cli.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out
        assert "phase breakdown" in out
        assert "(untraced)" in out

        assert obs_cli.main([str(path), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["runs"][0]["name"] == "engine.run"
        total = sum(p["wall_s"] for p in obj["runs"][0]["phases"])
        assert total == obj["runs"][0]["dur_s"]

        assert obs_cli.main([str(path), "--validate"]) == 0
        assert "trace ok" in capsys.readouterr().out

    def test_lists_merges_of_both_entry_points(self, tmp_path, capsys):
        """Regression: the merge table only matched ``engine.merge``, so a
        sweep trace (``sweep.merge`` spans) printed no slowest merges."""
        path = tmp_path / "t.jsonl"
        tracer = get_tracer(path)
        with tracer.span("sweep.run", seeds=2):
            for seed in (41, 42):
                with tracer.span("sweep.merge", seed=seed):
                    pass
        with tracer.span("engine.run", seed=7):
            with tracer.span("engine.merge", seed=7):
                pass

        assert obs_cli.main([str(path)]) == 0
        out = capsys.readouterr().out
        table = out[out.index("slowest merges"):].splitlines()[1:4]
        assert sorted(line.split("[")[-1] for line in table) == [
            "seed=41]", "seed=42]", "seed=7]",
        ]
        assert sum("sweep.merge" in line for line in table) == 2

    def test_validate_exits_nonzero_on_problems(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text("{broken\n")
        assert obs_cli.main([str(path), "--validate"]) == 1
        assert "PROBLEM" in capsys.readouterr().err

    def test_summary_of_unreadable_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text("{broken\n")
        assert obs_cli.main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err
