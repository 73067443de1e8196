"""Telemetry subsystem: span tracer, JSONL schema, worker merge, regress.

Golden-schema tests pin the wire format (field names, version tag,
parent/child nesting) so a refactor that silently changes the JSONL
breaks here, not in a consumer.  The worker-merge tests run a real
pooled sweep and validate the merged tree with the same validator CI
uses (``python -m repro.obs``).
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro import obs
from repro.core.simulation import simulate
from repro.harness.parallel import (
    METRICS,
    SimJob,
    ThroughputMetrics,
    run_jobs,
)
from repro.obs.schema import (
    KNOWN_SPANS,
    read_records,
    validate_file,
    validate_records,
)
from repro.obs.regress import render_telemetry_section, telemetry_diff
from repro.obs.trace import SCHEMA_NAME, SCHEMA_VERSION, TRACE_ENV

#: Same tiny grid the fault tests use: cheap, but four real grid points.
GRID = tuple(
    SimJob(w, "lua", scheme, kwargs=(("check_output", False), ("n", 8)))
    for w in ("fibo", "n-sieve")
    for scheme in ("baseline", "scd")
)


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    """Every test starts and ends with tracing off and no exported path."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    obs.close()
    METRICS.reset()
    yield
    obs.close()
    METRICS.reset()


@pytest.fixture
def pool_cpus(monkeypatch):
    """Pretend >= 2 CPUs so run_jobs takes the pooled path on any host."""
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 2)


class TestGoldenSchema:
    """Pin the exact JSONL field names and version tag."""

    def test_meta_record_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        obs.close()
        meta = read_records(path)[0]
        assert meta["kind"] == "meta"
        assert meta["schema"] == SCHEMA_NAME == "scd-trace"
        assert meta["v"] == SCHEMA_VERSION == 1
        assert isinstance(meta["pid"], int)
        assert isinstance(meta["t"], float)
        assert isinstance(meta["argv"], list)

    def test_span_start_end_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("sweep", command="list") as sweep:
            sweep.annotate(exit_code=0)
        obs.close()
        _, start, end = read_records(path)
        assert start["kind"] == "span_start"
        assert set(start) == {"v", "kind", "id", "parent", "name", "pid", "t",
                              "attrs"}
        assert start["name"] == "sweep"
        assert start["parent"] is None
        assert start["attrs"] == {"command": "list"}
        assert end["kind"] == "span_end"
        assert set(end) == {"v", "kind", "id", "name", "pid", "t", "dur_s",
                            "attrs"}
        assert end["id"] == start["id"]
        assert end["dur_s"] >= 0
        # annotate() lands on the close record, start attrs on the open.
        assert end["attrs"] == {"exit_code": 0}

    def test_event_fields_and_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            parent = obs.current_span_id()
            obs.event("quarantine", store="results", reason="corrupt")
        obs.close()
        event = next(r for r in read_records(path) if r["kind"] == "event")
        assert event["name"] == "quarantine"
        assert event["parent"] == parent
        assert event["attrs"] == {"store": "results", "reason": "corrupt"}

    def test_nesting_parent_child(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            with obs.span("experiment", experiment="figure3"):
                with obs.span("job", vm="lua"):
                    pass
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        (sweep,) = log.by_name("sweep")
        (experiment,) = log.by_name("experiment")
        (job,) = log.by_name("job")
        assert experiment.parent == sweep.id
        assert job.parent == experiment.id
        assert [child.id for child in sweep.children] == [experiment.id]
        assert all(name in KNOWN_SPANS for name in ("sweep", "job"))

    def test_error_lands_on_span_end(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with pytest.raises(ValueError):
            with obs.span("job"):
                raise ValueError("boom")
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        (job,) = log.by_name("job")
        assert job.attrs["error"] == "ValueError: boom"


class TestTracerLifecycle:
    def test_off_by_default_is_noop(self, tmp_path):
        assert not obs.active()
        with obs.span("sweep") as span:
            span.annotate(anything=1)  # must not raise
        obs.event("ping")
        assert obs.current_span_id() is None
        assert list(tmp_path.iterdir()) == []

    def test_configure_exports_and_close_pops_env(self, tmp_path):
        import os

        path = tmp_path / "t.jsonl"
        obs.configure(path)
        assert os.environ[TRACE_ENV] == str(path)
        assert obs.active()
        obs.close()
        assert TRACE_ENV not in os.environ
        assert not obs.active()
        obs.close()  # idempotent

    def test_reconfigure_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            pass
        obs.configure(path)
        obs.close()
        records = read_records(path)
        assert [r["kind"] for r in records] == ["meta"]


class TestTeardownSafety:
    """Sink teardown is idempotent and safe at any lifecycle point."""

    def test_close_after_failed_configure(self, tmp_path):
        # Point the sink at a path whose parent does not exist: the
        # open fails, and the tracer must be left fully closed — a
        # later close() cannot touch a stale (possibly recycled) fd.
        with pytest.raises(OSError):
            obs.configure(tmp_path / "missing-dir" / "t.jsonl")
        assert not obs.active()
        obs.close()  # must not raise

    def test_reconfigure_after_failed_configure(self, tmp_path):
        with pytest.raises(OSError):
            obs.configure(tmp_path / "missing-dir" / "t.jsonl")
        path = tmp_path / "t.jsonl"
        obs.configure(path)  # recovers cleanly
        with obs.span("sweep"):
            pass
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors

    def test_failed_reconfigure_does_not_leave_stale_fd(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with pytest.raises(OSError):
            obs.configure(tmp_path / "missing-dir" / "t.jsonl")
        assert not obs.active()
        obs.close()  # the old fd is already gone; must not re-close it

    def test_double_close(self, tmp_path):
        obs.configure(tmp_path / "t.jsonl")
        obs.close()
        obs.close()

    def test_spans_started_before_close_end_quietly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        span = obs.TRACER.start("sweep")
        obs.close()
        obs.TRACER.end(span)  # dropped, not written to a dead fd
        detached = obs.start_span("service")
        obs.end_span(detached)
        obs.event("ping")
        # Only what happened before close() is on disk.
        kinds = [r["kind"] for r in read_records(path)]
        assert kinds == ["meta", "span_start"]

    def test_end_span_none_is_noop(self):
        obs.end_span(None)  # tracing off: start_span returned None
        assert obs.start_span("service") is None


class TestDetachedSpans:
    """The explicit-parent API used by the async service layer."""

    def test_detached_span_records_with_explicit_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            service = obs.start_span(
                "service", parent=obs.current_span_id(), queue_depth=8
            )
            # Detached spans never touch the ambient stack: a span
            # opened while one is outstanding still nests under the
            # ambient parent, not under the detached span.
            assert obs.current_span_id() != service.id
            with obs.span("job", vm="lua"):
                pass
            obs.end_span(service, requests=3)
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        (sweep,) = log.by_name("sweep")
        (svc,) = log.by_name("service")
        (job,) = log.by_name("job")
        assert svc.parent == sweep.id
        assert job.parent == sweep.id
        assert svc.attrs["queue_depth"] == 8
        assert svc.attrs["requests"] == 3

    def test_concurrent_detached_spans_interleave(self, tmp_path):
        # The shape asyncio produces: overlapping request lifetimes
        # that a stack could not represent.
        path = tmp_path / "t.jsonl"
        obs.configure(path)
        first = obs.start_span("request", client="a")
        second = obs.start_span("request", client="b")
        obs.end_span(first)
        obs.end_span(second)
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        assert len(log.by_name("request")) == 2


class TestValidator:
    def _meta(self, pid=1000):
        return {"v": 1, "kind": "meta", "schema": "scd-trace", "pid": pid,
                "t": 0.0}

    def _span(self, span_id, pid, parent=None, name="job", closed=True):
        records = [{"v": 1, "kind": "span_start", "id": span_id,
                    "parent": parent, "name": name, "pid": pid, "t": 0.0}]
        if closed:
            records.append({"v": 1, "kind": "span_end", "id": span_id,
                            "name": name, "pid": pid, "t": 1.0, "dur_s": 1.0})
        return records

    def test_empty_trace_is_error(self):
        assert not validate_records([]).ok

    def test_missing_meta_is_error(self):
        log = validate_records(self._span("a-1", 1000))
        assert any("must be meta" in e for e in log.errors)

    def test_version_mismatch_is_error(self):
        records = [self._meta(), {"v": 99, "kind": "event", "parent": None,
                                  "name": "x", "pid": 1000, "t": 0.0}]
        log = validate_records(records)
        assert any("version" in e for e in log.errors)

    def test_unclosed_span_is_error(self):
        records = [self._meta()] + self._span("a-1", 1000, closed=False)
        log = validate_records(records)
        assert any("unclosed span a-1" in e for e in log.errors)

    def test_dangling_parent_is_error(self):
        records = [self._meta()] + self._span("a-1", 1000, parent="ghost")
        log = validate_records(records)
        assert any("dangling parent ghost" in e for e in log.errors)

    def test_orphaned_worker_span_is_error(self):
        # A worker-pid span with no ancestry into the root process: the
        # merge never happened (e.g. adopt_worker was skipped).
        records = [self._meta(pid=1000)] + self._span("b-1", 2000)
        log = validate_records(records)
        assert any("orphaned worker span b-1" in e for e in log.errors)

    def test_adopted_worker_span_is_not_orphaned(self):
        records = (
            [self._meta(pid=1000)]
            + self._span("a-1", 1000, name="sweep")
            + self._span("b-1", 2000, parent="a-1")
        )
        log = validate_records(records)
        assert log.ok, log.errors
        assert log.worker_pids() == {2000}

    def test_cli_validator_exit_codes(self, tmp_path, capsys):
        from repro.obs.__main__ import main as validate_main

        path = tmp_path / "t.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            pass
        obs.close()
        assert validate_main([str(path)]) == 0
        assert validate_main([str(path), "--expect-workers", "1"]) == 1
        assert "worker" in capsys.readouterr().err


@pytest.mark.usefixtures("pool_cpus")
class TestWorkerMerge:
    def test_parallel_sweep_merges_worker_spans(self, tmp_path, tmp_cache):
        path = tmp_path / "sweep.jsonl"
        obs.configure(path)
        with obs.span("sweep", command="test"):
            results = run_jobs(GRID, workers=2, cache=tmp_cache)
        obs.close()
        assert len(results) == len(GRID)

        log = validate_file(path)
        assert log.ok, log.errors
        jobs = log.by_name("job")
        assert len(jobs) == len(GRID)
        # The pool really forked: job spans come from worker pids, and
        # every one of them is rooted in the parent's sweep span.
        assert log.worker_pids(), "expected spans from worker processes"
        for job in jobs:
            assert job.attrs["cached"] is False
            assert job.attrs["events"] > 0
            assert "pipeline" in job.attrs["uarch"]
            assert "btb" in job.attrs["uarch"]
            # Phase children account for (most of) the job wall time and
            # never exceed it.
            child_time = sum(c.dur_s for c in job.children)
            assert 0 < child_time <= job.dur_s * 1.05 + 0.01

    def test_cached_rerun_marks_job_spans(self, tmp_path, tmp_cache):
        run_jobs(GRID, workers=1, cache=tmp_cache)  # populate
        path = tmp_path / "rerun.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            run_jobs(GRID, workers=2, cache=tmp_cache)
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        assert all(job.attrs["cached"] for job in log.by_name("job"))


class TestPhaseSpans:
    """Golden phase spans: ``record`` covers guest interpretation only,
    and every simulated job is timed inside one ``replay`` span."""

    def test_recording_job_records_then_replays(self, tmp_path, tmp_cache):
        path = tmp_path / "phases.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            run_jobs(GRID[:2], workers=1, cache=tmp_cache)  # fibo x 2
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        assert not log.by_name("simulate")
        jobs = {job.attrs["replayed"]: job for job in log.by_name("job")}
        names = {
            replayed: [child.name for child in job.children]
            for replayed, job in jobs.items()
        }
        assert names[False].count("record") == names[False].count("replay") == 1
        assert "record" not in names[True]
        assert names[True].count("replay") == 1
        recording = jobs[False]
        (record,) = [c for c in recording.children if c.name == "record"]
        (replay,) = [c for c in recording.children if c.name == "replay"]
        assert (
            record.attrs["events"]
            == replay.attrs["events"]
            == recording.attrs["events"]
            > 0
        )
        assert record.t_end <= replay.t_start

    def test_storeless_run_records_then_replays(self, tmp_path):
        path = tmp_path / "storeless.jsonl"
        obs.configure(path)
        with obs.span("sweep"):
            simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)
        obs.close()
        log = validate_file(path)
        assert log.ok, log.errors
        (sweep,) = log.by_name("sweep")
        assert [child.name for child in sweep.children] == [
            "compile", "compile", "record", "replay",
        ]

    def test_known_spans_vocabulary(self):
        assert "simulate" not in KNOWN_SPANS
        assert {"record", "replay"} <= set(KNOWN_SPANS)


class TestTraceSavings:
    """The footer's "~Xs saved" prices replayed events at the guest
    interpretation time they avoided, not at a whole job's wall time."""

    INTERPRETED = {"events": 1000, "wall_s": 2.0, "guest_s": 0.5}
    REPLAYED = {"events": 3000, "wall_s": 1.0, "guest_s": 0.0, "replayed": True}

    def test_replayed_events_priced_at_guest_time(self):
        metrics = ThroughputMetrics()
        metrics.record_sim(self.INTERPRETED)
        metrics.record_sim(self.REPLAYED)
        assert metrics.guest_s == 0.5
        assert metrics.trace_savings_s() == pytest.approx(1.5)
        assert "~1.5s saved" in metrics.summary()

    def test_nothing_replayed_saves_nothing(self):
        metrics = ThroughputMetrics()
        metrics.record_sim(self.INTERPRETED)
        assert metrics.trace_savings_s() == 0.0

    def test_no_interpreted_job_has_no_estimate(self):
        metrics = ThroughputMetrics()
        metrics.record_sim(self.REPLAYED)
        assert metrics.trace_savings_s() is None
        assert "saved" not in metrics.summary()


class TestMetricsReset:
    def test_reset_clears_every_field(self):
        metrics = ThroughputMetrics()
        for index, spec in enumerate(fields(metrics), start=1):
            setattr(metrics, spec.name, index)  # every counter non-default
        metrics.reset()
        for spec in fields(metrics):
            assert getattr(metrics, spec.name) == spec.default, spec.name

    def test_as_dict_covers_every_field(self):
        metrics = ThroughputMetrics(retries=3, quarantined=1)
        exported = metrics.as_dict()
        assert set(exported) == {spec.name for spec in fields(metrics)}
        assert exported["retries"] == 3
        assert exported["quarantined"] == 1

    def test_fault_counters_absent_after_reset_summary(self):
        metrics = ThroughputMetrics(
            retries=2, timeouts=1, worker_deaths=1, quarantined=4
        )
        metrics.reset()
        summary = metrics.summary(0.5)
        for label in ("retried", "timed out", "worker deaths", "quarantined"):
            assert label not in summary


class TestRegress:
    BENCH = {
        "guard": {"min_events_per_s": 3000},
        "hot_path": {"events_per_s": 100_000},
        "trace_replay": {"replay_events_per_s": 500_000},
    }

    def _metrics(self, **kwargs):
        metrics = ThroughputMetrics()
        for name, value in kwargs.items():
            setattr(metrics, name, value)
        return metrics

    def test_ok_verdict_at_or_above_floor(self):
        rows = telemetry_diff(
            self._metrics(events=30_000, sim_wall_s=1.0), self.BENCH
        )
        assert rows[0]["metric"] == "simulation events/s"
        assert rows[0]["verdict"] == "ok"

    def test_regressed_below_guard_floor(self):
        rows = telemetry_diff(
            self._metrics(events=100, sim_wall_s=1.0), self.BENCH
        )
        assert rows[0]["verdict"] == "REGRESSED"

    def test_idle_run_is_na(self):
        rows = telemetry_diff(self._metrics(), self.BENCH)
        assert [row["verdict"] for row in rows] == ["n/a"] * 5

    def test_kernel_and_batch_floor_rows(self):
        """The kernel/batch rows verdict on the *recorded* baseline
        speedup vs its guard floor (portable), only when this run did
        comparable work."""
        bench = {
            "guard": {"min_kernel_speedup": 1.3, "min_batch_speedup": 1.25},
            "kernel_replay": {
                "speedup_kernel_over_interpreted": 1.9,
                "replay_events_per_s_kernel_on": 400_000,
            },
            "batch_replay": {
                "speedup_batch_over_kernel": 1.1,
                "replay_events_per_s_batch_on": 600_000,
            },
        }
        metrics = self._metrics(
            kernel_events=10_000, batch_events=8_000, replay_wall_s=1.0
        )
        rows = {row["metric"]: row for row in telemetry_diff(metrics, bench)}
        kernel = rows["kernel replay events/s"]
        assert kernel["verdict"] == "ok"
        assert kernel["reference"] == 400_000
        batch = rows["batch replay events/s"]
        assert batch["verdict"] == "REGRESSED"  # 1.1 < 1.25 floor
        assert batch["reference"] == 600_000
        # A run with no kernel/batch work reads n/a on both rows.
        idle_rows = {
            row["metric"]: row for row in telemetry_diff(self._metrics(), bench)
        }
        assert idle_rows["kernel replay events/s"]["verdict"] == "n/a"
        assert idle_rows["batch replay events/s"]["verdict"] == "n/a"

    def test_render_without_baseline(self, monkeypatch):
        monkeypatch.setattr(
            "repro.obs.regress.find_bench", lambda path=None: None
        )
        text = render_telemetry_section(self._metrics(), wall_s=1.0)
        assert "no BENCH_dispatch.json baseline" in text
        assert "n/a" in text

    def test_render_with_baseline(self, tmp_path, monkeypatch):
        bench_path = tmp_path / "BENCH_dispatch.json"
        bench_path.write_text(json.dumps(self.BENCH))
        text = render_telemetry_section(
            self._metrics(sims=2, events=30_000, sim_wall_s=1.0),
            bench_path=bench_path,
        )
        assert "2 simulation(s)" in text
        assert "ok" in text
        assert "30,000" in text
