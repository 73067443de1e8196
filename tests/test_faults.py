"""Fault-injected end-to-end tests for the harness fault-tolerance layer.

Every degraded path — a worker killed mid-sweep, a job that raises, a
corrupted result, trace or memo shard, a timed-out job — must (a)
recover without aborting the sweep, (b) produce ``SimResult``s
byte-identical to a clean serial run, and (c) leave an audit trail:
retry/timeout/death/quarantine counts in ``METRICS`` (quarantines also
on the store that made them) and a readable ``.reason.txt`` sidecar next
to every quarantined entry.  A grid point that exhausts its retry
budget must surface as one aggregated :class:`SimJobsFailed` naming
every failed key.
"""

import json
import os
import time

import pytest

from repro.harness import faults
from repro.harness.cache import MemoStore, ResultCache, TraceStore
from repro.harness.faults import FaultPlan, FaultSpec, InjectedFault, parse_specs
from repro.harness.parallel import (
    METRICS,
    SimJob,
    SimJobError,
    SimJobsFailed,
    resolve_job_timeout,
    resolve_retries,
    resolve_workers,
    run_jobs,
    set_default_job_timeout,
    set_default_retries,
    set_default_workers,
)

#: Tiny but non-trivial grid: two schemes x two workloads at explicit n.
GRID = tuple(
    SimJob(w, "lua", scheme, kwargs=(("check_output", False), ("n", 8)))
    for w in ("fibo", "n-sieve")
    for scheme in ("baseline", "scd")
)

#: The three sharded stores; every one honours the same shard contract.
STORES = pytest.mark.parametrize(
    "store_cls", (ResultCache, TraceStore, MemoStore),
    ids=lambda cls: cls.__name__,
)

#: A loop long enough for replay to learn (and persist) a memo table.
LOOP_SOURCE = (
    'var i = 0;\nwhile (i < 5000) { i = i + 1; }\n'
    'print("done " .. i);\n'
)


@pytest.fixture
def pool_cpus(monkeypatch):
    """Pretend >= 2 CPUs so run_jobs takes the pooled path on any host
    (the cpu cap in resolve_workers is a perf heuristic, not a
    correctness constraint)."""
    monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 2)


needs_pool = pytest.mark.usefixtures("pool_cpus")


def result_bytes(results) -> list[str]:
    """Canonical byte-level rendering of a result list."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.fixture(autouse=True)
def _isolate_fault_state(monkeypatch, tmp_path):
    """No backoff sleeps, no ambient faults, clean counters/overrides."""
    METRICS.reset()
    set_default_workers(None)
    set_default_retries(None)
    set_default_job_timeout(None)
    monkeypatch.setenv("SCD_REPRO_RETRY_BACKOFF", "0")
    monkeypatch.delenv("SCD_FAULT", raising=False)
    monkeypatch.delenv("SCD_FAULT_DIR", raising=False)
    monkeypatch.delenv("SCD_REPRO_JOBS", raising=False)
    monkeypatch.delenv("SCD_REPRO_RETRIES", raising=False)
    monkeypatch.delenv("SCD_REPRO_JOB_TIMEOUT", raising=False)
    faults.reset_plan_cache()
    yield
    faults.reset_plan_cache()
    set_default_retries(None)
    set_default_job_timeout(None)
    set_default_workers(None)


def arm(monkeypatch, tmp_path, spec: str) -> None:
    """Activate fault injection *spec* with counters under tmp_path."""
    monkeypatch.setenv("SCD_FAULT", spec)
    monkeypatch.setenv("SCD_FAULT_DIR", str(tmp_path / "fault-state"))
    faults.reset_plan_cache()


def disarm(monkeypatch) -> None:
    monkeypatch.delenv("SCD_FAULT", raising=False)
    faults.reset_plan_cache()


class TestFaultSpecParsing:
    def test_simple_specs(self):
        assert FaultSpec.parse("kill-worker:2") == FaultSpec("kill-worker", 2)
        assert FaultSpec.parse("fail-job:0") == FaultSpec("fail-job", 0)
        assert FaultSpec.parse("corrupt-shard:7") == FaultSpec("corrupt-shard", 7)
        assert FaultSpec.parse("delay-job:1:0.5") == FaultSpec(
            "delay-job", 1, 0.5
        )

    def test_spec_list(self):
        specs = parse_specs("kill-worker:2, corrupt-shard:0")
        assert [s.kind for s in specs] == ["kill-worker", "corrupt-shard"]

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:1",          # unknown kind
            "kill-worker",        # missing tick
            "kill-worker:x",      # non-integer tick
            "kill-worker:-1",     # negative tick
            "kill-worker:1:2",    # extra field
            "delay-job:1",        # missing delay
            "delay-job:1:x",      # bad delay
            "delay-job:1:-2",     # negative delay
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


class TestFaultPlan:
    def test_ticks_shared_across_plans(self, tmp_path):
        """Two plans on one state dir model two processes of one run:
        every tick is claimed exactly once, monotonically."""
        a = FaultPlan((), tmp_path)
        b = FaultPlan((), tmp_path)
        claims = [a._claim("job"), b._claim("job"), a._claim("job")]
        assert claims == [0, 1, 2]
        assert b._claim("shard") == 0  # independent counter

    def test_fail_job_fires_on_its_tick_only(self, tmp_path):
        plan = FaultPlan([FaultSpec("fail-job", 1)], tmp_path)
        plan.on_job_start(GRID[0])  # tick 0: clean
        with pytest.raises(InjectedFault, match="tick 1"):
            plan.on_job_start(GRID[0])  # tick 1: boom
        plan.on_job_start(GRID[0])  # tick 2: one-shot, clean again

    def test_kill_worker_skipped_in_main_process(self, tmp_path):
        """The kill targets workers; in the parent it must be a no-op
        (otherwise a 1-CPU serial fallback would kill the whole sweep)."""
        plan = FaultPlan([FaultSpec("kill-worker", 0)], tmp_path)
        plan.on_job_start(GRID[0])  # would os._exit if mis-targeted

    def test_corrupt_shard_stamps_garbage(self, tmp_path):
        plan = FaultPlan([FaultSpec("corrupt-shard", 0)], tmp_path)
        shard = tmp_path / "entry.json"
        shard.write_text('{"key": "k"}')
        plan.on_shard_write(shard)
        assert shard.read_bytes() == faults.CORRUPTION_STAMP

    def test_no_plan_without_env(self):
        assert faults.get_plan() is None

    def test_plan_exports_state_dir(self, monkeypatch):
        monkeypatch.setenv("SCD_FAULT", "fail-job:99")
        faults.reset_plan_cache()
        plan = faults.get_plan()
        assert plan is not None
        # The parent exports the auto-created dir so forked workers
        # share one tick counter.
        assert os.environ["SCD_FAULT_DIR"] == str(plan.state_dir)


class TestInjectedJobFailureRetry:
    def test_failed_job_retried_to_identical_result(
        self, tmp_path, monkeypatch
    ):
        clean = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("clean", root=tmp_path)
        )
        arm(monkeypatch, tmp_path, "fail-job:0")
        retried = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("faulty", root=tmp_path)
        )
        assert result_bytes(retried) == result_bytes(clean)
        assert METRICS.retries >= 1

    def test_exhausted_retries_raise_one_aggregated_error(self, tmp_path):
        good = GRID[0]
        bad = [
            SimJob("no-such-workload", "lua", scheme)
            for scheme in ("baseline", "scd")
        ]
        cache = ResultCache("agg", root=tmp_path)
        with pytest.raises(SimJobsFailed) as err:
            run_jobs([good] + bad, workers=1, cache=cache, retries=1)
        assert isinstance(err.value, SimJobError)  # old handlers still work
        assert set(err.value.keys) == {
            ("lua", "baseline", "no-such-workload"),
            ("lua", "scd", "no-such-workload"),
        }
        message = str(err.value)
        assert message.count("no-such-workload") >= 2
        assert "Traceback" in message
        # retries=1 -> two attempts per failing point.
        assert METRICS.retries == 2
        # The good grid point was salvaged into the shared cache.
        assert err.value.completed == 1
        assert ResultCache("agg", root=tmp_path).get(good.cache_key()) is not None

    @needs_pool
    def test_exhausted_retries_aggregate_in_pool(self, tmp_path):
        bad = [
            SimJob("no-such-workload", "lua", scheme)
            for scheme in ("baseline", "scd")
        ]
        with pytest.raises(SimJobsFailed) as err:
            run_jobs(
                [GRID[0]] + bad,
                workers=2,
                cache=ResultCache("agg-pool", root=tmp_path),
                retries=1,
            )
        assert set(err.value.keys) == {
            ("lua", "baseline", "no-such-workload"),
            ("lua", "scd", "no-such-workload"),
        }
        assert err.value.completed >= 1


class TestWorkerKill:
    @needs_pool
    def test_killed_worker_salvage_and_retry(self, tmp_path, monkeypatch):
        """An OOM-kill-shaped worker death mid-sweep: completed futures
        are salvaged, the lost grid points re-run on a fresh pool, and
        the sweep's results are byte-identical to a clean serial run."""
        serial = run_jobs(
            GRID, workers=1, cache=ResultCache("serial", root=tmp_path)
        )
        METRICS.reset()
        arm(monkeypatch, tmp_path, "kill-worker:1")
        survived = run_jobs(
            GRID, workers=2, cache=ResultCache("killed", root=tmp_path)
        )
        assert result_bytes(survived) == result_bytes(serial)
        assert METRICS.worker_deaths >= 1
        assert METRICS.retries >= 1

    @needs_pool
    def test_kill_metrics_reach_cli_footer(self, tmp_path, monkeypatch):
        arm(monkeypatch, tmp_path, "kill-worker:0")
        run_jobs(GRID, workers=2, cache=ResultCache("footer", root=tmp_path))
        line = METRICS.summary(wall_s=1.0)
        assert "worker death" in line
        assert "retried" in line


class TestJobTimeout:
    @needs_pool
    def test_delayed_job_times_out_and_retries(self, tmp_path, monkeypatch):
        """A wedged job trips its per-job timeout; the pool is torn down
        (no leaked sleeper keeps running), the grid point is retried and
        the sweep still matches a clean serial run."""
        serial = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("serial", root=tmp_path)
        )
        METRICS.reset()
        arm(monkeypatch, tmp_path, "delay-job:0:30")
        survived = run_jobs(
            GRID[:2],
            workers=2,
            cache=ResultCache("delayed", root=tmp_path),
            job_timeout=2.0,
        )
        assert result_bytes(survived) == result_bytes(serial)
        assert METRICS.timeouts >= 1

    def test_timeout_resolution(self, monkeypatch):
        assert resolve_job_timeout(None) is None
        assert resolve_job_timeout(1.5) == 1.5
        assert resolve_job_timeout(0) is None  # non-positive disables
        monkeypatch.setenv("SCD_REPRO_JOB_TIMEOUT", "2.5")
        assert resolve_job_timeout() == 2.5
        monkeypatch.setenv("SCD_REPRO_JOB_TIMEOUT", "soon")
        with pytest.warns(RuntimeWarning, match="SCD_REPRO_JOB_TIMEOUT"):
            assert resolve_job_timeout() is None

    def test_retries_resolution(self, monkeypatch):
        assert resolve_retries(0) == 0
        assert resolve_retries(-2) == 0
        monkeypatch.setenv("SCD_REPRO_RETRIES", "5")
        assert resolve_retries() == 5
        monkeypatch.setenv("SCD_REPRO_RETRIES", "lots")
        with pytest.warns(RuntimeWarning, match="SCD_REPRO_RETRIES"):
            assert resolve_retries() == 2


@pytest.fixture(scope="module")
def shard_samples(tmp_path_factory):
    """One valid value per store class, from a real record + memo run."""
    from repro.core.simulation import simulate
    from repro.vm.capture import RecordedTrace

    root = tmp_path_factory.mktemp("shard-samples")
    traces, memos = TraceStore(root=root), MemoStore(root=root)
    simulate(
        "loop", vm="lua", scheme="scd", source=LOOP_SOURCE,
        trace_store=traces, trace_mode="record",
    )
    result = simulate(
        "loop", vm="lua", scheme="scd", source=LOOP_SOURCE,
        trace_store=traces, trace_mode="replay", memo_store=memos,
    )
    (trace_shard,) = traces.path.glob("*.bin")
    (memo_shard,) = memos.path.glob("*.bin")
    return {
        ResultCache: result,
        TraceStore: RecordedTrace.from_bytes(trace_shard.read_bytes()),
        MemoStore: memo_shard.read_bytes(),
    }


class TestShardQuarantine:
    def test_corrupt_result_entry_quarantined_with_reason(self, tmp_path):
        cache = ResultCache("q", root=tmp_path)
        (clean,) = run_jobs([GRID[0]], workers=1, cache=cache)
        path = cache.entry_path(GRID[0].cache_key())
        path.write_text('{"key": "q", "res')  # torn mid-write
        fresh = ResultCache("q", root=tmp_path)
        assert fresh.get(GRID[0].cache_key()) is None
        assert not path.exists()
        quarantined = tmp_path / "quarantine" / "q" / path.name
        assert quarantined.exists()
        reason = quarantined.with_name(quarantined.name + ".reason.txt")
        assert "reason:" in reason.read_text()
        assert fresh.quarantined == 1
        # The slot is reusable: a re-run recomputes and re-populates it.
        (again,) = run_jobs([GRID[0]], workers=1, cache=fresh)
        assert result_bytes([again]) == result_bytes([clean])

    def test_corrupt_trace_entry_quarantined_with_reason(self, tmp_path):
        from repro.core.simulation import simulate

        store = TraceStore(root=tmp_path)
        recorded = simulate(
            "fibo", vm="lua", scheme="baseline", n=8, check_output=False,
            trace_store=store, trace_mode="record",
        )
        entries = list(store.path.glob("*.bin"))
        assert entries
        entries[0].write_bytes(b"garbage" * 16)
        fresh = TraceStore(root=tmp_path)
        # Probe through the public surface: a fresh simulate in auto mode
        # must treat the corrupt trace as a miss and re-record it.
        result = simulate(
            "fibo", vm="lua", scheme="baseline", n=8, check_output=False,
            trace_store=fresh, trace_mode="auto",
        )
        assert result.to_dict() == recorded.to_dict()
        quarantine_dir = tmp_path / "quarantine" / "traces"
        files = list(quarantine_dir.glob("*.bin"))
        assert len(files) == 1
        reason = files[0].with_name(files[0].name + ".reason.txt")
        assert "reason:" in reason.read_text()

    def test_corrupt_memo_entry_quarantined_with_reason(self, tmp_path):
        """A bit-flipped persisted memo shard fails its CRC frame on
        read, moves to quarantine, and the replay falls back to an empty
        memo with byte-identical results."""
        from repro.core.simulation import simulate

        source = LOOP_SOURCE
        store = TraceStore(root=tmp_path)
        memos = MemoStore(root=tmp_path)
        simulate(
            "loop", vm="lua", scheme="scd", source=source,
            trace_store=store, trace_mode="record",
        )
        reference = simulate(
            "loop", vm="lua", scheme="scd", source=source,
            trace_store=store, trace_mode="replay", memo_store=memos,
        )
        entries = list(memos.path.glob("*.bin"))
        assert entries
        blob = bytearray(entries[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entries[0].write_bytes(bytes(blob))
        fresh = MemoStore(root=tmp_path)
        meta: dict = {}
        result = simulate(
            "loop", vm="lua", scheme="scd", source=source,
            trace_store=TraceStore(root=tmp_path), trace_mode="replay",
            memo_store=fresh, metrics=meta,
        )
        assert meta["memo_loaded"] == 0
        assert result.to_dict() == reference.to_dict()
        assert fresh.quarantined == 1
        quarantine_dir = tmp_path / "quarantine" / "memos"
        files = list(quarantine_dir.glob("*.bin"))
        assert len(files) == 1
        reason = files[0].with_name(files[0].name + ".reason.txt")
        assert "reason:" in reason.read_text()
        # The slot was re-learned and re-persisted by the fallback run.
        assert list(fresh.path.glob("*.bin"))

    @pytest.mark.parametrize(
        "garbage", (b"garbage" * 16, b"\xff\xfe torn"),
        ids=("ascii", "non-utf8"),
    )
    @STORES
    def test_garbage_shard_quarantined_with_reason(
        self, store_cls, garbage, tmp_path
    ):
        store = store_cls(root=tmp_path)
        path = store.entry_path("k")
        path.parent.mkdir(parents=True)
        path.write_bytes(garbage)
        assert store.get("k") is None
        assert (store.misses, store.quarantined) == (1, 1)
        assert not path.exists()
        moved = tmp_path / "quarantine" / store.name / path.name
        assert moved.read_bytes() == garbage
        reason = moved.with_name(moved.name + ".reason.txt")
        assert "reason:" in reason.read_text()

    @STORES
    def test_missing_entry_is_not_quarantined(self, store_cls, tmp_path):
        store = store_cls(root=tmp_path)
        assert store.get("never-written") is None
        assert (store.misses, store.quarantined) == (1, 0)
        assert not (tmp_path / "quarantine").exists()

    @STORES
    def test_put_reads_back_from_fresh_instance(
        self, store_cls, shard_samples, tmp_path
    ):
        store_cls(root=tmp_path).put("k", shard_samples[store_cls])
        fresh = store_cls(root=tmp_path)
        value = fresh.get("k")
        assert value is not None and fresh.hits == 1
        # Re-encoding the decoded value reproduces the entry byte for byte.
        again = store_cls(root=tmp_path / "again")
        again.put("k", value)
        assert (
            again.entry_path("k").read_bytes()
            == fresh.entry_path("k").read_bytes()
        )

    def test_injected_result_shard_corruption_end_to_end(
        self, tmp_path, monkeypatch
    ):
        """corrupt-shard fault on the first write (trace cache off, so
        that write is a result entry): the sweep that wrote it is
        unaffected, the next sweep quarantines it, recomputes, and both
        agree byte-for-byte."""
        monkeypatch.setenv("SCD_REPRO_TRACE", "off")
        arm(monkeypatch, tmp_path, "corrupt-shard:0")
        first = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("e2e", root=tmp_path)
        )
        disarm(monkeypatch)
        second = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("e2e", root=tmp_path)
        )
        assert result_bytes(second) == result_bytes(first)
        assert METRICS.quarantined == 1
        assert list((tmp_path / "quarantine" / "e2e").glob("*.json"))

    def test_injected_trace_shard_corruption_end_to_end(
        self, tmp_path, monkeypatch
    ):
        """corrupt-shard fault on the first write in auto trace mode: that
        write is the recorded trace; the next sweep quarantines it,
        re-records, and results stay byte-identical."""
        arm(monkeypatch, tmp_path, "corrupt-shard:0")
        first = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("e2e-trace", root=tmp_path)
        )
        disarm(monkeypatch)
        second = run_jobs(
            GRID[:2], workers=1, cache=ResultCache("e2e-trace2", root=tmp_path)
        )
        assert result_bytes(second) == result_bytes(first)
        assert METRICS.quarantined == 1
        assert list((tmp_path / "quarantine" / "traces").glob("*.bin"))


class TestStaleTmpSweep:
    def test_stale_tmp_swept_fresh_kept(self, tmp_path):
        from repro.harness.cache import CACHE_VERSION

        store_dir = tmp_path / f"v{CACHE_VERSION}" / "sweep"
        store_dir.mkdir(parents=True)
        stale = store_dir / "aa.json.123.tmp"
        stale.write_text("partial write of a crashed worker")
        long_ago = time.time() - 3600
        os.utime(stale, (long_ago, long_ago))
        inflight = store_dir / "bb.json.124.tmp"
        inflight.write_text("live sibling's in-flight write")
        soon = time.time() + 3600
        os.utime(inflight, (soon, soon))

        cache = ResultCache("sweep", root=tmp_path)
        assert cache.tmp_swept == 1
        assert not stale.exists()
        assert inflight.exists()


class TestWorkerCountValidation:
    @pytest.mark.parametrize("bad", ["0", "-3", "junk", "2.5"])
    def test_bad_env_value_warned_and_ignored(self, bad, monkeypatch):
        monkeypatch.setattr(
            "repro.harness.parallel.os.cpu_count", lambda: 4
        )
        monkeypatch.setenv("SCD_REPRO_JOBS", bad)
        with pytest.warns(RuntimeWarning) as warned:
            assert resolve_workers() == 4  # falls back to the CPU count
        assert any(
            "SCD_REPRO_JOBS" in str(w.message) and bad in str(w.message)
            for w in warned
        )

    def test_good_env_value_still_honoured(self, monkeypatch):
        monkeypatch.setattr(
            "repro.harness.parallel.os.cpu_count", lambda: 8
        )
        monkeypatch.setenv("SCD_REPRO_JOBS", "3")
        assert resolve_workers() == 3


class TestTraceModeEnvValidation:
    def test_bad_env_mode_warned_and_ignored(self, monkeypatch):
        from repro.vm.capture import resolve_trace_mode

        monkeypatch.setenv("SCD_REPRO_TRACE", "sometimes")
        with pytest.warns(RuntimeWarning, match="SCD_REPRO_TRACE"):
            assert resolve_trace_mode() == "auto"
