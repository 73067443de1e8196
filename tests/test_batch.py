"""Tests for chunk-compiled batch (superblock) replay.

The batch layer's contract mirrors the kernels': byte-identity.  For
every scheme, VM, context-switch setting and memo mode, a replay with
superblock batching enabled must produce exactly the SimResult of the
per-event kernel path (and of the interpreted path below that).  The
segmentation contract is that only genuinely periodic steady-state runs
compile — single-occurrence sequences and cold prefixes stay on the
per-event ladder — and that segment boundaries landing on context
switches or memo chunk edges never change a counter.
"""

from array import array

import pytest

from repro.core.simulation import SCHEMES, scheme_parts, simulate
from repro.harness import faults
from repro.harness.cache import MemoStore, TraceStore
from repro.native.batch import MIN_REPS, MIN_RUN_EVENTS, find_periodic_runs
from repro.native.model import ModelRunner, get_model
from repro.uarch.config import cortex_a5
from repro.uarch.pipeline import Machine
from repro.vm.capture import (
    MEMO_CHUNK_EVENTS,
    TraceRecorder,
    replay_events,
    replay_events_memo,
)
from repro.vm.lua import LuaVM

ALL_SCHEMES = SCHEMES + ("ttc", "cascaded", "ittage", "superinst")

#: Long scalar loop: >28k events, so the steady-state body repeats far
#: past MIN_COMPILE_EVENTS and superblocks must engage.
LOOP_SRC = 'var i = 0;\nwhile (i < 5000) { i = i + 1; }\nprint("done " .. i);\n'

#: Mixed control flow: calls, branches and builtins exercise the
#: per-event fallback at superblock boundaries.
CALL_SRC = (
    'fn f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); }\n'
    'print("fib " .. f(12));\n'
)

#: No loops at all: every kernel-key sequence occurs once, so the
#: segmenter must find nothing to compile.
STRAIGHT_SRC = 'var a = 1;\nvar b = a + 2;\nprint("sum " .. (a + b));\n'


def _sig(result):
    return (
        result.cycles,
        result.instructions,
        result.cpi,
        result.branch_mpki,
        result.icache_mpki,
        result.dcache_mpki,
        result.bop_hits,
        result.bop_misses,
        result.jte_inserts,
        tuple(sorted(result.mispredicts_by_category.items())),
        tuple(sorted(result.insts_by_category.items())),
        tuple(sorted(result.cycle_breakdown.items())),
        result.output,
    )


def _replay(tmp_path, source, scheme="scd", record=False, **kwargs):
    store = TraceStore(root=tmp_path)
    if record:
        simulate("prog", vm="lua", scheme="baseline", source=source,
                 trace_store=store, trace_mode="record", use_kernel=False)
    return simulate("prog", vm="lua", scheme=scheme, source=source,
                    trace_store=store, trace_mode="replay", **kwargs)


class TestBatchIdentity:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("memo", (True, False))
    def test_replay_identity(self, tmp_path, scheme, memo):
        """Batch-on replay equals batch-off (kernels on) and kernel-off."""
        _replay(tmp_path, LOOP_SRC, scheme="baseline", record=True)
        batch_on = _replay(tmp_path, LOOP_SRC, scheme=scheme,
                           replay_memo=memo, use_batch=True)
        batch_off = _replay(tmp_path, LOOP_SRC, scheme=scheme,
                            replay_memo=memo, use_batch=False)
        kernel_off = _replay(tmp_path, LOOP_SRC, scheme=scheme,
                             replay_memo=memo, use_kernel=False)
        assert _sig(batch_on) == _sig(batch_off)
        assert _sig(batch_on) == _sig(kernel_off)

    @pytest.mark.parametrize("vm", ("lua", "js"))
    def test_live_identity(self, vm):
        """Live simulation (kernels bound, no trace) is unaffected too."""
        on = simulate("prog", vm=vm, scheme="scd", source=CALL_SRC,
                      use_batch=True)
        off = simulate("prog", vm=vm, scheme="scd", source=CALL_SRC,
                       use_batch=False)
        assert _sig(on) == _sig(off)

    def test_superblocks_engage_on_steady_loop(self, tmp_path):
        """The hot loop actually flows through compiled superblocks."""
        _replay(tmp_path, LOOP_SRC, scheme="baseline", record=True)
        meta: dict = {}
        _replay(tmp_path, LOOP_SRC, use_batch=True, metrics=meta)
        assert meta["superblocks"] > 0
        assert meta["batch_events"] > 0
        # Steady state dominates: most replayed events ride superblocks.
        assert meta["batch_events"] > meta["events"] // 2

    def test_use_batch_false_disables(self, tmp_path):
        _replay(tmp_path, LOOP_SRC, scheme="baseline", record=True)
        meta: dict = {}
        _replay(tmp_path, LOOP_SRC, use_batch=False, metrics=meta)
        assert meta["superblocks"] == 0
        assert meta["batch_events"] == 0
        assert meta["kernel_events"] > 0


class _NeverApplies:
    """Memo stand-in that never skips: every chunk replays as one range."""

    def try_apply(self, key, n_events):
        return False

    def begin(self):
        pass

    def commit(self, key):
        pass


def _assert_single_range_equals_chunks():
    recorder = TraceRecorder()
    guest = LuaVM.from_source(LOOP_SRC)
    trace = recorder.seal(guest.run(trace=recorder.hook), guest.steps)
    strategy, indirect = scheme_parts("scd")
    config = cortex_a5().with_changes(indirect_scheme=indirect)

    def run(use_kernel, use_batch, replay):
        machine = Machine(config)
        runner = ModelRunner(get_model("lua", strategy), machine,
                             use_kernel=use_kernel, use_batch=use_batch)
        runner.start()
        replay(runner)
        runner.finish()
        kernel = runner.kernel
        rung = (
            "interpreted" if kernel is None
            else "batch" if kernel.batch_events > MEMO_CHUNK_EVENTS
            else "kernel" if kernel.kernel_events and not kernel.batch_events
            else None
        )
        return rung, machine.finalize().snapshot()

    def single(runner):
        replay_events(trace, runner.on_event, runner=runner)

    def chunked(runner):
        replay_events_memo(trace, runner, _NeverApplies())

    snapshots = []
    for use_kernel, use_batch, rung in (
        (False, False, "interpreted"),
        (True, False, "kernel"),
        (True, True, "batch"),
    ):
        whole = run(use_kernel, use_batch, single)
        split = run(use_kernel, use_batch, chunked)
        assert whole == split == (rung, whole[1])
        snapshots.append(whole[1])
    assert snapshots[0] == snapshots[1] == snapshots[2]


class TestSuperblockBoundaries:
    def test_context_switch_straddles_segment(self, tmp_path):
        """A context-switch interval coprime to the loop period lands
        flushes mid-superblock; the runtime must fall back per-event
        around each switch with identical counters."""
        store = TraceStore(root=tmp_path)
        simulate("prog", vm="lua", scheme="baseline", source=LOOP_SRC,
                 trace_store=store, trace_mode="record", use_kernel=False,
                 context_switch_interval=997)
        results = [
            simulate("prog", vm="lua", scheme="scd", source=LOOP_SRC,
                     trace_store=store, trace_mode="replay",
                     context_switch_interval=997, use_batch=enabled)
            for enabled in (True, False)
        ]
        assert _sig(results[0]) == _sig(results[1])

    @pytest.mark.parametrize("memo", (True, False, "split"))
    def test_memo_chunk_boundary_bisects_superblock(self, tmp_path, memo):
        """LOOP_SRC's steady run spans many MEMO_CHUNK_EVENTS edges, so
        chunk boundaries bisect superblocks; memo bookkeeping (chunk
        digests, skip decisions) must not drift from the batch-off run.

        ``"split"``: on every rung of the ladder, one replay covering the
        whole trace equals the same replay cut into memo-chunk ranges."""
        if memo == "split":
            _assert_single_range_equals_chunks()
            return
        _replay(tmp_path, LOOP_SRC, scheme="baseline", record=True)
        meta: dict = {}
        batch_on = _replay(tmp_path, LOOP_SRC, replay_memo=memo,
                           use_batch=True, metrics=meta)
        batch_off = _replay(tmp_path, LOOP_SRC, replay_memo=memo,
                            use_batch=False)
        assert _sig(batch_on) == _sig(batch_off)
        # The premise: the batched span really is longer than one chunk.
        assert meta["batch_events"] > MEMO_CHUNK_EVENTS

    def test_memo_skip_and_batch_compose(self, tmp_path):
        """Second memo replay skips warmed chunks; what remains still
        batches (or falls back) to identical results."""
        store = TraceStore(root=tmp_path)
        memos = MemoStore(root=tmp_path)
        simulate("prog", vm="lua", scheme="scd", source=LOOP_SRC,
                 trace_store=store, trace_mode="auto")
        first = simulate("prog", vm="lua", scheme="scd", source=LOOP_SRC,
                         trace_store=store, trace_mode="replay",
                         memo_store=memos, use_batch=True)
        meta: dict = {}
        second = simulate("prog", vm="lua", scheme="scd", source=LOOP_SRC,
                          trace_store=store, trace_mode="replay",
                          memo_store=MemoStore(root=tmp_path),
                          use_batch=True, metrics=meta)
        assert meta["memo_loaded"] > 0
        assert _sig(first) == _sig(second)

    def test_straight_line_never_compiles(self, tmp_path):
        """Single-occurrence sequences must not produce superblocks."""
        _replay(tmp_path, STRAIGHT_SRC, scheme="baseline", record=True)
        meta: dict = {}
        result = _replay(tmp_path, STRAIGHT_SRC, use_batch=True, metrics=meta)
        assert meta["superblocks"] == 0
        assert meta["batch_events"] == 0
        reference = _replay(tmp_path, STRAIGHT_SRC, use_kernel=False)
        assert _sig(result) == _sig(reference)


class TestFindPeriodicRuns:
    @staticmethod
    def _cols(keys):
        ops = array("H", [k[0] for k in keys])
        sites = array("B", [k[1] for k in keys])
        return ops, sites

    def test_detects_steady_loop(self):
        body = [(1, 0), (2, 0), (3, 1)]
        reps = 50
        ops, sites = self._cols(body * reps)
        runs = find_periodic_runs(ops, sites, len(ops))
        # The first repetition is the cold prefix: periodicity is only
        # visible from the second occurrence of the leading key onward.
        assert runs == [(len(body), len(body), reps - 1)]

    def test_single_occurrence_rejected(self):
        """A sequence that never repeats (or repeats fewer than MIN_REPS
        times) yields no runs."""
        body = [(1, 0), (2, 0), (3, 1), (4, 0)]
        ops, sites = self._cols(body * (MIN_REPS - 1))
        assert find_periodic_runs(ops, sites, len(ops)) == []
        distinct = [(i, 0) for i in range(MIN_RUN_EVENTS * 2)]
        ops, sites = self._cols(distinct)
        assert find_periodic_runs(ops, sites, len(ops)) == []

    def test_partial_trailing_rep_left_to_per_event_path(self):
        body = [(1, 0), (2, 1), (3, 0), (4, 1)]
        reps = 20
        ops, sites = self._cols(body * reps + body[:2])
        runs = find_periodic_runs(ops, sites, len(ops))
        # Cold first rep excluded, trailing half-rep excluded: 19 full
        # repetitions starting at the second body occurrence.
        assert runs == [(len(body), len(body), reps - 1)]

    def test_cold_prefix_excluded(self):
        prefix = [(9, 0), (8, 1), (7, 0), (6, 1), (5, 0)]
        body = [(1, 0), (2, 0), (3, 1)]
        reps = 40
        ops, sites = self._cols(prefix + body * reps)
        runs = find_periodic_runs(ops, sites, len(ops))
        assert len(runs) == 1
        start, period, got_reps = runs[0]
        assert start >= len(prefix) - len(body)  # phase may rotate into it
        assert period == len(body)
        assert period * got_reps >= MIN_RUN_EVENTS

    def test_site_column_breaks_false_periodicity(self):
        """An op-periodic stream with aperiodic dispatch sites is not a
        run: (op, site) is the kernel key, so both columns must verify.
        Irregular site marks spaced closer than MIN_RUN_EVENTS leave no
        qualifying window."""
        keys = [((i % 3) + 1, 0) for i in range(120)]
        for mark in range(7, 120, 13):
            keys[mark] = (keys[mark][0], 1)
        ops, sites = self._cols(keys)
        assert find_periodic_runs(ops, sites, len(ops)) == []


class TestBatchUnderFaults:
    @pytest.fixture(autouse=True)
    def _isolate_fault_state(self, monkeypatch):
        monkeypatch.delenv("SCD_FAULT", raising=False)
        monkeypatch.delenv("SCD_FAULT_DIR", raising=False)
        faults.reset_plan_cache()
        yield
        faults.reset_plan_cache()

    def test_env_opt_out_identity_under_corrupt_shard(
        self, tmp_path, monkeypatch
    ):
        """Batch off (``use_batch`` in the job kwargs) with corrupt-shard
        injection: the corrupted trace shard quarantines, the sweep
        re-records, and the batch-off results match a clean batch-on run
        byte for byte."""
        from repro.harness.cache import ResultCache
        from repro.harness.parallel import run_jobs, SimJob

        grid = tuple(
            SimJob(w, "lua", scheme, kwargs=(("check_output", False), ("n", 8)))
            for w in ("fibo", "n-sieve")
            for scheme in ("baseline", "scd")
        )
        monkeypatch.setenv("SCD_REPRO_RETRY_BACKOFF", "0")

        clean = run_jobs(
            grid, workers=1, cache=ResultCache("batch-on", root=tmp_path / "a")
        )

        batch_off = tuple(
            SimJob(job.workload, job.vm, job.scheme,
                   kwargs=job.kwargs + (("use_batch", False),))
            for job in grid
        )
        monkeypatch.setenv("SCD_FAULT", "corrupt-shard:0")
        monkeypatch.setenv("SCD_FAULT_DIR", str(tmp_path / "fault-state"))
        faults.reset_plan_cache()
        faulted = run_jobs(
            batch_off, workers=1,
            cache=ResultCache("batch-off", root=tmp_path / "b"),
        )
        monkeypatch.delenv("SCD_FAULT")
        faults.reset_plan_cache()
        # Same root, fresh cache name: replays through the surviving +
        # re-recorded traces, still with batch disabled.
        replayed = run_jobs(
            batch_off, workers=1,
            cache=ResultCache("batch-off2", root=tmp_path / "b"),
        )

        def canon(results):
            return [r.to_dict() for r in results]

        assert canon(faulted) == canon(clean)
        assert canon(replayed) == canon(clean)
