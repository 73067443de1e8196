"""Tests for the columnar trace capture/replay subsystem.

Covers the core exactness contracts: recording, trace replay and
store-less runs produce byte-identical results vs. an independent
hook-driven reference (the guest's trace hook feeding the interpreted
runner directly) for every scheme on both VMs, the steady-state memo
changes no counter while actually engaging, the binary format
round-trips and rejects corruption as a miss, and the harness plumbing
(modes, cache keys, execute_job reuse) behaves.
"""

import pytest

from repro.core.results import SimResult
from repro.core.simulation import SCHEMES, scheme_parts, simulate
from repro.harness.cache import ResultCache, TraceStore
from repro.harness.parallel import SimJob, execute_job
from repro.native.model import ModelRunner, get_model
from repro.uarch.config import cortex_a5
from repro.uarch.pipeline import Machine
from repro.vm import capture
from repro.vm.capture import (
    RecordedTrace,
    TraceFormatError,
    TraceMissError,
    TraceRecorder,
    resolve_trace_mode,
    set_default_trace_mode,
    trace_key,
)
from repro.vm.js import JsVM
from repro.vm.lua import LuaVM
from repro.workloads import workload as get_workload

VMS = {"lua": LuaVM, "js": JsVM}

ALL_SCHEMES = SCHEMES + ("ttc", "cascaded", "ittage", "superinst")

#: Long scalar loop: >28k events so the steady-state memo (4096-event
#: chunks) sees each chunk phase more than once and actually fires.
LOOP_SRC = 'var i = 0;\nwhile (i < 5000) { i = i + 1; }\nprint("done " .. i);\n'


@pytest.fixture
def store(tmp_path):
    return TraceStore(root=tmp_path)


@pytest.fixture(autouse=True)
def _reset_trace_mode():
    set_default_trace_mode(None)
    yield
    set_default_trace_mode(None)


def _hook_driven(vm, scheme, n=8, context_switch_interval=None):
    """Independent reference for ``simulate("fibo", n=n, ...)``.

    The guest VM's trace hook feeds the interpreted :class:`ModelRunner`
    event by event: no recorder, no trace, no replay driver and no
    compiled kernels between interpretation and the timing model.
    """
    strategy, indirect = scheme_parts(scheme)
    config = cortex_a5().with_changes(indirect_scheme=indirect)
    machine = Machine(config)
    runner = ModelRunner(
        get_model(vm, strategy),
        machine,
        context_switch_interval=context_switch_interval,
        use_kernel=False,
    )
    runner.start()
    guest = VMS[vm].from_source(get_workload("fibo").source(n=n))
    output = guest.run(trace=runner.on_event)
    runner.finish()
    stats = machine.finalize()
    return SimResult(
        vm=vm,
        scheme=scheme,
        workload="fibo",
        config_name=config.name,
        scale=f"n={n}",
        cycles=stats.cycles,
        instructions=stats.instructions,
        guest_steps=guest.steps,
        cpi=stats.cpi,
        branch_mpki=stats.branch_mpki,
        icache_mpki=stats.icache_mpki,
        dcache_mpki=stats.dcache_mpki,
        dispatch_fraction=stats.dispatch_fraction(),
        bop_hits=stats.bop_hits,
        bop_misses=stats.bop_misses,
        jte_inserts=stats.jte_inserts,
        mispredicts_by_category=dict(stats.mispredicts_by_category),
        insts_by_category=dict(stats.insts_by_category),
        cycle_breakdown=dict(stats.cycle_breakdown),
        output=tuple(output),
    )


def _record_trace(store, source):
    simulate(
        "scriptlet", vm="lua", scheme="baseline", source=source,
        check_output=False, trace_store=store, trace_mode="record",
    )
    return store.get(trace_key("lua", source, 100_000_000))


class TestRoundTrip:
    def test_bytes_round_trip(self, store):
        trace = _record_trace(store, LOOP_SRC)
        clone = RecordedTrace.from_bytes(trace.to_bytes(key=trace.key))
        assert clone.n_events == trace.n_events
        for name in dict(capture.EVENT_COLUMNS):
            assert list(clone.columns[name]) == list(trace.columns[name])
        assert clone.daddr_pool == trace.daddr_pool
        assert clone.builtin_pool == trace.builtin_pool
        assert clone.cost_pool == trace.cost_pool
        assert clone.output == trace.output
        assert clone.guest_steps == trace.guest_steps
        assert clone.key == trace.key

    @pytest.mark.parametrize("vm", ("lua", "js"))
    def test_sealed_events_equal_raw_hook_stream(self, vm):
        source = get_workload("fibo").source(n=8)
        raw = []
        VMS[vm].from_source(source).run(trace=lambda *event: raw.append(event))
        recorder = TraceRecorder()
        guest = VMS[vm].from_source(source)
        output = guest.run(trace=recorder.hook)
        trace = recorder.seal(output, guest.steps)
        assert recorder.events == trace.n_events == len(raw) > 0
        assert list(trace.iter_events()) == raw
        replayed = []
        capture.replay_events(trace, lambda *event: replayed.append(event))
        assert replayed == raw


class TestReplayIdentity:
    @pytest.mark.parametrize("vm", ("lua", "js"))
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_replay_identical_to_live(self, store, vm, scheme):
        reference = _hook_driven(vm, scheme)
        kwargs = dict(vm=vm, scheme=scheme, n=8, check_output=False)
        recorded = simulate(
            "fibo", trace_store=store, trace_mode="record", **kwargs
        )
        replayed = simulate(
            "fibo", trace_store=store, trace_mode="replay", **kwargs
        )
        storeless = simulate("fibo", **kwargs)
        # SimResult equality covers cycles, instructions, output and
        # every counter field.
        assert recorded == reference
        assert replayed == reference
        assert storeless == reference

    def test_trace_shared_across_schemes(self, store):
        """One recording serves every scheme: the event stream does not
        depend on the dispatch strategy under test."""
        simulate(
            "fibo", vm="lua", scheme="baseline", n=8, check_output=False,
            trace_store=store, trace_mode="record",
        )
        for scheme in ALL_SCHEMES:
            pure = simulate(
                "fibo", vm="lua", scheme=scheme, n=8, check_output=False,
            )
            replayed = simulate(
                "fibo", vm="lua", scheme=scheme, n=8, check_output=False,
                trace_store=store, trace_mode="replay",
            )
            assert replayed == pure

    def test_context_switch_interval_identity(self, store):
        reference = _hook_driven("lua", "scd", context_switch_interval=100)
        kwargs = dict(
            vm="lua", n=8, check_output=False,
            context_switch_interval=100, trace_store=store,
        )
        recorded = simulate("fibo", scheme="scd", trace_mode="record", **kwargs)
        replayed = simulate("fibo", scheme="scd", trace_mode="replay", **kwargs)
        assert recorded == reference
        assert replayed == reference


class TestSteadyStateMemo:
    def test_memo_changes_no_counter_and_engages(self, store):
        live = simulate(
            "loop", vm="lua", scheme="scd", source=LOOP_SRC,
            check_output=False, trace_store=store, trace_mode="record",
        )
        memo_metrics: dict = {}
        with_memo = simulate(
            "loop", vm="lua", scheme="scd", source=LOOP_SRC,
            check_output=False, trace_store=store, trace_mode="replay",
            metrics=memo_metrics,
        )
        without_memo = simulate(
            "loop", vm="lua", scheme="scd", source=LOOP_SRC,
            check_output=False, trace_store=store, trace_mode="replay",
            replay_memo=False,
        )
        # The memo must be invisible in every counter...
        assert with_memo == live
        assert without_memo == live
        # ...while actually taking the fast path on a steady-state loop.
        assert memo_metrics["memo_hits"] > 0
        assert memo_metrics["memo_events"] >= capture.MEMO_CHUNK_EVENTS

    def test_machine_restore_state_round_trip(self, store):
        """restore_state() is an exact inverse of state_digest()."""
        trace = _record_trace(store, LOOP_SRC)
        from repro.native.model import ModelRunner, get_model

        machine = Machine(cortex_a5())
        runner = ModelRunner(get_model("lua", "baseline"), machine)
        runner.start()
        events = list(zip(*(trace.columns[n] for n, _ in capture.EVENT_COLUMNS)))
        pools = capture._replay_pools(trace)
        daddr_pool, builtin_pool, cost_pool = pools

        def feed(start, stop):
            for op, site, taken, callee, daddr_id, builtin_id, cost_id in events[start:stop]:
                runner.on_event(
                    op, site, taken, callee,
                    daddr_pool[daddr_id], builtin_pool[builtin_id],
                    cost_pool[cost_id],
                )

        feed(0, 400)
        snapshot = machine.state_digest()
        feed(400, 900)
        assert machine.state_digest() != snapshot
        machine.restore_state(snapshot)
        assert machine.state_digest() == snapshot


class TestStoreContracts:
    def test_replay_mode_raises_on_missing_trace(self, store):
        with pytest.raises(TraceMissError):
            simulate(
                "fibo", vm="lua", scheme="scd", n=8, check_output=False,
                trace_store=store, trace_mode="replay",
            )

    def test_corrupt_trace_reads_as_miss(self, store):
        trace = _record_trace(store, LOOP_SRC)
        key = trace.key
        path = store.entry_path(key)
        blob = path.read_bytes()

        for mutant in (
            blob[: len(blob) // 2],          # truncated
            b"",                              # empty
            b"garbage" * 16,                  # not a trace at all
            blob[:6] + b"\xff\xff" + blob[8:],  # version flipped
            blob[:-4] + b"\x00\x00\x00\x00",  # payload corrupted vs CRC
        ):
            fresh = TraceStore(root=store.root)
            path.write_bytes(mutant)
            assert fresh.get(key) is None

        # Restoring the original bytes restores the hit.
        path.write_bytes(blob)
        assert TraceStore(root=store.root).get(key) is not None

    def test_key_embeds_format_version(self, monkeypatch):
        before = trace_key("lua", "print(1);", 1000)
        monkeypatch.setattr(capture, "TRACE_FORMAT_VERSION", 999)
        after = trace_key("lua", "print(1);", 1000)
        assert before != after

    def test_key_depends_on_vm_source_and_budget(self):
        base = trace_key("lua", "print(1);", 1000)
        assert trace_key("js", "print(1);", 1000) != base
        assert trace_key("lua", "print(2);", 1000) != base
        assert trace_key("lua", "print(1);", 2000) != base

    def test_version_mismatch_on_disk_reads_as_miss(self, store, monkeypatch):
        trace = _record_trace(store, LOOP_SRC)
        data = trace.to_bytes(key=trace.key)
        monkeypatch.setattr(capture, "TRACE_FORMAT_VERSION", 999)
        with pytest.raises(TraceFormatError):
            RecordedTrace.from_bytes(data)


class TestModeResolution:
    def test_explicit_beats_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("SCD_REPRO_TRACE", "record")
        assert resolve_trace_mode() == "record"
        set_default_trace_mode("off")
        assert resolve_trace_mode() == "off"
        assert resolve_trace_mode("replay") == "replay"

    def test_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv("SCD_REPRO_TRACE", raising=False)
        assert resolve_trace_mode() == "auto"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            resolve_trace_mode("sometimes")

    def test_simulate_without_store_stays_pure(self, tmp_path, monkeypatch):
        """No trace_store -> no trace files, whatever the ambient mode."""
        monkeypatch.setenv("SCD_REPRO_CACHE_DIR", str(tmp_path))
        set_default_trace_mode("record")
        simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)
        assert not any(tmp_path.rglob("*.bin"))


class TestHarnessIntegration:
    def test_execute_job_records_then_replays(self, tmp_path):
        cache = ResultCache("trace-int", root=tmp_path)
        first = SimJob(
            "fibo", "lua", "baseline",
            kwargs=(("check_output", False), ("n", 8)),
        )
        second = SimJob(
            "fibo", "lua", "scd",
            kwargs=(("check_output", False), ("n", 8)),
        )
        _, meta_first = execute_job(first, cache)
        _, meta_second = execute_job(second, cache)
        assert meta_first["replayed"] is False
        assert meta_second["replayed"] is True
        # Guest time is paid by the recording job only.
        assert meta_first["guest_s"] > 0
        assert meta_second["guest_s"] == 0.0
        result, _ = execute_job(second, cache)
        pure = simulate(
            "fibo", vm="lua", scheme="scd", n=8, check_output=False,
        )
        assert result == pure

    def test_store_round_trips_through_disk(self, store):
        trace = _record_trace(store, LOOP_SRC)
        fresh = TraceStore(root=store.root)
        again = fresh.get(trace.key)
        assert again is not None
        assert list(again.columns["ops"]) == list(trace.columns["ops"])
        assert fresh.hits == 1 and fresh.misses == 0
