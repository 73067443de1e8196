"""Tests for the exec-compiled replay kernels and the persistent memo.

The compiled-kernel contract is byte-identity: for every scheme, VM,
context-switch setting and memo mode, a run with kernels enabled must
produce exactly the SimResult of the interpreted event-by-event path.
The persistence contract is that a memo table exported by one process
binds and fires in a fresh process (fresh model-object identities) with
identical results — and that corruption of a persisted shard reads as a
quarantined miss, never as a wrong answer.
"""

import os
import subprocess
import sys

import pytest

from repro.core.simulation import SCHEMES, simulate
from repro.harness.cache import MemoStore, TraceStore, memo_key
from repro.native import kernel as kernel_mod
from repro.native.model import ModelRunner, get_model
from repro.uarch.config import cortex_a5
from repro.uarch.pipeline import MEMO_FORMAT_VERSION, Machine
from repro.vm.capture import MEMO_CHUNK_EVENTS, trace_key

ALL_SCHEMES = SCHEMES + ("ttc", "cascaded", "ittage", "superinst")

#: Long scalar loop: >28k events so the steady-state memo (4096-event
#: chunks) engages and the kernels see steady-state dispatch.
LOOP_SRC = 'var i = 0;\nwhile (i < 5000) { i = i + 1; }\nprint("done " .. i);\n'

#: Mixed control flow: calls, branches and builtins exercise every
#: kernel template kind (plain, branchy, workloop, callout).
CALL_SRC = (
    'fn f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); }\n'
    'print("fib " .. f(12));\n'
)


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


class TestKernelIdentity:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("vm", ("lua", "js"))
    def test_live_identity(self, scheme, vm):
        """Kernel-on live simulation equals the interpreted path."""
        on = simulate("loop", vm=vm, scheme=scheme, source=LOOP_SRC,
                      use_kernel=True)
        off = simulate("loop", vm=vm, scheme=scheme, source=LOOP_SRC,
                       use_kernel=False)
        assert _sig(on) == _sig(off)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("memo", (True, False))
    def test_replay_identity(self, tmp_path, scheme, memo):
        """Kernel-on trace replay (memo on and off) equals interpreted."""
        store = TraceStore(root=tmp_path)
        simulate("loop", vm="lua", scheme="baseline", source=LOOP_SRC,
                 trace_store=store, trace_mode="record", use_kernel=False)
        results = [
            simulate("loop", vm="lua", scheme=scheme, source=LOOP_SRC,
                     trace_store=store, trace_mode="replay",
                     replay_memo=memo, use_kernel=enabled)
            for enabled in (True, False)
        ]
        assert _sig(results[0]) == _sig(results[1])

    @pytest.mark.parametrize("vm", ("lua", "js"))
    def test_context_switch_identity(self, vm):
        """The OS-interaction model (periodic flushes) stays identical."""
        on = simulate("loop", vm=vm, scheme="scd", source=CALL_SRC,
                      context_switch_interval=100, use_kernel=True)
        off = simulate("loop", vm=vm, scheme="scd", source=CALL_SRC,
                       context_switch_interval=100, use_kernel=False)
        assert _sig(on) == _sig(off)

    def test_kernel_events_dominate(self):
        """The compiled table actually handles the hot path: kernel-run
        events dwarf interpreted fallbacks on a steady loop."""
        meta: dict = {}
        simulate("loop", vm="lua", scheme="scd", source=LOOP_SRC,
                 use_kernel=True, metrics=meta)
        assert meta["kernel_events"] > 0
        assert meta["kernel_events"] > 10 * meta["fallback_events"]

    def test_kernel_binds_only_plain_machines(self):
        """Instrumented Machine subclasses (the verify oracle) must keep
        the interpreted path: kernels inline Machine internals."""

        class Probe(Machine):
            pass

        model = get_model("lua", "scd")
        runner = ModelRunner(model, Probe(cortex_a5()), use_kernel=True)
        assert runner.kernel is None
        runner = ModelRunner(model, Machine(cortex_a5()), use_kernel=True)
        assert runner.kernel is not None


class TestMemoPersistence:
    def _run(self, tmp_path, metrics):
        store = TraceStore(root=tmp_path)
        memos = MemoStore(root=tmp_path)
        simulate("loop", vm="lua", scheme="scd", source=LOOP_SRC,
                 trace_store=store, trace_mode="auto")
        return simulate("loop", vm="lua", scheme="scd", source=LOOP_SRC,
                        trace_store=store, trace_mode="replay",
                        memo_store=memos, metrics=metrics)

    def test_memo_round_trip(self, tmp_path):
        """A second store instance imports the first run's table and
        skips its warm-up chunks, with identical results."""
        m1: dict = {}
        m2: dict = {}
        r1 = self._run(tmp_path, m1)
        r2 = self._run(tmp_path, m2)
        assert m1["memo_loaded"] == 0
        assert m2["memo_loaded"] > 0
        assert m2["memo_hits"] > m1["memo_hits"]
        assert _sig(r1) == _sig(r2)

    def test_cross_process_persistence(self, tmp_path):
        """A fresh process (fresh model-object identities) binds the
        persisted table through the codec and converges faster."""
        script = (
            "import sys\n"
            "from repro.core.simulation import simulate\n"
            "from repro.harness.cache import MemoStore, TraceStore\n"
            f"SRC = {LOOP_SRC!r}\n"
            "store = TraceStore(root=sys.argv[1])\n"
            "memos = MemoStore(root=sys.argv[1])\n"
            "simulate('loop', vm='lua', scheme='scd', source=SRC,\n"
            "         trace_store=store, trace_mode='auto')\n"
            "m = {}\n"
            "r = simulate('loop', vm='lua', scheme='scd', source=SRC,\n"
            "             trace_store=store, trace_mode='replay',\n"
            "             memo_store=memos, metrics=m)\n"
            "print(m.get('memo_hits', 0), m.get('memo_loaded', 0), r.cycles)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        lines = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True, text=True, env=env, check=True,
            )
            lines.append(proc.stdout.split())
        hits1, loaded1, cycles1 = map(int, lines[0])
        hits2, loaded2, cycles2 = map(int, lines[1])
        assert loaded1 == 0
        assert loaded2 > 0
        assert hits2 > hits1
        assert cycles1 == cycles2

    def test_key_embeds_version_and_structure(self):
        config = cortex_a5()
        key = memo_key(
            trace_key("lua", LOOP_SRC, 100), "scd", config, None, "flush",
            get_model("lua", "scd").structure_digest(), MEMO_CHUNK_EVENTS,
        )
        assert f"v{MEMO_FORMAT_VERSION}" in key
        assert get_model("lua", "scd").structure_digest() in key
        other = memo_key(
            trace_key("lua", LOOP_SRC, 100), "scd", config, 100, "flush",
            get_model("lua", "scd").structure_digest(), MEMO_CHUNK_EVENTS,
        )
        assert key != other

    def test_corrupt_shard_quarantined(self, tmp_path):
        """Bit-flipped persisted memos read as misses and move to
        quarantine; the replay still runs and stays correct."""
        m1: dict = {}
        reference = self._run(tmp_path, m1)
        memos = MemoStore(root=tmp_path)
        shards = list(memos.path.glob("*.bin"))
        assert shards
        for shard in shards:
            blob = bytearray(shard.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            shard.write_bytes(bytes(blob))
        m2: dict = {}
        result = simulate(
            "loop", vm="lua", scheme="scd", source=LOOP_SRC,
            trace_store=TraceStore(root=tmp_path), trace_mode="replay",
            memo_store=memos, metrics=m2,
        )
        assert m2["memo_loaded"] == 0
        assert _sig(result) == _sig(reference)
        quarantine = memos.root / "quarantine" / memos.name
        assert list(quarantine.glob("*.bin"))
        assert list(quarantine.glob("*.reason.txt"))

    def test_truncated_shard_quarantined(self, tmp_path):
        self._run(tmp_path, {})
        memos = MemoStore(root=tmp_path)
        shard = next(iter(memos.path.glob("*.bin")))
        shard.write_bytes(shard.read_bytes()[:4])
        assert memos.get("no-such-key") is None  # plain miss, not quarantine
        # The key hashing to this shard is not reconstructable here, so
        # exercise the frame validation the store runs on read directly.
        from repro.uarch.pipeline import MemoFormatError, check_memo_frame

        with pytest.raises(MemoFormatError):
            check_memo_frame(shard.read_bytes())


class TestCompiledShape:
    def test_shape_keys_compilation_cache(self):
        """Two machines with different predictors get different shapes,
        so kernels are never shared across incompatible configs."""
        model = get_model("lua", "scd")
        a5 = Machine(cortex_a5())
        runner = ModelRunner(model, a5, use_kernel=True)
        shape = runner.kernel._shape()
        fpga = Machine(cortex_a5().with_changes(
            direction_predictor="bimodal",
            predictor_params={"entries": 128},
        ))
        runner_fpga = ModelRunner(model, fpga, use_kernel=True)
        assert shape != runner_fpga.kernel._shape()

    def test_compile_cache_is_shared(self):
        """Identical (vm, strategy, op, site, shape) hits the process-wide
        lru cache instead of re-exec-ing source."""
        info_before = kernel_mod._compiled_kernel.cache_info()
        simulate("loop", vm="lua", scheme="scd", source=LOOP_SRC,
                 use_kernel=True)
        mid = kernel_mod._compiled_kernel.cache_info()
        assert mid.misses >= info_before.misses
        simulate("loop", vm="lua", scheme="scd", source=LOOP_SRC,
                 use_kernel=True)
        after = kernel_mod._compiled_kernel.cache_info()
        assert after.misses == mid.misses
        assert after.hits > mid.hits
