"""Dispatch-throughput smoke benchmark and regression guard.

Measures the replay hot path (events/sec through ``simulate``), the
cold-cache wall time of a small grid at ``-j 1`` vs ``-j 4``, and the
cold-record vs warm-replay wall time of a trace-cached sweep; writes the
numbers to ``BENCH_dispatch.json`` at the repo root, and asserts
*generous* floors (events/sec, trace-replay speedup) so CI catches an
order-of-magnitude regression without flaking on slow runners.  Set
``SCD_SKIP_PERF_GUARD=1`` to record numbers without asserting (e.g.
under coverage or emulation).

Run explicitly (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest -q benchmarks/test_perf_smoke.py
"""

import json
import os
import time
from pathlib import Path

from repro.core.simulation import simulate
from repro.harness.bench import (
    GUARD_FLOORS,
    MIN_BATCH_SPEEDUP,
    MIN_EVENTS_PER_S,
    MIN_KERNEL_SPEEDUP,
    MIN_TRACE_SPEEDUP,
    perf_grid,
    trace_grid,
)
from repro.harness.cache import ResultCache
from repro.harness.parallel import METRICS, SimJob, run_jobs
from repro.vm.capture import set_default_trace_mode

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_dispatch.json"


def _update_bench(section: str, payload: dict) -> None:
    """Merge one section into BENCH_dispatch.json (tests are independent)."""
    record = {}
    if BENCH_PATH.exists():
        try:
            record = json.loads(BENCH_PATH.read_text())
        except ValueError:
            record = {}
    record[section] = payload
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")


# Grids and guard floors are shared with `scd-repro bench` via
# repro.harness.bench — the single source of truth for both.
GRID = perf_grid()
TRACE_GRID = trace_grid()


def _grid_wall(workers: int, root: Path) -> float:
    cache = ResultCache(f"perf-j{workers}", root=root)
    start = time.perf_counter()
    run_jobs(GRID, workers=workers, cache=cache)
    return time.perf_counter() - start


def test_dispatch_throughput_guard(tmp_path):
    # Warm the model assembly so we measure replay, not setup.
    simulate("n-body", vm="lua", scheme="scd", n=50, check_output=False)

    metrics: dict = {}
    simulate("n-body", vm="lua", scheme="scd", scale="sim", metrics=metrics)

    wall_j1 = _grid_wall(1, tmp_path)
    wall_j4 = _grid_wall(4, tmp_path)

    _update_bench("hot_path", {
        "workload": "n-body (lua, scd, sim scale)",
        "events": metrics["events"],
        "wall_s": round(metrics["wall_s"], 3),
        "events_per_s": round(metrics["events_per_s"], 1),
        "sims_per_s": round(1.0 / metrics["wall_s"], 3),
    })
    _update_bench("fanout_cold_cache", {
        "grid_points": len(GRID),
        "wall_s_j1": round(wall_j1, 3),
        "wall_s_j4": round(wall_j4, 3),
        "speedup_j4_over_j1": round(wall_j1 / wall_j4, 3),
        "cpu_count": os.cpu_count(),
    })
    _update_bench("guard", {
        **GUARD_FLOORS,
        "skipped": bool(os.environ.get("SCD_SKIP_PERF_GUARD")),
    })

    if os.environ.get("SCD_SKIP_PERF_GUARD"):
        return
    assert metrics["events_per_s"] >= MIN_EVENTS_PER_S, (
        f"replay hot path regressed: {metrics['events_per_s']:.0f} events/s "
        f"< {MIN_EVENTS_PER_S:.0f} (see {BENCH_PATH.name})"
    )


def test_trace_replay_speedup(tmp_path):
    """Cold-record vs warm-replay sweep over the 8-point TRACE_GRID.

    The cold sweep interprets every grid point into a trace, stores it
    and times it by replaying it, persisting the steady-state memos that
    replay learns; the warm sweep resolves the same points from the
    recorded traces and imports those memos (distinct result-cache
    names, shared root, so result-cache hits cannot mask the
    comparison).  Asserts byte-identical results, a blended >=
    MIN_TRACE_SPEEDUP, and a replay-throughput floor.
    """
    # Warm the model assembly so the cold sweep measures interpretation.
    simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)

    try:
        METRICS.reset()
        set_default_trace_mode("record")
        start = time.perf_counter()
        cold = run_jobs(
            TRACE_GRID, workers=1,
            cache=ResultCache("perf-trace-cold", root=tmp_path),
        )
        wall_cold = time.perf_counter() - start
        events_interpreted = METRICS.events_interpreted

        METRICS.reset()
        set_default_trace_mode("replay")
        start = time.perf_counter()
        warm = run_jobs(
            TRACE_GRID, workers=1,
            cache=ResultCache("perf-trace-warm", root=tmp_path),
        )
        wall_warm = time.perf_counter() - start
        replay_rate = (
            METRICS.events_replayed / METRICS.replay_wall_s
            if METRICS.replay_wall_s > 0 else 0.0
        )
        memo_events = METRICS.memo_events

        # Second warm sweep, fresh result cache, same root: the harness
        # auto-wires a MemoStore per cache root, so like the first warm
        # sweep this one imports the memo tables the earlier sweeps
        # persisted and skips the warm-up chunks they already simulated.
        METRICS.reset()
        start = time.perf_counter()
        warm2 = run_jobs(
            TRACE_GRID, workers=1,
            cache=ResultCache("perf-trace-warm2", root=tmp_path),
        )
        wall_warm2 = time.perf_counter() - start
        replay_rate_persisted = (
            METRICS.events_replayed / METRICS.replay_wall_s
            if METRICS.replay_wall_s > 0 else 0.0
        )
        memo_loaded = METRICS.memo_loaded
    finally:
        set_default_trace_mode(None)

    # Replay must be invisible in the numbers: byte-identical stats.
    assert warm == cold
    assert warm2 == cold
    # The persisted memo actually fed the second session.
    assert memo_loaded > 0

    speedup = wall_cold / wall_warm if wall_warm > 0 else float("inf")
    _update_bench("trace_replay", {
        "grid_points": len(TRACE_GRID),
        "events": METRICS.events_replayed,
        "wall_s_cold_record": round(wall_cold, 3),
        "wall_s_warm_replay": round(wall_warm, 3),
        "wall_s_warm_replay_memo_persisted": round(wall_warm2, 3),
        "speedup_warm_over_cold": round(speedup, 3),
        "events_interpreted_cold": events_interpreted,
        "replay_events_per_s": round(replay_rate, 1),
        "replay_events_per_s_memo_persisted": round(replay_rate_persisted, 1),
        "memo_events_skipped": memo_events,
        "memo_entries_loaded": memo_loaded,
    })

    # The memo must engage on the steady-state loop points.
    assert memo_events > 0

    if os.environ.get("SCD_SKIP_PERF_GUARD"):
        return
    assert speedup >= MIN_TRACE_SPEEDUP, (
        f"warm trace replay only {speedup:.2f}x over cold interpretation "
        f"< {MIN_TRACE_SPEEDUP:.1f}x (see {BENCH_PATH.name})"
    )
    assert replay_rate >= MIN_EVENTS_PER_S, (
        f"trace replay throughput regressed: {replay_rate:.0f} events/s "
        f"< {MIN_EVENTS_PER_S:.0f} (see {BENCH_PATH.name})"
    )


def test_kernel_replay_speedup(tmp_path):
    """Warm-replay sweep with exec-compiled kernels on vs off.

    Records the TRACE_GRID once, then replays it twice — kernels enabled
    and disabled — through distinct result caches sharing one trace root.
    Asserts the two sweeps are byte-identical (the kernels' core
    contract) and that the compiled path is faster by
    ``MIN_KERNEL_SPEEDUP``; the compiled table must also have carried the
    overwhelming share of events.
    """
    simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)

    def with_kernel(enabled: bool):
        # Batch replay is pinned off on both sides so this section
        # isolates the kernel layer; test_batch_replay_speedup measures
        # the batch layer against this kernel-only baseline.
        return tuple(
            SimJob(j.workload, j.vm, j.scheme,
                   kwargs=j.kwargs
                   + (("use_kernel", enabled), ("use_batch", False)))
            for j in TRACE_GRID
        )

    # Record once, then give each sweep its own cache root with a copy of
    # the recorded traces: the harness auto-wires a MemoStore per root,
    # and a shared root would let the second sweep import the first's
    # persisted memo tables — a (welcome) warm-start that would corrupt
    # this on/off comparison.
    import shutil

    from repro.harness.cache import CACHE_VERSION

    shared = tmp_path / "shared"
    try:
        set_default_trace_mode("record")
        run_jobs(
            TRACE_GRID, workers=1,
            cache=ResultCache("perf-kernel-seed", root=shared),
        )
        traces = shared / f"v{CACHE_VERSION}" / "traces"
        for side in ("on", "off"):
            shutil.copytree(
                traces, tmp_path / side / f"v{CACHE_VERSION}" / "traces"
            )

        set_default_trace_mode("replay")
        METRICS.reset()
        start = time.perf_counter()
        kernel_on = run_jobs(
            with_kernel(True), workers=1,
            cache=ResultCache("perf-kernel-on", root=tmp_path / "on"),
        )
        wall_on = time.perf_counter() - start
        rate_on = (
            METRICS.events_replayed / METRICS.replay_wall_s
            if METRICS.replay_wall_s > 0 else 0.0
        )
        kernel_events = METRICS.kernel_events
        fallback_events = METRICS.fallback_events

        METRICS.reset()
        start = time.perf_counter()
        kernel_off = run_jobs(
            with_kernel(False), workers=1,
            cache=ResultCache("perf-kernel-off", root=tmp_path / "off"),
        )
        wall_off = time.perf_counter() - start
        rate_off = (
            METRICS.events_replayed / METRICS.replay_wall_s
            if METRICS.replay_wall_s > 0 else 0.0
        )
    finally:
        set_default_trace_mode(None)

    # The kernels' contract: byte-identical results, only faster.
    assert kernel_on == kernel_off

    speedup = wall_off / wall_on if wall_on > 0 else float("inf")
    _update_bench("kernel_replay", {
        "grid_points": len(TRACE_GRID),
        "wall_s_kernel_on": round(wall_on, 3),
        "wall_s_kernel_off": round(wall_off, 3),
        "speedup_kernel_over_interpreted": round(speedup, 3),
        "replay_events_per_s_kernel_on": round(rate_on, 1),
        "replay_events_per_s_kernel_off": round(rate_off, 1),
        "kernel_events": kernel_events,
        "fallback_events": fallback_events,
    })

    # The compiled table must carry the hot path, not the fallbacks.
    assert kernel_events > 10 * fallback_events

    if os.environ.get("SCD_SKIP_PERF_GUARD"):
        return
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"compiled kernels only {speedup:.2f}x over interpreted replay "
        f"< {MIN_KERNEL_SPEEDUP:.1f}x (see {BENCH_PATH.name})"
    )


def test_batch_replay_speedup(tmp_path):
    """Warm-replay sweep with superblock batch replay on vs off.

    Both sides run with the exec-compiled kernels enabled; the batch-on
    side additionally segments periodic trace runs into superblocks and
    replays each repetition through one chunk-compiled function.  Records
    the TRACE_GRID once, replays it through two isolated cache roots
    (copied traces, so neither side inherits the other's persisted
    steady-state memos), and asserts byte-identity plus the
    ``MIN_BATCH_SPEEDUP`` floor over the per-event kernel path.
    """
    simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)

    def with_batch(enabled: bool):
        return tuple(
            SimJob(j.workload, j.vm, j.scheme,
                   kwargs=j.kwargs + (("use_batch", enabled),))
            for j in TRACE_GRID
        )

    import shutil

    from repro.harness.cache import CACHE_VERSION

    shared = tmp_path / "shared"
    try:
        set_default_trace_mode("record")
        run_jobs(
            TRACE_GRID, workers=1,
            cache=ResultCache("perf-batch-seed", root=shared),
        )
        traces = shared / f"v{CACHE_VERSION}" / "traces"
        for side in ("on", "off"):
            shutil.copytree(
                traces, tmp_path / side / f"v{CACHE_VERSION}" / "traces"
            )

        set_default_trace_mode("replay")
        METRICS.reset()
        start = time.perf_counter()
        batch_on = run_jobs(
            with_batch(True), workers=1,
            cache=ResultCache("perf-batch-on", root=tmp_path / "on"),
        )
        wall_on = time.perf_counter() - start
        rate_on = (
            METRICS.events_replayed / METRICS.replay_wall_s
            if METRICS.replay_wall_s > 0 else 0.0
        )
        batch_events = METRICS.batch_events
        superblocks = METRICS.superblocks

        METRICS.reset()
        start = time.perf_counter()
        batch_off = run_jobs(
            with_batch(False), workers=1,
            cache=ResultCache("perf-batch-off", root=tmp_path / "off"),
        )
        wall_off = time.perf_counter() - start
        rate_off = (
            METRICS.events_replayed / METRICS.replay_wall_s
            if METRICS.replay_wall_s > 0 else 0.0
        )
    finally:
        set_default_trace_mode(None)

    # The batch layer's contract: byte-identical results, only faster.
    assert batch_on == batch_off

    speedup = wall_off / wall_on if wall_on > 0 else float("inf")
    _update_bench("batch_replay", {
        "grid_points": len(TRACE_GRID),
        "wall_s_batch_on": round(wall_on, 3),
        "wall_s_batch_off": round(wall_off, 3),
        "speedup_batch_over_kernel": round(speedup, 3),
        "replay_events_per_s_batch_on": round(rate_on, 1),
        "replay_events_per_s_batch_off": round(rate_off, 1),
        "batch_events": batch_events,
        "superblocks": superblocks,
    })

    # The superblocks must carry the steady-state share of the events.
    assert batch_events > 0
    assert superblocks > 0

    if os.environ.get("SCD_SKIP_PERF_GUARD"):
        return
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batch replay only {speedup:.2f}x over per-event kernel replay "
        f"< {MIN_BATCH_SPEEDUP:.1f}x (see {BENCH_PATH.name})"
    )
