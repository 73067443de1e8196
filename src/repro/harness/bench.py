"""Shared benchmark grid and guard-floor constants.

Single source of truth for the perf-smoke suite
(``benchmarks/test_perf_smoke.py``) and ``scd-repro bench``: both used to
carry their own copies of the measurement grid and the regression floors,
which let them drift apart — the CLI could pass a floor the suite never
measured, or vice versa.  The grid builders live here (not the ``SimJob``
tuples themselves) so importing this module stays cheap and side-effect
free.
"""

from __future__ import annotations

from repro.harness.parallel import SimJob

#: Extremely generous floor — store-less simulate does ~60k events/s and
#: warm trace replay ~375k events/s on a single 2020s laptop core with
#: the exec-compiled kernels; anything under this means the hot path
#: regressed by an order of magnitude (or the runner is pathological,
#: in which case set SCD_SKIP_PERF_GUARD=1).
MIN_EVENTS_PER_S = 8000.0

#: A warm trace-cache sweep must beat re-interpreting the same grid by at
#: least this factor (measured ~32x on two cores, the cold sweep's
#: memos already persisted; the floor leaves room for slow runners).
MIN_TRACE_SPEEDUP = 4.0

#: Warm replay with compiled kernels must beat the interpreted
#: event-by-event path by at least this factor (measured ~2x without the
#: memo, more with it; generous floor for slow runners).
MIN_KERNEL_SPEEDUP = 1.3

#: Chunk-compiled batch (superblock) replay must beat the per-event
#: kernel path by at least this factor (measured ~1.6x on the TRACE_GRID
#: with cold memos; generous floor for slow runners).
MIN_BATCH_SPEEDUP = 1.25

#: The ``guard`` section of BENCH_dispatch.json — written by the
#: perf-smoke suite, enforced by ``scd-repro bench``.
GUARD_FLOORS = {
    "min_events_per_s": MIN_EVENTS_PER_S,
    "min_trace_speedup": MIN_TRACE_SPEEDUP,
    "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
    "min_batch_speedup": MIN_BATCH_SPEEDUP,
}

#: ``scd-repro bench`` check rows: (label, bench section, section field,
#: guard-floor key).  Every floor in :data:`GUARD_FLOORS` is referenced
#: by at least one row, so a new floor cannot be silently unenforced.
BENCH_CHECKS = (
    ("hot path events/s",
     "hot_path", "events_per_s", "min_events_per_s"),
    ("trace replay events/s",
     "trace_replay", "replay_events_per_s", "min_events_per_s"),
    ("warm-over-cold speedup",
     "trace_replay", "speedup_warm_over_cold", "min_trace_speedup"),
    ("kernel-over-interpreted speedup",
     "kernel_replay", "speedup_kernel_over_interpreted",
     "min_kernel_speedup"),
    ("batch-over-kernel speedup",
     "batch_replay", "speedup_batch_over_kernel", "min_batch_speedup"),
)

#: The 4 workloads x 2 schemes measured by both benchmark grids.
GRID_WORKLOADS = ("fibo", "n-sieve", "random", "pidigits")
GRID_SCHEMES = ("baseline", "scd")

#: Input size for the cold-cache fan-out grid (small on purpose: the
#: grid measures harness overhead, not guest steady state).
GRID_N = 10

#: Steady-state input sizes for the trace-replay grids: long enough that
#: the guest-interpretation cost the trace cache removes — and, on
#: ``random``, the steady-state memo — actually shows.  ``random`` runs
#: >100 loop iterations per 4096-event memo chunk, so the memo engages
#: after its first key lap; the other three are recursion/array/bignum
#: shaped and exercise the plain replay path.
TRACE_NS = {"fibo": 14, "n-sieve": 200, "random": 24000, "pidigits": 40}


def perf_grid() -> tuple:
    """The 8-point cold-cache fan-out grid (``GRID`` in the suite)."""
    return tuple(
        SimJob(w, "lua", scheme,
               kwargs=(("check_output", False), ("n", GRID_N)))
        for w in GRID_WORKLOADS
        for scheme in GRID_SCHEMES
    )


def trace_grid() -> tuple:
    """The same 8 (workload, scheme) points at steady-state input sizes
    (``TRACE_GRID`` in the suite)."""
    return tuple(
        SimJob(w, "lua", scheme,
               kwargs=(("check_output", False), ("n", TRACE_NS[w])))
        for w in GRID_WORKLOADS
        for scheme in GRID_SCHEMES
    )
