"""Telemetry-driven regression checking against ``BENCH_dispatch.json``.

The perf-smoke suite (``benchmarks/test_perf_smoke.py``) refreshes
``BENCH_dispatch.json`` with the host's reference throughput numbers.
This module diffs a live run's :class:`~repro.harness.parallel.
ThroughputMetrics` against that baseline and renders the "Telemetry"
section of the generated report, so a sweep that got slower says so in
the same document that shows its figures.

Verdicts are deliberately coarse: ``ok`` (at or above the guard floor),
``REGRESSED`` (below it — the same floor the perf smoke enforces), and
``n/a`` (this run did no comparable work, e.g. everything was cached).
Rate comparisons against the recorded reference are informational — the
reference was measured on some other host — but the guard floor is
portable by construction.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Environment override for the benchmark-baseline location.
BENCH_ENV = "SCD_BENCH_PATH"

#: Default baseline file name, searched in cwd and the repo root.
BENCH_NAME = "BENCH_dispatch.json"


def find_bench(path: str | Path | None = None) -> Path | None:
    """Locate the benchmark baseline: explicit arg, ``SCD_BENCH_PATH``,
    the working directory, then the repository root (when running from a
    source checkout).  Returns ``None`` when nowhere to be found."""
    candidates = []
    if path is not None:
        candidates.append(Path(path))
    env = os.environ.get(BENCH_ENV)
    if env:
        candidates.append(Path(env))
    candidates.append(Path.cwd() / BENCH_NAME)
    candidates.append(Path(__file__).resolve().parents[3] / BENCH_NAME)
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def load_bench(path: str | Path | None = None) -> dict | None:
    """Parse the baseline, or ``None`` when missing/corrupt (a telemetry
    section without a baseline column beats a crashed report)."""
    found = find_bench(path)
    if found is None:
        return None
    try:
        return json.loads(found.read_text())
    except (OSError, ValueError):
        return None


def _rate(events: float, wall_s: float) -> float | None:
    return events / wall_s if events and wall_s > 0 else None


def telemetry_diff(metrics, bench: dict | None) -> list[dict]:
    """Rows of ``{metric, measured, reference, verdict}`` for this run.

    *metrics* is a :class:`~repro.harness.parallel.ThroughputMetrics`;
    *bench* the parsed ``BENCH_dispatch.json`` (or ``None``)."""
    bench = bench or {}
    guard_floor = bench.get("guard", {}).get("min_events_per_s")
    hot_rate = bench.get("hot_path", {}).get("events_per_s")
    replay_ref = bench.get("trace_replay", {}).get("replay_events_per_s")

    rows = []
    sim_rate = _rate(metrics.events, metrics.sim_wall_s)
    verdict = "n/a"
    if sim_rate is not None and guard_floor:
        verdict = "ok" if sim_rate >= guard_floor else "REGRESSED"
    rows.append(
        {
            "metric": "simulation events/s",
            "measured": sim_rate,
            "reference": hot_rate,
            "verdict": verdict,
        }
    )

    # Guest interpretation alone: no baseline number times that.
    interp_rate = _rate(metrics.events_interpreted, metrics.guest_s)
    rows.append(
        {
            "metric": "interpreted events/s",
            "measured": interp_rate,
            "reference": None,
            "verdict": "n/a" if interp_rate is None else "ok",
        }
    )

    replay_rate = _rate(metrics.events_replayed, metrics.replay_wall_s)
    rows.append(
        {
            "metric": "replayed events/s",
            "measured": replay_rate,
            "reference": replay_ref,
            "verdict": "n/a" if replay_rate is None else "ok",
        }
    )

    # Kernel- and batch-replay floors: the measured column is this run's
    # replayed rate attributed to each tier (they share the replay wall
    # clock, so rates are indicative); the verdict checks the *recorded*
    # baseline speedup against its guard floor, which is portable.
    kernel = bench.get("kernel_replay", {})
    kernel_floor = bench.get("guard", {}).get("min_kernel_speedup")
    kernel_rate = _rate(metrics.kernel_events, metrics.replay_wall_s)
    verdict = "n/a"
    if kernel_rate is not None:
        speedup = kernel.get("speedup_kernel_over_interpreted")
        verdict = "ok"
        if kernel_floor and speedup is not None and speedup < kernel_floor:
            verdict = "REGRESSED"
    rows.append(
        {
            "metric": "kernel replay events/s",
            "measured": kernel_rate,
            "reference": kernel.get("replay_events_per_s_kernel_on"),
            "verdict": verdict,
        }
    )

    batch = bench.get("batch_replay", {})
    batch_floor = bench.get("guard", {}).get("min_batch_speedup")
    batch_rate = _rate(metrics.batch_events, metrics.replay_wall_s)
    verdict = "n/a"
    if batch_rate is not None:
        speedup = batch.get("speedup_batch_over_kernel")
        verdict = "ok"
        if batch_floor and speedup is not None and speedup < batch_floor:
            verdict = "REGRESSED"
    rows.append(
        {
            "metric": "batch replay events/s",
            "measured": batch_rate,
            "reference": batch.get("replay_events_per_s_batch_on"),
            "verdict": verdict,
        }
    )
    return rows


def _fmt_rate(value: float | None) -> str:
    return "n/a" if value is None else f"{value:,.0f}"


def render_telemetry_section(
    metrics, wall_s: float | None = None, bench_path: str | Path | None = None
) -> str:
    """The report's "## Telemetry" section body (without the header)."""
    from repro.harness.tables import format_table

    bench = load_bench(bench_path)
    rows = [
        [
            row["metric"],
            _fmt_rate(row["measured"]),
            _fmt_rate(row["reference"]),
            row["verdict"],
        ]
        for row in telemetry_diff(metrics, bench)
    ]
    table = format_table(
        ["throughput", "this run", "baseline", "verdict"],
        rows,
        aligns=["l", "r", "r", "l"],
    )
    lines = [
        f"This regeneration ran {metrics.sims} simulation(s) and served "
        f"{metrics.cache_hits} grid point(s) from cache"
        + (f" in {wall_s:.2f}s." if wall_s is not None else "."),
        "",
        table,
    ]
    if bench is None:
        lines.append(
            f"\n(no {BENCH_NAME} baseline found; run "
            "`python -m pytest benchmarks/test_perf_smoke.py` to create one)"
        )
    return "\n".join(lines)
