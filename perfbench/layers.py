"""Per-layer metrics of one traced pass, from its spans and counters.

A span's *self time* is its duration minus the time covered by its
child spans, in its own process or in a pool worker it waits on.  Times
are host seconds; counts and ratios come from the pass's
``ThroughputMetrics`` counters, which the program measures where the
work happens.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from tracing import LAYER_NAMES, layer_of

STORES = ("results", "traces", "memos")


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, label)``; with ten or fewer samples no such
    percentile exists and the maximum is returned, labelled ``max``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _union(intervals) -> float:
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def self_times(spans) -> dict:
    """Layer -> summed self time over every process's spans.

    Children in a forked worker are subtracted too (as the union of their
    intervals), so a ``run_jobs`` span keeps only the time no job ran:
    pool start-up, dispatch and shutdown, not the wait on workers.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for span in spans:
        if span["parent"] in by_id:
            children[span["parent"]].append((span["start"], span["end"]))
    totals = dict.fromkeys(LAYER_NAMES, 0.0)
    for span in spans:
        own = span["end"] - span["start"] - _union(children[span["id"]])
        totals[layer_of(span["name"])] += own
    return totals


def pass_metrics(record, workers: int, service: bool) -> dict:
    """Every per-layer metric of one traced pass, keyed by metric name."""
    spans = record.spans
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def total(name):
        return sum(s["end"] - s["start"] for s in named[name])

    c = record.counters
    events = c.get("events", 0)
    sims = sorted(s["end"] - s["start"] for s in named["simulate"])
    vm_run_s = total("vm.run")
    replay_s = total("capture.replay")
    m = {
        "simulate.calls": len(sims),
        "simulate.p50_s": statistics.median(sims) if sims else 0.0,
        "simulate.tail_s": tail(sims)[0] if sims else 0.0,
        "vm.compile_s": total("vm.compile"),
        "vm.run_s": vm_run_s,
        "vm.events_per_s": ratio(c.get("events_interpreted", 0), vm_run_s),
        "capture.seal_s": total("capture.seal"),
        "capture.replay_s": replay_s,
        "capture.replay_events_per_s": ratio(
            c.get("events_replayed", 0), replay_s
        ),
        "capture.share_interpreted": ratio(
            c.get("events_interpreted", 0), events
        ),
        "capture.share_replayed": ratio(c.get("events_replayed", 0), events),
        "native.get_model_s": total("native.get_model"),
        "native.batch_plan_s": total("native.batch_plan"),
        "native.kernel_share": ratio(c.get("kernel_events", 0), events),
        "native.batch_share": ratio(c.get("batch_events", 0), events),
        "native.fallback_events": c.get("fallback_events", 0),
        "native.superblocks": c.get("superblocks", 0),
        "memo.share_skipped": ratio(c.get("memo_events", 0), events),
        "memo.entries_loaded": c.get("memo_loaded", 0),
        "memo.import_s": total("memo.import"),
        "memo.export_s": total("memo.export"),
        "cache.quarantined": c.get("quarantined", 0),
    }
    for store in STORES:
        gets = named[f"cache.{store}.get"]
        hits = sum(1 for s in gets if s["hit"])
        m[f"cache.{store}.get_s"] = total(f"cache.{store}.get")
        m[f"cache.{store}.put_s"] = total(f"cache.{store}.put")
        m[f"cache.{store}.hits"] = hits
        m[f"cache.{store}.hit_ratio"] = ratio(hits, len(gets))
    for store in ("traces", "memos"):
        m[f"cache.{store}.bytes_written"] = sum(
            s["bytes"] for s in named[f"cache.{store}.put"]
        )

    run_jobs = named["parallel.run_jobs"]
    run_jobs_s = total("parallel.run_jobs")
    jobs_under = defaultdict(list)
    for span in named["parallel.execute_job"]:
        jobs_under[span["parent"]].append((span["start"], span["end"]))
    m["parallel.run_jobs_s"] = run_jobs_s
    m["parallel.efficiency"] = ratio(sum(sims), workers * run_jobs_s)
    m["parallel.pool_overhead_s"] = sum(
        (r["end"] - r["start"]) - _union(jobs_under[r["id"]])
        for r in run_jobs
    )
    for name in ("retries", "timeouts", "worker_deaths"):
        m[f"parallel.{name}"] = c.get(name, 0)

    # The last batch's pool shutdown can outlast the pass clock: count
    # only batch time inside it.
    end = record.start + record.wall
    batch_s = sum(
        max(0.0, min(r["end"], end) - r["start"]) for r in run_jobs
    ) if service else 0.0
    m["service.batches"] = record.batches if service else 0
    m["service.batch_s"] = batch_s
    m["service.overhead_share"] = (
        1.0 - ratio(batch_s, record.wall) if service else 0.0
    )
    m["service.shared_ratio"] = ratio(
        record.deduped + c.get("cache_hits", 0), record.submitted
    )
    m["service.sims_per_unique_key"] = ratio(c.get("sims", 0), record.unique)
    m["service.rejections"] = record.rejections

    for layer, seconds in self_times(spans).items():
        m[f"layer.{layer}.self_s"] = seconds
    me = os.getpid()
    top = [
        (s["start"], s["end"]) for s in spans
        if s["pid"] == me and s["parent"] is None
    ]
    m["trace.accounted_share"] = ratio(_union(top), record.wall)
    return m


def uarch_metrics(totals: dict) -> dict:
    """The simulated ``uarch.*`` metrics from summed component counters."""
    instructions = totals["instructions"]
    return {
        "uarch.cycles": totals["cycles"],
        "uarch.instructions": instructions,
        "uarch.branch_mpki": ratio(
            1000.0 * totals["branch_mispredicts"], instructions
        ),
        "uarch.icache_mpki": ratio(
            1000.0 * totals["icache_misses"], instructions
        ),
        "uarch.bop_hit_ratio": ratio(
            totals["bop_hits"], totals["bop_hits"] + totals["bop_misses"]
        ),
        "uarch.btb.hits": totals["btb_hits"],
        "uarch.btb.misses": totals["btb_misses"],
        "uarch.btb.install_blocked": totals["btb_install_blocked"],
        "uarch.btb.late_hits": totals["btb_late_hits"],
        "uarch.btb.level0_hits": totals["btb_level0_hits"],
        "uarch.btb.level1_hits": totals["btb_level1_hits"],
    }
