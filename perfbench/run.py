"""The repository benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced ones (plus ``trace.overhead_pct``, the
traced vs untraced pass wall time).  Every run checks its results (see
``README.md``: correctness gate) and exits 1 if any check failed.

Human-readable lines go to stdout first; the last stdout line is the
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repeats per run; ``setup_s`` reports their median.
SETUP_REPEATS = 2

#: Passes a ``--trace 1`` run makes at least: two traced, one untraced.
MIN_TRACED_PASSES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, passes, setup_s, rss_mb) -> dict:
    """End-to-end metrics from the untraced passes."""
    from layers import tail

    timed = [p for p in passes if not p.traced]
    events = sum(p.events for p in timed)
    wall = sum(p.wall for p in timed)
    latencies = [x for p in timed for x in p.latencies]
    tail_value, tail_label = tail(latencies)
    print(f"request_tail_s is the {tail_label} request latencies")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in timed),
        "events_per_s": events / wall,
        "cpu_s_per_mevent": sum(p.cpu for p in timed) / (events / 1e6),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail_value,
        "first_result_p50_s": statistics.median(
            x for p in timed for x in p.first_results
        ),
        "peak_rss_mb": rss_mb,
        "scd_speedup_err_pp": workload.scd_err_pp,
    }


def per_layer(workload, passes) -> dict:
    """Per-layer metrics: the mean over traced passes, plus the simulated
    ``uarch.*`` totals and the tracing overhead."""
    from layers import pass_metrics, uarch_metrics
    from workloads import WORKERS, ServiceOverlap

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    service = isinstance(workload, ServiceOverlap)
    rows = [pass_metrics(p, WORKERS, service) for p in traced]
    metrics = {
        name: statistics.fmean(row[name] for row in rows) for name in rows[0]
    }
    metrics.update(uarch_metrics(workload.uarch))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced) - 1.0
    )
    return metrics


def summarize(passes) -> None:
    """Print each workload property share and the clean-start report."""
    counters = [p.counters for p in passes]

    def share(name):
        events = sum(c.get("events", 0) for c in counters)
        return sum(c.get(name, 0) for c in counters) / events if events else 0.0

    submitted = sum(p.submitted for p in passes)
    shared = sum(p.deduped + p.counters.get("cache_hits", 0) for p in passes)
    print(
        "property shares of events: "
        f"interpreted {share('events_interpreted'):.4f}, "
        f"replayed {share('events_replayed'):.4f}, "
        f"memo-skipped {share('memo_events'):.4f}, "
        f"batch-executed {share('batch_events'):.4f}; "
        f"service.shared_ratio {shared / submitted if submitted else 0:.4f}"
    )
    for index, p in enumerate(passes):
        print(
            f"pass {index}{' (traced)' if p.traced else ''}: "
            f"wall {p.wall:.3f} s, {p.events} events, "
            f"cache hits seen: results {p.counters.get('cache_hits', 0)}, "
            f"trace-replayed events {p.counters.get('events_replayed', 0)}, "
            f"memo entries loaded {p.counters.get('memo_loaded', 0)}"
        )


def run_all(args) -> int:
    """``--workload all``: every workload in turn, each in its own process
    with the same seed, seconds and trace setting; fails if any fails."""
    import subprocess

    from workloads import WORKLOADS

    codes = [
        subprocess.run([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]).returncode
        for name in WORKLOADS
    ]
    return next((code for code in codes if code), 0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        sys.path[:0] = [str(SRC), str(HERE)]
        return run_all(args)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # Keep every default cache location of the program inside the checkout.
    os.environ["SCD_REPRO_CACHE_DIR"] = str(work / "default-cache")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    import_s = perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr,
        )
        return 2
    # BENCHMARK.json names every metric and its unit, for both modes;
    # provenance.json must say what each per-layer metric should move.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    moves = json.loads((HERE / "provenance.json").read_text())["per_layer"]
    if set(moves) != {m["name"] for m in declared["per_layer"]}:
        print("error: provenance.json and BENCHMARK.json disagree on the "
              "per-layer metrics", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, work, tracer)
    min_passes = workload.min_passes
    if tracer is not None:
        min_passes = max(min_passes, MIN_TRACED_PASSES)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.prepare()
            setups.append(perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        setup_spans = tracer.drain() if tracer is not None else []
        passes = []
        timed_start = perf_counter()
        while (
            len(passes) < min_passes
            or perf_counter() - timed_start < args.seconds
        ):
            traced = tracer is not None and len(passes) % 2 == 0
            if tracer is not None and traced != tracer.installed:
                (tracer.install if traced else tracer.uninstall)()
            passes.append(workload.run_pass(len(passes), traced))
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        rss_mb = workloads.peak_rss_mb()
        attempted = workload.check(passes)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes")
    summarize(passes)
    failed = len(workload.failures)
    for failure in workload.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"error_rate {failed / attempted:.6f} ratio ({failed}/{attempted})")
    if failed:
        print(json.dumps({
            "correct": False, "attempted": attempted, "failed": failed,
            "metrics": {},
        }))
        return 1
    if args.trace:
        metrics = per_layer(workload, passes)
        metrics["native.get_model_s"] += sum(
            s["end"] - s["start"] for s in setup_spans
            if s["name"] == "native.get_model"
        ) / SETUP_REPEATS
    else:
        metrics = end_to_end(workload, passes, setup_s, rss_mb)
    if set(metrics) != set(units):
        stray = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {stray}")
    print(
        "scd_speedup_err_pp is measured against the paper's published "
        "Figure 7 geomeans only: the repository holds no hardware reference."
    )
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
