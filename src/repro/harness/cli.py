"""Command-line interface: ``python -m repro.harness <experiment>``.

Commands::

    scd-repro list                 # available experiments / workloads
    scd-repro run fibo --vm lua --scheme scd
    scd-repro figure7              # any experiment id from the registry
    scd-repro all                  # every experiment, in paper order
    scd-repro report               # regenerate EXPERIMENTS.md content
    scd-repro profile fibo         # bytecode + uarch profile of one workload
    scd-repro bench                # BENCH_dispatch.json vs its guard floors
    scd-repro bench --update       # regenerate it from the perf-smoke grid
    scd-repro corpus build --seed 7 --size 256   # stratified corpus + manifest
    scd-repro corpus run -j2       # batch-run it with per-file accounting
    scd-repro corpus report        # stratified geomeans + MPKI percentiles
    scd-repro clear-cache
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.core.simulation import SCHEMES, simulate
from repro.harness import faults
from repro.harness.cache import (
    DEFAULT_CACHE,
    DEFAULT_MEMO_STORE,
    DEFAULT_TRACE_STORE,
)
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.parallel import (
    METRICS,
    resolve_job_timeout,
    set_default_job_timeout,
    set_default_retries,
    set_default_workers,
)
from repro.uarch.config import CONFIG_PRESETS
from repro.vm.capture import set_default_trace_mode
from repro.workloads import workload_names


def _cmd_list(_args) -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("\nworkloads:")
    for name in workload_names():
        print(f"  {name}")
    print(
        f"\nschemes: {', '.join(SCHEMES)} "
        "(+ ttc, cascaded, ittage, superinst)"
    )
    print(f"machines: {', '.join(CONFIG_PRESETS)}")
    return 0


def _cmd_run(args) -> int:
    config = CONFIG_PRESETS[args.machine]()
    result = simulate(
        args.workload,
        vm=args.vm,
        scheme=args.scheme,
        config=config,
        scale=args.scale,
    )
    print(f"{args.vm}/{args.workload}/{args.scheme} on {args.machine}:")
    print(f"  guest bytecodes : {result.guest_steps}")
    print(f"  host insts      : {result.instructions}")
    print(f"  cycles          : {result.cycles}  (CPI {result.cpi:.3f})")
    print(f"  branch MPKI     : {result.branch_mpki:.2f}")
    print(f"  icache MPKI     : {result.icache_mpki:.2f}")
    print(f"  dispatch frac   : {result.dispatch_fraction * 100:.1f}%")
    if result.bop_hits or result.bop_misses:
        print(f"  bop hit rate    : {result.bop_hit_rate * 100:.2f}%")
    if args.show_output:
        print("  guest output:")
        for line in result.output:
            print(f"    {line}")
    return 0


def _cmd_experiment(name: str, geometry: str | None = None) -> int:
    METRICS.reset()
    start = time.perf_counter()
    if geometry is not None:
        result = run_experiment(name, geometry=geometry)
    else:
        result = run_experiment(name)
    print(result.text)
    print(METRICS.summary(time.perf_counter() - start), file=sys.stderr)
    return 0


def _cmd_all(_args) -> int:
    METRICS.reset()
    start = time.perf_counter()
    for name in EXPERIMENTS:
        print(f"=== {name} " + "=" * max(0, 66 - len(name)))
        print(run_experiment(name).text)
        print()
    print(METRICS.summary(time.perf_counter() - start), file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from repro.harness.report import generate_report

    METRICS.reset()
    start = time.perf_counter()
    print(generate_report(corpus=getattr(args, "corpus", None)))
    # The summary's "trace reuse" part shows the per-sweep time saved by
    # replaying recorded event streams instead of re-interpreting.
    print(METRICS.summary(time.perf_counter() - start), file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import DifferentialRunner, minimize_and_record

    runner = DifferentialRunner(
        seed=args.seed,
        iters=args.iters,
        pool_every=args.pool_every,
        progress=lambda line: print(line, flush=True),
    )
    start = time.perf_counter()
    report = runner.run()
    print(report.summary())
    print(f"({time.perf_counter() - start:.1f}s)", file=sys.stderr)
    if report.ok:
        return 0
    for discrepancy in report.discrepancies:
        print(f"FAIL {discrepancy.describe()}", file=sys.stderr)
    if not args.no_shrink:
        for path in minimize_and_record(report.discrepancies):
            print(f"minimized regression written to {path}", file=sys.stderr)
    return 1


def _cmd_profile(args) -> int:
    from repro.vm.profile import (
        profile_workload,
        suggest_fusion,
        suggest_superblocks,
    )

    if args.suggest_fusion:
        with obs.span("experiment", experiment=f"fusion:{args.workload}"):
            profile = profile_workload(args.workload, vm=args.vm)
        rows = suggest_fusion(profile, count=args.top)
        seq_rows = suggest_superblocks(profile, count=args.top)
        if args.json:
            print(json.dumps(
                {
                    "vm": args.vm,
                    "workload": args.workload,
                    "pairs": rows,
                    "sequences": seq_rows,
                },
                indent=2, sort_keys=True,
            ))
            return 0
        prefix = "Op" if args.vm == "lua" else "JsOp"
        print(
            f"# {args.vm}/{args.workload}: top {len(rows)} fusible pairs "
            f"({profile.steps} bytecodes; * = already in the table)"
        )
        print("FUSED_PAIRS: tuple = (")
        for row in rows:
            entry = f"    ({prefix}.{row['first']}, {prefix}.{row['second']}),"
            mark = "*" if row["in_table"] else " "
            print(
                f"{entry:<44}# {mark} {row['count']:>10,} dyn, "
                f"cum {row['coverage']:6.2%}"
            )
        print(")")
        print(
            f"\n# top {len(seq_rows)} recurring kernel-key sequences "
            "(batch superblock candidates, canonical rotation; "
            "(op, site) pairs as the segmenter keys them)"
        )
        print("SUPERBLOCK_BODIES: tuple = (")
        for row in seq_rows:
            print(
                f"    # period {row['period']}, {row['events']:,} events "
                f"({row['share']:.2%}): {' '.join(row['names'])}"
            )
            keys = ", ".join(f"({op}, {site})" for op, site in row["keys"])
            print(f"    ({keys}),")
        print(")")
        return 0

    with obs.span("experiment", experiment=f"profile:{args.workload}"):
        profile = profile_workload(args.workload, vm=args.vm)
        run_metrics: dict = {}
        simulate(
            args.workload,
            vm=args.vm,
            scheme=args.scheme,
            config=CONFIG_PRESETS[args.machine](),
            metrics=run_metrics,
        )
    uarch = run_metrics.get("uarch", {})
    if args.json:
        payload = profile.to_dict(top=args.top)
        payload["machine"] = args.machine
        payload["scheme"] = args.scheme
        payload["uarch"] = uarch
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    steps = max(profile.steps, 1)
    print(f"{args.vm}/{args.workload}: {profile.steps} bytecodes executed")
    print("\ntop opcodes:")
    for name, count in profile.top_opcodes(args.top):
        print(f"  {name:<24} {count:>12}  {count / steps:7.2%}")
    print("\ntop adjacent pairs (superinstruction candidates):")
    for name, count in profile.top_pairs(args.top):
        print(f"  {name:<36} {count:>12}")
    print("\ndispatch-site mix:")
    for site, share in profile.site_mix().items():
        print(f"  {site:<12} {share:7.2%}")
    print(f"\nuarch counters ({args.scheme} on {args.machine}):")
    for component, counters in uarch.items():
        print(f"  {component}:")
        for key, value in counters.items():
            if isinstance(value, dict):
                print(f"    {key}:")
                for sub_key, sub_value in value.items():
                    print(f"      {sub_key:<22} {sub_value}")
            else:
                print(f"    {key:<24} {value}")
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro.obs import regress

    if args.update:
        suite = (
            Path(__file__).resolve().parents[3]
            / "benchmarks" / "test_perf_smoke.py"
        )
        if not suite.is_file():
            print(f"perf-smoke suite not found at {suite}", file=sys.stderr)
            return 1
        import pytest

        env_key = "SCD_SKIP_PERF_GUARD"
        previous = os.environ.get(env_key)
        if not args.guard:
            # Regeneration is about recording this host's numbers, not
            # judging them; floors are re-checked below and by CI.
            os.environ[env_key] = "1"
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(suite)])
        finally:
            if not args.guard:
                if previous is None:
                    os.environ.pop(env_key, None)
                else:
                    os.environ[env_key] = previous
        if code != 0:
            return int(code)

    found = regress.find_bench()
    bench = regress.load_bench()
    if bench is None:
        print(
            f"no {regress.BENCH_NAME} found; run 'scd-repro bench --update'",
            file=sys.stderr,
        )
        return 1
    from repro.harness.bench import BENCH_CHECKS

    guard = bench.get("guard", {})
    checks = tuple(
        (label, bench.get(section, {}).get(field), guard.get(floor_key))
        for label, section, field, floor_key in BENCH_CHECKS
    )
    print(f"# {found}")
    below = 0
    for name, measured, floor in checks:
        if measured is None or floor is None:
            verdict = "n/a"
        elif measured >= floor:
            verdict = "ok"
        else:
            verdict = "BELOW FLOOR"
            below = 1
        shown = "n/a" if measured is None else f"{measured:,.1f}"
        limit = "n/a" if floor is None else f"{floor:,.1f}"
        print(f"  {name:<33} {shown:>12}  (floor {limit:>9})  {verdict}")
    return below


def _cmd_corpus(args) -> int:
    from pathlib import Path

    from repro.corpus import build_corpus, corpus_section, run_corpus

    root = Path(args.root)
    if args.corpus_command == "build":
        strata = tuple(args.strata.split(",")) if args.strata else None
        manifest = build_corpus(
            root, seed=args.seed, size=args.size, strata=strata,
            force=args.force,
        )
        print(
            f"built corpus of {manifest['size']} program(s) at {root} "
            f"(seed {manifest['seed']})"
        )
        per_stratum: dict[str, int] = {}
        for row in manifest["programs"]:
            per_stratum[row["stratum"]] = per_stratum.get(row["stratum"], 0) + 1
        for name, count in sorted(per_stratum.items()):
            print(f"  {name:<10} {count}")
        return 0

    if args.corpus_command == "run":
        vms = ("lua", "js") if args.vm == "both" else (args.vm,)
        schemes = tuple(args.schemes.split(",")) if args.schemes else SCHEMES
        workers = args.corpus_jobs if args.corpus_jobs is not None else args.jobs
        METRICS.reset()
        start = time.perf_counter()
        summary = run_corpus(
            root,
            vms=vms,
            schemes=schemes,
            workers=workers,
            limit=args.limit,
            strata=tuple(args.stratum) if args.stratum else None,
        )
        print(
            f"corpus run ({root}): {summary.ok} ok, {summary.error} error, "
            f"{summary.skipped} skipped of {summary.total}"
        )
        for name, tally in sorted(summary.by_stratum.items()):
            print(
                f"  {name:<10} ok {tally['ok']:>5}  error {tally['error']:>5}"
                f"  skipped {tally['skipped']:>5}"
            )
        for name, reason in sorted(summary.errors.items()):
            print(f"  quarantined {name}: {reason}", file=sys.stderr)
        if summary.quarantined:
            print(
                f"  cache shards quarantined during run: {summary.quarantined}",
                file=sys.stderr,
            )
        print(METRICS.summary(time.perf_counter() - start), file=sys.stderr)
        # Per-file failures are accounting, not an abort; the exit code
        # reflects whether the batch produced a trustworthy results file.
        return 0

    print(corpus_section(root))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import run_service

    def ready(address) -> None:
        host, port = address
        print(f"sweep service listening on {host}:{port}", flush=True)

    # Explicit per-instance limits, never the process-wide set_default_*
    # overrides: the service is long-running and concurrent, so its
    # worker/retry/timeout choices are scheduler state, not globals a
    # second sweep could clobber mid-flight.
    try:
        return asyncio.run(
            run_service(
                host=args.host,
                port=args.port,
                workers=args.jobs,
                retries=args.retries,
                job_timeout=args.job_timeout,
                queue_depth=args.queue_depth,
                max_inflight=args.max_inflight,
                budget=args.client_budget,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        print("sweep service interrupted; exiting", file=sys.stderr)
        return 0


def _cmd_submit(args) -> int:
    from repro.service import protocol
    from repro.service.client import (
        ServiceError,
        SweepClient,
        SweepRejected,
    )

    if not args.workloads and not (args.shutdown or args.stats):
        print(
            "submit: nothing to do (need --workloads, --stats or "
            "--shutdown)",
            file=sys.stderr,
        )
        return 2
    try:
        client = SweepClient(args.host, args.port, timeout=args.timeout)
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    code = 0
    with client:
        if args.workloads:
            grid: dict = {
                "workloads": args.workloads.split(","),
                "vms": (
                    ["lua", "js"] if args.vm == "both" else [args.vm]
                ),
                "schemes": (
                    args.schemes.split(",") if args.schemes
                    else list(SCHEMES)
                ),
            }
            if args.machine != "cortex-a5":
                grid["machine"] = args.machine
            kwargs: dict = {}
            if args.n is not None:
                kwargs["n"] = args.n
            if args.no_check_output:
                kwargs["check_output"] = False
            if kwargs:
                grid["kwargs"] = kwargs
            entries = protocol.expand_grid(grid)
            done_count = [0]

            def on_event(event: dict) -> None:
                done_count[0] += 1
                entry = entries[event["index"]]
                label = (
                    f"{entry['vm']}/{entry['workload']}/{entry['scheme']}"
                )
                how = "ok" if event.get("ok") else "FAILED"
                notes = [
                    note
                    for note, flag in (
                        ("cached", event.get("cached")),
                        ("deduped", event.get("deduped")),
                    )
                    if flag
                ]
                suffix = f" ({', '.join(notes)})" if notes else ""
                print(
                    f"[{done_count[0]}/{len(entries)}] {label} "
                    f"{how}{suffix}",
                    file=sys.stderr,
                    flush=True,
                )

            try:
                outcome = client.submit(grid=grid, on_event=on_event)
            except SweepRejected as exc:
                print(f"submit: rejected: {exc}", file=sys.stderr)
                return 3
            except ServiceError as exc:
                print(f"submit: {exc}", file=sys.stderr)
                return 2
            done = outcome.done
            print(
                f"request {done.get('id')}: {done.get('ok')} ok, "
                f"{done.get('failed')} failed of {done.get('jobs')} "
                f"({done.get('unique')} unique, {done.get('deduped')} "
                f"deduped, {done.get('cached')} cached)"
            )
            for index, detail in outcome.failures():
                entry = entries[index]
                first = detail.strip().splitlines()[-1] if detail else ""
                print(
                    f"  FAILED {entry['vm']}/{entry['workload']}/"
                    f"{entry['scheme']}: {first}",
                    file=sys.stderr,
                )
            if args.json:
                print(
                    json.dumps(
                        [
                            None if result is None else result.to_dict()
                            for result in outcome.results
                        ],
                        indent=2,
                        sort_keys=True,
                    )
                )
            if not outcome.ok:
                code = 1
        if args.stats:
            reply = client.stats()
            print(json.dumps(reply["scheduler"], indent=2, sort_keys=True))
        if args.shutdown:
            client.shutdown()
    return code


def _cmd_clear_cache(_args) -> int:
    DEFAULT_CACHE.clear()
    DEFAULT_TRACE_STORE.clear()
    DEFAULT_MEMO_STORE.clear()
    print(f"cleared {DEFAULT_CACHE.path}")
    print(f"cleared {DEFAULT_TRACE_STORE.path}")
    print(f"cleared {DEFAULT_MEMO_STORE.path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scd-repro",
        description="Short-Circuit Dispatch (ISCA 2016) reproduction harness",
        # Without this, a subcommand option like `submit --n` is grabbed
        # by the top-level abbreviation matcher (e.g. as a prefix of
        # --no-trace-cache) before dispatch.
        allow_abbrev=False,
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for experiment fan-out "
        "(default: SCD_REPRO_JOBS or the CPU count; 1 = in-process)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="per-job retry budget before a sweep aborts "
        "(default: SCD_REPRO_RETRIES or 2)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-job timeout in seconds for pooled sweeps; a timed-out "
        "job is retried on a fresh pool (default: SCD_REPRO_JOB_TIMEOUT "
        "or no timeout)",
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a deterministic fault for testing the degraded paths: "
        "kill-worker:N, fail-job:N, delay-job:N:SECONDS or corrupt-shard:N "
        "(repeatable; equivalent to SCD_FAULT)",
    )
    parser.add_argument(
        "--trace-log",
        metavar="PATH",
        default=None,
        help="write a span-trace JSONL log of this invocation to PATH; "
        "pool workers append to the same file (equivalent to "
        "SCD_TRACE_LOG; validate with 'python -m repro.obs PATH', "
        "schema in docs/OBSERVABILITY.md)",
    )
    trace_group = parser.add_mutually_exclusive_group()
    trace_group.add_argument(
        "--record",
        action="store_true",
        help="re-interpret every workload and overwrite its recorded trace",
    )
    trace_group.add_argument(
        "--replay",
        action="store_true",
        help="require recorded traces (error on any missing one)",
    )
    trace_group.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable trace recording/replay for this invocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, workloads, schemes")

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument("workload", choices=workload_names())
    run_parser.add_argument("--vm", choices=("lua", "js"), default="lua")
    run_parser.add_argument(
        "--scheme",
        choices=SCHEMES + ("ttc", "cascaded", "ittage", "superinst"),
        default="scd",
    )
    run_parser.add_argument(
        "--machine", choices=tuple(CONFIG_PRESETS), default="cortex-a5"
    )
    run_parser.add_argument("--scale", choices=("sim", "fpga"), default="sim")
    run_parser.add_argument("--show-output", action="store_true")

    verify_parser = sub.add_parser(
        "verify",
        help="differential verification: fuzz generated guest programs "
        "across every scheme, execution path and VM",
    )
    verify_parser.add_argument(
        "--seed", type=int, default=0, help="base program seed (default 0)"
    )
    verify_parser.add_argument(
        "--iters",
        type=int,
        default=50,
        metavar="N",
        help="number of generated programs (default 50)",
    )
    verify_parser.add_argument(
        "--pool-every",
        type=int,
        default=10,
        metavar="K",
        help="serial-vs-pool equivalence check every K programs "
        "(0 disables; default 10)",
    )
    verify_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimizing them into tests/corpus/",
    )

    profile_parser = sub.add_parser(
        "profile",
        help="dynamic bytecode profile + per-component uarch counters "
        "for one workload",
    )
    profile_parser.add_argument("workload", choices=workload_names())
    profile_parser.add_argument("--vm", choices=("lua", "js"), default="lua")
    profile_parser.add_argument(
        "--scheme",
        choices=SCHEMES + ("ttc", "cascaded", "ittage", "superinst"),
        default="scd",
    )
    profile_parser.add_argument(
        "--machine", choices=tuple(CONFIG_PRESETS), default="cortex-a5"
    )
    profile_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per histogram (default 10)",
    )
    profile_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    profile_parser.add_argument(
        "--suggest-fusion",
        action="store_true",
        help="rank straight-line adjacent opcode pairs by dynamic count "
        "and print them in the backend FUSED_PAIRS table format "
        "(superinstruction selection aid), plus recurring kernel-key "
        "sequences (length 3-8) in the batch segmenter's (op, site) form",
    )

    bench_parser = sub.add_parser(
        "bench",
        help="show BENCH_dispatch.json against its guard floors; "
        "--update regenerates it from the perf-smoke grid",
    )
    bench_parser.add_argument(
        "--update",
        action="store_true",
        help="rerun benchmarks/test_perf_smoke.py and rewrite "
        "BENCH_dispatch.json deterministically (records without "
        "asserting floors, like SCD_SKIP_PERF_GUARD=1)",
    )
    bench_parser.add_argument(
        "--guard",
        action="store_true",
        help="with --update, also enforce the perf floors while "
        "regenerating (fails like CI would)",
    )

    corpus_parser = sub.add_parser(
        "corpus",
        help="build / run / report a stratified synthetic program corpus",
    )
    corpus_sub = corpus_parser.add_subparsers(
        dest="corpus_command", required=True
    )
    corpus_build = corpus_sub.add_parser(
        "build",
        help="generate a seeded stratified corpus and its manifest.json",
    )
    corpus_build.add_argument(
        "--root", default="scd-corpus", metavar="DIR",
        help="corpus directory (default: scd-corpus)",
    )
    corpus_build.add_argument(
        "--seed", type=int, default=0, help="corpus seed (default 0)"
    )
    corpus_build.add_argument(
        "--size", type=int, default=256, metavar="N",
        help="number of programs (default 256)",
    )
    corpus_build.add_argument(
        "--strata", default=None, metavar="S1,S2",
        help="comma-separated stratum names to round-robin over "
        "(default: arith,call,branch,table-str)",
    )
    corpus_build.add_argument(
        "--force", action="store_true",
        help="overwrite an existing corpus at --root",
    )
    corpus_run = corpus_sub.add_parser(
        "run",
        help="run every corpus program on the VM/scheme grid with "
        "per-file ok/error/skip accounting (one bad file never aborts "
        "the batch)",
    )
    corpus_run.add_argument(
        "--root", default="scd-corpus", metavar="DIR",
        help="corpus directory (default: scd-corpus)",
    )
    corpus_run.add_argument(
        "-j", "--jobs", type=int, default=None, dest="corpus_jobs",
        metavar="N",
        help="worker processes for the corpus grid (same as the global "
        "-j, placed here so it can follow the subcommand)",
    )
    corpus_run.add_argument(
        "--vm", choices=("lua", "js", "both"), default="both",
        help="guest VM(s) to run; 'both' adds the cross-VM output oracle",
    )
    corpus_run.add_argument(
        "--schemes", default=None, metavar="S1,S2",
        help="comma-separated dispatch schemes "
        f"(default: {','.join(SCHEMES)})",
    )
    corpus_run.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="run only the first N selected programs (rest are skipped)",
    )
    corpus_run.add_argument(
        "--stratum", action="append", default=None, metavar="NAME",
        help="restrict to one stratum (repeatable)",
    )
    corpus_report = corpus_sub.add_parser(
        "report",
        help="render the stratified Corpus section from results.json",
    )
    corpus_report.add_argument(
        "--root", default="scd-corpus", metavar="DIR",
        help="corpus directory (default: scd-corpus)",
    )

    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep service: a local multi-client server that "
        "deduplicates in-flight grid points across concurrent sweeps "
        "(protocol in docs/SERVICE.md)",
    )
    serve_parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"bind address (default {DEFAULT_HOST}; loopback only)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=f"TCP port (default {DEFAULT_PORT}; 0 picks a free one)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="global backpressure: refuse new unique grid points once "
        "this many are unresolved (default 4096)",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=1024, metavar="N",
        help="per-client cap on unresolved grid points (default 1024)",
    )
    serve_parser.add_argument(
        "--client-budget", type=int, default=None, metavar="N",
        help="per-client lifetime job budget; submissions past it get a "
        "structured over-budget rejection (default: unlimited)",
    )

    submit_parser = sub.add_parser(
        "submit",
        help="submit a sweep to a running 'scd-repro serve' instance "
        "and stream its progress",
    )
    submit_parser.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"service address (default {DEFAULT_HOST})",
    )
    submit_parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=f"service port (default {DEFAULT_PORT})",
    )
    submit_parser.add_argument(
        "--workloads", default=None, metavar="W1,W2",
        help="comma-separated workload names to sweep",
    )
    submit_parser.add_argument(
        "--vm", choices=("lua", "js", "both"), default="lua",
        help="guest VM(s) for the grid (default lua)",
    )
    submit_parser.add_argument(
        "--schemes", default=None, metavar="S1,S2",
        help=f"comma-separated dispatch schemes (default: {','.join(SCHEMES)})",
    )
    submit_parser.add_argument(
        "--machine", choices=tuple(CONFIG_PRESETS), default="cortex-a5",
    )
    submit_parser.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="workload size parameter forwarded to every grid point",
    )
    submit_parser.add_argument(
        "--no-check-output", action="store_true",
        help="skip guest-output verification (smaller n values need this)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="client-side read timeout in seconds (default 600)",
    )
    submit_parser.add_argument(
        "--json", action="store_true",
        help="print the results (input order) as JSON on stdout",
    )
    submit_parser.add_argument(
        "--stats", action="store_true",
        help="print the server's scheduler statistics",
    )
    submit_parser.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to drain and exit (after any sweep)",
    )

    for name in EXPERIMENTS:
        exp_parser = sub.add_parser(name, help=f"reproduce {name}")
        if name == "figure11":
            from repro.uarch.config import BTB_GEOMETRIES

            exp_parser.add_argument(
                "--geometry", default=None, choices=sorted(BTB_GEOMETRIES),
                help="run the sweep on a measured multi-level BTB geometry "
                "instead of the flat Table-II BTB",
            )
    sub.add_parser("all", help="run every experiment")
    report_parser = sub.add_parser(
        "report", help="regenerate the EXPERIMENTS.md body"
    )
    report_parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="append the Corpus section for the corpus at DIR "
        "(requires a prior 'corpus run')",
    )
    sub.add_parser(
        "clear-cache", help="drop cached simulation results and recorded traces"
    )

    args = parser.parse_args(argv)
    if args.jobs is not None:
        set_default_workers(args.jobs)
    if args.retries is not None:
        set_default_retries(args.retries)
    if args.job_timeout is not None:
        try:
            resolve_job_timeout(args.job_timeout)
        except ValueError as exc:
            parser.error(str(exc))
        set_default_job_timeout(args.job_timeout)
    if args.fault:
        spec_text = ",".join(args.fault)
        try:
            faults.parse_specs(spec_text)
        except ValueError as exc:
            parser.error(str(exc))
        os.environ[faults.FAULT_ENV] = spec_text
        faults.reset_plan_cache()
    if args.record:
        set_default_trace_mode("record")
    elif args.replay:
        set_default_trace_mode("replay")
    elif args.no_trace_cache:
        set_default_trace_mode("off")
    trace_log = args.trace_log or os.environ.get(obs.TRACE_ENV)
    if trace_log:
        obs.configure(trace_log)
    try:
        with obs.span("sweep", command=args.command) as sweep:
            code = _dispatch(args)
            # The run's throughput/fault counters land on the sweep close,
            # so one record summarizes the whole invocation.
            sweep.annotate(exit_code=code, **METRICS.as_dict())
        return code
    finally:
        obs.close()


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "clear-cache":
        return _cmd_clear_cache(args)
    return _cmd_experiment(args.command, geometry=getattr(args, "geometry", None))


if __name__ == "__main__":
    sys.exit(main())
