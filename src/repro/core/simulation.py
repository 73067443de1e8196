"""Top-level simulation driver.

One :func:`simulate` call replays a workload's trace — a stored one, or
one just recorded by running the guest VM — through the native
interpreter model onto the embedded-core timing model, and returns a
:class:`SimResult`.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.results import SimResult
from repro.native.model import ModelRunner, get_model
from repro.uarch.config import CoreConfig, cortex_a5
from repro.uarch.pipeline import Machine, MemoFormatError, SteadyStateMemo
from repro.vm.capture import (
    MEMO_CHUNK_EVENTS,
    TraceMissError,
    TraceRecorder,
    replay_events,
    replay_events_memo,
    resolve_trace_mode,
    trace_key,
)
from repro.vm.js import JsVM
from repro.vm.lua import LuaVM
from repro.workloads import workload as get_workload

#: The paper's four evaluation schemes (Figures 7-10).
SCHEMES = ("baseline", "threaded", "vbbi", "scd")


def scheme_parts(scheme: str) -> tuple[str, str]:
    """Map an evaluation scheme to (code strategy, indirect predictor).

    VBBI is a *predictor*, not a code transformation: it runs the baseline
    dispatch code with the hashed (PC ⊕ hint) BTB index.
    """
    mapping = {
        "baseline": ("baseline", "btb"),
        "threaded": ("threaded", "btb"),
        "vbbi": ("baseline", "vbbi"),
        "scd": ("scd", "btb"),
        # Extra ablation schemes (not part of the paper's four): the tagged
        # target cache of Chang et al. and the ITTAGE predictor of Seznec &
        # Michaud.
        "ttc": ("baseline", "ttc"),
        "ittage": ("baseline", "ittage"),
        "superinst": ("superinst", "btb"),
        "cascaded": ("baseline", "cascaded"),
    }
    try:
        return mapping[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        ) from None


def _make_vm(vm: str, source: str, max_steps: int):
    if vm == "lua":
        return LuaVM.from_source(source, max_steps=max_steps)
    if vm == "js":
        return JsVM.from_source(source, max_steps=max_steps)
    raise ValueError(f"unknown vm {vm!r}; expected 'lua' or 'js'")


def simulate(
    workload: str,
    vm: str = "lua",
    scheme: str = "scd",
    config: CoreConfig | None = None,
    scale: str = "sim",
    n: int | None = None,
    source: str | None = None,
    context_switch_interval: int | None = None,
    context_switch_policy: str = "flush",
    max_steps: int = 100_000_000,
    check_output: bool = True,
    metrics: dict | None = None,
    trace_store=None,
    trace_mode: str | None = None,
    replay_memo: bool = True,
    use_kernel: bool = True,
    use_batch: bool = True,
    memo_store=None,
    machine_factory=None,
    probe=None,
) -> SimResult:
    """Run one (workload, vm, scheme, machine) combination.

    Args:
        workload: Table III benchmark name (or a label when *source* given).
        vm: ``"lua"`` or ``"js"``.
        scheme: one of :data:`SCHEMES`.
        config: machine configuration (default: the Cortex-A5 simulator
            machine of Table II).  ``indirect_scheme`` is overridden to
            match *scheme*.
        scale: ``"sim"`` or ``"fpga"`` input scale.
        n: explicit input parameter (overrides *scale*).
        source: raw scriptlet source (overrides the workload registry).
        context_switch_interval: JTE/TLB/RAS flush period in guest
            bytecodes (Section IV OS-interaction model).
        context_switch_policy: ``"flush"`` (default) or ``"save"`` —
            whether the OS flushes JTEs or saves/restores them.
        max_steps: guest-step safety budget.
        check_output: verify the VM output against the workload's Python
            reference (skipped for raw sources or explicit *n*).
        metrics: optional dict that receives per-run throughput metadata
            (``wall_s``, ``guest_s`` — guest interpretation, 0.0 when
            ``replayed`` from the store — ``events``, ...).  Kept out of
            :class:`SimResult` so the cached, deterministic experiment
            numbers never depend on wall-clock time.
        trace_store: optional :class:`repro.harness.cache.TraceStore`.
            When given, the event stream recorded on the first run of a
            (vm, source) pair is stored, and every later run replays it
            — skipping VM interpretation entirely — regardless of scheme
            or machine configuration (the stream depends on neither).
            ``None`` (the default) keeps ``simulate`` pure: no trace
            files are read or written.
        trace_mode: ``"auto"`` (replay if recorded, else record),
            ``"record"`` (force re-interpretation and overwrite),
            ``"replay"`` (require a recorded trace, raise
            :class:`~repro.vm.capture.TraceMissError` otherwise) or
            ``"off"`` (no trace- or memo-store reads or writes).  Timing
            replays the same trace in every mode.  ``None`` defers to
            :func:`repro.vm.capture.resolve_trace_mode` (CLI flags /
            ``SCD_REPRO_TRACE`` / ``"auto"``).
        replay_memo: enable the steady-state timing memo (exact by
            construction; set False for the belt-and-braces
            event-by-event replay path).
        use_kernel: replay through the exec-compiled kernels (default);
            False selects the interpreted reference path.
        use_batch: let trace replay run chunk-compiled superblocks on top
            of the kernels (default); False selects the per-event kernel
            reference path.  Results are byte-identical on every setting:
            both keywords exist for the differential verifier, the
            identity tests and the benchmark's plain-path check, and
            they travel in :attr:`repro.harness.parallel.SimJob.kwargs`
            so pool workers see them under any start method.
        memo_store: optional :class:`repro.harness.cache.MemoStore`.  When
            given with ``replay_memo`` outside ``"off"`` mode, the
            steady-state memo's transition table is loaded from (and, when
            it learned new transitions, saved back to) the store — so a
            second process skips the warm-up chunks the first one already
            simulated.  Keys embed the memo format version, the trace key,
            the full timing config and the model's structural digest; any
            drift reads as a miss, never a mis-applied memo.
        machine_factory: callable building the timing machine from the
            resolved :class:`CoreConfig` (default :class:`Machine`).  The
            verify subsystem passes an instrumented subclass here.
        probe: optional callable invoked as ``probe(machine, runner)``
            after the machine is finalized and before the result is built
            — the invariant-checker hook.  Must not mutate either.

    Returns:
        A frozen :class:`SimResult`.
    """
    wall_start = time.perf_counter()
    strategy, indirect = scheme_parts(scheme)
    if config is None:
        config = cortex_a5()
    config = config.with_changes(indirect_scheme=indirect)

    expected = None
    if source is None:
        bench = get_workload(workload)
        source = bench.source(n=n, scale=scale)
        if check_output and n is None:
            expected = bench.expected_output(scale=scale)

    mode = resolve_trace_mode(trace_mode) if trace_store is not None else "off"
    with obs.span("compile", vm=vm, scheme=scheme):
        machine = (machine_factory or Machine)(config)
        model = get_model(vm, strategy)
        runner = ModelRunner(
            model,
            machine,
            context_switch_interval=context_switch_interval,
            context_switch_policy=context_switch_policy,
            use_kernel=use_kernel,
            use_batch=use_batch,
        )
    runner.start()

    key = trace_key(vm, source, max_steps)
    trace = None
    if mode not in ("off", "record"):
        with obs.span("cache", store="traces") as cache_span:
            trace = trace_store.get(key)
            cache_span.annotate(hit=trace is not None)
        if trace is None and mode == "replay":
            raise TraceMissError(
                f"no recorded trace for {vm}/{workload} "
                "(run once with --record or trace_mode='auto' first)"
            )
    replayed = trace is not None
    guest_s = 0.0
    if trace is None:
        # Interpret the guest into the recorder; the timing model only
        # ever sees the sealed columns, through the same replay below.
        with obs.span("compile", vm=vm, guest=True):
            guest = _make_vm(vm, source, max_steps)
        with obs.span("record") as phase:
            guest_start = time.perf_counter()
            recorder = TraceRecorder()
            output = guest.run(trace=recorder.hook)
            trace = recorder.seal(output, guest.steps)
            guest_s = time.perf_counter() - guest_start
            phase.annotate(events=trace.n_events)
        if mode != "off":
            with obs.span("cache", store="traces"):
                trace_store.put(key, trace)
    memo = None
    memo_codec = memo_store_key = None
    with obs.span("replay", memo=replay_memo) as phase:
        if replay_memo:
            memo = SteadyStateMemo(machine, runner)
            if memo_store is not None and mode != "off":
                from repro.harness.cache import memo_key

                memo_codec = model.memo_codec()
                memo_store_key = memo_key(
                    key, scheme, config, context_switch_interval,
                    context_switch_policy, model.structure_digest(),
                    MEMO_CHUNK_EVENTS,
                )
                with obs.span("cache", store="memos") as memo_span:
                    payload = memo_store.get(memo_store_key)
                    if payload is not None:
                        try:
                            memo.import_payload(
                                payload, memo_codec, memo_store_key
                            )
                        except MemoFormatError as exc:
                            # Structurally valid frame, unbindable
                            # interior (e.g. a geometry-mismatched BTB
                            # digest): quarantine the shard and fall
                            # back to an empty memo.
                            memo_store.quarantine(memo_store_key, str(exc))
                    memo_span.annotate(entries=memo.loaded)
            replay_events_memo(trace, runner, memo)
        else:
            replay_events(trace, runner.on_event, runner=runner)
        phase.annotate(events=runner.events)
    if memo is not None and memo.dirty and memo_store_key is not None:
        with obs.span("cache", store="memos"):
            memo_store.put(
                memo_store_key, memo.export_payload(memo_codec, memo_store_key)
            )
    runner.finish()

    output = trace.output
    if expected is not None and list(output) != list(expected):
        raise AssertionError(
            f"{vm}/{workload}: functional output diverged from reference "
            f"(first line: {output[:1]} != {expected[:1]})"
        )

    stats = machine.finalize()
    if probe is not None:
        probe(machine, runner)
    if metrics is not None:
        wall = time.perf_counter() - wall_start
        metrics["wall_s"] = wall
        metrics["events"] = runner.events
        metrics["events_per_s"] = runner.events / wall if wall > 0 else 0.0
        metrics["guest_s"] = guest_s
        metrics["replayed"] = replayed
        metrics["memo_hits"] = memo.hits if memo is not None else 0
        metrics["memo_events"] = memo.events_skipped if memo is not None else 0
        metrics["memo_loaded"] = memo.loaded if memo is not None else 0
        kernel = runner.kernel
        metrics["kernel_events"] = kernel.kernel_events if kernel else 0
        metrics["fallback_events"] = kernel.fallback_events if kernel else 0
        metrics["batch_events"] = kernel.batch_events if kernel else 0
        metrics["superblocks"] = kernel.superblocks if kernel else 0
        # Per-component uarch counter export: the telemetry layer attaches
        # it to the job span, `scd-repro profile` prints it.  One small
        # dict per multi-second simulation — noise next to the run itself.
        metrics["uarch"] = stats.component_counters()
    return SimResult(
        vm=vm,
        scheme=scheme,
        workload=workload,
        config_name=config.name,
        scale=scale if n is None else f"n={n}",
        cycles=stats.cycles,
        instructions=stats.instructions,
        guest_steps=trace.guest_steps,
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
