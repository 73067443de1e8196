"""Cross-path differential execution of generated guest programs.

One generated program is pushed through the full cross-product of
execution paths the harness supports:

* every dispatch scheme in :data:`repro.core.simulation.SCHEMES`;
* a store-less ``live`` run vs a forced ``--record`` run vs trace
  replay vs memoized (steady-state) trace replay;
* serial in-process execution vs the process-pool fan-out of
  :mod:`repro.harness.parallel` (``workers=1`` vs ``workers=N``);
* both guest VMs.

and every pair of paths that the model guarantees agree is asserted
identical:

* all paths of one (vm, scheme) pair must produce *the same frozen
  ``SimResult``* — architectural output AND every timing statistic;
* all schemes of one vm must agree on architectural output and guest
  step count (dispatch must be semantically invisible);
* both VMs must agree on architectural output (same guest semantics).

Every run also passes the invariant checks of
:mod:`repro.verify.invariants`, and each program gets one instrumented
SCD run whose dispatch log is verified against the recorded event stream
(the handler-sequence oracle).  Failures come back as
:class:`Discrepancy` records; :mod:`repro.verify.shrink` minimizes them.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

from repro.core.simulation import SCHEMES, simulate
from repro.harness.cache import ResultCache, TraceStore
from repro.harness.parallel import SimJob, run_jobs
from repro.verify.generator import generate_program
from repro.verify.invariants import (
    CheckedMachine,
    InvariantViolation,
    check_dispatch_log,
    check_result,
    end_state_probe,
)
from repro.vm.capture import trace_key

#: Guest-step safety budget for generated programs (generator budgets top
#: out around ~20k actual steps; anything past this is a runaway).
VERIFY_MAX_STEPS = 2_000_000

#: The execution paths every (vm, scheme) pair is run through.
#: ``live``, the base every other path is diffed against, has no trace
#: store: a fresh VM re-interprets the program, timed on the interpreted
#: rung.  The ``-nokernel`` variants force the event-by-event interpreted
#: replay path (``use_kernel=False``), pinning the exec-compiled kernels'
#: byte-identity against the reference implementation.  The ``-nobatch``
#: variants keep the kernels but disable superblock batch replay
#: (``use_batch=False``), pinning the chunk-compiled path — which the
#: plain ``replay``/``replay-memo`` runs exercise by default — against
#: the per-event kernel ladder.
PATHS = (
    "live",
    "record",
    "replay",
    "replay-memo",
    "replay-nobatch",
    "replay-memo-nobatch",
    "replay-nokernel",
    "replay-memo-nokernel",
)


@dataclass
class Discrepancy:
    """One verified-property violation for one generated program."""

    seed: int
    vm: str
    scheme: str
    kind: str
    detail: str
    source: str = ""

    def describe(self) -> str:
        return (
            f"seed={self.seed} vm={self.vm} scheme={self.scheme} "
            f"[{self.kind}] {self.detail}"
        )


@dataclass
class VerifyReport:
    """Outcome of one verify sweep."""

    seed: int
    iterations: int
    programs: int = 0
    runs: int = 0
    pool_checks: int = 0
    discrepancies: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.discrepancies)} DISCREPANCIES"
        return (
            f"verify seed={self.seed}: {self.programs} programs, "
            f"{self.runs} simulations, {self.pool_checks} pool checks "
            f"across {len(SCHEMES)} schemes x {len(PATHS)} paths x 2 VMs "
            f"-> {status}"
        )


def _diff_results(label_a: str, a, label_b: str, b) -> str | None:
    """Human-readable field-level diff of two SimResults, or ``None``."""
    if a == b:
        return None
    fields = []
    for name in vars(a):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            shown_a = repr(va) if len(repr(va)) < 120 else f"<{name}…>"
            shown_b = repr(vb) if len(repr(vb)) < 120 else f"<{name}…>"
            fields.append(f"{name}: {label_a}={shown_a} {label_b}={shown_b}")
    return "; ".join(fields) or "results differ (no field-level diff)"


class DifferentialRunner:
    """Drives generated programs through every execution path.

    Args:
        seed: base seed; program ``i`` uses seed ``seed + i``.
        iters: number of programs to generate and verify.
        vms: guest VMs to cover.
        schemes: dispatch schemes to cover.
        pool_every: run the serial-vs-pool equivalence check on every
            *pool_every*-th program (the pool spin-up dominates its cost).
        pool_workers: worker count for the pooled side of that check.
        progress: optional callable receiving one status line per program.
    """

    def __init__(
        self,
        seed: int = 0,
        iters: int = 50,
        vms: tuple = ("lua", "js"),
        schemes: tuple = SCHEMES,
        pool_every: int = 10,
        pool_workers: int = 2,
        progress=None,
    ):
        self.seed = seed
        self.iters = iters
        self.vms = tuple(vms)
        self.schemes = tuple(schemes)
        self.pool_every = pool_every
        self.pool_workers = pool_workers
        self.progress = progress or (lambda line: None)

    # -- one program ------------------------------------------------------

    def check_source(self, source: str, seed: int = -1) -> list:
        """Verify one program source across all paths; returns discrepancies."""
        found: list = []
        report = VerifyReport(seed=seed, iterations=1)
        self._check_program(source, seed, found, report)
        return found

    def _sim(self, source, vm, scheme, store, mode, memo=False, **kwargs):
        return simulate(
            "verify",
            vm=vm,
            scheme=scheme,
            source=source,
            check_output=False,
            max_steps=VERIFY_MAX_STEPS,
            trace_store=store,
            trace_mode=mode,
            replay_memo=memo,
            probe=end_state_probe,
            **kwargs,
        )

    def _check_program(
        self, source: str, seed: int, found: list, report: VerifyReport
    ) -> None:
        def fail(vm: str, scheme: str, kind: str, detail: str) -> None:
            found.append(
                Discrepancy(
                    seed=seed, vm=vm, scheme=scheme, kind=kind,
                    detail=detail, source=source,
                )
            )

        outputs: dict = {}
        with tempfile.TemporaryDirectory(prefix="scd-verify-") as tmp:
            store = TraceStore(root=tmp)
            for vm in self.vms:
                per_scheme: dict = {}
                for scheme in self.schemes:
                    results: dict = {}
                    try:
                        # "record" forces re-interpretation and
                        # (over)writes the trace; the first scheme's record
                        # run seeds the store for every replay below.
                        mode = "record" if scheme == self.schemes[0] else None
                        if mode:
                            results["record"] = self._sim(
                                source, vm, scheme, store, "record"
                            )
                        results["live"] = self._sim(
                            source, vm, scheme, None, None, use_kernel=False
                        )
                        results["replay"] = self._sim(
                            source, vm, scheme, store, "replay", memo=False
                        )
                        results["replay-memo"] = self._sim(
                            source, vm, scheme, store, "replay", memo=True
                        )
                        results["replay-nobatch"] = self._sim(
                            source, vm, scheme, store, "replay",
                            memo=False, use_batch=False,
                        )
                        results["replay-memo-nobatch"] = self._sim(
                            source, vm, scheme, store, "replay",
                            memo=True, use_batch=False,
                        )
                        results["replay-nokernel"] = self._sim(
                            source, vm, scheme, store, "replay",
                            memo=False, use_kernel=False,
                        )
                        results["replay-memo-nokernel"] = self._sim(
                            source, vm, scheme, store, "replay",
                            memo=True, use_kernel=False,
                        )
                    except InvariantViolation as exc:
                        fail(vm, scheme, "invariant", str(exc))
                        continue
                    except Exception as exc:
                        fail(vm, scheme, "error", f"{type(exc).__name__}: {exc}")
                        continue
                    report.runs += len(results)
                    for path, result in results.items():
                        try:
                            check_result(result, scheme)
                        except InvariantViolation as exc:
                            fail(vm, scheme, "invariant", f"[{path}] {exc}")
                    base = results["live"]
                    for path, result in results.items():
                        if path == "live":
                            continue
                        diff = _diff_results("live", base, path, result)
                        if diff is not None:
                            fail(vm, scheme, "path-mismatch",
                                 f"live vs {path}: {diff}")
                    per_scheme[scheme] = base

                # SCD handler-sequence oracle: replay the recorded stream
                # onto an instrumented machine and audit its dispatch log.
                if "scd" in self.schemes and per_scheme:
                    try:
                        self._scd_oracle(source, vm, store)
                        report.runs += 1
                    except InvariantViolation as exc:
                        fail(vm, "scd", "scd-oracle", str(exc))
                    except Exception as exc:
                        fail(vm, "scd", "error", f"{type(exc).__name__}: {exc}")

                # Cross-scheme: dispatch must be architecturally invisible.
                if per_scheme:
                    reference_scheme = next(iter(per_scheme))
                    reference = per_scheme[reference_scheme]
                    outputs[vm] = reference.output
                    for scheme, result in per_scheme.items():
                        if result.output != reference.output:
                            fail(vm, scheme, "scheme-mismatch",
                                 f"output differs from {reference_scheme}")
                        if result.guest_steps != reference.guest_steps:
                            fail(vm, scheme, "scheme-mismatch",
                                 f"guest_steps {result.guest_steps} != "
                                 f"{reference.guest_steps} ({reference_scheme})")

        # Cross-VM: both interpreters implement the same guest semantics.
        if len(outputs) == len(self.vms) == 2:
            vm_a, vm_b = self.vms
            if outputs[vm_a] != outputs[vm_b]:
                lines_a, lines_b = outputs[vm_a], outputs[vm_b]
                detail = f"{len(lines_a)} vs {len(lines_b)} lines"
                for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
                    if la != lb:
                        detail = f"line {i}: {la!r} vs {lb!r}"
                        break
                fail("*", "*", "vm-mismatch", detail)

    def _scd_oracle(self, source: str, vm: str, store: TraceStore) -> None:
        recorded = store.get(trace_key(vm, source, VERIFY_MAX_STEPS))
        if recorded is None:
            raise InvariantViolation("no recorded trace for the SCD oracle")

        def probe(machine, runner):
            end_state_probe(machine, runner)
            check_dispatch_log(machine, recorded, runner.model)

        simulate(
            "verify",
            vm=vm,
            scheme="scd",
            source=source,
            check_output=False,
            max_steps=VERIFY_MAX_STEPS,
            trace_store=store,
            trace_mode="replay",
            replay_memo=False,
            machine_factory=CheckedMachine,
            probe=probe,
        )

    # -- serial vs pool ----------------------------------------------------

    def _check_pool(self, source: str, seed: int, found: list) -> None:
        jobs = [
            SimJob(
                workload="verify",
                vm=vm,
                scheme=scheme,
                kwargs=(
                    ("source", source),
                    ("max_steps", VERIFY_MAX_STEPS),
                    ("check_output", False),
                ),
            )
            for vm in self.vms
            for scheme in self.schemes
        ]
        with tempfile.TemporaryDirectory(prefix="scd-verify-pool-") as tmp:
            serial = run_jobs(
                jobs, workers=1, cache=ResultCache("serial", root=tmp)
            )
            pooled = run_jobs(
                jobs,
                workers=self.pool_workers,
                cache=ResultCache("pooled", root=tmp),
            )
        for job, a, b in zip(jobs, serial, pooled):
            diff = _diff_results("workers=1", a, f"workers={self.pool_workers}", b)
            if diff is not None:
                found.append(
                    Discrepancy(
                        seed=seed, vm=job.vm, scheme=job.scheme,
                        kind="pool-mismatch", detail=diff, source=source,
                    )
                )

    # -- the sweep ---------------------------------------------------------

    def run(self) -> VerifyReport:
        report = VerifyReport(seed=self.seed, iterations=self.iters)
        for index in range(self.iters):
            program_seed = self.seed + index
            program = generate_program(program_seed)
            found: list = []
            self._check_program(program.source, program_seed, found, report)
            if self.pool_every and index % self.pool_every == 0:
                self._check_pool(program.source, program_seed, found)
                report.pool_checks += 1
            report.programs += 1
            report.discrepancies.extend(found)
            status = "ok" if not found else f"{len(found)} FAILURES"
            self.progress(
                f"[{index + 1}/{self.iters}] seed {program_seed} "
                f"({program.size}): {status}"
            )
        return report


def run_verify(seed: int = 0, iters: int = 50, **kwargs) -> VerifyReport:
    """Convenience wrapper: one full differential sweep."""
    return DifferentialRunner(seed=seed, iters=iters, **kwargs).run()
