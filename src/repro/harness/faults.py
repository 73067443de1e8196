"""Deterministic fault injection for the simulation harness.

The fault-tolerance layer (retries, salvage, quarantine — see
:func:`repro.harness.parallel.run_jobs` and
:mod:`repro.harness.cache`) only earns trust if its degraded paths are
exercised on purpose.  This module injects the three failure classes the
harness must survive, at deterministic points:

* ``kill-worker:N`` — the worker executing the *N*-th job (0-based,
  counted across every process of the run) dies with ``os._exit``,
  exactly how an OOM-killed or segfaulted worker looks to the parent.
  In the parent process the kill is skipped (taking the whole sweep
  down would test nothing).
* ``fail-job:N`` — the *N*-th job raises :class:`InjectedFault`.
* ``delay-job:N:SECONDS`` — the *N*-th job sleeps before simulating,
  long enough to trip a per-job timeout.
* ``corrupt-shard:N`` — the *N*-th cache-shard write (result or trace)
  is overwritten with garbage after it lands, exactly how a torn or
  bit-rotted entry looks to the next reader.

Faults are driven by the ``SCD_FAULT`` environment variable (or the CLI
``--fault`` flag, which sets it) as a comma-separated spec list, e.g.
``SCD_FAULT=kill-worker:2,corrupt-shard:0``.  Because pool workers are
separate processes, the "N-th" counters live on disk: every trigger
point claims the next tick by exclusively creating a numbered file under
``SCD_FAULT_DIR`` (auto-created and exported by the parent when unset,
so forked/spawned workers share one counter).  A claimed tick is never
reused, which makes every fault one-shot: the retried job draws a fresh
tick and runs clean — the property the bit-identical-recovery tests
rely on.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variables driving injection.
FAULT_ENV = "SCD_FAULT"
FAULT_DIR_ENV = "SCD_FAULT_DIR"

#: Recognised fault kinds.
FAULT_KINDS = ("kill-worker", "fail-job", "delay-job", "corrupt-shard")

#: Exit status of an injected worker kill (visible in pool diagnostics).
KILL_EXIT_CODE = 27

#: Bytes stamped over a corrupted shard: invalid UTF-8 (``\xff``), so a
#: result shard fails at the text decode as well as the JSON parse, and
#: invalid trace and memo magic, so every store sees a corrupt entry, not
#: a miss.
CORRUPTION_STAMP = b"\xff\x00scd-fault-injected-corruption\x00"


class InjectedFault(RuntimeError):
    """Raised by a ``fail-job`` fault; retried like any job exception."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: *kind* fires on global tick *nth*."""

    kind: str
    nth: int
    delay_s: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = text.strip().split(":")
        kind = parts[0]
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r} in {text!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        want = 3 if kind == "delay-job" else 2
        if len(parts) != want:
            raise ValueError(
                f"malformed fault spec {text!r}; expected "
                + (f"{kind}:N:SECONDS" if want == 3 else f"{kind}:N")
            )
        try:
            nth = int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad fault tick in {text!r}: {exc}") from exc
        if nth < 0:
            raise ValueError(f"fault tick must be >= 0 in {text!r}")
        delay_s = 0.0
        if want == 3:
            try:
                delay_s = float(parts[2])
            except ValueError as exc:
                raise ValueError(f"bad fault delay in {text!r}: {exc}") from exc
            if delay_s < 0:
                raise ValueError(f"fault delay must be >= 0 in {text!r}")
        return cls(kind, nth, delay_s)


def parse_specs(text: str) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated ``SCD_FAULT`` value into specs."""
    return tuple(
        FaultSpec.parse(part)
        for part in text.split(",")
        if part.strip()
    )


class FaultPlan:
    """An active set of fault specs sharing one on-disk tick counter.

    Two counters advance independently: ``job`` (one tick per job
    execution, consumed by ``kill-worker``/``fail-job``/``delay-job``)
    and ``shard`` (one tick per cache-shard write, consumed by
    ``corrupt-shard``).  Ticks are claimed with ``O_CREAT | O_EXCL``
    file creation, which is atomic across the processes of a run.
    """

    def __init__(self, specs, state_dir: str | Path):
        self.specs = tuple(specs)
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._job_specs = tuple(
            s for s in self.specs if s.kind in ("kill-worker", "fail-job", "delay-job")
        )
        self._shard_specs = tuple(
            s for s in self.specs if s.kind == "corrupt-shard"
        )

    def _claim(self, counter: str) -> int:
        """Atomically claim and return the next tick of *counter*."""
        n = 0
        while True:
            try:
                fd = os.open(
                    self.state_dir / f"{counter}.{n}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                n += 1
                continue
            os.close(fd)
            return n

    def on_job_start(self, job) -> None:
        """Trigger point: one simulation job is about to execute."""
        if not self._job_specs:
            return
        tick = self._claim("job")
        for spec in self._job_specs:
            if spec.nth != tick:
                continue
            from repro import obs

            obs.event(
                "fault_injected", fault=spec.kind, tick=tick,
                vm=job.vm, scheme=job.scheme, workload=job.workload,
            )
            if spec.kind == "kill-worker":
                if multiprocessing.parent_process() is not None:
                    os._exit(KILL_EXIT_CODE)
                # In the main process the kill is skipped: the point is a
                # dead *worker*, not a dead sweep.
            elif spec.kind == "fail-job":
                raise InjectedFault(
                    f"injected failure on job tick {tick} "
                    f"(vm={job.vm!r}, scheme={job.scheme!r}, "
                    f"workload={job.workload!r})"
                )
            elif spec.kind == "delay-job":
                time.sleep(spec.delay_s)

    def on_shard_write(self, path: str | Path) -> None:
        """Trigger point: one cache shard was just installed at *path*."""
        if not self._shard_specs:
            return
        tick = self._claim("shard")
        if any(spec.nth == tick for spec in self._shard_specs):
            Path(path).write_bytes(CORRUPTION_STAMP)


#: Memoized (env text, plan) pair; invalidated when ``SCD_FAULT`` changes.
_cached: tuple[str, FaultPlan | None] | None = None


def get_plan() -> FaultPlan | None:
    """The active :class:`FaultPlan`, or ``None`` when injection is off.

    The first resolution in a run exports ``SCD_FAULT_DIR`` (creating a
    temp directory when unset) so that pool workers — which inherit the
    environment — share the parent's tick counters.  Callers that fork
    workers should resolve the plan *before* spawning the pool.
    """
    global _cached
    text = os.environ.get(FAULT_ENV, "").strip()
    if _cached is not None and _cached[0] == text:
        return _cached[1]
    if not text:
        _cached = (text, None)
        return None
    specs = parse_specs(text)
    state_dir = os.environ.get(FAULT_DIR_ENV)
    if not state_dir:
        state_dir = tempfile.mkdtemp(prefix="scd-faults-")
        os.environ[FAULT_DIR_ENV] = state_dir
    plan = FaultPlan(specs, state_dir) if specs else None
    _cached = (text, plan)
    return plan


def reset_plan_cache() -> None:
    """Drop the memoized plan (tests flip ``SCD_FAULT_DIR`` between runs)."""
    global _cached
    _cached = None
