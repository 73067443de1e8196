"""Process-pool fan-out for independent simulations.

Every paper figure/table is a grid of independent, deterministic
simulations, so regenerating one is embarrassingly parallel.  This module
provides the scheduling layer:

* :class:`SimJob` — a picklable descriptor of one grid point.
* :func:`run_jobs` — run a batch of jobs, fanning cache misses out to a
  :class:`~concurrent.futures.ProcessPoolExecutor` and returning results
  in input order regardless of completion order.  ``workers=1`` (or a
  single miss) degrades gracefully to in-process execution.
* :data:`METRICS` — per-process throughput and fault counters
  (simulations run, cache hits, trace events replayed, retries,
  timeouts, worker deaths, quarantined entries) that the CLI prints
  after each experiment.

Failures are retried, not fatal: a grid point whose worker dies
(OOM-kill, segfault), raises, or exceeds its per-job timeout is
re-submitted on a fresh pool up to :func:`resolve_retries` times with
exponential backoff, while every already-completed future is salvaged.
If the pool itself keeps breaking, the remaining points degrade to
in-process execution.  Only when a point has spent its whole retry
budget does the batch raise — a single aggregated
:class:`SimJobsFailed` naming *every* exhausted ``(vm, scheme,
workload)`` key with its last traceback.  Deterministic fault injection
for all of these paths lives in :mod:`repro.harness.faults`.

Workers share one sharded cache directory (see
:mod:`repro.harness.cache`); its atomic per-entry writes make concurrent
population safe without locks.  Under the ``fork`` start method the parent
assembles every needed native model before the pool spins up, so workers
inherit them copy-on-write instead of re-assembling per process.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields

from repro import obs
from repro.core.results import SimResult
from repro.core.simulation import scheme_parts, simulate
from repro.harness.cache import (
    DEFAULT_CACHE,
    MemoStore,
    ResultCache,
    TraceStore,
    sim_cache_key,
)
from repro.harness.faults import get_plan as get_fault_plan
from repro.native.model import get_model
from repro.uarch.config import CoreConfig, cortex_a5
from repro.vm.capture import resolve_trace_mode

#: Process-wide worker-count override, installed by the CLI's ``-j`` flag.
DEFAULT_WORKERS: int | None = None

#: Per-job retry budget when neither the call, the CLI nor
#: ``SCD_REPRO_RETRIES`` says otherwise: each grid point may be
#: re-submitted this many times before it counts as exhausted.
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff (seconds); override with
#: ``SCD_REPRO_RETRY_BACKOFF`` (tests set it to 0).
DEFAULT_RETRY_BACKOFF_S = 0.1

#: Backoff ceiling, so a long retry chain cannot stall a sweep for minutes.
_BACKOFF_CAP_S = 5.0

#: After this many consecutive broken-pool rounds the remaining grid
#: points run in-process: a host that keeps killing fresh pools will not
#: stop doing so for round three.
_POOL_BREAK_LIMIT = 2

#: Process-wide overrides installed by the CLI (``--retries`` /
#: ``--job-timeout``).
DEFAULT_RETRIES_OVERRIDE: int | None = None
DEFAULT_JOB_TIMEOUT: float | None = None


def set_default_workers(workers: int | None) -> None:
    """Install *workers* as the process-wide default for :func:`run_jobs`."""
    global DEFAULT_WORKERS
    DEFAULT_WORKERS = workers


def set_default_retries(retries: int | None) -> None:
    """Install *retries* as the process-wide default retry budget."""
    global DEFAULT_RETRIES_OVERRIDE
    DEFAULT_RETRIES_OVERRIDE = retries


def set_default_job_timeout(timeout: float | None) -> None:
    """Install *timeout* (seconds) as the process-wide per-job timeout."""
    global DEFAULT_JOB_TIMEOUT
    DEFAULT_JOB_TIMEOUT = timeout


def resolve_workers(workers: int | None = None) -> int:
    """Resolve an explicit/default/environment worker count (>= 1).

    Priority: explicit argument, :func:`set_default_workers` (the CLI
    ``-j`` flag), the ``SCD_REPRO_JOBS`` environment variable, then
    ``os.cpu_count()``.  A rejected ``SCD_REPRO_JOBS`` value — not an
    integer, zero, or negative — is reported with a one-line
    :class:`RuntimeWarning` naming the value, then ignored (it used to
    be clamped or dropped silently).  The result is capped at
    ``os.cpu_count()``: these are CPU-bound simulations, so
    oversubscribing a small host only adds pool and context-switch
    overhead (``-j 4`` on a 1-CPU box used to post a 0.88x "speedup");
    the cap also lets the single-worker case fall back to in-process
    execution in :func:`run_jobs`.
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        workers = DEFAULT_WORKERS
    if workers is None:
        env = os.environ.get("SCD_REPRO_JOBS", "")
        if env:
            try:
                value = int(env)
            except ValueError:
                value = None
            if value is None or value < 1:
                warnings.warn(
                    f"ignoring SCD_REPRO_JOBS={env!r}: expected a positive "
                    "integer worker count",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                workers = value
    if workers is None:
        workers = cpus
    return max(1, min(int(workers), cpus))


def resolve_retries(retries: int | None = None) -> int:
    """Resolve the per-job retry budget (>= 0).

    Priority: explicit argument, :func:`set_default_retries` (the CLI
    ``--retries`` flag), the ``SCD_REPRO_RETRIES`` environment variable,
    then :data:`DEFAULT_RETRIES`.  A non-integer or negative environment
    value is warned about and ignored.
    """
    if retries is None:
        retries = DEFAULT_RETRIES_OVERRIDE
    if retries is None:
        env = os.environ.get("SCD_REPRO_RETRIES", "")
        if env:
            try:
                value = int(env)
            except ValueError:
                value = None
            if value is None or value < 0:
                warnings.warn(
                    f"ignoring SCD_REPRO_RETRIES={env!r}: expected a "
                    "non-negative integer",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                retries = value
    if retries is None:
        retries = DEFAULT_RETRIES
    return max(0, int(retries))


def resolve_job_timeout(timeout: float | None = None) -> float | None:
    """Resolve the per-job timeout in seconds (``None`` disables it).

    Priority: explicit argument, :func:`set_default_job_timeout` (the
    CLI ``--job-timeout`` flag), then ``SCD_REPRO_JOB_TIMEOUT``.  The
    clock starts at submission, so on a saturated pool queue wait counts
    against the budget; timeouts only apply to pooled execution (an
    in-process job cannot be interrupted).  Zero or negative disables the
    timeout.  A non-finite timeout (``inf``, ``nan``) is an error when
    passed explicitly or installed by the CLI (:class:`ValueError`), and
    warned about and ignored in the environment, like any other
    malformed value.
    """
    if timeout is None:
        timeout = DEFAULT_JOB_TIMEOUT
    if timeout is not None:
        timeout = float(timeout)
        if not math.isfinite(timeout):
            raise ValueError(
                "job timeout must be a finite number of seconds, "
                f"got {timeout!r}"
            )
    else:
        env = os.environ.get("SCD_REPRO_JOB_TIMEOUT", "")
        if env:
            try:
                value = float(env)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                timeout = value
            else:
                warnings.warn(
                    f"ignoring SCD_REPRO_JOB_TIMEOUT={env!r}: expected a "
                    "finite number of seconds",
                    RuntimeWarning,
                    stacklevel=2,
                )
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def _retry_backoff_s(attempt: int) -> float:
    """Exponential backoff before retry *attempt* (1-based), capped.

    A malformed ``SCD_REPRO_RETRY_BACKOFF`` is warned about and ignored,
    matching the warn-and-fall-back discipline of every other resolver
    (``SCD_REPRO_JOBS``/``RETRIES``/``JOB_TIMEOUT``).
    """
    base = DEFAULT_RETRY_BACKOFF_S
    env = os.environ.get("SCD_REPRO_RETRY_BACKOFF", "")
    if env:
        try:
            base = float(env)
        except ValueError:
            warnings.warn(
                f"ignoring SCD_REPRO_RETRY_BACKOFF={env!r}: expected a "
                "number of seconds",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(0.0, min(_BACKOFF_CAP_S, base * (2 ** max(0, attempt - 1))))


@dataclass
class ThroughputMetrics:
    """Aggregated run counters for the harness summary line."""

    sims: int = 0
    cache_hits: int = 0
    events: int = 0
    sim_wall_s: float = 0.0
    events_replayed: int = 0
    events_interpreted: int = 0
    replay_wall_s: float = 0.0
    guest_s: float = 0.0
    memo_events: int = 0
    memo_loaded: int = 0
    kernel_events: int = 0
    fallback_events: int = 0
    batch_events: int = 0
    superblocks: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    quarantined: int = 0

    def record_hit(self) -> None:
        self.cache_hits += 1

    def record_sim(self, meta: dict) -> None:
        self.sims += 1
        events = int(meta.get("events", 0))
        wall = float(meta.get("wall_s", 0.0))
        self.events += events
        self.sim_wall_s += wall
        if meta.get("replayed"):
            self.events_replayed += events
            self.replay_wall_s += wall
            self.memo_events += int(meta.get("memo_events", 0))
            self.memo_loaded += int(meta.get("memo_loaded", 0))
        else:
            self.events_interpreted += events
            self.guest_s += float(meta.get("guest_s", 0.0))
        self.kernel_events += int(meta.get("kernel_events", 0))
        self.fallback_events += int(meta.get("fallback_events", 0))
        self.batch_events += int(meta.get("batch_events", 0))
        self.superblocks += int(meta.get("superblocks", 0))

    def reset(self) -> None:
        """Zero *every* counter, by dataclass-field introspection.

        The old hand-written list silently missed the PR-4 fault
        counters, so a second CLI subcommand in the same process opened
        with the previous run's retries/timeouts/worker-deaths in its
        footer.  Resetting from ``fields()`` makes a forgotten new
        counter impossible rather than merely unlikely.
        """
        for spec in fields(self):
            setattr(self, spec.name, spec.default)

    def as_dict(self) -> dict:
        """Every counter as a plain dict (sweep-span and report export)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def trace_savings_s(self) -> float | None:
        """Estimated guest-interpretation time the sweep saved by
        replaying stored traces: replayed events priced at this run's
        observed guest time per interpreted event.  Both kinds of job pay
        the same timing replay, so only the guest time is saved.  ``None``
        when no interpreted run provides a rate to compare with.
        """
        if not self.events_replayed:
            return 0.0
        if not self.events_interpreted or self.guest_s <= 0:
            return None
        return self.events_replayed * self.guest_s / self.events_interpreted

    def fault_counts(self) -> dict[str, int]:
        """The degraded-path counters, in footer order."""
        return {
            "retried": self.retries,
            "timed out": self.timeouts,
            "worker deaths": self.worker_deaths,
            "quarantined": self.quarantined,
        }

    def fault_summary(self) -> str:
        """Comma-joined non-zero fault counters, or ``""`` for a clean run."""
        return ", ".join(
            f"{count} {label}"
            for label, count in self.fault_counts().items()
            if count
        )

    def summary(self, wall_s: float | None = None) -> str:
        """One-line human summary, e.g. for the CLI footer."""
        parts = [f"{self.sims} simulated + {self.cache_hits} cached"]
        if self.sims and self.sim_wall_s > 0:
            rate = self.events / self.sim_wall_s
            parts.append(f"{self.events:,} events @ {rate:,.0f} events/s")
        if self.events_replayed:
            reuse = (
                f"trace reuse: {self.events_replayed:,} events replayed vs "
                f"{self.events_interpreted:,} interpreted"
            )
            saved = self.trace_savings_s()
            if saved is not None:
                reuse += f", ~{saved:.1f}s saved"
            if self.memo_events:
                reuse += f" ({self.memo_events:,} memoized"
                if self.memo_loaded:
                    reuse += f", {self.memo_loaded} entries from store"
                reuse += ")"
            parts.append(reuse)
        if self.kernel_events or self.fallback_events:
            parts.append(
                f"kernel: {self.kernel_events:,} compiled vs "
                f"{self.fallback_events:,} fallback events"
            )
        if self.batch_events:
            parts.append(
                f"batch: {self.batch_events:,} events in "
                f"{self.superblocks} superblocks"
            )
        faults = self.fault_summary()
        if faults:
            parts.append(f"faults: {faults}")
        if wall_s is not None:
            parts.append(f"wall {wall_s:.2f}s")
        return "[" + "; ".join(parts) + "]"


#: Per-process metrics sink (the parent aggregates worker metadata here).
METRICS = ThroughputMetrics()


@dataclass(frozen=True)
class SimJob:
    """One grid point: everything a worker needs to run a simulation.

    ``kwargs`` is a tuple of ``(name, value)`` pairs (rather than a dict)
    so the job stays hashable-friendly and cheap to pickle; order does not
    matter for the cache key (see
    :func:`repro.harness.cache.sim_cache_key`).
    """

    workload: str
    vm: str
    scheme: str
    config: CoreConfig | None = None
    scale: str = "sim"
    kwargs: tuple = field(default=())

    @property
    def key3(self) -> tuple[str, str, str]:
        """The human-facing grid key reported on failure."""
        return (self.vm, self.scheme, self.workload)

    def resolved_config(self) -> CoreConfig:
        return self.config if self.config is not None else cortex_a5()

    def cache_key(self) -> str:
        return sim_cache_key(
            self.vm, self.scheme, self.workload, self.scale, self.config,
            dict(self.kwargs),
        )


class SimJobError(RuntimeError):
    """A grid point failed; carries its ``(vm, scheme, workload)`` key."""

    def __init__(self, job: SimJob, detail: str):
        self.job = job
        self.key = job.key3
        super().__init__(
            f"simulation job (vm={job.vm!r}, scheme={job.scheme!r}, "
            f"workload={job.workload!r}) failed:\n{detail}"
        )


class SimJobsFailed(SimJobError):
    """One or more grid points exhausted their retry budget.

    Raised once per batch, after retries are spent, naming every failed
    key.  Attributes:

    * ``failures`` — ``(job, detail)`` pairs; *detail* is the last
      traceback or diagnostic of that grid point.
    * ``keys`` — the ``(vm, scheme, workload)`` key of every failure.
    * ``completed`` — grid points that did finish (their results are in
      the shared cache; a re-run will not repeat them).

    ``job``/``key`` mirror the first failure so handlers written against
    :class:`SimJobError` keep working.
    """

    def __init__(self, failures, completed: int = 0):
        self.failures = list(failures)
        if not self.failures:
            raise ValueError("SimJobsFailed requires at least one failure")
        self.keys = tuple(job.key3 for job, _ in self.failures)
        self.job = self.failures[0][0]
        self.key = self.job.key3
        self.completed = completed
        lines = [
            f"{len(self.failures)} simulation job(s) failed after retries "
            f"were exhausted ({completed} completed grid point(s) were "
            "salvaged into the cache):"
        ]
        for job, detail in self.failures:
            lines.append(
                f"- (vm={job.vm!r}, scheme={job.scheme!r}, "
                f"workload={job.workload!r}):"
            )
            lines.extend(
                "    " + line for line in str(detail).splitlines() or [""]
            )
        RuntimeError.__init__(self, "\n".join(lines))


def execute_job(
    job: SimJob,
    cache: ResultCache | None = None,
    trace_store: TraceStore | None = None,
    trace_mode: str | None = None,
    memo_store: MemoStore | None = None,
    metrics: ThroughputMetrics | None = None,
) -> tuple[SimResult, dict]:
    """Run one job in-process, consulting and populating *cache*.

    When a result cache is present and no *trace_store* is given, a
    :class:`TraceStore` sharing the cache's root is wired in, so the
    first simulation of each (vm, workload) pair records its event stream
    and every later scheme/config replays it instead of re-interpreting
    (see :mod:`repro.vm.capture`).  A :class:`MemoStore` is wired in the
    same way, so replayed jobs import steady-state memo tables persisted
    by earlier sessions and export any transitions they learn.

    Returns ``(result, meta)`` where *meta* carries the throughput
    metadata of :func:`repro.core.simulation.simulate` plus a ``cached``
    flag.  Records into *metrics* — callers that need per-request
    isolation (the sweep service runs many concurrent clients through
    one process) pass their own :class:`ThroughputMetrics`; the default
    is the process-wide :data:`METRICS` the CLI footer prints.  Shards
    the job's stores quarantine, whether or not the job then fails, are
    added to ``metrics.quarantined``.  When a trace log is live (see
    :mod:`repro.obs`) each call emits a ``job`` span with the grid key,
    cache outcome and per-component uarch counters attached.
    """
    if metrics is None:
        metrics = METRICS
    if cache is not None:
        if trace_store is None:
            trace_store = TraceStore(root=cache.root)
        if memo_store is None:
            memo_store = MemoStore(root=cache.root)
    stores = [s for s in (cache, trace_store, memo_store) if s is not None]
    quarantined = sum(store.quarantined for store in stores)
    try:
        with obs.span(
            "job", vm=job.vm, scheme=job.scheme, workload=job.workload,
            scale=job.scale,
        ) as job_span:
            key = job.cache_key()
            if cache is not None:
                with obs.span("cache", store="results") as probe:
                    hit = cache.get(key)
                    probe.annotate(hit=hit is not None)
                if hit is not None:
                    metrics.record_hit()
                    job_span.annotate(cached=True)
                    return hit, {"cached": True}
            fault_plan = get_fault_plan()
            if fault_plan is not None:
                fault_plan.on_job_start(job)
            meta: dict = {}
            result = simulate(
                job.workload,
                vm=job.vm,
                scheme=job.scheme,
                config=job.resolved_config(),
                scale=job.scale,
                metrics=meta,
                trace_store=trace_store,
                trace_mode=trace_mode,
                memo_store=memo_store,
                **dict(job.kwargs),
            )
            if cache is not None:
                with obs.span("cache", store="results", op="put"):
                    cache.put(key, result)
            metrics.record_sim(meta)
            meta["cached"] = False
            job_span.annotate(
                cached=False,
                events=meta.get("events", 0),
                wall_s=round(meta.get("wall_s", 0.0), 6),
                replayed=bool(meta.get("replayed")),
                kernel_events=meta.get("kernel_events", 0),
                fallback_events=meta.get("fallback_events", 0),
                batch_events=meta.get("batch_events", 0),
                superblocks=meta.get("superblocks", 0),
                memo_loaded=meta.get("memo_loaded", 0),
                uarch=meta.get("uarch", {}),
            )
            return result, meta
    finally:
        metrics.quarantined += (
            sum(store.quarantined for store in stores) - quarantined
        )


def _pool_run(
    job: SimJob,
    cache_name: str | None,
    cache_root: str | None,
    trace_mode: str | None = None,
    trace_parent: str | None = None,
):
    """Worker-process body.  Never raises: failures come back as values so
    the parent can surface the grid key instead of a bare pool traceback.

    *trace_parent* is the span the parent process was inside when it
    submitted this job; when a trace log is exported (``SCD_TRACE_LOG``)
    the worker appends its spans there, rooted under that id, so the
    parent's log holds the whole merged tree."""
    try:
        obs.adopt_worker(trace_parent)
        cache = None
        if cache_name is not None:
            cache = ResultCache(cache_name, root=cache_root)
        metrics = ThroughputMetrics()
        result, meta = execute_job(
            job, cache, trace_mode=trace_mode, metrics=metrics
        )
        meta["quarantined"] = metrics.quarantined
        return ("ok", result, meta)
    except BaseException:
        return ("error", traceback.format_exc(), {})


def _prewarm_models(jobs) -> None:
    """Assemble every needed native model in the parent before forking.

    Under ``fork`` the pool workers inherit the parent's ``get_model``
    LRU cache copy-on-write, so assembly happens once per host instead of
    once per worker.  Under ``spawn`` workers cannot inherit it; skip.
    """
    try:
        if multiprocessing.get_start_method() != "fork":
            return
    except ValueError:  # pragma: no cover - exotic platforms
        return
    needed = {(job.vm, scheme_parts(job.scheme)[0]) for job in jobs}
    for vm, strategy in sorted(needed):
        get_model(vm, strategy)


def _shutdown_pool(pool, futures, kill: bool = False) -> None:
    """Shut *pool* down without leaking live workers.

    Cancels every queued future first, optionally terminates the worker
    processes (a timed-out job may never return on its own), then waits
    for the pool to drain.  The old error path used
    ``shutdown(wait=False, cancel_futures=True)``, which left in-flight
    workers burning CPU and writing the cache after the run had already
    aborted.
    """
    for future in futures:
        future.cancel()
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):  # already gone
                pass
    pool.shutdown(wait=True, cancel_futures=True)


def _run_in_process(
    pending, cache, trace_mode, retries, resolved, last_failure, metrics,
    on_result=None, attempts=None,
) -> None:
    """In-process execution of *pending* with bounded per-job retries.

    Each job starts with the ``attempts[key]`` failed attempts it has
    already spent — none on the serial path, the pool's count when the
    pool degrades.  The last traceback of every failed attempt lands in
    *last_failure*.
    """
    trace_store = TraceStore(root=cache.root) if cache is not None else None
    for key, job in pending:
        attempt = attempts[key] if attempts is not None else 0
        while True:
            try:
                result, meta = execute_job(
                    job, cache, trace_store=trace_store,
                    trace_mode=trace_mode, metrics=metrics,
                )
            except Exception:
                last_failure[key] = (job, traceback.format_exc())
                attempt += 1
                if attempt > retries:
                    break
                metrics.retries += 1
                time.sleep(_retry_backoff_s(attempt))
                continue
            resolved[key] = result
            if on_result is not None:
                on_result(key, result, meta)
            break


def _consume_future(
    future, futures, resolved, failed, state, metrics, on_result=None
) -> None:
    """Fold one finished future into results or this round's failures."""
    key, job = futures[future]
    try:
        status, payload, meta = future.result()
    except Exception as exc:
        # BrokenProcessPool & friends: the worker died without reporting
        # (OOM-kill, segfault) — name the grid point and retry it.
        if not state["broke"]:
            metrics.worker_deaths += 1
            state["broke"] = True
        failed.append(
            (key, job, f"worker died: {type(exc).__name__}: {exc}", True)
        )
        return
    if status != "ok":
        failed.append((key, job, payload, True))
        return
    resolved[key] = payload
    metrics.quarantined += int(meta.get("quarantined", 0))
    if meta.get("cached"):
        metrics.record_hit()
    else:
        metrics.record_sim(meta)
    if on_result is not None:
        on_result(key, payload, meta)


def _pool_round(
    pending, workers, cache_name, cache_root, trace_mode, job_timeout,
    resolved, metrics, on_result=None,
):
    """One submission round on a fresh pool.

    Every future that completes is salvaged into *resolved* even when
    the pool breaks mid-round.  Returns ``(failed, broke)``: *failed*
    lists ``(key, job, detail, counted)`` — ``counted=False`` marks jobs
    that were merely collateral of a pool teardown and are requeued
    without charging an attempt — and *broke* reports whether a worker
    died or the pool had to be torn down.
    """
    pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
    failed: list = []
    state = {"broke": False}
    kill_pool = False
    futures: dict = {}
    try:
        submitted_at = time.monotonic()
        trace_parent = obs.current_span_id()
        for key, job in pending:
            future = pool.submit(
                _pool_run, job, cache_name, cache_root, trace_mode,
                trace_parent,
            )
            futures[future] = (key, job)
        deadlines = (
            {future: submitted_at + job_timeout for future in futures}
            if job_timeout is not None
            else {}
        )
        waiting = set(futures)
        while waiting:
            timeout = None
            if deadlines:
                timeout = max(
                    0.0,
                    min(deadlines[f] for f in waiting) - time.monotonic(),
                )
            done, _ = wait(waiting, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                _consume_future(
                    future, futures, resolved, failed, state, metrics,
                    on_result,
                )
            waiting -= done
            if deadlines and waiting:
                now = time.monotonic()
                expired = {f for f in waiting if deadlines[f] <= now}
                for future in expired:
                    key, job = futures[future]
                    metrics.timeouts += 1
                    failed.append(
                        (key, job, f"timed out after {job_timeout:g}s", True)
                    )
                    if not future.cancel():
                        # Already running: the only way to reclaim the
                        # worker is to tear the whole pool down.
                        kill_pool = True
                waiting -= expired
            if kill_pool and waiting:
                # Salvage whatever finished in the meantime; requeue the
                # rest without charging them an attempt — they were not
                # at fault.
                done, not_done = wait(waiting, timeout=0)
                for future in done:
                    _consume_future(
                        future, futures, resolved, failed, state, metrics,
                        on_result,
                    )
                for future in not_done:
                    future.cancel()
                    key, job = futures[future]
                    failed.append(
                        (key, job,
                         "requeued: pool torn down after a job timeout",
                         False)
                    )
                waiting = set()
    finally:
        _shutdown_pool(pool, futures, kill=kill_pool)
    return failed, state["broke"] or kill_pool


def _run_pool(
    misses, workers, cache, trace_mode, retries, job_timeout, resolved,
    last_failure, metrics, on_result=None,
) -> None:
    """Pooled execution of *misses* with retry rounds and salvage,
    degrading to :func:`_run_in_process` when pools keep breaking."""
    _prewarm_models(job for _, job in misses)
    cache_name = cache.name if cache is not None else None
    cache_root = str(cache.root) if cache is not None else None
    attempts = {key: 0 for key, _ in misses}
    pending = list(misses)
    broken_rounds = 0
    retry_round = 0
    while pending:
        failed, broke = _pool_round(
            pending, workers, cache_name, cache_root, trace_mode,
            job_timeout, resolved, metrics, on_result,
        )
        broken_rounds = broken_rounds + 1 if broke else 0
        retry_next = []
        for key, job, detail, counted in failed:
            last_failure[key] = (job, detail)
            if counted:
                attempts[key] += 1
            if attempts[key] > retries:
                continue  # exhausted; aggregated after the loop
            retry_next.append((key, job))
            if counted:
                metrics.retries += 1
        pending = retry_next
        if not pending:
            break
        if broken_rounds >= _POOL_BREAK_LIMIT:
            # Fresh pools keep dying on this host; stop feeding it
            # workers and finish the remaining points in-process.
            _run_in_process(
                pending, cache, trace_mode, retries, resolved, last_failure,
                metrics, on_result, attempts,
            )
            break
        retry_round += 1
        time.sleep(_retry_backoff_s(retry_round))


def run_jobs(
    jobs,
    workers: int | None = None,
    cache: ResultCache | None = DEFAULT_CACHE,
    retries: int | None = None,
    job_timeout: float | None = None,
    metrics: ThroughputMetrics | None = None,
    on_result=None,
) -> list[SimResult]:
    """Run every job and return results in input order.

    Jobs whose cache key is already resolved (on disk, or duplicated
    within the batch) are not re-simulated.  Remaining misses run on a
    process pool of :func:`resolve_workers` workers — or in-process when
    that resolves to 1 or there is at most one miss.

    A failed grid point — worker death, job exception, or per-job
    timeout (pooled runs only; see :func:`resolve_job_timeout`) — is
    retried up to :func:`resolve_retries` times with exponential
    backoff, on a fresh pool, while completed futures are salvaged; the
    pool degrades to in-process execution if it keeps breaking.

    *metrics* selects the :class:`ThroughputMetrics` instance counters
    land in (default: the process-wide :data:`METRICS`); concurrent
    callers sharing one process pass their own instance so counters
    cannot cross-contaminate.  *on_result* is an incremental completion
    callback invoked as ``on_result(cache_key, result, meta)`` from the
    calling thread the moment each distinct cache key resolves — cache
    hits fire it immediately, pooled completions fire it as futures are
    consumed (out of input order).  Exhausted failures never fire it;
    they are reported in bulk when the batch returns.

    Raises:
        SimJobsFailed: one or more grid points still failed after the
            retry budget; the single aggregated error names *every*
            exhausted ``(vm, scheme, workload)`` key with its last
            traceback.  (A :class:`SimJobError` subclass, so existing
            handlers keep working.)
    """
    results, failures, completed = _execute_jobs(
        jobs, workers, cache, retries, job_timeout, metrics, on_result
    )
    if failures:
        raise SimJobsFailed(failures, completed=completed)
    return results


def run_jobs_partial(
    jobs,
    workers: int | None = None,
    cache: ResultCache | None = DEFAULT_CACHE,
    retries: int | None = None,
    job_timeout: float | None = None,
    metrics: ThroughputMetrics | None = None,
    on_result=None,
) -> tuple[list, list]:
    """Like :func:`run_jobs`, but failures are data, not an exception.

    Returns ``(results, failures)``: *results* is in input order with
    ``None`` at every grid point that exhausted its retry budget, and
    *failures* lists ``(job, detail)`` pairs for those points.  The
    corpus runner (:mod:`repro.corpus`) uses this to keep per-file
    accounting — one bad program must never abort the batch.

    The execution engine is shared with :func:`run_jobs` bit for bit
    (same cache resolution, pool, retry/salvage/degrade ladder), so a
    partial run populates the same caches a strict run would.  *metrics*
    and *on_result* behave exactly as in :func:`run_jobs`; the sweep
    service (:mod:`repro.service`) is the main consumer of both.
    """
    jobs = list(jobs)
    results, failures, _ = _execute_jobs(
        jobs, workers, cache, retries, job_timeout, metrics, on_result
    )
    return results, failures


def _execute_jobs(
    jobs, workers, cache, retries, job_timeout, metrics=None, on_result=None
):
    """Shared engine of :func:`run_jobs` / :func:`run_jobs_partial`.

    Returns ``(results, failures, completed)`` where *results* carries
    ``None`` for exhausted grid points and *completed* counts distinct
    resolved cache keys (hits included).
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    retries = resolve_retries(retries)
    job_timeout = resolve_job_timeout(job_timeout)
    if metrics is None:
        metrics = METRICS
    # Resolve the fault plan up front so SCD_FAULT_DIR is exported before
    # any worker is forked (workers must share the parent's counters).
    get_fault_plan()
    sinks: dict[str, list[int]] = {}
    resolved: dict[str, SimResult] = {}
    misses: list[tuple[str, SimJob]] = []
    probe_quarantined = cache.quarantined if cache is not None else 0
    for index, job in enumerate(jobs):
        key = job.cache_key()
        slots = sinks.get(key)
        if slots is not None:
            slots.append(index)
            continue
        sinks[key] = [index]
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            metrics.record_hit()
            resolved[key] = hit
            if on_result is not None:
                on_result(key, hit, {"cached": True})
        else:
            misses.append((key, job))
    if cache is not None:
        metrics.quarantined += cache.quarantined - probe_quarantined

    trace_mode = resolve_trace_mode()
    last_failure: dict = {}
    if misses and (workers <= 1 or len(misses) == 1):
        _run_in_process(
            misses, cache, trace_mode, retries, resolved, last_failure,
            metrics, on_result,
        )
    elif misses:
        _run_pool(
            misses, workers, cache, trace_mode, retries, job_timeout,
            resolved, last_failure, metrics, on_result,
        )
    failures = [
        last_failure[key]
        for key, _ in misses
        if key not in resolved and key in last_failure
    ]

    results: list[SimResult | None] = [None] * len(jobs)
    for key, indices in sinks.items():
        result = resolved.get(key)
        for index in indices:
            results[index] = result
    return results, failures, len(resolved)
