"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload is a sequence of *passes* over a fixed grid of simulation
points.  The seed only permutes the order of jobs or requests inside a
pass (each pass draws its own permutation from ``(workload, seed,
pass)``), so every seed runs the same work drawn from one distribution:
the points of each (vm, program) row on the grid workloads, the order
of the (program, machine) units requests take on ``service-overlap``.

* ``fig7-cold`` — the Figure 7 grid (4 schemes x 2 VMs) over
  :data:`FIG7_PROGRAMS`, through ``run_jobs`` with 2 workers, from an
  empty cache root on every pass.
* ``btb-sweep-replay`` — a Figure 11-style machine sweep on Lua (BTB size
  x JTE cap x {baseline, scd}, flat BTB and the measured Cortex-A72
  geometry) over :data:`BTB_PROGRAMS`, replaying traces recorded during
  set-up with fresh result and memo stores on every pass.
* ``service-overlap`` — two closed-loop clients of a ``scd-repro serve``
  process, each submitting requests of 2 (program, machine) units x 2
  VMs x 4 schemes that overlap the other client's concurrent request by
  half, on a cache root whose traces and memos were seeded during
  set-up.  Each pass runs against a freshly started, warmed server with
  an empty result store.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro.core import simulation
from repro.core.results import geomean
from repro.harness import parallel
from repro.harness.cache import CACHE_VERSION, ResultCache
from repro.harness.experiments import PAPER
from repro.native import model as native_model
from repro.service import client as service_client
from repro.service import protocol
from repro.uarch.config import cortex_a5, with_btb_geometry

HERE = Path(__file__).resolve().parent

#: Worker processes, threads and connections never exceed the host's cores.
WORKERS = min(2, os.cpu_count() or 1)

SCHEMES = simulation.SCHEMES
VMS = ("lua", "js")

#: Table III programs of each workload.  Fixed slices of the eleven: the
#: full 88-point Figure 7 grid takes ~78 s at -j2 on a 2-core host, far
#: longer than one measurement window, so each pass covers the cheapest
#: programs and the pass repeats.
FIG7_PROGRAMS = ("fibo", "pidigits", "binary-trees")
#: The machine sweep runs the Lua interpreter only (as Figure 11(a,c)
#: does for Lua), so ackermann, whose replay runs through batch
#: superblocks, fits in a pass beside two programs that never batch.
BTB_PROGRAMS = ("fibo", "pidigits", "ackermann")
BTB_VMS = ("lua",)
SERVICE_PROGRAMS = ("fibo", "pidigits", "binary-trees")
SHARED_PROGRAM = "binary-trees"

#: ``service-overlap`` requests name a machine preset per program: six
#: (program, machine) units, three per pair of concurrent requests, give
#: every request new work and no result-cache hit, on a cache whose
#: seeding stays cheap.
SERVICE_MACHINES = ("cortex-a5", "cortex-a8")

#: Submitted to every freshly started server before its pass clock
#: starts, so the pass measures a warm service (native models assembled)
#: rather than process start-up.  Its points lie outside every pass grid.
WARMUP_UNITS = (("fibo", "rocket"),)

#: Points re-run on the plain path in the check phase, per workload:
#: (vm, workload, scheme, config label).
PLAIN_SAMPLE = {
    "fig7-cold": (
        ("lua", "fibo", "scd", "cortex-a5"),
        ("js", "pidigits", "vbbi", "cortex-a5"),
        ("lua", "binary-trees", "threaded", "cortex-a5"),
    ),
    "btb-sweep-replay": (
        ("lua", "fibo", "scd", "a72-256"),
        ("lua", "pidigits", "scd", "flat-64-cap4"),
        ("lua", "ackermann", "baseline", "flat-256"),
    ),
    "service-overlap": (
        ("lua", "pidigits", "threaded", "cortex-a5"),
        ("js", "fibo", "scd", "cortex-a8"),
    ),
}


def _flat(entries: int, cap: int | None = None):
    return cortex_a5().with_changes(btb_entries=entries, jte_cap=cap)


def _a72(entries: int):
    base = with_btb_geometry(cortex_a5(), "cortex-a72")
    main = replace(base.btb_levels[1], entries=entries)
    return base.with_changes(
        btb_levels=(base.btb_levels[0], main),
        btb_entries=entries,
        btb_ways=main.ways,
    )


#: The btb-sweep-replay machines: label -> (config, schemes).  Baselines
#: do not depend on the JTE cap, so the capped points run SCD only (as
#: Figure 11(c,d) shares its baselines).  ``flat-256`` is Table II's BTB.
BTB_MACHINES = {
    "flat-64": (_flat(64), ("baseline", "scd")),
    "flat-256": (_flat(256), ("baseline", "scd")),
    "flat-64-cap4": (_flat(64, 4), ("scd",)),
    "a72-256": (_a72(256), ("baseline", "scd")),
}


def assemble_models(schemes) -> None:
    """Assemble the native model of every (vm, strategy) from scratch."""
    native_model.get_model.cache_clear()
    for vm in VMS:
        for scheme in schemes:
            simulation.get_model(vm, simulation.scheme_parts(scheme)[0])


def store_dir(root: Path, store: str) -> Path:
    return root / f"v{CACHE_VERSION}" / store


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime + waited-for children of a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def _delta(after: dict, before: dict) -> dict:
    """Numeric fields of *after* minus *before*, nested dicts included."""
    out = {}
    for name, value in after.items():
        if isinstance(value, dict):
            out[name] = _delta(value, before.get(name, {}))
        elif isinstance(value, (int, float)):
            out[name] = value - before.get(name, 0)
    return out


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def scd_speedup_err_pp(results: dict, jobs) -> float | None:
    """Mean |simulated - published| geomean SCD speedup over the VMs.

    *results* maps cache keys to results; *jobs* are the (baseline, scd)
    job pairs to compare, all on the Table II machine.  ``None`` when a
    point is missing (its failure is already on record).
    """
    if any(
        job.cache_key() not in results for pair in jobs for job in pair
    ):
        return None
    errors = []
    for vm in sorted({base.vm for base, _ in jobs}):
        ratios = [
            results[base.cache_key()].cycles / results[scd.cache_key()].cycles
            for base, scd in jobs
            if base.vm == vm
        ]
        simulated = 100.0 * (geomean(ratios) - 1.0)
        errors.append(abs(simulated - 100.0 * PAPER[f"fig7_{vm}"]["scd"]))
    return sum(errors) / len(errors)


def uarch_totals(counters) -> dict:
    """Sum per-point ``component_counters()`` exports (simulated)."""
    totals = {
        "cycles": 0, "instructions": 0, "branch_mispredicts": 0,
        "icache_misses": 0, "bop_hits": 0, "bop_misses": 0,
        "btb_hits": 0, "btb_misses": 0, "btb_install_blocked": 0,
        "btb_late_hits": 0, "btb_level0_hits": 0, "btb_level1_hits": 0,
    }
    for c in counters:
        btb = c["btb"]
        levels = list(btb["level_hits"]) + [0, 0]
        totals["cycles"] += c["pipeline"]["cycles"]
        totals["instructions"] += c["pipeline"]["instructions"]
        totals["branch_mispredicts"] += c["predictors"]["branch_mispredicts"]
        totals["icache_misses"] += c["caches"]["icache_misses"]
        totals["bop_hits"] += btb["bop_hits"]
        totals["bop_misses"] += btb["bop_misses"]
        totals["btb_hits"] += sum(btb["level_hits"])
        totals["btb_misses"] += btb["target_misses"]
        totals["btb_install_blocked"] += btb["install_blocked"]
        totals["btb_late_hits"] += btb["late_hits"]
        totals["btb_level0_hits"] += levels[0]
        totals["btb_level1_hits"] += levels[1]
    return totals


@dataclass
class Pass:
    """What one timed pass measured."""

    traced: bool
    #: Pass clock: ``perf_counter()`` at its start, and its length (s).
    start: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    #: Simulated dispatch events of the pass's unique grid points.
    events: int = 0
    #: Per-request latencies and times to first result (s).
    latencies: list = field(default_factory=list)
    first_results: list = field(default_factory=list)
    #: cache key -> SimResult for every point the pass resolved.
    results: dict = field(default_factory=dict)
    #: ThroughputMetrics counters of the pass (sims, events_*, faults...).
    counters: dict = field(default_factory=dict)
    #: Jobs submitted / deduplicated in flight / rejected (service).
    submitted: int = 0
    unique: int = 0
    deduped: int = 0
    rejections: int = 0
    batches: int = 0
    spans: list = field(default_factory=list)
    failures: list = field(default_factory=list)


class Workload:
    """Base: a work directory, a seed and the pass loop's hooks."""

    name = ""
    #: Passes a run makes at least, whatever its length.
    min_passes = 2

    def __init__(self, seed: int, work: Path, tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.failures: list[str] = []
        self.uarch: dict = {}
        self.scd_err_pp: float | None = None

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def fresh_dir(self, label: str) -> Path:
        path = self.work / label
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def clean_start(self, root: Path, stores) -> None:
        """Assert that *stores* under *root* hold no entries."""
        for store in stores:
            path = store_dir(root, store)
            if path.exists() and any(path.iterdir()):
                self.failures.append(
                    f"clean start: {store} store of {root.name} not empty"
                )

    def label_of(self, job) -> str:
        """The machine name :data:`PLAIN_SAMPLE` knows *job* by."""
        return job.resolved_config().name

    def plain_check(self, reference: dict) -> int:
        """Re-run this workload's :data:`PLAIN_SAMPLE` points on the plain
        path and compare each with *reference* field for field.

        Plain path: no trace store, no kernels, no batch replay, no
        steady-state memo, guest output checked against the reference.
        """
        points = [
            job for job in self.jobs()
            if (job.vm, job.workload, job.scheme, self.label_of(job))
            in PLAIN_SAMPLE[self.name]
        ]
        if len(points) != len(PLAIN_SAMPLE[self.name]):
            self.failures.append("plain-path sample names unknown points")
        for job in points:
            plain = simulation.simulate(
                job.workload, vm=job.vm, scheme=job.scheme,
                config=job.resolved_config(), scale=job.scale,
                trace_store=None, use_kernel=False, use_batch=False,
                replay_memo=False,
            )
            timed = reference.get(job.cache_key())
            if timed is None or result_bytes(plain) != result_bytes(timed):
                self.failures.append(
                    f"plain-path re-run differs: {job.key3} "
                    f"{job.resolved_config().name}"
                )
        return len(points)

    # Hooks: jobs() lists the grid; prepare() does one complete set-up;
    # run_pass() one timed pass; check() the correctness gate; close()
    # releases everything.
    def jobs(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, traced: bool) -> Pass:
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass


class GridWorkload(Workload):
    """A pass is one ``run_jobs`` call over the workload's grid."""

    #: Stores that must be empty when a pass starts.
    empty_stores: tuple = ()

    def fill_root(self, root: Path) -> None:
        """Seed a pass's fresh cache root before its clock starts."""

    def run_pass(self, index: int, traced: bool) -> Pass:
        # Rows keep the figure's (vm, program) order, as the experiment
        # submits them, and open with their Table II baseline, the point
        # the row's speedups divide by; the seed permutes the rest of each
        # row.  A free permutation would make the time to the first result
        # (and how often both workers interpret one program at once)
        # depend on the seed more than on the code.
        rng = self.rng(index)
        references = {base.cache_key() for base, _ in self.table2_pairs()}
        rows: dict = {}
        for job in self.jobs():
            rows.setdefault((job.vm, job.workload), []).append(job)
        jobs = []
        for row in rows.values():
            rng.shuffle(row)
            row.sort(key=lambda job: job.cache_key() not in references)
            jobs.extend(row)
        root = self.fresh_dir(f"pass-{index}")
        self.fill_root(root)
        self.clean_start(root, self.empty_stores)
        record = Pass(traced=traced, submitted=len(jobs))
        record.unique = len({job.cache_key() for job in jobs})
        metas: dict = {}
        metrics = parallel.ThroughputMetrics()
        cpu0 = cpu_seconds()
        start = perf_counter()

        done: dict = {}

        def on_result(key, result, meta):
            done[key] = perf_counter() - start
            record.results[key] = result
            metas[key] = meta

        try:
            parallel.run_jobs(
                jobs, workers=WORKERS, cache=ResultCache(root=root),
                metrics=metrics, on_result=on_result,
            )
        except parallel.SimJobsFailed as exc:
            record.failures.extend(
                f"{job.key3}: {str(detail).strip().splitlines()[-1]}"
                for job, detail in exc.failures
            )
        record.start = start
        record.wall = perf_counter() - start
        record.cpu = cpu_seconds() - cpu0
        if self.tracer is not None:
            record.spans = self.tracer.drain()
        # Each grid point is a request, answered when its result streams
        # in; the first result is taken per (vm, program) row, the points
        # a reader of the figure waits on together.
        record.latencies = list(done.values())
        firsts: dict = {}
        for job in jobs:
            t = done.get(job.cache_key())
            if t is not None:
                row = (job.vm, job.workload)
                firsts[row] = min(t, firsts.get(row, t))
        record.first_results = list(firsts.values())
        record.events = sum(int(m.get("events", 0)) for m in metas.values())
        record.counters = metrics.as_dict()
        if index == 0:
            self.uarch = uarch_totals(
                m["uarch"] for m in metas.values() if "uarch" in m
            )
        shutil.rmtree(root)
        return record

    def check(self, passes: list[Pass]) -> int:
        attempted = 0
        first = passes[0].results
        for record in passes:
            attempted += record.submitted
            self.failures.extend(record.failures)
            for key, result in record.results.items():
                if result_bytes(result) != result_bytes(first.get(key, result)):
                    self.failures.append(f"pass results differ at {key}")
            if len(record.results) != record.unique:
                self.failures.append(
                    f"{record.unique - len(record.results)} grid point(s) "
                    "missing"
                )
            if record.counters.get("sims") != record.unique:
                self.failures.append(
                    f"{record.counters.get('sims')} simulations for "
                    f"{record.unique} unique points"
                )
        self.check_pass_properties(passes)
        attempted += self.plain_check(first)
        self.scd_err_pp = scd_speedup_err_pp(first, self.table2_pairs())
        return attempted

    def check_pass_properties(self, passes: list[Pass]) -> None:
        pass

    def table2_pairs(self) -> list:
        raise NotImplementedError


class Fig7Cold(GridWorkload):
    name = "fig7-cold"
    empty_stores = ("results", "memos", "traces")

    def jobs(self) -> list:
        return [
            parallel.SimJob(w, vm, scheme)
            for vm in VMS for w in FIG7_PROGRAMS for scheme in SCHEMES
        ]

    def prepare(self) -> None:
        # Native-model assembly is the only set-up a cold figure needs:
        # do it once per (vm, strategy) so every pass forks warm workers.
        assemble_models(SCHEMES)

    def table2_pairs(self) -> list:
        return [
            (parallel.SimJob(w, vm, "baseline"), parallel.SimJob(w, vm, "scd"))
            for vm in VMS for w in FIG7_PROGRAMS
        ]


class BtbSweepReplay(GridWorkload):
    name = "btb-sweep-replay"
    empty_stores = ("results", "memos")

    def __init__(self, *args):
        super().__init__(*args)
        self._labels = {}
        self._seed_root: Path | None = None

    def jobs(self) -> list:
        jobs = []
        for vm in BTB_VMS:
            for w in BTB_PROGRAMS:
                for label, (config, schemes) in BTB_MACHINES.items():
                    for scheme in schemes:
                        job = parallel.SimJob(w, vm, scheme, config=config)
                        self._labels[job.cache_key()] = label
                        jobs.append(job)
        return jobs

    def label_of(self, job) -> str:
        return self._labels[job.cache_key()]

    def prepare(self) -> None:
        """Record every (vm, program) trace once, through a 2-worker pool."""
        assemble_models(("baseline", "scd"))
        if self._seed_root is not None:
            shutil.rmtree(self._seed_root)
        root = self._seed_root = self.fresh_dir("seed")
        parallel.run_jobs(
            [parallel.SimJob(w, vm, "baseline") for vm in BTB_VMS
             for w in BTB_PROGRAMS],
            workers=WORKERS, cache=ResultCache(root=root),
            metrics=parallel.ThroughputMetrics(),
        )

    def fill_root(self, root: Path) -> None:
        shutil.copytree(
            store_dir(self._seed_root, "traces"), store_dir(root, "traces")
        )

    def check_pass_properties(self, passes: list[Pass]) -> None:
        for record in passes:
            interpreted = record.counters.get("events_interpreted", 0)
            if interpreted:
                self.failures.append(
                    f"{interpreted} events interpreted: a recorded trace "
                    "was missed"
                )

    def table2_pairs(self) -> list:
        config = BTB_MACHINES["flat-256"][0]
        return [
            (parallel.SimJob(w, vm, "baseline", config=config),
             parallel.SimJob(w, vm, "scd", config=config))
            for vm in BTB_VMS for w in BTB_PROGRAMS
        ]


class ServiceOverlap(Workload):
    name = "service-overlap"
    #: 4 requests a pass: six passes give the 21 requests a tail
    #: percentile above the median needs.
    min_passes = 6

    def __init__(self, *args):
        super().__init__(*args)
        self._seed_root: Path | None = None
        self._root: Path | None = None
        self._server = None
        self._spans_file: Path | None = None
        self._prepares = 0

    # -- cache seeding and the server process --------------------------------

    @staticmethod
    def entries(units) -> list[dict]:
        """Protocol job entries: every VM and scheme of each unit."""
        return [
            {"workload": w, "machine": m, "vm": vm, "scheme": scheme}
            for w, m in units for vm in VMS for scheme in SCHEMES
        ]

    def jobs(self) -> list:
        units = [(w, m) for m in SERVICE_MACHINES for w in SERVICE_PROGRAMS]
        return [protocol.job_from_entry(e) for e in self.entries(units)]

    def _seed(self, root: Path) -> None:
        """Record the traces, then replay every point once to store memos."""
        recording = [
            parallel.SimJob(w, vm, "baseline")
            for vm in VMS for w in SERVICE_PROGRAMS
        ]
        warmup = [protocol.job_from_entry(e) for e in self.entries(WARMUP_UNITS)]
        for jobs in (recording, self.jobs() + warmup):
            parallel.run_jobs(
                jobs, workers=WORKERS, cache=ResultCache(root=root),
                metrics=parallel.ThroughputMetrics(),
            )
            shutil.rmtree(store_dir(root, "results"))

    def _start_server(self, traced: bool) -> None:
        cmd = [sys.executable, str(HERE / "serve.py")]
        self._spans_file = None
        if traced:
            self._spans_file = self.work / "server-spans.json"
            cmd += ["--spans", str(self._spans_file)]
        env = dict(os.environ, SCD_REPRO_CACHE_DIR=str(self._root))
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = proc.stdout.readline()
        if "listening on" not in line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"sweep server failed to start: {line!r}")
        host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
        self._server = (proc, host, int(port))
        with service_client.SweepClient(host, int(port), timeout=60) as c:
            if not c.submit(jobs=self.entries(WARMUP_UNITS)).ok:
                raise RuntimeError("sweep server warm-up failed")

    @staticmethod
    def _settled_stats(c) -> dict:
        """Scheduler stats once every flight's batch counters are folded.

        The last batch's counters reach the aggregate after its results
        have streamed, so poll until every flight (submitted minus
        deduplicated jobs) shows as a simulation or a cache hit.
        """
        deadline = perf_counter() + 10.0
        while True:
            stats = c.stats()["scheduler"]
            metrics = stats["metrics"]
            flights = stats["jobs_submitted"] - stats["jobs_deduped"]
            resolved = metrics["sims"] + metrics["cache_hits"]
            if resolved + stats["jobs_failed"] >= flights or (
                perf_counter() > deadline
            ):
                return stats
            time.sleep(0.005)

    def _stop_server(self) -> dict:
        """Fetch the scheduler stats, shut the server down, reap it."""
        proc, host, port = self._server
        self._server = None
        try:
            with service_client.SweepClient(host, port, timeout=60) as c:
                stats = self._settled_stats(c)
                c.shutdown()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return stats

    def prepare(self) -> None:
        assemble_models(SCHEMES)
        if self._server is not None:
            self._stop_server()
        if self._seed_root is not None:
            shutil.rmtree(self._seed_root)
        self._prepares += 1
        self._seed_root = self.fresh_dir(f"seed-{self._prepares}")
        self._seed(self._seed_root)
        self._root = self.fresh_dir("serve")
        for store in ("traces", "memos"):
            shutil.copytree(
                store_dir(self._seed_root, store),
                store_dir(self._root, store),
            )
        self._start_server(traced=self.tracer is not None)

    def close(self) -> None:
        if self._server is not None:
            self._stop_server()

    # -- one pass ------------------------------------------------------------

    def _sequences(self, index: int):
        """Each client's requests: one pair of concurrent requests per
        machine, both listing that machine's ``binary-trees`` unit first
        (shared, in flight, deduplicated) and each adding one unit of its
        own.  The seed picks the machine order and which client gets fibo
        and which pidigits.  The shared unit is fixed because both first
        results wait on its first job, whose cost differs by unit (about
        3x between units here): a seeded choice would make the time to
        the first result depend on the seed."""
        rng = self.rng(index)
        machines = list(SERVICE_MACHINES)
        rng.shuffle(machines)
        first, second = [], []
        for machine in machines:
            own = [(w, machine) for w in SERVICE_PROGRAMS if w != SHARED_PROGRAM]
            rng.shuffle(own)
            shared = (SHARED_PROGRAM, machine)
            first.append(self.entries([shared, own[0]]))
            second.append(self.entries([shared, own[1]]))
        return first, second

    def run_pass(self, index: int, traced: bool) -> Pass:
        if self._server is None:
            shutil.rmtree(store_dir(self._root, "results"), ignore_errors=True)
            self._start_server(traced)
        # Clean start: the result store holds the warm-up points only.
        store = ResultCache(root=self._root)
        if any(store.entry_path(j.cache_key()).exists() for j in self.jobs()):
            self.failures.append("clean start: a pass point is cached")
        proc, host, port = self._server
        with service_client.SweepClient(host, port, timeout=60) as c:
            before = self._settled_stats(c)
        record = Pass(traced=traced)
        sequences = self._sequences(index)
        # The pass clock starts when both clients are connected: the
        # barrier's action stamps it before either is released.
        clock: dict = {}
        start_gate = threading.Barrier(
            len(sequences), timeout=60,
            action=lambda: clock.setdefault("start", perf_counter()),
        )
        step_gate = threading.Barrier(len(sequences), timeout=60)
        lock = threading.Lock()
        keys: set = set()

        def client_loop(sequence):
            try:
                with service_client.SweepClient(host, port, timeout=60) as c:
                    start_gate.wait()
                    for entries in sequence:
                        step_gate.wait()
                        submit_one(c, entries)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                start_gate.abort()
                step_gate.abort()
                with lock:
                    record.failures.append(f"client: {exc!r}")

        def submit_one(c, entries):
            jobs = [protocol.job_from_entry(e) for e in entries]
            first: list = []
            sent = perf_counter()

            def on_event(event):
                if not first:
                    first.append(perf_counter())

            try:
                outcome = c.submit(jobs=entries, on_event=on_event)
            except service_client.SweepRejected as exc:
                with lock:
                    record.rejections += 1
                    record.failures.append(f"rejected: {exc}")
                return
            done = perf_counter()
            with lock:
                record.latencies.append(done - sent)
                record.first_results.append(first[0] - sent)
                record.submitted += len(jobs)
                for job, result in zip(jobs, outcome.results):
                    keys.add(job.cache_key())
                    if result is None:
                        record.failures.append(f"failed: {job.key3}")
                    else:
                        record.results.setdefault(
                            job.cache_key(), []
                        ).append(result)

        threads = [
            threading.Thread(target=client_loop, args=(seq,), daemon=True)
            for seq in sequences
        ]
        server_cpu0 = _proc_cpu_seconds(proc.pid)
        cpu0 = cpu_seconds()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
        end = perf_counter()
        if any(thread.is_alive() for thread in threads):
            record.failures.append("a client did not finish its requests")
        start = record.start = clock.get("start", end)
        record.wall = end - start
        stats = _delta(self._stop_server(), before)
        record.cpu = cpu_seconds() - cpu0 - server_cpu0
        spans = self.tracer.drain() if self.tracer is not None else []
        if traced and self._spans_file is not None:
            spans += json.loads(self._spans_file.read_text())
            self._spans_file.unlink()
        # Server start and warm-up precede the pass clock.  (The last
        # batch's pool shutdown may end after the clients are answered.)
        record.spans = [span for span in spans if span["start"] >= start]
        metrics = stats["metrics"]
        record.counters = metrics
        record.events = int(metrics["events"])
        record.unique = len(keys)
        record.deduped = int(stats["jobs_deduped"])
        record.batches = int(stats["batches"])
        return record

    def check(self, passes: list[Pass]) -> int:
        """Compare every served result with an in-process ``run_jobs``."""
        root = self.fresh_dir("reference")
        for store in ("traces", "memos"):
            shutil.copytree(
                store_dir(self._seed_root, store), store_dir(root, store)
            )
        reference: dict = {}
        metas: dict = {}

        def on_result(key, result, meta):
            reference[key] = result
            metas[key] = meta

        jobs = self.jobs()
        parallel.run_jobs(
            jobs, workers=1, cache=ResultCache(root=root),
            metrics=parallel.ThroughputMetrics(), on_result=on_result,
        )
        self.uarch = uarch_totals(
            m["uarch"] for m in metas.values() if "uarch" in m
        )
        attempted = 0
        for record in passes:
            attempted += record.submitted + record.rejections
            self.failures.extend(record.failures)
            if record.counters.get("sims") != record.unique:
                self.failures.append(
                    f"{record.counters.get('sims')} simulations for "
                    f"{record.unique} unique points"
                )
            for key, results in record.results.items():
                expected = result_bytes(reference[key])
                for result in results:
                    if result_bytes(result) != expected:
                        self.failures.append(
                            f"served result differs from run_jobs at {key}"
                        )
        attempted += self.plain_check(reference)
        self.scd_err_pp = scd_speedup_err_pp(
            reference,
            [
                (parallel.SimJob(w, vm, "baseline"),
                 parallel.SimJob(w, vm, "scd"))
                for vm in VMS for w in SERVICE_PROGRAMS
            ],
        )
        return attempted


WORKLOADS = {
    cls.name: cls for cls in (Fig7Cold, BtbSweepReplay, ServiceOverlap)
}
