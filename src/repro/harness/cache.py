"""The sharded on-disk stores: simulation results, recorded traces and
persisted steady-state memos.

A simulation is deterministic given (vm, scheme, workload, scale, machine
configuration, model version), so its :class:`~repro.core.results.SimResult`
can be cached, and so can the functional VM's dispatch trace and the
timing model's steady-state memo tables.  The stores live in
``~/.cache/scd-repro/`` (override with ``SCD_REPRO_CACHE_DIR``); run
``scd-repro clear-cache``, delete the directory, or bump
:data:`CACHE_VERSION` to invalidate.

Layout (v3+): every store is one directory ``<root>/v<N>/<name>/`` of
entry files named by a hash of the key — ``.json`` for results,
``.bin`` for traces and memos.  One private core, :class:`_ShardStore`,
owns that discipline for all three; :class:`ResultCache`,
:class:`TraceStore` and :class:`MemoStore` only encode and decode their
payloads.  Writes go through a per-process temp file and ``os.replace``,
so any number of worker processes (see :mod:`repro.harness.parallel`)
can populate one cache directory concurrently without locks.  A missing
entry is a plain miss; a torn, corrupt or key-mismatched entry is
*quarantined* — moved to ``<root>/quarantine/<name>/`` with a
``.reason.txt`` sidecar explaining what was wrong — instead of being
silently re-parsed (and re-failed) on every later run.  Each store
counts its own quarantines (``quarantined``); the job engine folds them
into the caller's :class:`~repro.harness.parallel.ThroughputMetrics`.
Stale ``*.tmp`` droppings left behind by crashed writers are swept on
store construction.  Earlier versions used one monolithic
``results-v2.json`` that was re-serialized in full on every ``put`` and
corrupted under concurrent writers; bumping :data:`CACHE_VERSION` makes
those files invisible (and :meth:`_ShardStore.clear` deletes them).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

from repro import obs
from repro.core.results import SimResult
from repro.harness import faults
from repro.uarch.config import CoreConfig, cortex_a5
from repro.uarch.pipeline import MEMO_FORMAT_VERSION, check_memo_frame
from repro.vm.capture import RecordedTrace, TraceFormatError

#: Bump when the native model, uarch model, workloads or the cache layout
#: change behaviour.  v3 introduced the sharded per-entry layout.  v4: the
#: BTB round-robin victim rotation was fixed (physical-way pointer), which
#: changes simulated figures for SCD runs with JTE/branch set contention.
CACHE_VERSION = 4

#: Wall-clock instant this process (or, under ``fork``, its parent)
#: imported the cache layer.  ``*.tmp`` files older than this were left
#: by a crashed writer of an earlier run and are swept on store
#: construction; younger ones may be a live sibling's in-flight write.
_PROCESS_START = time.time()


def _cache_dir() -> Path:
    override = os.environ.get("SCD_REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "scd-repro"


def _sweep_stale_tmp(path: Path) -> int:
    """Remove ``*.tmp`` droppings in *path* older than this process."""
    if not path.is_dir():
        return 0
    removed = 0
    for tmp in path.glob("*.tmp"):
        try:
            if tmp.stat().st_mtime < _PROCESS_START:
                tmp.unlink()
                removed += 1
        except OSError:  # raced with another sweeper or a live writer
            continue
    return removed


def config_signature(config: CoreConfig) -> str:
    """Stable textual signature of every timing-relevant config field."""
    parts = [
        config.name,
        str(config.issue_width),
        str(config.branch_penalty),
        str(config.decode_redirect_penalty),
        config.direction_predictor,
        json.dumps(config.predictor_params, sort_keys=True),
        f"{config.btb_entries}/{config.btb_ways}/{config.btb_policy}"
        f"/{config.btb_index}",
        "+".join(
            f"{lv.entries}/{lv.ways}/{lv.policy}/{lv.index}/{lv.latency}"
            for lv in config.btb_levels
        ) or "flat",
        str(config.ras_depth),
        f"ic{config.icache.size_bytes}w{config.icache.ways}",
        f"dc{config.dcache.size_bytes}w{config.dcache.ways}",
        f"l2{config.l2.size_bytes if config.l2 else 0}",
        f"tlb{config.itlb_entries}/{config.dtlb_entries}/{config.tlb_miss_penalty}",
        f"dram{config.dram.mt_per_s}/{config.dram.t_cl}",
        config.indirect_scheme,
        f"scd{config.scd_stall_policy}/{config.scd_stall_cycles}/{config.scd_tables}",
        f"cap{config.jte_cap}",
        f"clk{config.clock_mhz}",
    ]
    return ";".join(parts)


def sim_cache_key(
    vm: str,
    scheme: str,
    workload: str,
    scale: str,
    config: CoreConfig | None,
    kwargs: dict | None = None,
) -> str:
    """Canonical cache key of one simulation.

    ``config=None`` resolves to the default :func:`cortex_a5` before the
    signature is taken, so the default and an explicit instance share one
    entry.  Extra keyword arguments are canonicalized with
    ``json.dumps(..., sort_keys=True)`` so dict-valued values and argument
    order can neither alias distinct runs nor miss identical ones.
    """
    if config is None:
        config = cortex_a5()
    extras = json.dumps(dict(kwargs or {}), sort_keys=True, default=repr)
    return "|".join(
        [vm, scheme, workload, scale, config_signature(config), extras]
    )


def memo_key(
    trace_key: str,
    scheme: str,
    config: CoreConfig,
    context_switch_interval: int | None,
    context_switch_policy: str,
    structure_digest: str,
    chunk_events: int,
) -> str:
    """Canonical store key of one persisted steady-state memo table.

    Memo entries are transitions of the *joint* (machine, runner) state
    under a fixed event stream, so the key embeds everything that shapes
    either: the trace identity (which itself embeds the trace-format
    version), the scheme and full timing config, the OS-interaction
    model, the native model's structural digest (handler/block layout —
    a model edit must invalidate persisted digests), the chunking grain
    and :data:`~repro.uarch.pipeline.MEMO_FORMAT_VERSION`.  Any drift in
    any of these reads as a store miss, never as a mis-applied memo.
    """
    return "|".join([
        "memo",
        f"v{MEMO_FORMAT_VERSION}",
        trace_key,
        scheme,
        config_signature(config),
        f"cs{context_switch_interval}/{context_switch_policy}",
        structure_digest,
        f"chunk{chunk_events}",
    ])


class _ShardStore:
    """The sharded-entry discipline every store shares.

    Owns the entry directory ``<root>/v<N>/<name>/``, the stale-tmp sweep
    at construction, the ``sha256`` shard naming, the hits-only in-memory
    memo, hit/miss/quarantine counting, the atomic temp-file +
    ``os.replace`` write (with its fault-injection hook), quarantine and
    :meth:`clear`.  Subclasses pick the entry suffix and define ``get`` /
    ``put`` that only encode or decode, through :meth:`_read` and
    :meth:`_write`.

    Args:
        name: store name (sub-directory under the versioned cache root).
        root: cache root directory; defaults to ``SCD_REPRO_CACHE_DIR`` or
            ``~/.cache/scd-repro``.  Pool workers receive the parent's
            resolved root explicitly so every process shards into the same
            directory.

    Attributes:
        path: the store's entry directory.
        hits / misses: per-instance probe counters (the harness summary
            reports them).
        quarantined: entries this instance moved to quarantine.
        tmp_swept: stale ``*.tmp`` files removed at construction.
    """

    _suffix = ".bin"

    #: Whether decoded hits are memoized in memory.  Entries are immutable
    #: once written (simulations are deterministic), so replaying a
    #: previously-read value is always correct — but a miss is never
    #: memoized, so entries written concurrently by other processes are
    #: picked up on the next probe.  (The pre-v3 monolithic cache memoized
    #: the whole file, going permanently stale against other writers.)
    _memoize = True

    def __init__(self, name: str, root: str | Path | None = None):
        self.name = name
        self.root = Path(root) if root is not None else _cache_dir()
        self.path = self.root / f"v{CACHE_VERSION}" / name
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.tmp_swept = _sweep_stale_tmp(self.path)
        self._memo: dict = {}

    def entry_path(self, key: str) -> Path:
        """The entry file that *key* shards to."""
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        return self.path / f"{digest}{self._suffix}"

    def _read(self, key: str, decode):
        """Probe *key*: the memoized or ``decode(bytes)`` value, else None.

        A missing entry is a plain miss.  Any ``ValueError`` (including a
        non-UTF-8 or format error), ``TypeError``, ``KeyError`` or
        ``AttributeError`` from *decode* means the entry is torn, corrupt,
        hash-collided or schema-mismatched: it is quarantined so it is not
        re-parsed every run, and read as a miss.
        """
        value = self._memo.get(key)
        if value is not None:
            self.hits += 1
            return value
        path = self.entry_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            # Missing entry (or unreadable store): a plain miss.
            self.misses += 1
            return None
        try:
            value = decode(data)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            self.quarantine(key, f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        if self._memoize:
            self._memo[key] = value
        self.hits += 1
        return value

    def _write(self, key: str, payload: bytes, value) -> None:
        """Atomically install *payload* as the entry for *key*."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name per process; os.replace is atomic within the
        # directory, so concurrent writers of the same key just race to
        # install identical bytes.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        plan = faults.get_plan()
        if plan is not None:
            plan.on_shard_write(path)
        if self._memoize:
            self._memo[key] = value

    def quarantine(self, key: str, reason: str) -> None:
        """Move the entry behind *key* to ``<root>/quarantine/<name>/``
        with a ``<entry>.reason.txt`` sidecar saying why.

        :meth:`get` calls this on a decode failure; callers call it for
        defects found deeper than ``get`` looks (a memo whose pickled
        interior ``import_payload`` rejects).  Losing the race to another
        process (or an unwritable root) is silent: the probe is a miss
        either way.
        """
        self._memo.pop(key, None)
        path = self.entry_path(key)
        if not path.exists():
            return
        quarantine_dir = self.root / "quarantine" / self.name
        dest = quarantine_dir / path.name
        try:
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return
        try:
            dest.with_name(dest.name + ".reason.txt").write_text(
                f"store: {self.name}\n"
                f"entry: {path}\n"
                f"reason: {reason}\n"
                f"quarantined_at: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n"
            )
        except OSError:
            pass
        self.quarantined += 1
        obs.event("quarantine", store=self.name, entry=path.name, reason=reason)

    def clear(self) -> None:
        """Drop every entry, stale ``*.tmp`` leftovers and any legacy
        monolithic cache files for this store name."""
        self._memo.clear()
        self.hits = 0
        self.misses = 0
        if self.path.is_dir():
            shutil.rmtree(self.path, ignore_errors=True)
        elif self.path.exists():
            self.path.unlink()
        for legacy in self.root.glob(f"{self.name}-v*.*"):
            try:
                legacy.unlink()
            except OSError:
                pass


class ResultCache(_ShardStore):
    """A sharded, concurrency-safe keyed store of simulation results.

    Entries are ``.json`` files holding ``{"key": ..., "result": ...}``;
    the key echo catches hash collisions and moved files.
    """

    _suffix = ".json"

    def __init__(self, name: str = "results", root: str | Path | None = None):
        super().__init__(name, root)

    def get(self, key: str) -> SimResult | None:
        def decode(data: bytes) -> SimResult:
            entry = json.loads(data.decode("utf-8"))
            if entry.get("key") != key:
                raise ValueError("entry key mismatch (collision or moved file)")
            return SimResult.from_dict(entry["result"])

        return self._read(key, decode)

    def put(self, key: str, result: SimResult) -> None:
        payload = json.dumps({"key": key, "result": result.to_dict()})
        self._write(key, payload.encode("utf-8"), result)


class TraceStore(_ShardStore):
    """A sharded, concurrency-safe store of recorded VM trace streams.

    Holds the columnar binary artifacts of :mod:`repro.vm.capture`
    (``.bin`` entries, which echo their key).  Keys come from
    :func:`repro.vm.capture.trace_key` and embed the trace-format
    version, so a format bump invalidates stale traces rather than
    misreading them; a corrupt, truncated or version-mismatched file
    (the :class:`~repro.vm.capture.TraceFormatError` contract) reads
    back as a miss and is quarantined.
    """

    def __init__(self, name: str = "traces", root: str | Path | None = None):
        super().__init__(name, root)

    def get(self, key: str) -> RecordedTrace | None:
        def decode(data: bytes) -> RecordedTrace:
            trace = RecordedTrace.from_bytes(data)
            if trace.key != key:
                raise TraceFormatError("entry key mismatch")
            return trace

        return self._read(key, decode)

    def put(self, key: str, trace: RecordedTrace) -> None:
        self._write(key, trace.to_bytes(key=key), trace)


class MemoStore(_ShardStore):
    """A sharded, concurrency-safe store of persisted steady-state memos.

    Holds the framed payloads of
    :meth:`repro.uarch.pipeline.SteadyStateMemo.export_payload` as
    ``.bin`` entries.  Reads validate the magic/version/CRC frame via
    :func:`repro.uarch.pipeline.check_memo_frame`; a torn or stale shard
    is quarantined and read as a miss.  The pickled interior is *not*
    decoded here — binding tokens back to live model objects needs the
    model's codec, so deeper defects surface as
    :class:`~repro.uarch.pipeline.MemoFormatError` at import time, the
    caller reports them through :meth:`quarantine` and falls back to an
    empty memo.

    Unlike traces, memo entries are *append-mostly*: a later session can
    legitimately overwrite a shard with a superset table, so reads are
    not memoized and no key echo-check beyond the payload's own embedded
    key (verified by ``import_payload``) is needed.
    """

    _memoize = False

    def __init__(self, name: str = "memos", root: str | Path | None = None):
        super().__init__(name, root)

    def get(self, key: str) -> bytes | None:
        """Return the framed payload for *key*, or None on miss."""

        def decode(data: bytes) -> bytes:
            check_memo_frame(data)
            return data

        return self._read(key, decode)

    def put(self, key: str, payload: bytes) -> None:
        self._write(key, payload, payload)


#: Process-wide default cache instances.
DEFAULT_CACHE = ResultCache()
DEFAULT_TRACE_STORE = TraceStore()
DEFAULT_MEMO_STORE = MemoStore()
