"""Columnar capture and replay of guest-VM trace streams.

A functional VM run is a pure function of (vm, source): the event stream it
emits is identical no matter which dispatch scheme or machine configuration
is being timed.  Recording that stream once and replaying it for every
other grid point removes the dominant repeated cost of an experiment sweep
— re-interpreting the guest program — and gives every scheme exactly the
same event stream to time.

Format (version :data:`TRACE_FORMAT_VERSION`): seven parallel ``array``
columns, one entry per event — ``ops``/``sites``/``takens``/``callees``
plus three id columns indexing interned side tables for the
variable-length fields (``daddrs`` tuples, builtin names, cost triples).
``to_bytes`` frames the columns behind a JSON header, zlib-compresses the
payload and prefixes magic, format version and a CRC-32 of the compressed
bytes; any torn, truncated or version-mismatched file raises
:class:`TraceFormatError`, which :class:`repro.harness.cache.TraceStore`
reads back as a cache miss (the same contract as v3 result entries).

Every simulation times a replay: a run with no stored trace interprets
the guest into a :class:`TraceRecorder`, seals it and replays the sealed
columns like any stored trace.  Replay drives a
:class:`repro.native.model.ModelRunner` straight from the columns
(:func:`replay_events`), optionally through the steady-state timing
memo (:func:`replay_events_memo`, see
:class:`repro.uarch.pipeline.SteadyStateMemo`) which skips re-simulating
event chunks whose machine state has reached a fixed point.  Which rung
of the interpreted → kernel → batch ladder replays a range is decided by
:func:`repro.native.batch.batch_replay_for` alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import warnings
import zlib
from array import array

#: Bump whenever the columnar layout, the event vocabulary or the replay
#: semantics change.  The version is baked into both the on-disk frame and
#: the :func:`trace_key`, so a bump invalidates stale traces instead of
#: misreading them.
TRACE_FORMAT_VERSION = 1

#: Events per replay chunk for the steady-state memo.  Equal to the
#: guest-code cursor period (``0x4000 / 4 = 4096`` events, see
#: :class:`repro.native.model.ModelRunner`): the cursor advances 4 bytes
#: per event and wraps at 0x4000, so after exactly 4096 events it — and
#: the D-cache/D-TLB recency footprint of the guest-code fetch addresses
#: it generates — returns to the same value at every chunk boundary.
#: Smaller chunks would leave a cursor phase in every begin digest that
#: only recurs every ``4096 / chunk`` chunks, deferring memo hits far
#: past the end of realistic traces.
MEMO_CHUNK_EVENTS = 4096

#: Trace-store usage modes (see :func:`resolve_trace_mode`).
TRACE_MODES = ("auto", "record", "replay", "off")

_MAGIC = b"SCDTRC"
_FRAME = struct.Struct("<6sHI")  # magic, format version, crc32(payload)

#: (name, array typecode) of the per-event columns, in serialization order.
EVENT_COLUMNS = (
    ("ops", "h"),
    ("sites", "b"),
    ("takens", "b"),
    ("callees", "b"),
    ("daddr_ids", "i"),
    ("builtin_ids", "h"),
    ("cost_ids", "i"),
)

#: (name, array typecode) of the interned side-table segments.
_POOL_SEGMENTS = (
    ("daddr_offsets", "I"),
    ("daddr_values", "q"),
    ("cost_values", "q"),
)


class TraceFormatError(ValueError):
    """A recorded trace is corrupt, truncated or of another format version.

    Stores treat this as a cache miss, never as fatal."""


class TraceMissError(LookupError):
    """``trace_mode="replay"`` found no recorded trace for the run."""


def trace_key(vm: str, source: str, max_steps: int) -> str:
    """Canonical trace-store key of one functional VM run.

    The key hashes the *actual compiled source text* (robust against
    workload-registry edits), and embeds the VM kind, the guest-step
    budget (a truncated run records a different stream) and
    :data:`TRACE_FORMAT_VERSION` so a format bump invalidates every stale
    trace.  Scheme and machine configuration are deliberately absent: the
    functional run does not depend on them.
    """
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:32]
    return f"trace|fmt{TRACE_FORMAT_VERSION}|{vm}|steps{max_steps}|src:{digest}"


# -- trace-mode resolution ---------------------------------------------------

_DEFAULT_MODE: str | None = None


def _check_mode(mode: str) -> str:
    if mode not in TRACE_MODES:
        raise ValueError(
            f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}"
        )
    return mode


def set_default_trace_mode(mode: str | None) -> None:
    """Install *mode* as the process-wide default (the CLI's trace flags)."""
    global _DEFAULT_MODE
    _DEFAULT_MODE = _check_mode(mode) if mode is not None else None


def resolve_trace_mode(mode: str | None = None) -> str:
    """Resolve the effective trace mode.

    Priority: explicit argument, :func:`set_default_trace_mode` (the CLI
    ``--record/--replay/--no-trace-cache`` flags), the ``SCD_REPRO_TRACE``
    environment variable, then ``"auto"`` (replay when a trace exists,
    record otherwise).  An explicit or CLI-installed mode must be valid
    (:class:`ValueError` otherwise); an unrecognised *environment* value
    is reported with a one-line warning and ignored — a typo in
    ``SCD_REPRO_TRACE`` should not abort a whole sweep.
    """
    if mode is None:
        mode = _DEFAULT_MODE
    if mode is None:
        env = os.environ.get("SCD_REPRO_TRACE") or None
        if env is not None:
            if env in TRACE_MODES:
                return env
            warnings.warn(
                f"ignoring SCD_REPRO_TRACE={env!r}: expected one of "
                f"{TRACE_MODES}",
                RuntimeWarning,
                stacklevel=2,
            )
        return "auto"
    return _check_mode(mode)


# -- the recorded artifact ---------------------------------------------------


class RecordedTrace:
    """One recorded event stream plus the run's functional outcome.

    Attributes:
        n_events: number of recorded events.
        columns: the seven parallel :data:`EVENT_COLUMNS` arrays.
        daddr_pool / builtin_pool / cost_pool: interned side tables the id
            columns index; ``builtin_ids``/``cost_ids`` use ``-1`` for
            ``None`` (replay appends a ``None`` sentinel so ``pool[-1]``
            resolves it without a branch).
        output: the functional run's output lines.
        guest_steps: the VM's guest-step count (replay has no VM to ask).
        key: the trace-store key the artifact was serialized under
            (hash-collision guard, mirrors the v3 result-entry contract).
    """

    __slots__ = (
        "n_events",
        "columns",
        "daddr_pool",
        "builtin_pool",
        "cost_pool",
        "output",
        "guest_steps",
        "key",
        "_chunk_cache",
        "_batch_plan",
    )

    def __init__(
        self,
        columns: dict,
        daddr_pool: list,
        builtin_pool: list,
        cost_pool: list,
        output: tuple,
        guest_steps: int,
        key: str = "",
    ):
        self.n_events = len(columns["ops"])
        self.columns = columns
        self.daddr_pool = daddr_pool
        self.builtin_pool = builtin_pool
        self.cost_pool = cost_pool
        self.output = tuple(output)
        self.guest_steps = guest_steps
        self.key = key
        self._chunk_cache: tuple | None = None
        self._batch_plan: tuple | None = None

    # -- serialization ----------------------------------------------------

    def to_bytes(self, key: str | None = None) -> bytes:
        """Serialize to the framed, compressed wire format."""
        if key is not None:
            self.key = key
        daddr_offsets = array("I")
        daddr_values = array("q")
        offset = 0
        for addrs in self.daddr_pool:
            daddr_offsets.append(offset)
            daddr_values.extend(addrs)
            offset += len(addrs)
        daddr_offsets.append(offset)
        cost_values = array("q")
        for cost in self.cost_pool:
            cost_values.extend(cost)
        segments = [
            (name, typecode, self.columns[name].tobytes())
            for name, typecode in EVENT_COLUMNS
        ]
        for name, typecode in _POOL_SEGMENTS:
            data = {"daddr_offsets": daddr_offsets,
                    "daddr_values": daddr_values,
                    "cost_values": cost_values}[name]
            segments.append((name, typecode, data.tobytes()))
        header = {
            "version": TRACE_FORMAT_VERSION,
            "endian": sys.byteorder,
            "key": self.key,
            "n_events": self.n_events,
            "segments": [
                [name, typecode, len(data)] for name, typecode, data in segments
            ],
            "builtins": list(self.builtin_pool),
            "output": list(self.output),
            "guest_steps": self.guest_steps,
        }
        header_blob = json.dumps(header).encode("utf-8")
        payload = zlib.compress(
            struct.pack("<I", len(header_blob))
            + header_blob
            + b"".join(data for _, _, data in segments),
            6,
        )
        return (
            _FRAME.pack(_MAGIC, TRACE_FORMAT_VERSION, zlib.crc32(payload))
            + payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RecordedTrace":
        """Parse the wire format; any defect raises :class:`TraceFormatError`."""
        try:
            magic, version, crc = _FRAME.unpack_from(data, 0)
        except struct.error as exc:
            raise TraceFormatError(f"short frame: {exc}") from exc
        if magic != _MAGIC:
            raise TraceFormatError("bad magic")
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"format version {version} != {TRACE_FORMAT_VERSION}"
            )
        payload = data[_FRAME.size:]
        if zlib.crc32(payload) != crc:
            raise TraceFormatError("CRC mismatch (torn or corrupt trace)")
        try:
            raw = zlib.decompress(payload)
            (header_len,) = struct.unpack_from("<I", raw, 0)
            header = json.loads(raw[4:4 + header_len].decode("utf-8"))
            if header["endian"] != sys.byteorder:
                raise TraceFormatError("byte-order mismatch")
            n_events = int(header["n_events"])
            columns: dict = {}
            cursor = 4 + header_len
            segments = {}
            declared = {name: typecode for name, typecode in EVENT_COLUMNS}
            declared.update(dict(_POOL_SEGMENTS))
            for name, typecode, nbytes in header["segments"]:
                if declared.get(name) != typecode:
                    raise TraceFormatError(f"unexpected segment {name!r}")
                segment = array(typecode)
                segment.frombytes(raw[cursor:cursor + nbytes])
                cursor += nbytes
                segments[name] = segment
            if cursor != len(raw):
                raise TraceFormatError("trailing bytes after last segment")
            for name, _ in EVENT_COLUMNS:
                column = segments[name]
                if len(column) != n_events:
                    raise TraceFormatError(f"column {name!r} length mismatch")
                columns[name] = column
            offsets = segments["daddr_offsets"]
            values = segments["daddr_values"]
            if len(offsets) == 0 or offsets[-1] != len(values):
                raise TraceFormatError("daddr pool offsets inconsistent")
            daddr_pool = [
                tuple(values[offsets[i]:offsets[i + 1]])
                for i in range(len(offsets) - 1)
            ]
            cost_values = segments["cost_values"]
            if len(cost_values) % 3:
                raise TraceFormatError("cost pool not a multiple of 3")
            cost_pool = [
                (cost_values[i], cost_values[i + 1], cost_values[i + 2])
                for i in range(0, len(cost_values), 3)
            ]
            builtin_pool = list(header["builtins"])
            trace = cls(
                columns,
                daddr_pool,
                builtin_pool,
                cost_pool,
                tuple(header["output"]),
                int(header["guest_steps"]),
                key=str(header.get("key", "")),
            )
        except TraceFormatError:
            raise
        except (KeyError, ValueError, TypeError, IndexError, zlib.error,
                struct.error, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"malformed trace: {exc}") from exc
        trace._validate_ids()
        return trace

    def _validate_ids(self) -> None:
        """Bounds-check the id columns so replay cannot index garbage."""
        checks = (
            ("daddr_ids", len(self.daddr_pool), 0),
            ("builtin_ids", len(self.builtin_pool), -1),
            ("cost_ids", len(self.cost_pool), -1),
        )
        for name, pool_len, minimum in checks:
            column = self.columns[name]
            if column and (min(column) < minimum or max(column) >= pool_len):
                raise TraceFormatError(f"column {name!r} indexes out of range")

    # -- inspection --------------------------------------------------------

    def iter_events(self):
        """Yield every event as the 7-tuple the trace hook receives.

        Resolves the interned id columns back to their pooled values —
        ``(op, site, taken, callee, daddrs, builtin, cost)`` — so
        inspection code (e.g. :mod:`repro.verify.invariants`) can walk a
        recorded stream without driving a runner.
        """
        daddr_pool, builtin_pool, cost_pool = _replay_pools(self)
        columns = self.columns
        for op, site, taken, callee, daddr_id, builtin_id, cost_id in zip(
            columns["ops"],
            columns["sites"],
            columns["takens"],
            columns["callees"],
            columns["daddr_ids"],
            columns["builtin_ids"],
            columns["cost_ids"],
        ):
            yield (
                op,
                site,
                taken,
                callee,
                daddr_pool[daddr_id],
                builtin_pool[builtin_id],
                cost_pool[cost_id],
            )

    # -- memo support ------------------------------------------------------

    def chunk_keys(self, chunk_events: int = MEMO_CHUNK_EVENTS) -> list:
        """Content digest of every *chunk_events*-sized event chunk.

        Two equal keys mean two byte-identical event sub-sequences (ids
        are consistent within one trace), which is what lets the
        steady-state memo recognise a repeated chunk.  Cached per chunk
        size.
        """
        cached = self._chunk_cache
        if cached is not None and cached[0] == chunk_events:
            return cached[1]
        columns = [self.columns[name] for name, _ in EVENT_COLUMNS]
        keys = []
        for start in range(0, self.n_events, chunk_events):
            stop = min(self.n_events, start + chunk_events)
            digest = hashlib.blake2b(digest_size=16)
            for column in columns:
                digest.update(column[start:stop].tobytes())
            keys.append(digest.digest())
        self._chunk_cache = (chunk_events, keys)
        return keys


# -- recording ---------------------------------------------------------------


class TraceRecorder:
    """Trace hook that buffers every event columnar-style.

    The recording run only interprets the guest; timing replays the
    sealed trace afterwards, exactly as it replays a stored one.

    Usage::

        recorder = TraceRecorder()
        output = vm.run(trace=recorder.hook)
        trace = recorder.seal(output, vm.steps)
        replay_events_memo(trace, runner, memo)
    """

    def __init__(self):
        self._ops = array("h")
        self._sites = array("b")
        self._takens = array("b")
        self._callees = array("b")
        self._daddr_ids = array("i")
        self._builtin_ids = array("h")
        self._cost_ids = array("i")
        self._daddr_pool: list = []
        self._daddr_index: dict = {}
        self._builtin_pool: list = []
        self._builtin_index: dict = {}
        self._cost_pool: list = []
        self._cost_index: dict = {}

    def hook(self, op, site, taken, callee, daddrs, builtin, cost) -> None:
        # Hot path: called once per guest bytecode during a recording run.
        daddr_id = self._daddr_index.get(daddrs)
        if daddr_id is None:
            daddr_id = len(self._daddr_pool)
            self._daddr_index[daddrs] = daddr_id
            self._daddr_pool.append(tuple(daddrs))
        if builtin is None:
            builtin_id = -1
        else:
            builtin_id = self._builtin_index.get(builtin)
            if builtin_id is None:
                builtin_id = len(self._builtin_pool)
                self._builtin_index[builtin] = builtin_id
                self._builtin_pool.append(builtin)
        if cost is None:
            cost_id = -1
        else:
            cost_id = self._cost_index.get(cost)
            if cost_id is None:
                cost_id = len(self._cost_pool)
                self._cost_index[cost] = cost_id
                self._cost_pool.append(tuple(cost))
        self._ops.append(op)
        self._sites.append(site)
        self._takens.append(taken)
        self._callees.append(callee)
        self._daddr_ids.append(daddr_id)
        self._builtin_ids.append(builtin_id)
        self._cost_ids.append(cost_id)

    @property
    def events(self) -> int:
        return len(self._ops)

    def seal(self, output, guest_steps: int) -> RecordedTrace:
        """Freeze the buffers into a :class:`RecordedTrace`."""
        columns = {
            "ops": self._ops,
            "sites": self._sites,
            "takens": self._takens,
            "callees": self._callees,
            "daddr_ids": self._daddr_ids,
            "builtin_ids": self._builtin_ids,
            "cost_ids": self._cost_ids,
        }
        return RecordedTrace(
            columns,
            self._daddr_pool,
            self._builtin_pool,
            self._cost_pool,
            tuple(output),
            guest_steps,
        )


# -- replay ------------------------------------------------------------------


def _replay_pools(trace: RecordedTrace) -> tuple:
    # A trailing None sentinel makes the -1 "no value" id resolve through
    # plain indexing (pool[-1]) with no per-event branch.
    daddr_pool = trace.daddr_pool
    builtin_pool = list(trace.builtin_pool) + [None]
    cost_pool = list(trace.cost_pool) + [None]
    return daddr_pool, builtin_pool, cost_pool


def replay_events(trace: RecordedTrace, on_event, runner=None) -> int:
    """Drive every recorded event through *on_event*.  Returns the count.

    When *runner* is given, :func:`repro.native.batch.batch_replay_for`
    picks the replay rung: a runner with a direct kernel table replays
    through compiled kernels (and superblocks, unless ``use_batch=False``)
    with the same semantics as *on_event*; any other runner, or none,
    takes the interpreted *on_event* loop.
    """
    return _drive(trace, on_event, runner, None, MEMO_CHUNK_EVENTS)


def replay_events_memo(
    trace: RecordedTrace,
    runner,
    memo,
    chunk_events: int = MEMO_CHUNK_EVENTS,
) -> int:
    """Replay through the steady-state memo, chunk by chunk.

    Chunks whose content key and full machine/runner begin state match a
    memoized transition are applied as a batched counter delta plus an
    end-state install instead of being re-simulated (see
    :class:`repro.uarch.pipeline.SteadyStateMemo`); every other chunk is
    replayed on the rung :func:`replay_events` would pick and offered to
    the memo.  Returns the event count.
    """
    return _drive(trace, runner.on_event, runner, memo, chunk_events)


def _drive(trace, on_event, runner, memo, chunk_events) -> int:
    """The one replay driver behind :func:`replay_events` and
    :func:`replay_events_memo`.

    Without a memo the whole trace is one ``[0, n)`` range; with one,
    each *chunk_events* chunk is a range the memo may skip.
    """
    # Resolved through the module at call time, never bound at import:
    # the rung choice lives in repro.native, and tracing wrappers
    # installed on the module must see every call.
    from repro.native import batch

    n_events = trace.n_events
    executor = batch.batch_replay_for(runner, trace)
    run_range = (
        executor.run_range if executor is not None
        else _interpreted_range(trace, on_event)
    )
    if memo is None:
        chunks = ((0, n_events, None),)
    else:
        chunks = (
            (start, min(n_events, start + chunk_events), key)
            for start, key in zip(
                range(0, n_events, chunk_events),
                trace.chunk_keys(chunk_events),
            )
        )
    for start, stop, key in chunks:
        if memo is not None:
            if memo.try_apply(key, stop - start):
                continue
            memo.begin()
        run_range(start, stop)
        if memo is not None:
            memo.commit(key)
    return n_events


def _interpreted_range(trace: RecordedTrace, on_event):
    """Range executor feeding each event of a range to *on_event*."""
    daddr_pool, builtin_pool, cost_pool = _replay_pools(trace)
    columns = trace.columns
    ops = columns["ops"]
    sites = columns["sites"]
    takens = columns["takens"]
    callees = columns["callees"]
    daddr_ids = columns["daddr_ids"]
    builtin_ids = columns["builtin_ids"]
    cost_ids = columns["cost_ids"]

    def run_range(start: int, stop: int) -> None:
        for index in range(start, stop):
            on_event(
                ops[index],
                sites[index],
                takens[index],
                callees[index],
                daddr_pool[daddr_ids[index]],
                builtin_pool[builtin_ids[index]],
                cost_pool[cost_ids[index]],
            )

    return run_range
