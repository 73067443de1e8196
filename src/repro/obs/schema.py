"""Reading and validating the span-trace JSONL format.

The format is defined by :mod:`repro.obs.trace` (see
``docs/OBSERVABILITY.md`` for the full field reference).  This module is
the read side: parse a log, rebuild the span tree across processes, and
report every structural violation — unknown kinds, missing fields,
version mismatches, unclosed spans, dangling parents, and worker events
whose ancestry never reaches the parent process ("orphans").  CI runs it
(via ``python -m repro.obs``) on the log of a parallel sweep and fails
the build on any error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import SCHEMA_NAME, SCHEMA_VERSION

#: Required fields per record kind (beyond the common ``v``/``kind``).
REQUIRED_FIELDS = {
    "meta": ("schema", "pid", "t"),
    "span_start": ("id", "parent", "name", "pid", "t"),
    "span_end": ("id", "name", "pid", "t", "dur_s"),
    "event": ("parent", "name", "pid", "t"),
}

#: Span names the harness emits, outermost first.  Extra names are
#: allowed (the validator checks structure, not vocabulary); this tuple
#: is the reference for docs and golden tests.
KNOWN_SPANS = (
    "sweep",
    "corpus",
    "experiment",
    "job",
    "cache",
    "compile",
    "record",
    "replay",
    # Sweep-service spans (repro.service): the daemon lifetime, one per
    # admitted submission, one per unique in-flight grid point, and one
    # per backend round over run_jobs_partial.
    "service",
    "request",
    "flight",
    "batch",
)


@dataclass
class SpanNode:
    """One reconstructed span with its children."""

    id: str
    name: str
    pid: int
    parent: str | None
    t_start: float
    t_end: float | None = None
    dur_s: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.t_end is not None


@dataclass
class TraceLog:
    """A parsed trace: records, the span index, and validation errors."""

    records: list[dict]
    spans: dict[str, SpanNode]
    roots: list[SpanNode]
    errors: list[str]
    root_pid: int | None

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_name(self, name: str) -> list[SpanNode]:
        return [s for s in self.spans.values() if s.name == name]

    def pids(self) -> set[int]:
        return {s.pid for s in self.spans.values()}

    def worker_pids(self) -> set[int]:
        return {
            s.pid for s in self.spans.values() if s.pid != self.root_pid
        }


def read_records(path: str | Path) -> list[dict]:
    """Parse *path* as JSONL; raises ``ValueError`` on unparseable lines."""
    records = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: record is not an object")
        records.append(record)
    return records


def validate_records(records: list[dict]) -> TraceLog:
    """Structural validation; returns the parsed log with its errors.

    Checks, in order: a leading ``meta`` record with the right schema
    name and version; per-record version tags and required fields;
    unique span ids; every ``span_end`` matching a ``span_start``; every
    span closed; every non-null parent reference resolving to a known
    span; and every worker-process record (pid differing from the meta
    record's) rooted — possibly through ancestors — in a span of the
    parent process.  An unclosed span or an orphaned worker record is an
    error, not a warning: both mean the merged tree lies about what ran.
    """
    errors: list[str] = []
    spans: dict[str, SpanNode] = {}
    root_pid: int | None = None

    if not records:
        return TraceLog([], {}, [], ["empty trace (no records)"], None)

    head = records[0]
    if head.get("kind") != "meta":
        errors.append(f"first record must be meta, got {head.get('kind')!r}")
    else:
        if head.get("schema") != SCHEMA_NAME:
            errors.append(f"unknown schema {head.get('schema')!r}")
        root_pid = head.get("pid")
    for index, record in enumerate(records):
        kind = record.get("kind")
        if kind not in REQUIRED_FIELDS:
            errors.append(f"record {index}: unknown kind {kind!r}")
            continue
        if record.get("v") != SCHEMA_VERSION:
            errors.append(
                f"record {index}: version {record.get('v')!r} != "
                f"{SCHEMA_VERSION}"
            )
        missing = [f for f in REQUIRED_FIELDS[kind] if f not in record]
        if missing:
            errors.append(f"record {index}: {kind} missing {missing}")
            continue
        if kind == "meta" and index > 0:
            errors.append(f"record {index}: duplicate meta record")
        elif kind == "span_start":
            span_id = record["id"]
            if span_id in spans:
                errors.append(f"record {index}: duplicate span id {span_id}")
                continue
            spans[span_id] = SpanNode(
                id=span_id,
                name=record["name"],
                pid=record["pid"],
                parent=record["parent"],
                t_start=record["t"],
                attrs=dict(record.get("attrs") or {}),
            )
        elif kind == "span_end":
            node = spans.get(record["id"])
            if node is None:
                errors.append(
                    f"record {index}: span_end for unknown id {record['id']}"
                )
                continue
            if node.closed:
                errors.append(f"record {index}: span {node.id} ended twice")
            node.t_end = record["t"]
            node.dur_s = record["dur_s"]
            node.attrs.update(record.get("attrs") or {})

    roots: list[SpanNode] = []
    for node in spans.values():
        if not node.closed:
            errors.append(f"unclosed span {node.id} ({node.name})")
        if node.parent is None:
            roots.append(node)
        elif node.parent not in spans:
            errors.append(
                f"span {node.id} ({node.name}) has dangling parent "
                f"{node.parent}"
            )
        else:
            spans[node.parent].children.append(node)

    for record in records:
        if record.get("kind") != "event":
            continue
        parent = record.get("parent")
        if parent is not None and parent not in spans:
            errors.append(
                f"event {record.get('name')!r} has dangling parent {parent}"
            )

    if root_pid is not None:
        for node in spans.values():
            if node.pid == root_pid:
                continue
            # Walk up: a worker span must hang (transitively) off a span
            # of the parent process, or it was never merged — orphaned.
            seen = set()
            cursor = node
            while (
                cursor.parent in spans
                and cursor.pid != root_pid
                and cursor.id not in seen
            ):
                seen.add(cursor.id)
                cursor = spans[cursor.parent]
            if cursor.pid != root_pid:
                errors.append(
                    f"orphaned worker span {node.id} ({node.name}, pid "
                    f"{node.pid}): no ancestry into pid {root_pid}"
                )

    return TraceLog(records, spans, roots, errors, root_pid)


def validate_file(path: str | Path) -> TraceLog:
    """Read and validate *path* in one call."""
    try:
        records = read_records(path)
    except (OSError, ValueError) as exc:
        return TraceLog([], {}, [], [str(exc)], None)
    return validate_records(records)


def summarize(log: TraceLog) -> str:
    """Human summary: span counts and total durations per name."""
    counts: dict[str, list] = {}
    for node in log.spans.values():
        entry = counts.setdefault(node.name, [0, 0.0])
        entry[0] += 1
        entry[1] += node.dur_s or 0.0
    lines = [
        f"{len(log.records)} records, {len(log.spans)} spans, "
        f"{len(log.pids())} process(es)"
    ]
    for name in sorted(counts, key=lambda n: -counts[n][1]):
        count, total = counts[name]
        lines.append(f"  {name:<12} x{count:<4} {total:9.3f}s total")
    return "\n".join(lines)
