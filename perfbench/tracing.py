"""Span tracing around the public calls into each layer of ``repro``.

The benchmark never edits the program: :class:`Tracer` swaps wrappers in
for the public functions and methods listed in :data:`TARGETS`, records
one span per call (name, start, end, parent, process, thread) in memory,
and puts the originals back on :meth:`Tracer.uninstall`.

Pool workers are forked from a traced process, so they inherit the
wrappers.  Their spans ride home on the ``meta`` dict that
``execute_job`` already returns through the pool (key :data:`META_KEY`)
and are folded back in by the wrapper around ``run_jobs`` /
``run_jobs_partial``.  The sweep server runs in its own process and
writes its spans to a file at shutdown (see ``serve.py``).

All times are host ``time.perf_counter()`` seconds (CLOCK_MONOTONIC on
Linux, so spans from different processes share one time base).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading

from time import perf_counter

#: Key under which pool workers ship their spans back in the job meta.
META_KEY = "perfbench_spans"

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class; the wrapper is installed on the class.
TARGETS = (
    ("repro.harness.parallel", "simulate", "simulate"),
    ("repro.harness.parallel", "execute_job", "parallel.execute_job"),
    ("repro.harness.parallel", "run_jobs", "parallel.run_jobs"),
    ("repro.harness.parallel", "run_jobs_partial", "parallel.run_jobs"),
    ("repro.service.scheduler", "run_jobs_partial", "parallel.run_jobs"),
    ("repro.harness.parallel", "get_model", "native.get_model"),
    ("repro.core.simulation", "get_model", "native.get_model"),
    ("repro.native.batch", "batch_replay_for", "native.batch_plan"),
    ("repro.core.simulation", "replay_events_memo", "capture.replay"),
    ("repro.core.simulation", "replay_events", "capture.replay"),
    ("repro.vm.capture", "TraceRecorder.seal", "capture.seal"),
    ("repro.vm.lua", "LuaVM.from_source", "vm.compile"),
    ("repro.vm.js", "JsVM.from_source", "vm.compile"),
    ("repro.vm.lua", "LuaVM.run", "vm.run"),
    ("repro.vm.js", "JsVM.run", "vm.run"),
    ("repro.uarch.pipeline", "SteadyStateMemo.import_payload", "memo.import"),
    ("repro.uarch.pipeline", "SteadyStateMemo.export_payload", "memo.export"),
    ("repro.harness.cache", "ResultCache.get", "cache.results.get"),
    ("repro.harness.cache", "ResultCache.put", "cache.results.put"),
    ("repro.harness.cache", "TraceStore.get", "cache.traces.get"),
    ("repro.harness.cache", "TraceStore.put", "cache.traces.put"),
    ("repro.harness.cache", "MemoStore.get", "cache.memos.get"),
    ("repro.harness.cache", "MemoStore.put", "cache.memos.put"),
    ("repro.service.client", "SweepClient.submit", "service.submit"),
)

#: Span-name prefix -> layer (the ``repro`` module the call enters).
LAYERS = (
    ("vm.", "vm"),
    ("capture.", "capture"),
    ("native.", "native"),
    ("memo.", "uarch"),
    ("cache.", "cache"),
    ("parallel.", "parallel"),
    ("simulate", "simulation"),
    ("service.", "service"),
)

LAYER_NAMES = tuple(layer for _, layer in LAYERS)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, start: float, end: float, parent, span_id,
                **extra) -> None:
        span = {
            "id": span_id, "parent": parent, "name": name,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "start": start, "end": end, **extra,
        }
        with self._lock:
            self.spans.append(span)

    def _new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{os.getpid()}-{self._next}"

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name == "parallel.run_jobs":
                kwargs["on_result"] = tracer._harvester(kwargs.get("on_result"))
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = tracer._new_id()
            mark = len(tracer.spans)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = tracer._annotate(name, args, result)
            tracer._record(name, start, end, parent, span_id, **extra)
            if name == "parallel.execute_job":
                # Ship this job's spans home with its meta (a no-op hop
                # when the job ran in-process: the harvester puts them back).
                result[1][META_KEY] = tracer._take_since(mark)
            return result

        return traced

    @staticmethod
    def _annotate(name: str, args, result) -> dict:
        if name.endswith(".get"):
            return {"hit": result is not None}
        if name in ("cache.traces.put", "cache.memos.put"):
            store, key = args[0], args[1]
            try:
                return {"bytes": store.entry_path(key).stat().st_size}
            except OSError:
                return {"bytes": 0}
        return {}

    def _take_since(self, mark: int) -> list[dict]:
        """Remove and return this thread's spans recorded after *mark*."""
        me = (os.getpid(), threading.get_ident())
        with self._lock:
            taken = [
                s for s in self.spans[mark:] if (s["pid"], s["tid"]) == me
            ]
            kept = [
                s for s in self.spans[mark:] if (s["pid"], s["tid"]) != me
            ]
            del self.spans[mark:]
            self.spans.extend(kept)
        return taken

    def _harvester(self, downstream):
        tracer = self

        def on_result(key, result, meta):
            spans = meta.pop(META_KEY, None)
            if spans:
                with tracer._lock:
                    tracer.spans.extend(spans)
            if downstream is not None:
                downstream(key, result, meta)

        return on_result

    def drain(self) -> list[dict]:
        """Remove and return every span recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- installation --------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Import every target module before patching any: a module that
        # imports a patched name later would bind (and re-wrap) a wrapper.
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, attr = path.rpartition(".")
            target = getattr(module, owner) if owner else module
            raw = target.__dict__[attr] if owner else getattr(module, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._saved.append((target, attr, raw))
            setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, raw in reversed(self._saved):
            setattr(target, attr, raw)
        self._saved = []
