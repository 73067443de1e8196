"""Chunk-compiled batch replay: columnar superblock kernels.

PR 6's per-(opcode, site) kernels removed interpretation overhead from
each event but still pay a Python-level dispatch per event: a dict probe
on the kernel key plus a function call.  This module amortizes that cost
over whole steady-state regions:

* **Trace segmentation** (:func:`find_periodic_runs`): scan the recorded
  trace's key columns for periodic runs — maximal spans where the
  ``(opcode, site)`` sequence repeats with period ``p <= MAX_PERIOD``
  (a guest loop body in steady state).  Candidate periods come from a
  last-occurrence map; verification and maximal extension are byte-slice
  comparisons on the columnar arrays (``s`` is ``p``-periodic over
  ``[i, m)`` iff ``s[i:m-p] == s[i+p:m]``, monotone in ``m``, so the
  maximal end is found by bisection at C speed).
* **Superblock compilation** (:func:`_compiled_superblock`): for each
  distinct (key sequence, operand spec), exec-compile ONE straight-line
  function that inlines every member kernel body back-to-back, wrapped
  in a repetition loop.  Counter updates accumulate in the same deferred
  cells as the single-event kernels (one ``cnt[0] += reps`` per call).
  Two layers of specialization beyond the per-event kernels:
  *value burning* — per-member operands proven constant across the run
  (the loop back-edge is always taken, an accumulator slot address never
  moves, a callout always hits the same builtin, ...) are burnt into the
  code as literals, collapsing dynamic branch arms, work-loop trip
  counts and stub chains at compile time; and *slow-path inlining* —
  the :class:`_BatchEmitter` projections open-code cache/TLB/BTB miss
  paths and stalls that single-event kernels leave as method calls.
  Under the threaded strategy, members after the first have a
  statically-known previous handler, so the dynamic ``prev``-check
  dispatch collapses to inlined straight-line blocks.
* **Columnar feed** (:class:`BatchReplay`): the compiled function takes
  the trace's columnar arrays plus a base index and repetition count and
  loops inside one frame — per-iteration cost is array indexing, not a
  Python call.  Events outside runs (cold prefixes, run boundaries,
  loop-exit tails) fall back to the per-event kernel table; events the
  kernel table itself cannot compile stay on the interpreted fallback —
  the full ladder is interpreted → kernel → batch.

Exactness follows the PR 6 argument: every emitted member is a
constant-folded projection of the same uarch model methods, the prologue
bookkeeping (cursor advance, context-switch tick) is replicated
per-member, value burning only ever narrows an array load to its proven
single value, and the inlined slow paths mirror the
``Cache``/``Tlb``/``Btb``/predictor update rules statement-for-statement
(see the ``batch_*_lines`` helpers in :mod:`repro.uarch.pipeline`).
The ``use_batch=False`` reference keyword keeps the per-event kernel
path bit-for-bit, and batch replay rides on the same safety contract:
only plain ``Machine`` bindings (``kernel.direct``), with memo
boundaries flushing the shared deferred cells.

:func:`batch_replay_for` is the one place that picks the replay rung
for a recorded trace; :mod:`repro.vm.capture` only drives the range
executor it returns, or its own interpreted loop when there is none.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right

from repro import obs
from repro.native.kernel import (
    REG_BATCH,
    _Emitter,
    _LazyTable,
    _PREAMBLE,
    _emit_dispatch,
    _emit_handler_body,
    _emit_tail,
)
from repro.native.model import (
    _GUEST_CODE_BASE,
    _VM_STRUCT_PC_SLOT,
    get_model,
)
from repro.native.specs import work_loop_iterations
from repro.uarch.pipeline import (
    batch_bop_lines,
    batch_cond_lines,
    batch_daccess_const_lines,
    batch_daccess_expr_lines,
    batch_daddrs_loop_lines,
    batch_direct_jump_lines,
    batch_ifetch_lines,
    batch_indirect_jump_lines,
)

# -- trace segmentation --------------------------------------------------------

#: Longest loop body (in events) a superblock inlines; longer periods stay
#: on the per-event kernel table.  Steady-state guest loops on the bench
#: grid run bodies of up to ~50 events (pidigits' digit loop), so the cap
#: is sized for whole-loop-body capture, not micro-patterns.
MAX_PERIOD = 64
#: A candidate run must repeat its body at least this many times...
MIN_REPS = 4
#: ...and cover at least this many events, or compiling isn't worth it.
MIN_RUN_EVENTS = 32
#: A (sequence, spec) key's runs must cover at least this many events
#: across the whole trace before :class:`BatchReplay` will exec-compile
#: a superblock for it; cheaper keys stay on the per-event table (the
#: compile itself costs more wall time than it could save).
MIN_COMPILE_EVENTS = 4096


def find_periodic_runs(ops, sites, n, max_period=MAX_PERIOD,
                       min_reps=MIN_REPS, min_events=MIN_RUN_EVENTS):
    """Segment ``[0, n)`` into periodic runs over the key columns.

    Returns ``[(start, period, reps), ...]`` in trace order, runs
    non-overlapping and each covering ``period * reps`` events (full
    body repetitions only — a trailing partial repetition is left to the
    per-event path).  Single-occurrence sequences never qualify:
    ``min_reps`` repetitions must verify before a run is accepted.

    ``ops`` must be a 2-byte-itemsize array and ``sites`` 1-byte (the
    trace's native column types); periodicity checks compare raw byte
    slices of both columns.
    """
    ops_b = ops.tobytes()
    sites_b = sites.tobytes()
    runs = []
    last: dict = {}
    i = 0
    while i < n:
        op = ops[i]
        prev = last.get(op)
        last[op] = i
        if prev is None:
            i += 1
            continue
        p = i - prev
        need = p * min_reps
        if p > max_period or i + need > n:
            i += 1
            continue
        if not (ops_b[2 * i:2 * (i + need - p)] == ops_b[2 * (i + p):2 * (i + need)]
                and sites_b[i:i + need - p] == sites_b[i + p:i + need]):
            i += 1
            continue
        # Maximal extension: periodicity over [i, m) is monotone in m.
        lo, hi = i + need, n
        if (ops_b[2 * i:2 * (hi - p)] == ops_b[2 * (i + p):2 * hi]
                and sites_b[i:hi - p] == sites_b[i + p:hi]):
            lo = hi
        else:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if (ops_b[2 * i:2 * (mid - p)] == ops_b[2 * (i + p):2 * mid]
                        and sites_b[i:mid - p] == sites_b[i + p:mid]):
                    lo = mid
                else:
                    hi = mid
        reps = (lo - i) // p
        covered = reps * p
        if covered < min_events:
            i += 1
            continue
        runs.append((i, p, reps))
        end = i + covered
        # Periodicity guarantees the final repetition holds the last
        # occurrence of every key in the body — refreshing `last` over
        # just that window keeps the scan linear.
        for j in range(max(i + 1, end - p), end):
            last[ops[j]] = j
        i = end
    return runs


class _Dyn:
    """Singleton marking a per-member operand as dynamic (loaded from the
    columnar arrays per repetition rather than burnt into the code)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DYN"


DYN = _Dyn()


def _column_const(col, start, end, period, offset):
    """The single value the strided column holds across every repetition
    of the run at member *offset*, or :data:`DYN`."""
    strided = col[start + offset:end:period]
    first = strided[0]
    return first if strided.count(first) == len(strided) else DYN


def trace_plan(trace):
    """Build (and cache on the trace) the batch segmentation plan.

    Returns a tuple of ``(start, end, period, seq, spec)`` entries where
    *seq* is the member key sequence (``((op, site), ...)``) and *spec*
    the per-member operand constancy spec: a ``(daddrs, taken, cost,
    (callee, builtin))`` tuple whose entries are either the single value
    the operand held across every repetition (resolved through the
    trace's interning pools) or :data:`DYN`.  The plan is
    model-independent — one segmentation serves every scheme replaying
    the trace — and :class:`~repro.harness.cache.TraceStore` memoizes
    parsed traces per process, so the scan is paid once per trace, not
    once per grid point.
    """
    plan = trace._batch_plan
    if plan is not None:
        return plan
    cols = trace.columns
    ops = cols["ops"]
    sites = cols["sites"]
    takens = cols["takens"]
    callees = cols["callees"]
    daddr_ids = cols["daddr_ids"]
    builtin_ids = cols["builtin_ids"]
    cost_ids = cols["cost_ids"]
    daddr_pool = trace.daddr_pool
    builtin_pool = trace.builtin_pool
    cost_pool = trace.cost_pool
    entries = []
    covered = 0
    for start, period, reps in find_periodic_runs(ops, sites, trace.n_events):
        end = start + period * reps
        seq = tuple((ops[k], sites[k]) for k in range(start, start + period))
        spec = []
        for j in range(period):
            d_id = _column_const(daddr_ids, start, end, period, j)
            taken = _column_const(takens, start, end, period, j)
            c_id = _column_const(cost_ids, start, end, period, j)
            callee = _column_const(callees, start, end, period, j)
            b_id = _column_const(builtin_ids, start, end, period, j)
            if callee is DYN or b_id is DYN:
                call = DYN
            else:
                call = (callee, builtin_pool[b_id] if b_id >= 0 else None)
            spec.append((
                daddr_pool[d_id] if d_id is not DYN else DYN,
                taken,
                (cost_pool[c_id] if c_id >= 0 else None)
                if c_id is not DYN else DYN,
                call,
            ))
        entries.append((start, end, period, seq, tuple(spec)))
        covered += end - start
    plan = tuple(entries)
    trace._batch_plan = plan
    obs.event(
        "batch_plan",
        events=trace.n_events, runs=len(plan), covered=covered,
    )
    return plan


# -- superblock compilation ----------------------------------------------------


class _BatchEmitter(_Emitter):
    """Emitter whose uarch projections inline every slow path.

    A single-event kernel body runs once per event sighting, so the
    shared :class:`~repro.native.kernel._Emitter` keeps non-MRU cache
    probes, TLB walks, BTB scans and stalls as method calls to bound
    code size.  A superblock body covers whole steady-state runs —
    orders of magnitude more executions per compile — so these overrides
    trade code size for a zero-call steady state (the
    ``batch_*_lines`` projections in :mod:`repro.uarch.pipeline`).

    ``daddrs_const`` additionally burns a proven-constant data-address
    tuple into a chain of constant accesses with page-check elision,
    replacing the dynamic per-address loop.

    Two further compile-time analyses ride on the emitter state:

    * **Per-set MRU maps** (``iknown``/``dknown``): after any emitted
      probe, that line is MRU in its set whether it hit or missed, so a
      later probe of the same (set, line) — with no intervening probe of
      that set — is a model no-op and is elided.  Dynamic accesses and
      method calls that touch a cache clear the affected map;
      conditionally-executed probes consume facts but only invalidate.
    * **Observe recording** (``cond_record``): pass one records every
      inlined direction-predictor observe ``(pc, taken, conditional)``
      in emission order, from which :func:`_superblock_folds` computes
      the history fixed points; pass two replays the emission with
      ``fold_plan`` burning the folded table indices in.
    """

    def __init__(self, shape: tuple):
        super().__init__(shape)
        self.daddrs_const = DYN
        self.iknown: dict = {}
        self.dknown: dict = {}
        self.cond_depth = 0
        self.cond_record: list = []
        self.fold_plan = None
        self._fold_i = 0
        self._fold_current = None
        # Hoisted way-list names (set index -> local name), bound once in
        # the superblock prologue; deferred TLB access counts for walks
        # emitted unconditionally at depth 0.
        self.isetvars: dict = {}
        self.dsetvars: dict = {}
        self.itlb_acc = 0
        self.dtlb_acc = 0
        # I-side steady-state fold: pass one records every ifetch call's
        # page form and emitted probes; pass two consumes per-call
        # elision decisions.  Dynamic ``eb`` method fetches probe
        # arbitrary sets, poisoning the whole analysis.
        self.ic_record: list = []
        self.ic_fold = None
        self._ic_i = 0
        self.ic_poison = False

    def _defer_tlb_acc(self, lines):
        """Strip unconditional top-level TLB access increments from an
        about-to-be-emitted block, deferring them into the cell stats.
        Indented increments (conditional page-check arms) stay inline."""
        if self.cond_depth > 0:
            return lines
        kept = []
        for line in lines:
            if line == "ITLBO.accesses += 1":
                self.itlb_acc += 1
            elif line == "DTLBO.accesses += 1":
                self.dtlb_acc += 1
            else:
                kept.append(line)
        return kept

    def _ifetch(self, block, known_ipage):
        fold = record = None
        if self.ic_fold is not None:
            folded_sets, actions = self.ic_fold
            fold = (folded_sets, actions[self._ic_i])
            self._ic_i += 1
            if fold[1] == "static":
                # Transition elided whole: the guarded ITLB fixed point
                # makes the walk an MRU-cycle hit; only the access count
                # survives, deferred like the unconditional walks below.
                self.itlb_acc += 1
        else:
            record = self.ic_record
        lines, page, accesses = batch_ifetch_lines(
            block, known_ipage, self.imask, self.iways,
            known=self.iknown, cond=self.cond_depth > 0,
            setvars=self.isetvars, pages_var="_IPS",
            record=record, fold=fold,
        )
        if record is not None:
            record[-1] = (self.cond_depth > 0,) + record[-1]
        return self._defer_tlb_acc(lines), page, accesses

    def _dconst(self, address: int, known_dpage):
        lines, page = batch_daccess_const_lines(
            address, known_dpage, self.dshift, self.dmask, self.dways,
            known=self.dknown, cond=self.cond_depth > 0,
            setvars=self.dsetvars, pages_var="_DPS",
        )
        return self._defer_tlb_acc(lines), page

    def _dexpr(self, expr: str):
        # A dynamic address may probe any set: every D-side fact dies.
        self.dknown.clear()
        return batch_daccess_expr_lines(
            expr, self.dshift, self.dmask, self.dways
        )

    def _dloop(self, var: str):
        self.dknown.clear()
        return batch_daddrs_loop_lines(
            var, self.dshift, self.dmask, self.dways
        )

    def _cond(self, pc: int, taken: bool, category: str):
        return batch_cond_lines(
            pc, taken, category, self.pred_sig,
            self.btb_sets, self.btb_ways, self.btb_policy,
            fold=self._fold_current, hoist=True,
        )

    def inline_cond_block(self, block, depth: int, page_in):
        self.cond_depth += 1
        try:
            return super().inline_cond_block(block, depth, page_in)
        finally:
            self.cond_depth -= 1

    def cond_const(self, pc: int, taken: bool, category: str,
                   depth: int = 0, defer: bool | None = True) -> None:
        if self.fold_plan is not None:
            self._fold_current = self.fold_plan[self._fold_i]
            self._fold_i += 1
        else:
            self.cond_record.append(
                (pc, bool(taken), depth > 0 or self.cond_depth > 0)
            )
        try:
            super().cond_const(pc, taken, category, depth, defer)
        finally:
            self._fold_current = None

    def _dj(self, pc: int, target: int):
        return batch_direct_jump_lines(
            pc, target, self.btb_sets, self.btb_ways, self.btb_policy
        )

    def _ij(self, pc: int, target: int, hint, category: str):
        return batch_indirect_jump_lines(
            pc, target, hint, category, self.scheme,
            self.btb_sets, self.btb_ways, self.btb_policy,
        )

    def bop_open(self, pc: int, table: int) -> None:
        lines = batch_bop_lines(
            table, self.btb_sets, self.btb_ways, self.btb_policy
        )
        if lines is None:
            # Non-inlinable BTB: the method does its own accounting (and,
            # for multi-level geometries, the late-hit stall).
            self.emit(f"_t = bop({pc}, {table})")
        else:
            self.emit_lines(lines)
        self.emit("if _t is None:")

    def daddrs_loop(self, var: str = "daddrs") -> None:
        daddrs = self.daddrs_const
        if daddrs is DYN:
            super().daddrs_loop(var)
            return
        # Constant fold of the dynamic loop: same access order, the
        # variable-count accounting rides the deferred cell instead.
        for address in daddrs:
            self.daccess_const(address)


#: Work loops with at most this many compile-time-known iterations are
#: unrolled into static blocks and constant branches; longer ones keep
#: the loop shape (method calls) with a literal bound.
_WORK_UNROLL = 4


def _emit_work_iters(em, work_block, work_pc: int, it: int) -> None:
    if it <= _WORK_UNROLL:
        for i in range(it):
            em.inline_static_block(work_block)
            em.cond_const(work_pc, i < it - 1, "work_loop")
        return
    em.emit(f"for _i in range({it}):")
    em.emit(f"    eb({em.ref(work_block)})")
    em.emit(f"    cond({work_pc}, _i < {it - 1}, 'work_loop')")
    em.ipage = None
    em.iknown.clear()  # dynamic eb probes evict arbitrarily
    em.ic_poison = True


def _emit_ret_inline(em, return_pc: int) -> None:
    """Inline ``m.ret(pc, return_pc)``: RAS pop, compare, mispredict."""
    em.emit(f"if rasq() != {return_pc}:")
    em.emit("    stats.ras_mispredicts += 1")
    em.emit("    stats.mispredicts_by_category['return'] += 1")
    em.emit("    if BRP:")
    em.emit("        stats.cycles += BRP")
    em.emit("        CB['branch_penalty'] += BRP")


def _emit_tail_spec(em, model, handler, taken_c, cost_c, call_c) -> None:
    """Handler-kind terminator with proven-constant operands burnt in.

    Every specialization is the constant fold of the corresponding
    dynamic arm in :func:`~repro.native.kernel._emit_tail` (which
    handles any operand still :data:`DYN`): a constant-taken branch
    emits only the resolved arm as an always-executed block, a constant
    cost resolves the work-loop trip count at compile time, a constant
    callee/builtin resolves the stub statically and unrolls its chain
    with the RAS push/pop inlined.
    """
    kind = handler.kind
    if kind == "branchy" and taken_c is not DYN:
        taken = taken_c == 1
        em.cond_const(handler.branch_pc, taken, "guest_branch")
        block = handler.tk if taken else handler.nt
        tail = handler.tk_tail if taken else handler.nt_tail
        em.inline_static_block(block)
        if tail is not None:
            em.dj_const(tail[0], tail[1])
        return
    if kind == "workloop" and cost_c is not DYN:
        it = 1 if cost_c is None else max(1, work_loop_iterations(cost_c))
        _emit_work_iters(em, handler.work, handler.work_pc, it)
        em.inline_static_block(handler.exit)
        tail = handler.exit_tail
        if tail is not None:
            em.dj_const(tail[0], tail[1])
        return
    if kind == "callout" and call_c is not DYN:
        callee, builtin = call_c
        if callee == 2 and builtin is not None:
            st = model.stubs[builtin]
        else:
            st = model.stubs["_precall"]
        return_pc = handler.ret_block.start_pc
        em.emit(f"rasp({return_pc})")
        em.ij_const(handler.call_pc, st.pc, None, "indirect_call")
        for chunk_block, junction_pc in st.chain:
            em.inline_static_block(chunk_block)
            em.cond_const(junction_pc, True, "type_check")
        em.inline_static_block(st.final)
        if cost_c is DYN:
            em.emit("it = 1")
            em.emit("if cost is not None:")
            em.emit(f"    it = max(1, WLI(cost[0] - {st.entry_insts}))")
            em.emit("for _i in range(it):")
            em.emit(f"    eb({em.ref(st.work)})")
            em.emit(f"    cond({st.work_pc}, _i < it - 1, 'work_loop')")
            em.ipage = None
            em.iknown.clear()
            em.ic_poison = True
        else:
            it = (
                1 if cost_c is None
                else max(1, work_loop_iterations(cost_c - st.entry_insts))
            )
            _emit_work_iters(em, st.work, st.work_pc, it)
        em.inline_static_block(st.exit)
        _emit_ret_inline(em, return_pc)
        em.inline_static_block(handler.ret_block)
        tail = handler.ret_tail
        if tail is not None:
            em.dj_const(tail[0], tail[1])
        return
    _emit_tail(em, model, handler)
    # The dynamic tail emits eb/cond/call method chains whose cache
    # probes the compile-time maps cannot see.
    em.iknown.clear()
    em.dknown.clear()
    if kind in ("workloop", "callout"):
        em.ic_poison = True  # dynamic eb fetches probe arbitrary sets


def _project_spec(model, seq: tuple, spec: tuple) -> tuple:
    """Canonicalize a raw constancy spec against the model's handler
    kinds: operands a member's kind never reads map to :data:`DYN` so
    they cannot split the compile cache, and a constant cost reduces to
    the single element the emitters consume."""
    out = []
    for (op, _site), (d, t, c, e) in zip(seq, spec):
        kind = model.handlers[op].kind
        cost0 = c if (c is DYN or c is None) else c[0]
        out.append((
            d,
            t if kind == "branchy" else DYN,
            cost0 if kind in ("workloop", "callout") else DYN,
            e if kind == "callout" else DYN,
        ))
    return tuple(out)


#: Method-form predictor observe in an emitted body (``cond(<pc>, ...)``
#: call).  Inlined projections never emit a bare ``cond(`` call, so any
#: match marks a branch the fold analysis cannot see through.
_METHOD_COND = re.compile(r"(?<![\w.])cond\((\d+)?")


def _converge(bits: list, mask: int) -> int:
    """Fixed point of repeatedly shifting the constant *bits* pattern
    into a history register of ``mask`` width.  Each full application
    shifts ``len(bits)`` positions, so after ``ceil(width/len(bits))``
    applications every pre-existing bit has been shifted out and the
    value depends on the pattern alone — one more application maps it to
    itself."""
    h = 0
    for _ in range(mask.bit_length() // max(1, len(bits)) + 2):
        for b in bits:
            h = ((h << 1) | b) & mask
    return h


def _superblock_folds(pred_sig, records, body):
    """History constant-fold analysis for one emitted superblock body.

    Within a superblock every inlined branch direction is a compile-time
    constant, so the predictor's shift registers are driven by a constant
    bit pattern per repetition: they converge to fixed points, after
    which every history value — and thus every gshare/local table index
    — is a compile-time constant and the register writes elide entirely
    (the repetition maps the fixed point to itself; the compiled body
    only ever executes whole repetitions, partial edges ride the
    per-event path with real method updates).

    Conditionally-executed observes (the SCD slow-path bound check runs
    only on a ``bop`` miss) and method-form observes (dynamic work-loop
    trip counts) make their history component data-dependent: any such
    observe poisons the global register, and poisons the local history
    slot its PC maps to — other slots fold independently, since a local
    slot is only written by observes that index it.

    On top of the history fold, a **saturation elision**: when every
    observe in the body is unconditional (no method-form or
    conditionally-executed observes anywhere, so every counter index any
    observe touches is a compile-time constant), the 2-bit counters are
    driven toward their saturated fixed points too.  A counter index
    whose observes all agree in direction saturates within three
    repetitions and then never changes — the observe's prediction is
    correct, the saturating write is a no-op, agreeing components skip
    the chooser — so the whole observe elides, leaving only the
    taken-path BTB interaction.  Indices fed conflicting directions
    (index aliasing) keep their dynamic counter code; they are disjoint
    from the elided indices by construction, so the elided entries
    cannot change during a superblock call.

    Returns ``(folds, guard)``: *folds* is a per-observe list of
    ``(global_index, local_history, elide)`` (``None`` entries stay
    dynamic) or ``None`` when nothing folds; *guard* is ``(kind,
    global_fixed_point, ((slot, fixed_point), ...), ((component, index,
    saturated_value), ...))`` for the runtime convergence check, or
    ``None``.
    """
    kind = pred_sig[0] if pred_sig else None
    if kind not in ("tournament", "gshare", "local") or not records:
        return None, None
    method_pcs = []
    poison_all = False
    for line in body:
        match = _METHOD_COND.search(line)
        if match:
            if match.group(1) is None:
                poison_all = True
                break
            method_pcs.append(int(match.group(1)))
    if poison_all:
        return None, None
    if kind == "tournament":
        _, ge, ghm, le, lhm, _ce = pred_sig
    elif kind == "gshare":
        _, ge, ghm = pred_sig
        le = lhm = None
    else:
        _, le, lhm = pred_sig
        ge = ghm = None
    clean = not method_pcs and all(
        not conditional for _pc, _tk, conditional in records
    )
    global_ok = ghm is not None and clean
    groups: dict = {}
    if le is not None:
        poisoned = {(pc >> 2) % le for pc in method_pcs}
        poisoned |= {
            (pc >> 2) % le for pc, _tk, conditional in records if conditional
        }
        for pc, tk, conditional in records:
            if conditional:
                continue
            li = (pc >> 2) % le
            if li not in poisoned:
                groups.setdefault(li, []).append(1 if tk else 0)
    if not global_ok and not groups:
        return None, None
    fixed = {li: _converge(bits, lhm) for li, bits in groups.items()}
    c_global = (
        _converge([1 if tk else 0 for _pc, tk, _c in records], ghm)
        if global_ok else None
    )
    folds = []
    gh = c_global
    local_cur = dict(fixed)
    for pc, tk, conditional in records:
        bit = 1 if tk else 0
        gi = None
        if global_ok:
            gi = ((pc >> 2) ^ gh) % ge
            gh = ((gh << 1) | bit) & ghm
        lh = None
        if le is not None and not conditional:
            li = (pc >> 2) % le
            if li in local_cur:
                lh = local_cur[li]
                local_cur[li] = ((lh << 1) | bit) & lhm
        folds.append((gi, lh))
    assert gh == c_global and local_cur == fixed  # per-rep identity
    gdir: dict = {}
    ldir: dict = {}
    if clean:
        for (gi, lh), (_pc, tk, _c) in zip(folds, records):
            if gi is not None:
                gdir.setdefault(gi, set()).add(tk)
            if lh is not None:
                ldir.setdefault(lh, set()).add(tk)
    counter_checks: set = set()
    out_folds = []
    for (gi, lh), (_pc, tk, _c) in zip(folds, records):
        elide = False
        if clean:
            if kind == "tournament":
                elide = (
                    gi is not None and lh is not None
                    and len(gdir[gi]) == 1 and len(ldir[lh]) == 1
                )
            elif kind == "gshare":
                elide = gi is not None and len(gdir[gi]) == 1
            else:
                elide = lh is not None and len(ldir[lh]) == 1
        if elide:
            value = 3 if tk else 0
            if gi is not None:
                counter_checks.add(("g", gi, value))
            if lh is not None:
                counter_checks.add(("l", lh, value))
        out_folds.append((gi, lh, elide))
    guard = (
        kind, c_global, tuple(sorted(fixed.items())),
        tuple(sorted(counter_checks)),
    )
    return out_folds, guard


def _lru_fixed_point(seq, capacity):
    """Per-repetition fixed point of a full-LRU list driven by the
    constant probe sequence *seq*.

    The candidate is the state after warming from empty (recency order
    of the distinct probed lines, truncated to *capacity*); it is a
    fixed point when one repetition replayed on it hits on every probe
    and cycles the list back to itself.  Returns the candidate tuple or
    ``None``.  Because recency order after one full repetition is a
    function of the sequence alone, the live structure converges to the
    candidate within one peeled repetition from any starting state."""
    state: list = []
    for line in seq + seq:
        if line in state:
            state.remove(line)
        elif len(state) >= capacity:
            state.pop()
        state.insert(0, line)
    candidate = list(state)
    for line in seq:
        if line not in state:
            return None
        state.remove(line)
        state.insert(0, line)
    return tuple(candidate) if state == candidate else None


def _cache_folds(records, iways, itlb_entries, has_cs, poisoned):
    """I-side steady-state fold analysis for one emitted superblock.

    Within a superblock every instruction-fetch line and page is a
    compile-time constant, so in the steady state the I-cache sets and
    the ITLB walk a fixed per-repetition cycle: every probe is an
    MRU-order hit that returns the LRU lists to their entry state, and
    every page check resolves against the previous member's page.  Each
    fixed point (:func:`_lru_fixed_point`) becomes a guard entry the
    runtime peel verifies before entering the compiled body; the probes
    and page checks then elide entirely — their warm paths touch no
    counters, only LRU order, which the fixed point proves invariant.

    Conditionally-executed probes (SCD slow-path fetch arms) poison
    only the sets they touch; conditional page transitions, a mid-block
    context switch (runtime TLB flush) or any dynamic ``eb`` fetch
    poison the page/ITLB fold; *poisoned* kills the whole analysis.

    Returns ``(folded_sets, page_actions, checks)`` or ``None``:
    *folded_sets* maps folded set index to its fixed point,
    *page_actions* is the per-ifetch-call decision list pass two
    consumes, *checks* the guard entries.
    """
    if poisoned or not records:
        return None
    seqs: dict = {}
    bad_sets = set()
    for conditional, _form, _page, probes in records:
        for index, line in probes:
            if conditional:
                bad_sets.add(index)
            else:
                seqs.setdefault(index, []).append(line)
    folded_sets = {}
    for index, seq in seqs.items():
        if index in bad_sets:
            continue
        fixed = _lru_fixed_point(seq, iways)
        if fixed is not None:
            folded_sets[index] = fixed
    page_ok = not has_cs and not any(
        conditional and form is not None
        for conditional, form, _page, _probes in records
    )
    actions = ["keep"] * len(records)
    checks = [("is", index, lines)
              for index, lines in sorted(folded_sets.items())]
    sites = [(i, form, page)
             for i, (_c, form, page, _p) in enumerate(records) if form]
    if page_ok and sites:
        # The guard pins the entry page to the repetition's final page,
        # making every check's outcome — and thus the exact ITLB walk
        # sequence — a compile-time constant.
        entry_page = sites[-1][2]
        cur = entry_page
        tlb_seq = []
        trans = []
        for i, form, page in sites:
            if form == "check" and cur == page:
                actions[i] = "skip"
            else:
                trans.append(i)
                tlb_seq.append(page)
                cur = page
        tlb_fixed = _lru_fixed_point(tlb_seq, itlb_entries)
        for i in trans:
            actions[i] = "static" if tlb_fixed is not None else "probe"
        checks.append(("ipage", entry_page))
        if tlb_fixed is not None:
            checks.append(("itlb", tlb_fixed))
    elif not folded_sets:
        return None
    return folded_sets, tuple(actions), tuple(checks)


def _guard_ok(machine, guard) -> bool:
    """Has the live microarchitectural state reached the compiled fixed
    points (predictor histories and saturated counters, I-cache set and
    ITLB recency orders, current I-page)?"""
    pred_guard, cache_checks = guard
    for check in cache_checks:
        what = check[0]
        if what == "is":
            _, index, lines = check
            ways = machine.icache._sets[index]
            if tuple(ways[:len(lines)]) != lines:
                return False
        elif what == "ipage":
            if machine._last_ipage != check[1]:
                return False
        else:  # "itlb"
            pages = machine.itlb._pages
            want = check[1]
            if tuple(pages[:len(want)]) != want:
                return False
    if pred_guard is None:
        return True
    kind, c_global, fixed, counters = pred_guard
    pred = machine.predictor
    histories = gtable = ltable = None
    if kind == "tournament":
        if c_global is not None and pred.global_component.history != c_global:
            return False
        histories = pred.local_component._histories
        gtable = pred.global_component._table
        ltable = pred.local_component._counters
    elif kind == "gshare":
        if c_global is not None and pred.history != c_global:
            return False
        gtable = pred._table
    else:
        histories = pred._histories
        ltable = pred._counters
    if histories is not None:
        for li, value in fixed:
            if histories[li] != value:
                return False
    for comp, index, value in counters:
        table = gtable if comp == "g" else ltable
        if table[index] != value:
            return False
    return True


def _pred_prologue(pred_sig) -> tuple:
    """Once-per-call table bindings for the hoisted observe projections."""
    kind = pred_sig[0] if pred_sig else None
    if kind == "tournament":
        return ("_GT = PG._table", "_LHS = PL._histories",
                "_LCS = PL._counters", "_CH = PRED._choice")
    if kind == "gshare":
        return ("_GT = PRED._table",)
    if kind == "local":
        return ("_LHS = PRED._histories", "_LCS = PRED._counters")
    if kind == "bimodal":
        return ("_BT = PRED._table",)
    return ()


def _assemble_superblock(em: _Emitter, period: int, filename: str):
    """Wrap the emitted member bodies into a repetition-loop maker.

    The compiled function walks the columnar arrays directly:
    ``k(base, reps, TK, CE, DI, BI, CI, DP, BP, CP)`` replays ``reps``
    repetitions of the body starting at event index ``base``.  ``ei``
    tracks the current repetition's base index; the code cursor lives in
    a local across the whole call and is stored back once.
    """
    lines = ["def _make(r, m, refs):"]
    if em.refs:
        names = ", ".join(f"R{i}" for i in range(len(em.refs)))
        lines.append(f"    ({names},) = refs")
    lines.append(_PREAMBLE.rstrip("\n"))
    lines.append("    def k(base, reps, TK, CE, DI, BI, CI, DP, BP, CP):")
    lines.append("        cnt[0] += reps")
    for binding in _pred_prologue(em.pred_sig):
        lines.append("        " + binding)
    # Hoisted mutable containers: way lists, TLB page lists.  All are
    # only ever mutated in place during a call (restore_state rebinds
    # them strictly between calls), so one binding serves every probe.
    for index, name in sorted(getattr(em, "isetvars", {}).items()):
        lines.append(f"        {name} = IS[{index}]")
    for index, name in sorted(getattr(em, "dsetvars", {}).items()):
        lines.append(f"        {name} = DS[{index}]")
    lines.append("        _IPS = ITLBO._pages")
    lines.append("        _DPS = DTLBO._pages")
    lines.append("        cur = r._code_cursor")
    lines.append("        ei = base")
    lines.append("        for _rep in range(reps):")
    lines.extend("    " + line for line in em.body)
    lines.append(f"            ei += {period}")
    lines.append("        r._code_cursor = cur")
    lines.append("    return k, cnt")
    source = "\n".join(lines) + "\n"
    namespace: dict = {"WLI": work_loop_iterations}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_make"]


@functools.lru_cache(maxsize=None)
def _compiled_superblock(vm_kind: str, strategy: str, seq: tuple,
                         spec: tuple, shape: tuple):
    """Compile one superblock for a key sequence and projected spec.

    The cache key is (vm, strategy, sequence, projected operand spec,
    config shape) — the same sequence recurring across traces or grid
    points of one shape re-binds the same code object, exactly like
    ``_compiled_kernel``.  Constant operands in *spec* are burnt into
    the code (no array loads, resolved branch arms, compile-time work
    trip counts, static stubs); :data:`DYN` operands load from the
    columnar arrays per repetition.  Returns the same registration tuple
    shape: ``(make, refs, static_pairs, deferred_events, weight,
    deferred_stats)`` with ``weight = period`` (each call's cell tick
    covers one full repetition).
    """
    model = get_model(vm_kind, strategy)
    period = len(seq)
    threaded = model.strategy == "threaded"

    def emit_members(em):
        prev_handler = None
        for j, (op, site) in enumerate(seq):
            d, t, c, e = spec[j]
            handler = model.handlers[op]
            kind = handler.kind
            if em.has_cs:
                em.emit("r._events += 1")
                em.emit("if r._events % INTERVAL == 0:")
                em.emit("    cs(SAVE)")
                # A context switch flushes TLBs and page-tracking state,
                # so nothing is statically current past the check.
                em.ipage = None
                em.dpage = None
            em.emit("cur = (cur + 4) & 16383")
            em.emit(f"fa = {_GUEST_CODE_BASE} + cur")
            idx = f"ei + {j}" if j else "ei"
            em.daddrs_const = d
            dvar = f"d{j}"
            if d is DYN:
                em.emit(f"{dvar} = DP[DI[{idx}]]")
            if kind == "branchy" and t is DYN:
                em.emit(f"taken = TK[{idx}]")
            if kind in ("workloop", "callout") and c is DYN:
                em.emit(f"cost = CP[CI[{idx}]]")
            if kind == "callout" and e is DYN:
                em.emit(f"callee = CE[{idx}]")
                em.emit(f"builtin = BP[BI[{idx}]]")
            if threaded and prev_handler is not None:
                # Members past the first have a statically-known previous
                # handler: inline the dynamic prev-check dispatch's taken
                # arm directly (tail block, PC-slot + fetch-address
                # accesses, dispatch jump).
                em.inline_static_block(prev_handler.tail_block)
                em.daccess_const(_VM_STRUCT_PC_SLOT)
                em.daccess_expr("fa")
                em.ij_const(
                    prev_handler.tail_jump_pc, handler.pc, op, "dispatch_jump"
                )
            else:
                dispatch = model.dispatchers.get(site) or model.dispatchers[0]
                _emit_dispatch(em, model, dispatch, handler, op, site)
            _emit_handler_body(em, handler, dvar)
            _emit_tail_spec(em, model, handler, t, c, e)
            prev_handler = handler
        if threaded and period > 1:
            # Member 0's dispatch stored its own handler; restore the loop
            # invariant (prev = last executed event's handler) for the
            # next repetition and for whatever follows the superblock.
            em.emit(f"r._prev_handler = {em.ref(prev_handler)}")

    # Pass 1 records every branch observe (pc, direction, conditional?);
    # when the recorded pattern drives the predictor history registers to
    # a per-repetition fixed point, pass 2 re-emits with the histories —
    # and hence every table index — burnt in as constants.  The guard
    # returned alongside makes run_range peel repetitions until the live
    # registers reach the fixed point before entering the compiled body.
    em = _BatchEmitter(shape)
    emit_members(em)
    folds, pred_guard = _superblock_folds(em.pred_sig, em.cond_record, em.body)
    cache = _cache_folds(
        em.ic_record, em.iways, em.itlb_entries, em.has_cs, em.ic_poison
    )
    if folds is not None or cache is not None:
        em2 = _BatchEmitter(shape)
        em2.fold_plan = folds
        if cache is not None:
            em2.ic_fold = (cache[0], cache[1])
        emit_members(em2)
        em = em2
    cache_checks = cache[2] if cache is not None else ()
    guard = (
        (pred_guard, cache_checks)
        if pred_guard is not None or cache_checks else None
    )
    has_cs = em.has_cs
    make = _assemble_superblock(
        em, period,
        f"<repro.native.batch {vm_kind}/{strategy} period={period}>",
    )
    deferred = 0 if has_cs else period
    stats = (em.ic_acc, em.dc_acc, em.static_cycles, em.br_acc, em.ij_acc,
             em.itlb_acc, em.dtlb_acc)
    return (make, tuple(em.refs), em.static_pairs, deferred, period, stats,
            guard)


def _superblock_builder(kernel):
    """Build function for a kernel's lazy superblock table."""
    model = kernel.model
    shape = kernel._shape()

    def build(key):
        seq, spec = key
        try:
            projected = _project_spec(model, seq, spec)
            compiled = _compiled_superblock(
                model.vm_kind, model.strategy, seq, projected, shape
            )
        except Exception:
            # Anything the member kernels cannot compile (unknown
            # opcode, non-inlinable dispatcher) stays on the per-event
            # ladder for the whole run.
            return None
        make, refs, pairs, deferred, weight, dstats, guard = compiled
        fn, cell = make(kernel.runner, kernel.machine, refs)
        kernel.register_cell(cell, pairs, deferred, weight, REG_BATCH, dstats)
        kernel.superblocks += 1
        obs.event(
            "superblock_compile",
            vm=model.vm_kind, strategy=model.strategy,
            period=len(seq),
        )
        return fn, guard

    return build


# -- columnar execution --------------------------------------------------------


class BatchReplay:
    """Executor for one (runner, trace) pairing of a segmentation plan.

    ``run_range(start, stop)`` replays the half-open event range — the
    whole trace, or one memo chunk — feeding aligned full repetitions of
    each overlapping run to its compiled superblock and everything else
    (gaps, misaligned edges where a memo chunk boundary bisects a run,
    uncompilable sequences) to the per-event kernel table.  With an
    empty plan it is plain per-event kernel replay: :meth:`_span` is the
    only kernel-table loop over trace columns.
    """

    __slots__ = ("kernel", "trace", "plan", "starts", "_eligible",
                 "_table", "_sb", "_cols", "_pools", "_fnargs")

    def __init__(self, kernel, trace, plan):
        self.kernel = kernel
        self.trace = trace
        self.plan = plan
        self.starts = [entry[0] for entry in plan]
        # Compile gating: exec-compiling a superblock costs ~40ms, so
        # only (sequence, spec) keys whose runs cover enough events to
        # repay it are eligible; the rest stay on the per-event table.
        coverage: dict = {}
        for r_start, r_end, _period, seq, spec in plan:
            cov_key = (seq, spec)
            coverage[cov_key] = coverage.get(cov_key, 0) + (r_end - r_start)
        self._eligible = {
            cov_key for cov_key, events in coverage.items()
            if events >= MIN_COMPILE_EVENTS
        }
        if kernel.sb_table is None:
            kernel.sb_table = _LazyTable(_superblock_builder(kernel))
        self._sb = kernel.sb_table
        self._table = kernel.table
        cols = trace.columns
        daddr_pool = trace.daddr_pool
        builtin_pool = list(trace.builtin_pool) + [None]
        cost_pool = list(trace.cost_pool) + [None]
        self._cols = (
            cols["ops"], cols["sites"], cols["takens"], cols["callees"],
            cols["daddr_ids"], cols["builtin_ids"], cols["cost_ids"],
        )
        self._pools = (daddr_pool, builtin_pool, cost_pool)
        self._fnargs = (
            cols["takens"], cols["callees"], cols["daddr_ids"],
            cols["builtin_ids"], cols["cost_ids"],
            daddr_pool, builtin_pool, cost_pool,
        )

    def _span(self, start: int, stop: int) -> None:
        """Per-event kernel replay of ``[start, stop)``."""
        if start >= stop:
            return
        ops, sites, takens, callees, daddr_ids, builtin_ids, cost_ids = self._cols
        daddr_pool, builtin_pool, cost_pool = self._pools
        table = self._table
        for i in range(start, stop):
            table[ops[i], sites[i]](
                takens[i], callees[i],
                daddr_pool[daddr_ids[i]],
                builtin_pool[builtin_ids[i]],
                cost_pool[cost_ids[i]],
            )

    def run_range(self, start: int, stop: int) -> None:
        plan = self.plan
        n_runs = len(plan)
        idx = bisect_right(self.starts, start) - 1
        if idx < 0:
            idx = 0
        pos = start
        while pos < stop:
            while idx < n_runs and plan[idx][1] <= pos:
                idx += 1
            if idx >= n_runs or plan[idx][0] >= stop:
                self._span(pos, stop)
                return
            r_start, r_end, period, seq, spec = plan[idx]
            if r_start > pos:
                self._span(pos, r_start)
                pos = r_start
            hi = stop if stop < r_end else r_end
            # Align to a repetition boundary: a memo chunk boundary may
            # bisect the run, leaving misaligned edges for _span.
            off = (pos - r_start) % period
            first = pos if off == 0 else pos + (period - off)
            full = (hi - first) // period if hi > first else 0
            entry = (
                self._sb[seq, spec]
                if full and (seq, spec) in self._eligible else None
            )
            if entry is not None:
                fn, guard = entry
                self._span(pos, first)
                if guard is not None:
                    # History constant-folded body: peel repetitions on
                    # the per-event path until the live shift registers
                    # reach the compiled fixed points.
                    machine = self.kernel.machine
                    while full and not _guard_ok(machine, guard):
                        self._span(first, first + period)
                        first += period
                        full -= 1
                if full:
                    fn(first, full, *self._fnargs)
                self._span(first + full * period, hi)
            else:
                self._span(pos, hi)
            pos = hi
            idx += 1


def batch_replay_for(runner, trace):
    """Resolve the range executor replaying *trace* onto *runner*, or None.

    Every runner with a direct kernel table gets a :class:`BatchReplay`:
    over :func:`trace_plan` when batch replay is on, over an empty plan
    (pure per-event kernel replay) when ``use_batch=False`` or the trace
    has no periodic runs worth compiling.  None means the runner has no
    direct kernel table (``use_kernel=False``, an instrumented machine,
    the superinstruction strategy) and the caller's interpreted
    ``on_event`` loop is the rung.
    """
    kernel = getattr(runner, "kernel", None)
    if kernel is None or not kernel.direct:
        return None
    cached = kernel.batch
    if cached is not None and cached.trace is trace:
        return cached
    replay = BatchReplay(
        kernel, trace, trace_plan(trace) if kernel.use_batch else ()
    )
    kernel.batch = replay
    return replay
