"""Exec-compiled replay kernels: specialized per-(opcode, site) dispatch.

The paper accelerates interpreter dispatch by removing interpretation
overhead from the hot loop; this module applies the same medicine to the
simulator.  :class:`ModelRunner._replay` is a small interpreter — per
event it looks up a plan tuple and branches over strategy and handler
kind.  The kernel compiler turns each ``(opcode, site)`` plan into one
``exec``-compiled straight-line Python function with every static
decision burnt in:

* machine components, penalties and block objects bound as closure
  locals (no per-event attribute chains);
* the ``chain``/``tail`` loops unrolled;
* ``Machine.exec_block``/``exec_blocks`` inlined for the statically-known
  blocks via the :mod:`repro.uarch.pipeline` ``kernel_*_lines``
  specializers — issue slots merged into one constant add, I-page checks
  elided when the previous inlined block proves the page current;
* per-block retirement counts and (when no context switch interval is
  active) the event tally deferred into per-kernel counter cells, folded
  back by :meth:`BoundKernel.flush` at every observation point (memo
  chunk boundaries, ``runner.events``, ``finish()``).

Exactness is by construction: every emitted line is a constant-folded
projection of the same template ``exec_block`` is generated from, and
every elision (page checks, count deferral, cycle merging) is a
reordering of commutative increments that nothing reads mid-kernel.  The
``use_kernel=False`` reference keyword keeps the interpreted path
bit-for-bit, and the differential oracle (:mod:`repro.verify`) fuzzes
kernel-vs-interpreted identity.

Kernels bind only to machines whose type is exactly
:class:`~repro.uarch.pipeline.Machine`: subclasses (the verifier's
``CheckedMachine``) override entry points the kernel would inline past,
so they transparently keep the interpreted path.
"""

from __future__ import annotations

import functools

from repro import obs
from repro.native.model import (
    _GUEST_CODE_BASE,
    _VM_STRUCT_PC_SLOT,
    get_model,
)
from repro.native.specs import work_loop_iterations
from repro.uarch.pipeline import (
    block_issue_slots,
    btb_inline_sig,
    kernel_cond_lines,
    kernel_daccess_const_lines,
    kernel_daccess_expr_lines,
    kernel_daddrs_loop_lines,
    kernel_direct_jump_lines,
    kernel_ifetch_lines,
    kernel_indirect_jump_lines,
    kernel_load_op_lines,
    kernel_predictor_sig,
)

# -- code generation -----------------------------------------------------------


class _Emitter:
    """Accumulates one kernel body with constant-folding bookkeeping.

    Tracks the statically-known I-page and D-page through the inlined
    block sequence (page-check elision), merges always-executed issue
    slots into one constant, and defers always-executed block counts into
    the kernel's counter cell (``static_pairs``).
    """

    def __init__(self, shape: tuple):
        (
            self.width,
            self.has_cs,
            self.imask,
            self.dshift,
            self.dmask,
            self.pred_sig,
            self.btb_sets,
            self.scheme,
            self.scd_tables,
            self.iways,
            self.dways,
            self.btb_ways,
            self.btb_policy,
            self.itlb_entries,
        ) = shape
        self.body: list[str] = []
        self.refs: list = []
        self._ref_names: dict[int, str] = {}
        self._static_counts: dict[int, list] = {}
        self.static_cycles = 0
        self.ic_acc = 0  # deferred I-cache access count per invocation
        self.dc_acc = 0  # deferred D-cache access count per invocation
        self.br_acc = 0  # deferred stats.branches per invocation
        self.ij_acc = 0  # deferred stats.indirect_jumps per invocation
        self.ipage = None  # statically-known current I-page, or None
        self.dpage = None  # statically-known current D-page, or None

    def ref(self, obj) -> str:
        """Closure-local name for a model-level object."""
        name = self._ref_names.get(id(obj))
        if name is None:
            name = f"R{len(self.refs)}"
            self._ref_names[id(obj)] = name
            self.refs.append(obj)
        return name

    def emit(self, line: str, depth: int = 0) -> None:
        self.body.append("        " + "    " * depth + line)

    def emit_lines(self, lines, depth: int = 0) -> None:
        for line in lines:
            self.emit(line, depth)

    # -- uarch projection hooks ------------------------------------------------
    # The batch superblock emitter (:mod:`repro.native.batch`) overrides
    # these with fully-inlined variants (slow paths included); everything
    # above them — page tracking, deferral bookkeeping, emission order —
    # is shared between the two compilers.

    def _ifetch(self, block, known_ipage):
        return kernel_ifetch_lines(block, known_ipage, self.imask)

    def _dconst(self, address: int, known_dpage):
        return kernel_daccess_const_lines(
            address, known_dpage, self.dshift, self.dmask
        )

    def _dexpr(self, expr: str):
        return kernel_daccess_expr_lines(expr, self.dshift, self.dmask)

    def _dloop(self, var: str):
        return kernel_daddrs_loop_lines(var, self.dshift, self.dmask)

    def _cond(self, pc: int, taken: bool, category: str):
        return kernel_cond_lines(pc, taken, category, self.pred_sig, self.btb_sets)

    def _dj(self, pc: int, target: int):
        return kernel_direct_jump_lines(pc, target, self.btb_sets)

    def _ij(self, pc: int, target: int, hint, category: str):
        return kernel_indirect_jump_lines(
            pc, target, hint, category, self.scheme, self.btb_sets
        )

    # -- block inlining --------------------------------------------------------

    def inline_static_block(self, block) -> None:
        """Inline an always-executed block: count, slots and cache access
        tally all deferred into per-invocation constants."""
        entry = self._static_counts.get(id(block))
        if entry is None:
            self._static_counts[id(block)] = [block, 1]
        else:
            entry[1] += 1
        self.static_cycles += block_issue_slots(block, self.width)
        lines, page, accesses = self._ifetch(block, self.ipage)
        self.ic_acc += accesses
        self.emit_lines(lines)
        self.ipage = page

    def inline_cond_block(self, block, depth: int, page_in):
        """Inline a conditionally-executed block with direct accounting.

        Returns the I-page current after it runs (for joins).
        """
        name = self.ref(block)
        self.emit(f"counts[{name}] = counts_get({name}, 0) + 1", depth)
        slots = block_issue_slots(block, self.width)
        self.emit(f"stats.cycles += {slots}", depth)
        lines, page, accesses = self._ifetch(block, page_in)
        if accesses:
            self.emit(f"ICO.accesses += {accesses}", depth)
        self.emit_lines(lines, depth)
        return page

    # -- data accesses ---------------------------------------------------------

    def daccess_const(self, address: int) -> None:
        lines, page = self._dconst(address, self.dpage)
        self.dc_acc += 1
        self.emit_lines(lines)
        self.dpage = page

    def daccess_expr(self, expr: str) -> None:
        self.emit_lines(self._dexpr(expr))
        self.dc_acc += 1
        self.dpage = None

    def daddrs_loop(self, var: str = "daddrs") -> None:
        self.emit_lines(self._dloop(var))
        self.dpage = None

    # -- control transfers -----------------------------------------------------

    def cond_const(self, pc: int, taken: bool, category: str,
                   depth: int = 0, defer: bool | None = True) -> None:
        """Inline a constant conditional branch; falls back to the
        ``cond`` method when the predictor kind is not inlinable.

        *defer* accounts ``stats.branches``: ``True`` — exactly one such
        branch runs per invocation, ride the deferred cell; ``False`` —
        conditional region, emit the increment inline; ``None`` — the
        caller already accounted it (the other arm of an exhaustive
        if/else).
        """
        lines = self._cond(pc, taken, category)
        if lines is None:
            self.emit(f"cond({pc}, {taken}, {category!r})", depth)
            return
        if defer:
            self.br_acc += 1
        elif defer is False:
            self.emit("stats.branches += 1", depth)
        self.emit_lines(lines, depth)

    def dj_const(self, pc: int, target: int, depth: int = 0) -> None:
        """Inline a constant unconditional direct jump."""
        self.emit_lines(self._dj(pc, target), depth)

    def ij_const(self, pc: int, target: int, hint, category: str) -> None:
        """Inline a constant indirect jump (BTB/VBBI schemes); falls back
        to the ``ij`` method for history-based predictors.  Straight-line
        context only (``stats.indirect_jumps`` is deferred)."""
        lines = self._ij(pc, target, hint, category)
        if lines is None:
            self.emit(f"ij({pc}, {target}, {hint}, {category!r})")
            return
        self.ij_acc += 1
        self.emit_lines(lines)

    def lop_const(self, bytecode: int, table: int) -> None:
        """Inline the ``<inst>.op`` deposit."""
        self.emit_lines(kernel_load_op_lines(bytecode, table, self.scd_tables))

    def bop_open(self, pc: int, table: int) -> None:
        """Open the SCD slow-path conditional: subsequent depth-1 lines
        run only on a ``bop`` miss."""
        self.emit(f"if bop({pc}, {table}) is None:")

    @property
    def static_pairs(self) -> tuple:
        return tuple((block, mult) for block, mult in self._static_counts.values())


#: Names every generated maker binds from the runner/machine, in source
#: form.  Unused bindings cost one attribute load at bind time, not per
#: event, so they are bound unconditionally for simplicity.
_PREAMBLE = """\
    counts = m._block_counts
    counts_get = counts.get
    stats = m.stats
    IS = m.icache._sets
    DS = m.dcache._sets
    icp = m.icache.probe_line
    dcp = m.dcache.probe
    ICO = m.icache
    DCO = m.dcache
    itlb = m.itlb.access
    dtlb = m.dtlb.access
    ITLBO = m.itlb
    DTLBO = m.dtlb
    stall = m._stall
    fill = m._fill_latency
    CB = stats.cycle_breakdown
    PRED = m.predictor
    PG = getattr(m.predictor, "global_component", None)
    PL = getattr(m.predictor, "local_component", None)
    BTBO = m.btb
    btbl = m.btb.lookup
    btbi = m.btb.insert
    jtel = m.btb.lookup_jte
    SCDU = m.scd
    BRP = m.config.branch_penalty
    DRP = m.config.decode_redirect_penalty
    cond = m.cond_branch
    ij = m.indirect_jump
    dj = m.direct_jump
    eb = m.exec_block
    ebs = m.exec_blocks
    call = m.call
    mret = m.ret
    rasp = m.ras.push
    rasq = m.ras.pop
    lop = m.load_op
    bop = m.bop
    jru = m.jru
    cs = m.context_switch
    TLBP = m.config.tlb_miss_penalty
    ICLAT = m.config.icache.hit_latency
    DCLAT = m.config.dcache.hit_latency
    SSP = m.config.scd_stall_policy == 'fallthrough'
    SSC = m.config.scd_stall_cycles
    INTERVAL = r.context_switch_interval
    SAVE = r.context_switch_policy == "save"
    cnt = [0]
"""


def _assemble(em: _Emitter, args: str, filename: str):
    """Wrap the emitted body into a ``_make(r, m, refs)`` maker source and
    exec-compile it.  Returns the maker function.  Static cycles and cache
    access tallies are NOT emitted — they ride in the registration tuple
    and are folded back at flush time."""
    lines = ["def _make(r, m, refs):"]
    if em.refs:
        names = ", ".join(f"R{i}" for i in range(len(em.refs)))
        lines.append(f"    ({names},) = refs")
    lines.append(_PREAMBLE.rstrip("\n"))
    lines.append(f"    def k({args}):")
    lines.extend(em.body)
    lines.append("    return k, cnt")
    source = "\n".join(lines) + "\n"
    namespace: dict = {"WLI": work_loop_iterations}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_make"]


def _emit_dispatch(em: _Emitter, model, dispatch, handler, op: int, site: int) -> None:
    """Dispatch phase of one event, mirroring ``ModelRunner._replay``."""
    hpc = handler.pc
    if model.strategy == "threaded":
        em.emit("prev = r._prev_handler")
        em.emit("if prev is not None:")
        em.emit(f"    eb(prev.tail_block, ({_VM_STRUCT_PC_SLOT}, fa))")
        em.emit(f"    ij(prev.tail_jump_pc, {hpc}, {op}, 'dispatch_jump')")
        em.emit("else:")
        # First event only: run the full dispatcher through method calls.
        em.emit(f"    eb({em.ref(dispatch.head)})")
        em.emit(f"    eb({em.ref(dispatch.fetch)}, ({_VM_STRUCT_PC_SLOT}, fa))")
        em.emit(f"    ebs({em.ref(dispatch.pre_branch)})")
        em.emit(f"    cond({dispatch.bound_pc}, False, 'bound_check')")
        em.emit(f"    eb({em.ref(dispatch.calc)})")
        em.emit(f"    ij({dispatch.jump_pc}, {hpc}, {op}, 'dispatch_jump')")
        em.emit(f"r._prev_handler = {em.ref(handler)}")
        em.ipage = None
        em.dpage = None
        return
    em.inline_static_block(dispatch.head)
    em.inline_static_block(dispatch.fetch)
    em.daccess_const(_VM_STRUCT_PC_SLOT)
    em.daccess_expr("fa")
    if dispatch.scd:
        if dispatch.operand is not None:
            em.inline_static_block(dispatch.operand)
        em.lop_const(op & model.opcode_mask, site)
        em.inline_static_block(dispatch.bop_block)
        fast_page = em.ipage
        em.bop_open(dispatch.bop_pc, site)
        page = em.inline_cond_block(dispatch.decode, 1, fast_page)
        page = em.inline_cond_block(dispatch.bound, 1, page)
        em.cond_const(dispatch.bound_pc, False, "bound_check", depth=1, defer=False)
        page = em.inline_cond_block(dispatch.calc, 1, page)
        em.emit(f"    jru({dispatch.jump_pc}, {hpc}, {site})")
        em.ipage = fast_page if fast_page == page else None
    else:
        for block in dispatch.pre_branch:
            em.inline_static_block(block)
        em.cond_const(dispatch.bound_pc, False, "bound_check")
        em.inline_static_block(dispatch.calc)
        em.ij_const(dispatch.jump_pc, hpc, op, "dispatch_jump")


def _emit_handler_body(em: _Emitter, handler, daddrs_var: str = "daddrs") -> None:
    """Chain chunks + final block; the first inlined block consumes the
    event's data addresses, exactly like the interpreted loop."""
    consumed = False
    for chunk_block, junction_pc in handler.chain:
        em.inline_static_block(chunk_block)
        if not consumed:
            em.daddrs_loop(daddrs_var)
            consumed = True
        em.cond_const(junction_pc, True, "type_check")
    em.inline_static_block(handler.final)
    if not consumed:
        em.daddrs_loop(daddrs_var)


def _emit_tail(em: _Emitter, model, handler) -> None:
    """Handler-kind terminator, mirroring ``_replay``'s kind branches."""
    kind = handler.kind
    if kind == "plain":
        tail = handler.final_tail
        if tail is not None:
            em.dj_const(tail[0], tail[1])
    elif kind == "branchy":
        # The interpreted path resolves the guest branch before executing
        # the chosen side; inlining the (constant-taken) resolution into
        # each arm preserves that order on every path.  Exactly one arm
        # runs, so stats.branches stays statically deferrable.
        em.emit("if taken == 1:")
        em.cond_const(handler.branch_pc, True, "guest_branch", depth=1)
        tk_page = em.inline_cond_block(handler.tk, 1, em.ipage)
        if handler.tk_tail is not None:
            em.dj_const(handler.tk_tail[0], handler.tk_tail[1], depth=1)
        em.emit("else:")
        em.cond_const(handler.branch_pc, False, "guest_branch", depth=1, defer=None)
        nt_page = em.inline_cond_block(handler.nt, 1, em.ipage)
        if handler.nt_tail is not None:
            em.dj_const(handler.nt_tail[0], handler.nt_tail[1], depth=1)
        em.ipage = tk_page if tk_page == nt_page else None
    elif kind == "workloop":
        em.emit("it = 1")
        em.emit("if cost is not None:")
        em.emit("    it = max(1, WLI(cost[0]))")
        em.emit("for _i in range(it):")
        em.emit(f"    eb({em.ref(handler.work)})")
        em.emit(f"    cond({handler.work_pc}, _i < it - 1, 'work_loop')")
        em.ipage = None
        em.inline_static_block(handler.exit)
        tail = handler.exit_tail
        if tail is not None:
            em.dj_const(tail[0], tail[1])
    else:  # callout
        return_pc = handler.ret_block.start_pc
        em.emit("if callee == 2 and builtin is not None:")
        em.emit(f"    st = {em.ref(model.stubs)}[builtin]")
        em.emit("else:")
        em.emit(f"    st = {em.ref(model.stubs['_precall'])}")
        em.emit(f"call({handler.call_pc}, st.pc, {return_pc}, True)")
        em.emit("for _cb in st.chain:")
        em.emit("    eb(_cb[0])")
        em.emit("    cond(_cb[1], True, 'type_check')")
        em.emit("eb(st.final)")
        em.emit("it = 1")
        em.emit("if cost is not None:")
        em.emit("    it = max(1, WLI(cost[0] - st.entry_insts))")
        em.emit("for _i in range(it):")
        em.emit("    eb(st.work)")
        em.emit("    cond(st.work_pc, _i < it - 1, 'work_loop')")
        em.emit("eb(st.exit)")
        em.emit(f"mret(st.ret_pc, {return_pc})")
        em.ipage = None
        em.inline_static_block(handler.ret_block)
        tail = handler.ret_tail
        if tail is not None:
            em.dj_const(tail[0], tail[1])


def emit_event_core(em: _Emitter, model, op: int, site: int,
                    daddrs_var: str = "daddrs"):
    """Emit the dispatch + handler body + tail of one event.

    The shared per-event core of the single-event kernels and the batch
    superblock compiler (:mod:`repro.native.batch`): everything between
    the event prologue (counter/cursor bookkeeping, which differs
    between the two) and the next event.  Expects ``fa`` (the guest-code
    fetch address) and the handler-kind dynamic locals (*daddrs_var*,
    and ``taken``/``callee``/``builtin``/``cost`` where the kind
    consumes them) to be live.  Returns the handler runtime (for kind
    queries).
    """
    handler = model.handlers[op]
    dispatch = model.dispatchers.get(site) or model.dispatchers[0]
    _emit_dispatch(em, model, dispatch, handler, op, site)
    _emit_handler_body(em, handler, daddrs_var)
    _emit_tail(em, model, handler)
    return handler


@functools.lru_cache(maxsize=None)
def _compiled_kernel(vm_kind: str, strategy: str, op: int, site: int, shape: tuple):
    """Compile one (opcode, site) kernel for a model/config shape.

    The *shape* tuple (see :meth:`BoundKernel._shape`) carries issue
    width, whether a context-switch interval is armed, the cache set
    geometry the MRU fast paths are specialized on, the direction-
    predictor signature, BTB set count, indirect scheme and SCD table
    count.

    Process-wide cache: the maker closes over model-level objects only
    (shared through ``get_model``'s cache), so every runner of the same
    shape re-binds the same code object to its own machine.

    Returns ``(make, refs, static_pairs, deferred_events, weight,
    deferred_stats)``; the maker is called as
    ``make(runner, machine, refs) -> (kernel, cell)``.
    """
    em = _Emitter(shape)
    has_cs = em.has_cs
    em.emit("cnt[0] += 1")
    if has_cs:
        em.emit("r._events += 1")
        em.emit("if r._events % INTERVAL == 0:")
        em.emit("    cs(SAVE)")
    em.emit("cur = (r._code_cursor + 4) & 16383")
    em.emit("r._code_cursor = cur")
    em.emit(f"fa = {_GUEST_CODE_BASE} + cur")
    emit_event_core(em, get_model(vm_kind, strategy), op, site)
    make = _assemble(
        em,
        "taken, callee, daddrs, builtin, cost",
        f"<repro.native.kernel {vm_kind}/{strategy} op={op} site={site}>",
    )
    deferred = 0 if has_cs else 1
    stats = (em.ic_acc, em.dc_acc, em.static_cycles, em.br_acc, em.ij_acc)
    return make, tuple(em.refs), em.static_pairs, deferred, 1, stats


@functools.lru_cache(maxsize=None)
def _compiled_fused(
    vm_kind: str, strategy: str, op_a: int, op_b: int, site: int, shape: tuple
):
    """Compile one fused superinstruction kernel, mirroring
    ``ModelRunner._replay_fused``.  *site* must be a dispatcher key."""
    model = get_model(vm_kind, strategy)
    handler = model.fused[(op_a, op_b)]
    dispatch = model.dispatchers[site]
    em = _Emitter(shape)
    has_cs = em.has_cs
    em.emit("cnt[0] += 1")
    if has_cs:
        em.emit("r._events += 2")
        em.emit("if r._events % INTERVAL <= 1:")
        em.emit("    cs(SAVE)")
    em.emit("cur = (r._code_cursor + 8) & 16383")
    em.emit("r._code_cursor = cur")
    em.emit(f"fa = {_GUEST_CODE_BASE} + cur")
    em.inline_static_block(dispatch.head)
    em.inline_static_block(dispatch.fetch)
    em.daccess_const(_VM_STRUCT_PC_SLOT)
    em.daccess_expr("fa")
    if dispatch.operand is not None:
        em.inline_static_block(dispatch.operand)
    em.inline_static_block(dispatch.decode)
    em.inline_static_block(dispatch.bound)
    em.cond_const(dispatch.bound_pc, False, "bound_check")
    em.inline_static_block(dispatch.calc)
    hint = 0x1_0000 | (op_a << 8) | op_b
    em.ij_const(dispatch.jump_pc, handler.pc, hint, "dispatch_jump")
    em.emit("daddrs = first[4] + second[4]")
    _emit_handler_body(em, handler)
    _emit_tail(em, model, handler)
    make = _assemble(
        em,
        "first, second",
        f"<repro.native.kernel {vm_kind}/{strategy} fused={op_a},{op_b} site={site}>",
    )
    deferred = 0 if has_cs else 2
    stats = (em.ic_acc, em.dc_acc, em.static_cycles, em.br_acc, em.ij_acc)
    return make, tuple(em.refs), em.static_pairs, deferred, 2, stats


# -- runtime binding -----------------------------------------------------------

#: Registration kinds for the deferred counter cells in
#: :attr:`BoundKernel._regs`: which throughput counter the cell's events
#: fold into at flush time.
REG_KERNEL = 0
REG_FALLBACK = 1
REG_BATCH = 2


class _LazyTable(dict):
    """Dict whose misses build-and-cache through the owning kernel."""

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self._build(key)
        self[key] = value
        return value


class BoundKernel:
    """The kernel-dispatch table of one :class:`ModelRunner`.

    ``entry`` replaces ``runner.on_event``; ``table[(op, site)]`` is the
    compiled kernel (or interpreted-fallback wrapper) for that pair,
    built lazily on first sight.  ``flush`` folds the deferred per-kernel
    cells back into the machine's block counts and the runner's event
    tally; callers that observe counters mid-run (the steady-state memo,
    ``runner.events``) flush first.
    """

    __slots__ = (
        "runner",
        "machine",
        "model",
        "table",
        "fused_table",
        "direct",
        "entry",
        "compiled",
        "kernel_events",
        "fallback_events",
        "use_batch",
        "batch_events",
        "superblocks",
        "batch",
        "sb_table",
        "_regs",
    )

    def __init__(self, runner, use_batch: bool = True):
        self.runner = runner
        self.machine = runner.machine
        self.model = runner.model
        self.compiled = 0
        self.kernel_events = 0
        self.fallback_events = 0
        self._regs: list = []
        self.table = _LazyTable(self._build)
        self.fused_table = _LazyTable(self._build_fused)
        #: True when events feed ``table`` directly (no fusion buffer);
        #: only then can trace replay index ``table`` from the columns.
        self.direct = not runner._is_superinst
        self.entry = self._on_event if self.direct else self._on_event_buffered
        # Batch (superblock) replay rides on the direct kernel table; see
        # :func:`repro.native.batch.batch_replay_for`, the one place that
        # picks the replay rung.
        self.use_batch = use_batch
        self.batch_events = 0
        self.superblocks = 0
        self.batch = None
        self.sb_table = None

    # -- event entry points ----------------------------------------------------

    def _on_event(self, op, site, taken, callee, daddrs, builtin, cost):
        self.table[op, site](taken, callee, daddrs, builtin, cost)

    def _on_event_buffered(self, op, site, taken, callee, daddrs, builtin, cost):
        """Mirror of ``ModelRunner._on_event_buffered`` driving kernels."""
        runner = self.runner
        event = (op, site, taken, callee, daddrs, builtin, cost)
        pending = runner._pending
        if pending is None:
            runner._pending = event
            return
        fused = self.fused_table[pending[0], op, pending[1]]
        if fused is not None:
            runner._pending = None
            fused(pending, event)
        else:
            runner._pending = event
            self.table[pending[0], pending[1]](
                pending[2], pending[3], pending[4], pending[5], pending[6]
            )

    # -- lazy builds -----------------------------------------------------------

    def _shape(self) -> tuple:
        runner = self.runner
        machine = self.machine
        # A None BTB signature (multi-level, xor-indexed or pLRU buffers)
        # keeps every BTB-touching event a Machine method call — the
        # specializers only open-code single-level mod-indexed lru/rr.
        btb_sig = btb_inline_sig(machine.btb)
        btb_sets, btb_ways, btb_policy = (
            btb_sig if btb_sig is not None else (None, 0, None)
        )
        return (
            machine._issue_width,
            runner.context_switch_interval is not None,
            machine.icache._set_mask,
            machine.dcache.line_shift,
            machine.dcache._set_mask,
            kernel_predictor_sig(machine.predictor),
            btb_sets,
            machine.config.indirect_scheme,
            machine.scd.tables,
            machine.icache.ways,
            machine.dcache.ways,
            btb_ways,
            btb_policy,
            machine.itlb.entries,
        )

    def _build(self, key):
        op, site = key
        runner = self.runner
        try:
            compiled = _compiled_kernel(
                self.model.vm_kind, self.model.strategy, op, site, self._shape()
            )
        except Exception:
            compiled = None
        if compiled is None:
            return self._fallback(op, site)
        make, refs, pairs, deferred, weight, dstats = compiled
        kernel, cell = make(runner, self.machine, refs)
        self._regs.append((cell, pairs, deferred, weight, REG_KERNEL, dstats))
        self.compiled += 1
        obs.event(
            "kernel_compile",
            vm=self.model.vm_kind, strategy=self.model.strategy,
            op=op, site=site,
        )
        return kernel

    def _build_fused(self, key):
        op_a, op_b, site = key
        if (op_a, op_b) not in self.model.fused:
            return None
        runner = self.runner
        resolved = site if site in self.model.dispatchers else 0
        try:
            compiled = _compiled_fused(
                self.model.vm_kind, self.model.strategy,
                op_a, op_b, resolved, self._shape(),
            )
        except Exception:
            compiled = None
        if compiled is None:
            return self._fallback_fused(op_a, op_b)
        make, refs, pairs, deferred, weight, dstats = compiled
        kernel, cell = make(runner, self.machine, refs)
        self._regs.append((cell, pairs, deferred, weight, REG_KERNEL, dstats))
        self.compiled += 1
        obs.event(
            "kernel_compile",
            vm=self.model.vm_kind, strategy=self.model.strategy,
            op=op_a, fused_with=op_b, site=site,
        )
        return kernel

    def _fallback(self, op, site):
        """Interpreted-path wrapper counted as fallback events."""
        cell = [0]
        self._regs.append((cell, (), 0, 1, REG_FALLBACK, None))
        replay = self.runner._replay
        obs.event(
            "kernel_fallback",
            vm=self.model.vm_kind, strategy=self.model.strategy,
            op=op, site=site,
        )

        def fallback(taken, callee, daddrs, builtin, cost):
            cell[0] += 1
            replay(op, site, taken, callee, daddrs, builtin, cost)

        return fallback

    def _fallback_fused(self, op_a, op_b):
        cell = [0]
        self._regs.append((cell, (), 0, 2, REG_FALLBACK, None))
        runner = self.runner
        fused_rt = self.model.fused[(op_a, op_b)]

        def fallback(first, second):
            cell[0] += 1
            runner._replay_fused(first, second, fused_rt)

        return fallback

    # -- deferred accounting ---------------------------------------------------

    def register_cell(
        self, cell, pairs, deferred, weight, kind, dstats
    ) -> None:
        """Register a deferred counter cell for :meth:`flush`.

        The batch superblock compiler registers its per-sequence cells
        here (kind :data:`REG_BATCH`) so memo boundaries and finish()
        fold them exactly like single-event kernel cells.
        """
        self._regs.append((cell, pairs, deferred, weight, kind, dstats))

    def flush(self) -> None:
        """Fold every pending counter cell into the machine and runner."""
        machine = self.machine
        stats = machine.stats
        counts = machine._block_counts
        counts_get = counts.get
        deferred_events = 0
        for cell, pairs, deferred, weight, kind, dstats in self._regs:
            n = cell[0]
            if not n:
                continue
            cell[0] = 0
            deferred_events += n * deferred
            if kind == REG_KERNEL:
                self.kernel_events += n * weight
            elif kind == REG_FALLBACK:
                self.fallback_events += n * weight
            else:
                self.batch_events += n * weight
            if dstats is not None:
                ic_acc, dc_acc, cycles, branches, ijumps = dstats[:5]
                if ic_acc:
                    machine.icache.accesses += n * ic_acc
                if dc_acc:
                    machine.dcache.accesses += n * dc_acc
                    stats.dcache_accesses += n * dc_acc
                if cycles:
                    stats.cycles += n * cycles
                if branches:
                    stats.branches += n * branches
                if ijumps:
                    stats.indirect_jumps += n * ijumps
                if len(dstats) > 5:
                    # Batch superblocks additionally defer unconditional
                    # TLB access counts.
                    itlb_acc, dtlb_acc = dstats[5:]
                    if itlb_acc:
                        machine.itlb.accesses += n * itlb_acc
                    if dtlb_acc:
                        machine.dtlb.accesses += n * dtlb_acc
            for block, mult in pairs:
                counts[block] = counts_get(block, 0) + n * mult
        if deferred_events:
            self.runner._events += deferred_events
