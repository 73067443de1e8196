"""Replay of VM trace events as native-code block executions.

:class:`NativeInterpreterModel` assembles the complete native image of one
interpreter under one dispatch strategy (dispatcher copies, all handlers,
builtin stubs) and precomputes per-opcode runtime descriptors.
:class:`ModelRunner` binds a model to a :class:`repro.uarch.pipeline.Machine`
and replays the functional VM's trace events onto it — every event becomes
the dispatch-block sequence of the strategy under test plus the opcode's
handler blocks, with branch outcomes, JTE traffic and data addresses fed to
the timing model.
"""

from __future__ import annotations

import functools
import hashlib

from repro.isa.program import BasicBlock, Program, ProgramLayout
from repro.native import js_model, lua_model
from repro.native.specs import (
    HandlerSpec,
    generate_handler_asm,
    generate_stub_asm,
    work_loop_iterations,
)
from repro.uarch.pipeline import Machine
from repro.vm.builtins import BUILTINS
from repro.vm.js.opcodes import exit_site as _js_exit_site
from repro.vm.trace import CALLEE_BUILTIN, TAKEN_TRUE

#: Strategies whose code layout differs.  VBBI is the baseline layout with
#: the machine's ``indirect_scheme`` set to ``"vbbi"``; "superinst" is the
#: baseline layout plus fused superinstruction handlers (Ertl & Gregg).
DISPATCH_STRATEGIES = ("baseline", "threaded", "scd", "superinst")

#: Synthetic address of the VM state structure (virtual PC slot etc.).
_VM_STRUCT_PC_SLOT = 0x00F0_0028
#: Guest bytecode stream region (sequential-ish fetch pattern).
_GUEST_CODE_BASE = 0x00E0_0000


class _DispatchRT:
    """Precomputed blocks/PCs of one dispatcher copy (one site)."""

    __slots__ = (
        "head",
        "fetch",
        "operand",
        "bop_block",
        "decode",
        "bound",
        "calc",
        "bound_pc",
        "jump_pc",
        "bop_pc",
        "scd",
        "slow_blocks",
        "pre_branch",
    )

    def __init__(self, program: Program, site: int, scd: bool):
        self.head = program.block(f"LoopHead_{site}")
        self.fetch = program.block(f"Fetch_{site}")
        self.operand = (
            program.block(f"Operand_{site}")
            if program.has_block(f"Operand_{site}")
            else None
        )
        self.scd = scd
        if scd:
            self.bop_block = program.block(f"Bop_{site}")
            self.bop_pc = self.bop_block.term.pc
        else:
            self.bop_block = None
            self.bop_pc = -1
        self.decode = program.block(f"Decode_{site}")
        self.bound = program.block(f"Bound_{site}")
        self.bound_pc = self.bound.term.pc
        self.calc = program.block(f"Calc_{site}")
        self.jump_pc = self.calc.term.pc
        # Flat per-phase block tuples for the replay hot path: the blocks
        # retired together on the SCD slow path and on the non-SCD path
        # (operand decode included) between fetch and the bound check.
        self.slow_blocks = (self.decode, self.bound)
        operand_blocks = (self.operand,) if self.operand is not None else ()
        self.pre_branch = operand_blocks + self.slow_blocks


def _tail_of(block: BasicBlock) -> tuple | None:
    """Precompute `_run_tail`'s work: (pc, target) of the block's
    terminating direct jump, or ``None`` when it falls through."""
    term = block.term
    if term is not None and term.target is not None:
        return (term.pc, term.target)
    return None


def _follow_chain(
    program: Program, name: str, start_name: str
) -> tuple[list, BasicBlock]:
    """Walk a handler's hot-chunk chain.

    Returns ``([(chunk_block, junction_branch_pc), ...], final_block)``:
    chunks end in always-taken ``bne`` junctions over inline cold regions;
    the final block carries the handler's real terminator (or falls through
    to the work loop).
    """
    block = program.block(start_name)
    chain: list = []
    prefix = f"{name}_h"
    while (
        block.term is not None
        and block.term.mnemonic == "bne"
        and block.term.target_label is not None
        and block.term.target_label.startswith(prefix)
    ):
        chain.append((block, block.term.pc))
        block = program.block(block.term.target_label)
    return chain, block


class _HandlerRT:
    """Precomputed blocks/PCs of one handler."""

    __slots__ = (
        "pc",
        "chain",
        "final",
        "kind",
        "branch_pc",
        "nt",
        "tk",
        "work",
        "work_pc",
        "exit",
        "ret_block",
        "call_pc",
        "tail_block",
        "tail_jump_pc",
        "static_insts",
        "final_tail",
        "tk_tail",
        "nt_tail",
        "exit_tail",
        "ret_tail",
    )

    def __init__(self, program: Program, name: str, spec: HandlerSpec, threaded: bool):
        chain, self.final = _follow_chain(program, name, name)
        self.chain = tuple(chain)
        first = self.chain[0][0] if self.chain else self.final
        self.pc = first.start_pc
        self.static_insts = spec.body_insts
        self.nt = self.tk = self.work = self.exit = self.ret_block = None
        self.branch_pc = self.work_pc = self.call_pc = -1
        self.final_tail = self.tk_tail = self.nt_tail = None
        self.exit_tail = self.ret_tail = None
        if spec.calls_out:
            self.kind = "callout"
            self.call_pc = self.final.term.pc
            self.ret_block = program.block(f"{name}_r")
            self.ret_tail = _tail_of(self.ret_block)
        elif spec.has_work_loop:
            self.kind = "workloop"
            self.work = program.block(f"{name}_w")
            self.work_pc = self.work.term.pc
            self.exit = program.block(f"{name}_x")
            self.exit_tail = _tail_of(self.exit)
        elif spec.guest_branch:
            self.kind = "branchy"
            self.branch_pc = self.final.term.pc
            self.nt = program.block(f"{name}_nt")
            self.tk = program.block(f"{name}_tk")
            self.tk_tail = _tail_of(self.tk)
            self.nt_tail = _tail_of(self.nt)
        else:
            self.kind = "plain"
            self.final_tail = _tail_of(self.final)
        if threaded:
            self.tail_block = program.block(f"{name}_T")
            self.tail_jump_pc = self.tail_block.term.pc
        else:
            self.tail_block = None
            self.tail_jump_pc = -1


class _StubRT:
    """Precomputed blocks of one builtin / precall stub."""

    __slots__ = (
        "pc",
        "chain",
        "final",
        "work",
        "work_pc",
        "exit",
        "ret_pc",
        "entry_insts",
    )

    def __init__(self, program: Program, name: str):
        label = f"B_{name}"
        chain, self.final = _follow_chain(program, label, label)
        self.chain = tuple(chain)
        first = self.chain[0][0] if self.chain else self.final
        self.pc = first.start_pc
        self.work = program.block(f"{label}_w")
        self.work_pc = self.work.term.pc
        self.exit = program.block(f"{label}_x")
        self.ret_pc = self.exit.term.pc
        self.entry_insts = (
            sum(block.n_insts for block, _ in self.chain)
            + self.final.n_insts
            + self.exit.n_insts
        )


class NativeInterpreterModel:
    """The assembled native image of one (vm_kind, strategy) pair.

    Args:
        vm_kind: ``"lua"`` or ``"js"``.
        strategy: one of :data:`DISPATCH_STRATEGIES`.

    Attributes:
        program: the full assembled host program (dispatchers + all
            handlers + stubs); its size drives the I-cache model.
        opcode_mask: the interpreter's ``setmask`` value.
        covered_sites: dispatch sites with SCD coverage.
    """

    def __init__(self, vm_kind: str, strategy: str):
        if vm_kind not in ("lua", "js"):
            raise ValueError(f"unknown vm_kind {vm_kind!r}")
        if strategy not in DISPATCH_STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.vm_kind = vm_kind
        self.strategy = strategy
        backend = lua_model if vm_kind == "lua" else js_model
        self.opcode_mask = (
            lua_model.LUA_OPCODE_MASK if vm_kind == "lua" else js_model.JS_OPCODE_MASK
        )
        if vm_kind == "lua":
            self.sites = (0,)
            self.covered_sites = frozenset({0})
        else:
            self.sites = js_model.JS_ALL_SITES
            self.covered_sites = frozenset(js_model.JS_COVERED_SITES)

        # Superinstructions reuse the baseline dispatcher and tails; only
        # the handler set differs (extra fused bodies below).
        code_strategy = "baseline" if strategy == "superinst" else strategy
        layout = ProgramLayout(base=0x1_0000, align=16)
        layout.add(backend.dispatcher_text(code_strategy))
        specs = backend.HANDLER_SPECS
        chunk, cold = backend.CHUNK_INSTS, backend.COLD_INSTS
        threaded = strategy == "threaded"
        for op in sorted(specs):
            name = backend.handler_name(op)
            if vm_kind == "lua":
                tail = lua_model.handler_tail(code_strategy)
            else:
                tail = js_model.handler_tail(code_strategy, int(_js_exit_site(op)))
            text = generate_handler_asm(name, specs[op], tail, chunk=chunk, cold=cold)
            if threaded:
                tail_text = (
                    lua_model.THREADED_TAIL if vm_kind == "lua" else js_model.THREADED_TAIL
                )
                text += tail_text.format(name=name)
            layout.add(text)
        fused_pairs: list = []
        if strategy == "superinst":
            # Fused bodies: the pair's concatenated work minus the elided
            # store/reload of the intermediate state (2 instructions).
            for first, second in backend.FUSED_PAIRS:
                spec_a, spec_b = specs[first], specs[second]
                if (
                    spec_a.guest_branch or spec_a.has_work_loop or spec_a.calls_out
                    or spec_b.guest_branch or spec_b.has_work_loop or spec_b.calls_out
                ):
                    continue
                fused_spec = HandlerSpec(
                    alu=max(1, spec_a.alu + spec_b.alu - 2),
                    loads=spec_a.loads + spec_b.loads,
                    stores=spec_a.stores + spec_b.stores,
                )
                name = f"F_{backend.handler_name(first)}__{backend.handler_name(second)}"
                if vm_kind == "lua":
                    tail = lua_model.handler_tail("baseline")
                else:
                    tail = js_model.handler_tail("baseline", int(_js_exit_site(second)))
                layout.add(
                    generate_handler_asm(name, fused_spec, tail, chunk=chunk, cold=cold)
                )
                fused_pairs.append((first, second, name, fused_spec))
        for stub_name in tuple(BUILTINS) + ("_precall",):
            layout.add(generate_stub_asm(stub_name, chunk=chunk, cold=cold))
        self.program = layout.assemble(name=f"{vm_kind}-{strategy}")

        self.dispatchers = {
            site: _DispatchRT(
                self.program,
                site,
                scd=(strategy == "scd" and site in self.covered_sites),
            )
            for site in self.sites
        }
        self.fused = {
            (first, second): _HandlerRT(self.program, name, spec, False)
            for first, second, name, spec in fused_pairs
        }
        self.handlers = {
            op: _HandlerRT(self.program, backend.handler_name(op), specs[op], threaded)
            for op in specs
        }
        self.stubs = {
            stub_name: _StubRT(self.program, stub_name)
            for stub_name in tuple(BUILTINS) + ("_precall",)
        }
        self._plans: dict[tuple[int, int], tuple] = {}
        self._memo_codec: MemoCodec | None = None
        self._structure_digest: str | None = None

    @property
    def code_size_bytes(self) -> int:
        return self.program.size_bytes

    def memo_codec(self) -> MemoCodec:
        """Tokenizer binding memo entries to this model's identity objects."""
        codec = self._memo_codec
        if codec is None:
            codec = self._memo_codec = MemoCodec(self)
        return codec

    def structure_digest(self) -> str:
        """Digest of the assembled program's replay-visible structure.

        Embedded in persisted-memo store keys: a memo is only rebindable
        onto a model whose blocks have the same names, addresses and
        sizes (assembly is deterministic per (vm, strategy), so in
        practice this changes exactly when the model generation code
        does).
        """
        digest = self._structure_digest
        if digest is None:
            blake = hashlib.blake2b(digest_size=16)
            blake.update(f"{self.vm_kind}:{self.strategy}\n".encode())
            for block in self.program.blocks:
                blake.update(
                    f"{block.name}:{block.start_pc}:{block.end_pc}:"
                    f"{block.n_insts}:{block.category}\n".encode()
                )
            digest = self._structure_digest = blake.hexdigest()
        return digest

    def replay_plan(self, op: int, site: int) -> tuple:
        """The flat per-(opcode, site) replay recipe.

        Everything the per-event hot path would otherwise look up through
        dicts and attribute chains — the resolved dispatcher copy, the
        handler, its chunk chain and the kind-specific terminator data —
        precomputed once per model into one tuple:
        ``(dispatch, handler, chain, final, kind_code, tail)`` where the
        shape of *tail* depends on *kind_code* (see
        :meth:`ModelRunner._replay`).  Plans are static per model, so they
        are shared by every run replaying onto it.
        """
        plan = self._plans.get((op, site))
        if plan is None:
            handler = self.handlers[op]
            dispatch = self.dispatchers.get(site) or self.dispatchers[0]
            kind = handler.kind
            if kind == "plain":
                code, tail = 0, handler.final_tail
            elif kind == "branchy":
                code = 1
                tail = (
                    handler.branch_pc,
                    handler.tk,
                    handler.tk_tail,
                    handler.nt,
                    handler.nt_tail,
                )
            elif kind == "workloop":
                code = 2
                tail = (
                    handler.work,
                    handler.work_pc,
                    handler.exit,
                    handler.exit_tail,
                )
            else:  # callout
                code = 3
                tail = (
                    handler.call_pc,
                    handler.ret_block,
                    handler.ret_block.start_pc,
                    handler.ret_tail,
                )
            plan = (dispatch, handler, handler.chain, handler.final, code, tail)
            self._plans[(op, site)] = plan
        return plan

    def prepare_plans(self) -> None:
        """Pre-build the plan for every (opcode, known dispatch site) pair.

        Unknown raw sites still resolve lazily (they fall back to
        dispatcher 0 with a distinct cache slot), but after this call the
        steady-state hot path never takes the build branch.
        """
        for op in self.handlers:
            for site in self.dispatchers:
                self.replay_plan(op, site)


class MemoCodec:
    """Maps model-identity objects inside memo entries to stable tokens.

    Persisted :class:`repro.uarch.pipeline.SteadyStateMemo` entries embed
    basic blocks (in counter deltas) and handler runtimes (the threaded
    previous-handler slot) by object identity.  Blocks tokenize to their
    unique assembly names and handlers to their opcode, both of which are
    deterministic per (vm, strategy) — so a fresh process rebinds them to
    its own structurally-identical objects.
    """

    __slots__ = ("_handlers", "_handler_ops", "_blocks", "_block_names")

    def __init__(self, model: NativeInterpreterModel):
        self._handlers = model.handlers
        self._handler_ops = {id(h): op for op, h in model.handlers.items()}
        self._blocks = {b.name: b for b in model.program.blocks}
        self._block_names = {id(b): b.name for b in model.program.blocks}

    def block_token(self, block) -> str:
        return self._block_names[id(block)]

    def block(self, name: str):
        return self._blocks[name]

    def _handler_token(self, handler):
        return self._handler_ops[id(handler)] if handler is not None else None

    def _handler(self, token):
        return self._handlers[token] if token is not None else None

    def tokenize_runner_digest(self, digest: tuple) -> tuple:
        cursor, phase, prev, pending = digest
        return (cursor, phase, self._handler_token(prev), pending)

    def bind_runner_digest(self, digest: tuple) -> tuple:
        cursor, phase, prev, pending = digest
        return (cursor, phase, self._handler(prev), pending)

    def tokenize_runner_end(self, end: tuple) -> tuple:
        cursor, prev, pending = end
        return (cursor, self._handler_token(prev), pending)

    def bind_runner_end(self, end: tuple) -> tuple:
        cursor, prev, pending = end
        return (cursor, self._handler(prev), pending)


@functools.lru_cache(maxsize=None)
def get_model(vm_kind: str, strategy: str) -> NativeInterpreterModel:
    """Cached model factory (assembly is reused across runs)."""
    return NativeInterpreterModel(vm_kind, strategy)


class ModelRunner:
    """Replays one VM run's trace events onto a machine.

    Usage::

        runner = ModelRunner(model, machine)
        runner.start()
        replay_events(trace, runner.on_event, runner=runner)
        runner.finish()

    Args:
        model: the native image to replay.
        machine: the timing model.
        context_switch_interval: flush JTEs (and TLBs/RAS) every N guest
            bytecodes, modelling OS context switches (Section IV).
            ``None`` disables switching.
        context_switch_policy: ``"flush"`` (the paper's preferred policy,
            re-populate through the slow path) or ``"save"`` (the OS saves
            and restores JTEs, paying per-entry overhead instead).
        use_kernel: bind the exec-compiled replay kernels (default).
            False selects the interpreted reference path.  Kernels only
            ever bind to machines of exact type :class:`Machine` —
            subclasses (the verifier's ``CheckedMachine``) keep the
            interpreted path so their instrumentation is never inlined
            past.
        use_batch: let trace replay run chunk-compiled superblocks on
            top of the kernels (default).  False selects the per-event
            kernel reference path; moot when kernels are off.  Both
            keywords exist for the differential verifier's ``PATHS``, the
            identity tests and the benchmark's plain-path check; results
            are byte-identical on every setting.
    """

    def __init__(
        self,
        model: NativeInterpreterModel,
        machine: Machine,
        context_switch_interval: int | None = None,
        context_switch_policy: str = "flush",
        use_kernel: bool = True,
        use_batch: bool = True,
    ):
        if context_switch_policy not in ("flush", "save"):
            raise ValueError(
                f"unknown context-switch policy {context_switch_policy!r}"
            )
        self.model = model
        self.machine = machine
        self.context_switch_interval = context_switch_interval
        self.context_switch_policy = context_switch_policy
        self._prev_handler: _HandlerRT | None = None
        self._pending: tuple | None = None
        self._events = 0
        self._code_cursor = 0
        self._is_scd = model.strategy == "scd"
        self._is_threaded = model.strategy == "threaded"
        self._is_superinst = model.strategy == "superinst"
        self._opcode_mask = model.opcode_mask
        # Replay calls on_event once per guest bytecode; bind it to
        # the replay body directly (no per-event forwarding call) unless
        # the strategy needs the one-deep fusion buffer.
        self.on_event = (
            self._on_event_buffered if self._is_superinst else self._replay
        )
        self.kernel = None
        if use_kernel and type(machine) is Machine:
            from repro.native.kernel import BoundKernel

            self.kernel = BoundKernel(self, use_batch=use_batch)
            self.on_event = self.kernel.entry

    @property
    def events(self) -> int:
        """Guest trace events replayed so far."""
        if self.kernel is not None:
            self.kernel.flush()
        return self._events

    def flush_pending_counts(self) -> None:
        """Fold kernel-deferred block counts / event tallies in.

        No-op on the interpreted path; the steady-state memo calls this
        before every digest or counter snapshot.
        """
        if self.kernel is not None:
            self.kernel.flush()

    def start(self) -> None:
        """Program the SCD registers and pre-build the replay plans."""
        if self._is_scd:
            for site in self.model.covered_sites:
                self.machine.scd.setmask(self.model.opcode_mask, table=site)
        self.model.prepare_plans()

    def finish(self) -> None:
        """Interpreter-loop exit: drain any buffered event, flush JTEs."""
        if self._pending is not None:
            event, self._pending = self._pending, None
            self._replay(*event)
        if self.kernel is not None:
            self.kernel.flush()
        if self._is_scd:
            self.machine.jte_flush()

    # -- steady-state replay memo support -----------------------------------

    def replay_digest(self) -> tuple:
        """Replay-visible runner state for the steady-state memo.

        Covers everything that can change how a future event replays: the
        guest-code fetch cursor, the context-switch phase (the interval
        check only reads ``_events`` modulo the interval), the threaded
        previous handler and the superinstruction fusion buffer.
        """
        interval = self.context_switch_interval
        return (
            self._code_cursor,
            self._events % interval if interval else 0,
            self._prev_handler,
            self._pending,
        )

    def memo_end_state(self) -> tuple:
        """State installed by :meth:`apply_memo_end` on a memo hit."""
        return (self._code_cursor, self._prev_handler, self._pending)

    def apply_memo_end(self, end_state: tuple, n_events: int) -> None:
        """Skip *n_events* replayed events, installing their end state."""
        self._events += n_events
        self._code_cursor, self._prev_handler, self._pending = end_state

    # -- event replay -------------------------------------------------------

    def _on_event_buffered(self, op, site, taken, callee, daddrs, builtin, cost) -> None:
        """Superinstruction trace hook: events are buffered one deep so
        adjacent bytecodes matching a fused pair dispatch once through the
        fused handler; everything else replays immediately."""
        event = (op, site, taken, callee, daddrs, builtin, cost)
        pending = self._pending
        if pending is None:
            self._pending = event
            return
        fused_rt = self.model.fused.get((pending[0], op))
        if fused_rt is not None:
            self._pending = None
            self._replay_fused(pending, event, fused_rt)
        else:
            self._pending = event
            self._replay(*pending)

    def _replay_fused(self, first, second, handler) -> None:
        """One dispatch, two bytecodes: the superinstruction fast path."""
        machine = self.machine
        model = self.model
        self._events += 2
        interval = self.context_switch_interval
        if interval and self._events % interval <= 1:
            machine.context_switch(save_jtes=self.context_switch_policy == "save")
        self._code_cursor = (self._code_cursor + 8) & 0x3FFF
        fetch_daddrs = (_VM_STRUCT_PC_SLOT, _GUEST_CODE_BASE + self._code_cursor)

        site = first[1] if first[1] in model.dispatchers else 0
        dispatch = model.dispatchers[site]
        machine.exec_block(dispatch.head)
        machine.exec_block(dispatch.fetch, fetch_daddrs)
        if dispatch.operand is not None:
            machine.exec_block(dispatch.operand)
        machine.exec_block(dispatch.decode)
        machine.exec_block(dispatch.bound)
        machine.cond_branch(dispatch.bound_pc, False, "bound_check")
        machine.exec_block(dispatch.calc)
        fused_opcode = 0x1_0000 | (first[0] << 8) | second[0]
        machine.indirect_jump(
            dispatch.jump_pc, handler.pc, hint=fused_opcode,
            category="dispatch_jump",
        )

        daddrs = first[4] + second[4]
        for chunk_block, junction_pc in handler.chain:
            machine.exec_block(chunk_block, daddrs)
            daddrs = ()
            machine.cond_branch(junction_pc, True, "type_check")
        machine.exec_block(handler.final, daddrs)
        self._run_tail(handler.final)

    def _replay(self, op, site, taken, callee, daddrs, builtin, cost) -> None:
        # Hot path: one call per guest bytecode, millions per simulation.
        # All static structure comes precomputed from the model's replay
        # plan; machine entry points are bound to locals once per event.
        dispatch, handler, chain, final, kind, tail = self.model.replay_plan(
            op, site
        )
        machine = self.machine
        exec_block = machine.exec_block
        cond_branch = machine.cond_branch

        self._events += 1
        interval = self.context_switch_interval
        if interval and self._events % interval == 0:
            machine.context_switch(save_jtes=self.context_switch_policy == "save")

        # Guest bytecode stream address: sequential with wraparound, giving
        # the mostly-resident fetch behaviour of a small bytecode program.
        self._code_cursor = cursor = (self._code_cursor + 4) & 0x3FFF
        fetch_daddrs = (_VM_STRUCT_PC_SLOT, _GUEST_CODE_BASE + cursor)

        # ---- dispatch phase ----
        prev = self._prev_handler
        if prev is not None:  # threaded, after the first bytecode
            exec_block(prev.tail_block, fetch_daddrs)
            machine.indirect_jump(
                prev.tail_jump_pc, handler.pc, hint=op, category="dispatch_jump"
            )
        else:
            exec_block(dispatch.head)
            exec_block(dispatch.fetch, fetch_daddrs)
            if dispatch.scd:
                if dispatch.operand is not None:
                    exec_block(dispatch.operand)
                machine.load_op(op & self._opcode_mask, table=site)
                exec_block(dispatch.bop_block)
                target = machine.bop(dispatch.bop_pc, table=site)
                if target is None:
                    machine.exec_blocks(dispatch.slow_blocks)
                    cond_branch(dispatch.bound_pc, False, "bound_check")
                    exec_block(dispatch.calc)
                    machine.jru(dispatch.jump_pc, handler.pc, table=site)
            else:
                machine.exec_blocks(dispatch.pre_branch)
                cond_branch(dispatch.bound_pc, False, "bound_check")
                exec_block(dispatch.calc)
                machine.indirect_jump(
                    dispatch.jump_pc, handler.pc, hint=op, category="dispatch_jump"
                )
        if self._is_threaded:
            self._prev_handler = handler

        # ---- handler phase ----
        for chunk_block, junction_pc in chain:
            exec_block(chunk_block, daddrs)
            daddrs = ()
            cond_branch(junction_pc, True, "type_check")
        exec_block(final, daddrs)

        if kind == 0:  # plain; tail = final's terminating jump or None
            if tail is not None:
                machine.direct_jump(tail[0], tail[1])
        elif kind == 1:  # branchy; tail = (branch_pc, tk, tk_tail, nt, nt_tail)
            branch_taken = taken == TAKEN_TRUE
            cond_branch(tail[0], branch_taken, "guest_branch")
            if branch_taken:
                side, side_tail = tail[1], tail[2]
            else:
                side, side_tail = tail[3], tail[4]
            exec_block(side)
            if side_tail is not None:
                machine.direct_jump(side_tail[0], side_tail[1])
        elif kind == 2:  # workloop; tail = (work, work_pc, exit, exit_tail)
            work, work_pc, exit_block, exit_tail = tail
            iterations = 1
            if cost is not None:
                iterations = max(1, work_loop_iterations(cost[0]))
            for index in range(iterations):
                exec_block(work)
                cond_branch(work_pc, index < iterations - 1, "work_loop")
            exec_block(exit_block)
            if exit_tail is not None:
                machine.direct_jump(exit_tail[0], exit_tail[1])
        else:  # callout; tail = (call_pc, ret_block, return_pc, ret_tail)
            call_pc, ret_block, return_pc, ret_tail = tail
            if callee == CALLEE_BUILTIN and builtin is not None:
                stub = self.model.stubs[builtin]
            else:
                stub = self.model.stubs["_precall"]
            machine.call(call_pc, stub.pc, return_pc, indirect=True)
            for chunk_block, junction_pc in stub.chain:
                exec_block(chunk_block)
                cond_branch(junction_pc, True, "type_check")
            exec_block(stub.final)
            iterations = 1
            if cost is not None:
                iterations = max(1, work_loop_iterations(cost[0] - stub.entry_insts))
            for index in range(iterations):
                exec_block(stub.work)
                cond_branch(stub.work_pc, index < iterations - 1, "work_loop")
            exec_block(stub.exit)
            machine.ret(stub.ret_pc, return_pc)
            exec_block(ret_block)
            if ret_tail is not None:
                machine.direct_jump(ret_tail[0], ret_tail[1])

    def _run_tail(self, block: BasicBlock) -> None:
        """The handler's terminating jump back to the dispatcher.

        Under jump threading the terminator jumps to the handler's own
        replicated dispatch tail (executed at the next event).
        """
        term = block.term
        machine = self.machine
        if term is not None and term.target is not None:
            machine.direct_jump(term.pc, term.target)
