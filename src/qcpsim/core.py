"""One processing unit: fetch, pre-decode, dual pipelines, timing control.

Dispatch follows a parallel-until-classical discipline. Quantum instructions
that share one timing point (a leading label plus its label-0 followers) form
a group and go to the quantum pipelines together, up to the issue width per
cycle; at most one classical instruction retires per cycle and may overtake
quantum instructions waiting in the synchronization buffers. The timing
controller releases each timing point as a unit once all of its operations
have been seen, at the latest of its scheduled time and its pipeline
readiness; slippage is recorded as a timing violation and later points chain
off the actual issue time so relative gaps survive.

The simulation collapses the pipeline stages into one pass per cycle;
pipeline depth appears as a constant offset on issue readiness, never as
extra dispatch cycles, so steady-state cycle counts are stage-exact.
"""

from __future__ import annotations

__all__ = ["Core", "DecodedProgram", "decode_for_execution", "StepRecord",
           "SHARED_REG_BASE"]

from typing import NamedTuple

from .isa import ClassicalOp, Gate, Kind, Program
from .sched import SimulatorBug

# instruction classes in the pre-decoded form
K_QUANTUM = 0
K_CLASSICAL = 1
K_MRCE = 2
K_END = 3

# register file split: low registers are core-private, high ones are shared
SHARED_REG_BASE = 24

_OP_LDI = int(ClassicalOp.LDI)
_OP_MOV = int(ClassicalOp.MOV)
_OP_ADD = int(ClassicalOp.ADD)
_OP_SUB = int(ClassicalOp.SUB)
_OP_AND = int(ClassicalOp.AND)
_OP_OR = int(ClassicalOp.OR)
_OP_CMP = int(ClassicalOp.CMP)
_OP_BR = int(ClassicalOp.BR)
_OP_JMP = int(ClassicalOp.JMP)
_OP_FMR = int(ClassicalOp.FMR)

# result-register file states
R_EMPTY = 0      # never targeted by a measurement
R_PENDING = 1    # measurement dispatched, result not yet scheduled
R_SCHEDULED = 2  # value and ready time known


class DecodedProgram:
    """Program lowered to flat tuples for the simulation hot path."""

    __slots__ = ("items", "qubit_count")

    def __init__(self, items: list[tuple], qubit_count: int):
        self.items = items
        self.qubit_count = qubit_count


def decode_for_execution(p: Program) -> DecodedProgram:
    items: list[tuple] = []
    for pc, ins in enumerate(p.instructions):
        if ins.kind == Kind.QUANTUM:
            items.append((K_QUANTUM, ins.timing_label, ins.gate.name, ins.qubits,
                          ins.result_reg if ins.gate == Gate.MEAS else -1, pc))
        elif ins.kind == Kind.CLASSICAL:
            items.append((K_CLASSICAL, int(ins.classical_op), ins.rd, ins.ra,
                          ins.rb, ins.imm, int(ins.cond), ins.target,
                          ins.result_reg, pc))
        elif ins.kind == Kind.MRCE:
            op0 = None if ins.mrce_op0 == Gate.NOP else ins.mrce_op0.name
            op1 = None if ins.mrce_op1 == Gate.NOP else ins.mrce_op1.name
            items.append((K_MRCE, ins.result_reg, ins.mrce_target, op0, op1, pc))
        else:
            items.append((K_END, pc))
    return DecodedProgram(items, p.qubit_count)


class _Entry:
    """One timing point: the operations sharing a scheduled issue time."""

    __slots__ = ("sched", "gap", "ops", "last_cycle", "closed_cycle",
                 "q_cycles", "c_cycles", "s_cycles", "f_cycles", "block")

    def __init__(self, sched: int, gap: int, block: int):
        self.sched = sched
        self.gap = gap                  # ns since the previous timing point
        self.ops: list[tuple] = []      # (gate, qubits, result_reg, pc)
        self.last_cycle = 0
        self.closed_cycle = -1
        self.q_cycles = 0
        self.c_cycles = 0
        self.s_cycles = 0
        self.f_cycles = 0
        self.block = block


class StepRecord(NamedTuple):
    """Cycle decomposition of one issued timing point."""

    core: int
    block: int
    scheduled_ns: int
    actual_ns: int
    qices: int
    cycles_quantum: int
    cycles_classical: int
    cycles_stall: int
    cycles_feedback: int
    violation_ns: int
    injected: bool = False

    @property
    def ces(self) -> int:
        return (self.cycles_quantum + self.cycles_classical
                + self.cycles_stall + self.cycles_feedback)


class _MrceContext:
    __slots__ = ("result_reg", "target", "op0", "op1", "anchor_ns",
                 "created_cycle")

    def __init__(self, result_reg, target, op0, op1, anchor_ns, created_cycle):
        self.result_reg = result_reg
        self.target = target
        self.op0 = op0
        self.op1 = op1
        self.anchor_ns = anchor_ns
        self.created_cycle = created_cycle


class Core:
    """One processor, stepped by the engine one call per active cycle."""

    __slots__ = (
        "core_id", "engine", "width", "clock", "depth_offset",
        "branch_penalty", "ctx_cycles", "regs", "flag_eq", "flag_lt",
        "slots", "slot_loaded", "switch_until", "_switch_args", "executing",
        "finished_block", "pc", "pc_end", "stream_ended", "pending",
        "entries", "pop_idx", "open_entry", "chain_sched", "prev_actual",
        "anchor", "injected", "mrce_contexts", "scoreboard", "ctx_pause",
        "_ctx_resolving", "_ctx_pot", "redirect_penalty", "fmr_wait",
        "fb_mode", "_drained_ctx", "pot_c", "pot_s", "pot_f",
        "exec_start_cycle", "attributed", "result_wait_cycles",
        "drain_cycles", "stall_reason", "last_seen", "next_pop_ns",
        "next_call",
    )

    def __init__(self, core_id: int, engine, width: int):
        self.core_id = core_id
        self.engine = engine
        self.width = width
        clock = engine.clock
        self.clock = clock
        self.depth_offset = (engine.config.pipeline_depth - 1) * clock
        self.branch_penalty = engine.config.branch_penalty
        self.ctx_cycles = engine.config.ctx_switch_cycles

        self.regs = [0] * SHARED_REG_BASE
        self.flag_eq = False
        self.flag_lt = False

        # dual private caches; slots hold block ids, managed by the scheduler
        self.slots: list[int | None] = [None, None]
        self.slot_loaded = [False, False]
        self.switch_until: int | None = None
        self._switch_args: tuple | None = None

        self.executing: int | None = None
        self.finished_block: int | None = None
        self.pc = 0
        self.pc_end = -1
        self.stream_ended = True
        self.pending: list[tuple] = []

        self.entries: list[_Entry] = []
        self.pop_idx = 0
        self.open_entry: _Entry | None = None
        self.chain_sched = -1         # scheduled time of the newest entry
        self.prev_actual = -1         # actual issue time of the last pop
        self.anchor = 0
        self.injected: list[list] = []  # [sched, disp_cycle, gate, qubit, pc, fb]

        self.mrce_contexts: list[_MrceContext] = []
        self.scoreboard: set[int] = set()
        self.ctx_pause = 0
        self._ctx_resolving: tuple | None = None
        self._ctx_pot = 0

        self.redirect_penalty = 0
        self.fmr_wait: tuple | None = None   # (result_reg, rd, start_cycle)
        self.fb_mode = False
        self._drained_ctx = False

        # attribution pot: cycles waiting to be claimed by the next timing point
        self.pot_c = 0
        self.pot_s = 0
        self.pot_f = 0
        self.exec_start_cycle = 0
        self.attributed = 0
        self.result_wait_cycles = 0
        self.drain_cycles = 0
        self.stall_reason: str | None = None
        self.last_seen = -1
        self.next_pop_ns = 1 << 62
        self.next_call = 0

    # ── block lifecycle ────────────────────────────────────────────

    def _check_idle(self, block: int) -> None:
        # a block handed to a busy core would overwrite the one it holds
        if self.executing is not None or self.switch_until is not None:
            raise SimulatorBug(
                f"block {block} assigned to busy core {self.core_id}")

    def begin_switch(self, block: int, slot: int, start_cycle: int,
                     pc_start: int, pc_end: int) -> None:
        self._check_idle(block)
        self.switch_until = start_cycle
        self._switch_args = (block, slot, start_cycle, pc_start, pc_end)
        self.next_call = 0
        self.engine.activate(self)

    def start_block(self, block: int, slot: int, start_cycle: int,
                    pc_start: int, pc_end: int) -> None:
        self._check_idle(block)
        self.next_call = 0
        self.engine.activate(self)
        self.executing = block
        self.pc = pc_start
        self.pc_end = pc_end
        self.stream_ended = pc_start > pc_end
        self.pending.clear()
        self.entries.clear()
        self.pop_idx = 0
        self.open_entry = None
        self.anchor = start_cycle * self.clock + self.depth_offset
        self.chain_sched = -1
        self.prev_actual = -1
        self.redirect_penalty = 0
        self.fmr_wait = None
        self.fb_mode = False
        self.pot_c = self.pot_s = self.pot_f = 0
        self.exec_start_cycle = start_cycle
        self.attributed = 0
        self.result_wait_cycles = 0
        self.drain_cycles = 0
        self.stall_reason = None
        self.last_seen = start_cycle - 1
        self.next_pop_ns = 1 << 62

    # ── per-cycle evaluation ───────────────────────────────────────

    def run_cycle(self, cycle: int) -> int | None:
        """Advance one cycle; returns the next cycle this core needs to run,
        or None for "call again at cycle + 1"."""
        if self.switch_until is not None:
            if cycle >= self.switch_until:
                args = self._switch_args
                self.switch_until = self._switch_args = None
                self.start_block(*args)
            else:
                return self.switch_until
        if self.executing is None:
            return None

        # cycles skipped while this core slept keep their meaning: a wait
        # for a result it cannot influence, or the drain of issued work
        gap = cycle - self.last_seen - 1
        if gap > 0 and self.fmr_wait is None:
            self.attributed += gap
            if self.stream_ended and not self.pending:
                self.drain_cycles += gap
            else:
                self.result_wait_cycles += gap
        self.last_seen = cycle

        now_ns = cycle * self.clock
        wake: int | None = None
        eff = cycle

        if self.ctx_pause > 0:
            self.ctx_pause -= 1
            self.attributed += 1
            self._ctx_pot += 1
            self._bump_waits()
            if self.ctx_pause == 0:
                self._finish_context_switch(cycle)
        elif self.mrce_contexts and self._maybe_resolve_context(cycle, now_ns):
            pass
        elif self.redirect_penalty > 0:
            self.redirect_penalty -= 1
            self.attributed += 1
            if self.fb_mode:
                self.pot_f += 1
            else:
                self.pot_s += 1
        elif self.fmr_wait is not None:
            wake = self._check_fmr(cycle, now_ns)
        else:
            extra = self._dispatch(cycle, now_ns)
            if extra:
                eff = cycle + extra
                self.last_seen = eff
                now_ns = eff * self.clock

        if self.next_pop_ns <= now_ns:
            self._pop_ready(now_ns)

        if self.stream_ended and not self.pending and self.executing is not None \
                and self._block_complete(eff):
            self._finish_block(eff)
            return None
        if wake is not None:
            return wake
        if eff > cycle:
            return eff + 1
        if self.stall_reason is None and (not self.stream_ended or self.pending):
            return None
        return self._idle_wake(cycle)

    def _bump_waits(self) -> None:
        # a context switch consumed this cycle; keep a concurrent result
        # wait from double-counting it
        if self.fmr_wait is not None:
            reg, rd, start = self.fmr_wait
            self.fmr_wait = (reg, rd, start + 1)

    # ── conditional-execution contexts ─────────────────────────────

    def _maybe_resolve_context(self, cycle: int, now_ns: int) -> bool:
        """Start (or instantly complete) a pending context switch; returns
        True when the switch consumed this cycle."""
        rf = self.engine.result_file
        resolved_free = False
        for i, ctx in enumerate(self.mrce_contexts):
            slot = rf[ctx.result_reg]
            if slot[0] == R_SCHEDULED and slot[2] <= now_ns:
                self._ctx_resolving = (ctx, slot[1], slot[2])
                del self.mrce_contexts[i]
                self.engine.context_switches.append(self.ctx_cycles)
                if self.ctx_cycles == 0:
                    self._ctx_pot = 0
                    self._finish_context_switch(cycle)
                    resolved_free = True
                    break
                self.attributed += 1
                self._ctx_pot = 1
                self._bump_waits()
                if self.ctx_cycles == 1:
                    self._finish_context_switch(cycle)
                else:
                    self.ctx_pause = self.ctx_cycles - 1
                return True
        if resolved_free:
            # a zero-cost switch leaves the cycle free for normal dispatch
            return self._maybe_resolve_context(cycle, now_ns)
        return False

    def _finish_context_switch(self, cycle: int) -> None:
        ctx, value, ready = self._ctx_resolving
        self._ctx_resolving = None
        self.scoreboard.discard(ctx.target)
        if self.engine.cycle_trace is not None:
            self.engine.cycle_trace.append(
                (cycle, self.core_id, "context resolve",
                 f"q{ctx.target}={value}"))
        op = ctx.op1 if value else ctx.op0
        pot = self._ctx_pot
        self._ctx_pot = 0
        if op is None:
            self.pot_f += pot
            return
        sched = max(ready, ctx.anchor_ns)
        self.injected.append([sched, cycle, op, ctx.target, -1, pot])
        self.next_pop_ns = 0

    # ── classical stall handling ───────────────────────────────────

    def _check_fmr(self, cycle: int, now_ns: int) -> int | None:
        reg, rd, start = self.fmr_wait
        slot = self.engine.result_file[reg]
        if slot[0] == R_SCHEDULED and slot[2] <= now_ns:
            waited = cycle - start
            self.result_wait_cycles += waited
            self.attributed += waited
            self._write_reg(rd, slot[1])
            self.fmr_wait = None
            self.fb_mode = True
            self.pot_f += 1          # the latch cycle starts the conditional work
            self.attributed += 1
            self.stall_reason = None
            return None
        self.stall_reason = "result wait"
        if slot[0] == R_SCHEDULED:
            return -(-slot[2] // self.clock)
        return None  # pending or never produced; the watchdog covers the latter

    # ── dispatch ───────────────────────────────────────────────────

    def _dispatch(self, cycle: int, now_ns: int) -> int:
        pending = self.pending
        width = self.width
        items = self.engine.items
        end = self.pc_end + 1
        # straight-line quantum work has no data dependences on this cycle's
        # classical state; batch it through in one pass, one group per cycle.
        # Dispatch cannot open a context or mark the scoreboard, so whether
        # the batch may run is decided once.
        batch = not self.mrce_contexts and not self.scoreboard
        used = 0
        while True:
            if not self.stream_ended and len(pending) < width:
                pc = self.pc
                n = end - pc
                if n > width:
                    n = width
                pending.extend(items[pc:pc + n])
                self.pc = pc + n
                if self.pc >= end:
                    self.stream_ended = True
            if not (batch and pending and pending[0][0] == K_QUANTUM):
                break
            head = pending[0]
            glen = len(pending)
            if glen > width:
                glen = width
            for i in range(1, glen):
                nxt = pending[i]
                if nxt[0] != K_QUANTUM or nxt[1] != 0:
                    glen = i
                    break
            entry = self.open_entry
            if glen == 1 and head[1] == 0 and entry is not None \
                    and entry.closed_cycle < 0 \
                    and not (self.pot_c or self.pot_s or self.pot_f):
                # label-0 follower joins the open timing point directly
                del pending[0]
                entry.ops.append((head[2], head[3], head[4], head[5]))
                if head[4] >= 0:
                    self.engine.result_file[head[4]][0] = R_PENDING
                entry.last_cycle = cycle + used
                entry.q_cycles += 1
                self.attributed += 1
            else:
                group = pending[:glen]
                del pending[:glen]
                self._dispatch_group(group, cycle + used)
            used += 1
        if used:
            return used - 1

        if not pending:
            self.drain_cycles += 1
            self.attributed += 1
            return 0

        kind = pending[0][0]
        if kind == K_CLASSICAL or kind == K_END:
            # a classical head always dispatches: `_pick_classical` gives
            # (0, 0) for it, and only an MRCE head can be held back
            if len(pending) == 1 or pending[1][0] != K_QUANTUM:
                return self._dispatch_classical_alone(cycle, now_ns)
            return self._dispatch_picked(0, 0, cycle, now_ns)
        return self._dispatch_picked(*self._pick_classical(pending, now_ns),
                                     cycle, now_ns)

    def _dispatch_picked(self, cl_idx: int, barrier: int, cycle: int,
                         now_ns: int) -> int:
        """The rest of `_dispatch` once `_pick_classical` has chosen."""
        pending = self.pending
        width = self.width
        branch_taken = False
        stalled = False
        cut = len(pending)
        mrce_cycle = False
        if cl_idx >= 0:
            item = pending[cl_idx]
            k = item[0]
            if k == K_END:
                self.stream_ended = True
                branch_taken = True     # drop everything younger
                cut = cl_idx
            elif k == K_MRCE:
                mrce_effect = self._execute_mrce(item, cycle, now_ns)
                mrce_cycle = True
            else:
                branch_taken, stalled = self._execute_classical_op(
                    item, cycle, now_ns)
                if branch_taken:
                    cut = cl_idx
        else:
            cut = barrier

        if stalled:
            del pending[cl_idx]
            return 0
        if cl_idx >= 0:
            entry = self.open_entry
            if entry is not None and entry.closed_cycle < 0:
                entry.closed_cycle = cycle
                self.next_pop_ns = 0

        group: list[int] = []
        blocked = False
        scoreboard = self.scoreboard
        for i in range(cut):
            if i == cl_idx:
                continue
            item = pending[i]
            if item[0] != K_QUANTUM:
                break
            if group and item[1] != 0:
                break
            if scoreboard and not scoreboard.isdisjoint(item[3]):
                blocked = True
                break
            group.append(i)
            if len(group) == width:
                break

        group_items = [pending[i] for i in group]
        if branch_taken:
            # drop the classical and everything younger; keep older survivors
            survivors = [pending[i] for i in range(cut) if i not in group]
            pending.clear()
            pending.extend(survivors)
        elif cl_idx < 0:
            if group:
                del pending[:len(group)]   # group is always a prefix here
        elif not group:
            del pending[cl_idx]
        else:
            consumed = set(group)
            consumed.add(cl_idx)
            new_pending = [it for i, it in enumerate(pending)
                           if i not in consumed]
            pending.clear()
            pending.extend(new_pending)

        if mrce_cycle and mrce_effect is not None:
            # an immediately-resolved conditional op is free when the cycle
            # already belongs to a quantum dispatch, one cycle otherwise
            mrce_effect[5] = 0 if group_items else 1
            self.injected.append(mrce_effect)
            self.next_pop_ns = 0
        if group_items:
            self._dispatch_group(group_items, cycle)
        elif cl_idx >= 0:
            self.attributed += 1
            if mrce_cycle or self.fb_mode:
                self.pot_f += 1
            else:
                self.pot_c += 1
        else:
            # head of queue is held back: a conditional-execution dependence
            # or a result read behind its producing measurement
            self.attributed += 1
            self.result_wait_cycles += 1
            if blocked:
                self.stall_reason = "scoreboard"
                if self.engine.cycle_trace is not None:
                    self.engine.cycle_trace.append(
                        (cycle, self.core_id, "stall", "scoreboard"))
            if (self.open_entry is not None
                    and self.open_entry.closed_cycle < 0):
                self.open_entry.closed_cycle = cycle
                self.next_pop_ns = 0
        return 0

    def _dispatch_classical_alone(self, cycle: int, now_ns: int) -> int:
        """`_dispatch_picked(0, 0, ...)` for a classical head with no
        quantum follower: the cycle is the classical instruction's alone."""
        pending = self.pending
        item = pending[0]
        if item[0] == K_END:
            self.stream_ended = True
            pending.clear()
        else:
            branch_taken, stalled = self._execute_classical_op(
                item, cycle, now_ns)
            if stalled:
                del pending[0]
                return 0
            if branch_taken:
                pending.clear()
            else:
                del pending[0]
        entry = self.open_entry
        if entry is not None and entry.closed_cycle < 0:
            entry.closed_cycle = cycle
            self.next_pop_ns = 0
        self.attributed += 1
        if self.fb_mode:
            self.pot_f += 1
        else:
            self.pot_c += 1
        return 0

    def _pick_classical(self, pending: list, now_ns: int) -> tuple[int, int]:
        """Index of this cycle's classical instruction (or -1) and the scan
        barrier for the quantum group when nothing classical dispatches."""
        rf = self.engine.result_file
        for i, item in enumerate(pending):
            k = item[0]
            if k == K_QUANTUM:
                continue
            if k == K_CLASSICAL and item[1] == _OP_FMR:
                reg = item[8]
                if self._older_meas(pending, i, reg):
                    return -1, i
                if i > 0:
                    slot = rf[reg]
                    if not (slot[0] == R_SCHEDULED and slot[2] <= now_ns):
                        # would stall ahead of older quantum work; hold it
                        return -1, i
            elif k == K_MRCE:
                if (self._older_meas(pending, i, item[1])
                        or item[2] in self.scoreboard):
                    return -1, i
            return i, i
        return -1, len(pending)

    @staticmethod
    def _older_meas(pending: list, idx: int, reg: int) -> bool:
        for j in range(idx):
            item = pending[j]
            if item[0] == K_QUANTUM and item[4] == reg:
                return True
        return False

    def _dispatch_group(self, group: list[tuple], cycle: int) -> None:
        head = group[0]
        label = head[1]
        entry = self.open_entry
        if entry is None or label != 0 or entry.closed_cycle >= 0:
            if entry is not None and entry.closed_cycle < 0:
                entry.closed_cycle = cycle
                self.next_pop_ns = 0
            if self.chain_sched < 0:
                sched = self.anchor + label * self.clock
                gap = label * self.clock
            else:
                gap = label * self.clock
                sched = self.chain_sched + gap
            entry = _Entry(sched, gap, self.executing)
            self.entries.append(entry)
            self.open_entry = entry
            self.chain_sched = sched
        rf = self.engine.result_file
        for item in group:
            entry.ops.append((item[2], item[3], item[4], item[5]))
            if item[4] >= 0:
                slot = rf[item[4]]
                slot[0] = R_PENDING
        trace = self.engine.cycle_trace
        if trace is not None:
            trace.append((cycle, self.core_id, "dispatch",
                          tuple(op[0] for op in entry.ops[-len(group):])))
        entry.last_cycle = cycle
        entry.q_cycles += 1
        if self.pot_c or self.pot_s or self.pot_f:
            entry.c_cycles += self.pot_c
            entry.s_cycles += self.pot_s
            entry.f_cycles += self.pot_f
            self.pot_c = self.pot_s = self.pot_f = 0
        self.attributed += 1
        self.fb_mode = False
        self.stall_reason = None

    def _execute_classical_op(self, item: tuple, cycle: int,
                              now_ns: int) -> tuple[bool, bool]:
        """Returns (redirected, stalled)."""
        op = item[1]
        if op == _OP_FMR:
            reg = item[8]
            slot = self.engine.result_file[reg]
            if slot[0] == R_SCHEDULED and slot[2] <= now_ns:
                self._write_reg(item[2], slot[1])
                self.fb_mode = True
                return False, False
            self.fmr_wait = (reg, item[2], cycle)
            self.stall_reason = "result wait"
            if self.engine.cycle_trace is not None:
                self.engine.cycle_trace.append(
                    (cycle, self.core_id, "stall", "result wait"))
            # the stalled pipeline cannot extend the newest timing point;
            # release it or its own measurement could never issue
            if self.open_entry is not None and self.open_entry.closed_cycle < 0:
                self.open_entry.closed_cycle = cycle
                self.next_pop_ns = 0
            return False, True
        if op <= _OP_CMP:
            regs = self.regs
            ra, rb = item[3], item[4]
            a = regs[ra] if ra < SHARED_REG_BASE else self._read_reg(ra)
            b = regs[rb] if rb < SHARED_REG_BASE else self._read_reg(rb)
            if op == _OP_CMP:
                self.flag_eq = a == b
                self.flag_lt = a < b
                return False, False
            if op == _OP_LDI:
                value = item[5]
            elif op == _OP_MOV:
                value = a
            elif op == _OP_ADD:
                value = a + b
            elif op == _OP_SUB:
                value = a - b
            elif op == _OP_AND:
                value = a & b
            else:
                value = a | b
            self._write_reg(item[2], value)
        elif op == _OP_BR:
            if self._branch_condition(item[6]):
                self._redirect(item[7])
                return True, False
        elif op == _OP_JMP:
            self._redirect(item[7])
            return True, False
        return False, False

    def _branch_condition(self, cond: int) -> bool:
        eq, lt = self.flag_eq, self.flag_lt
        if cond == 0:
            return eq
        if cond == 1:
            return not eq
        if cond == 2:
            return lt
        if cond == 3:
            return lt or eq
        if cond == 4:
            return not (lt or eq)
        return not lt

    def _redirect(self, target: int) -> None:
        self.pc = target
        self.stream_ended = self.pc > self.pc_end
        self.redirect_penalty = self.branch_penalty

    def _execute_mrce(self, item: tuple, cycle: int,
                      now_ns: int) -> list | None:
        """Run a conditional-execution instruction; returns the injected
        operation record when the result is already readable, else stores a
        context. Cycle attribution is the caller's concern."""
        reg, target = item[1], item[2]
        slot = self.engine.result_file[reg]
        anchor = self.chain_sched if self.chain_sched >= 0 else self.anchor
        if slot[0] == R_SCHEDULED and slot[2] <= now_ns:
            op = item[4] if slot[1] else item[3]
            if op is not None:
                return [max(slot[2], anchor), cycle, op, target, item[5], 1]
            self.fb_mode = True
            return None
        self.mrce_contexts.append(
            _MrceContext(reg, target, item[3], item[4], anchor, cycle))
        self.scoreboard.add(target)
        if self.engine.cycle_trace is not None:
            self.engine.cycle_trace.append(
                (cycle, self.core_id, "context open", f"q{target}"))
        return None

    def _write_reg(self, idx: int, value: int) -> None:
        if idx < SHARED_REG_BASE:
            self.regs[idx] = value
        else:
            self.engine.shared_regs[idx - SHARED_REG_BASE] = value

    def _read_reg(self, idx: int) -> int:
        if idx < SHARED_REG_BASE:
            return self.regs[idx]
        return self.engine.shared_regs[idx - SHARED_REG_BASE]

    # ── timing controller ──────────────────────────────────────────

    def _entry_times(self, entry: _Entry) -> tuple[int, int]:
        """(local, actual) of a timing point popped next: its time on the
        program's chain, and when it can issue."""
        prev = self.prev_actual
        local = (prev + entry.gap) if prev >= 0 else entry.sched
        actual = local
        ready = entry.last_cycle * self.clock + self.depth_offset
        if ready > actual:
            actual = ready
        closed = entry.closed_cycle * self.clock
        if closed > actual:
            actual = closed
        return local, actual

    def _pop_ready(self, now_ns: int) -> None:
        entries = self.entries
        injected = self.injected
        idx = self.pop_idx
        if not injected and (idx >= len(entries)
                             or entries[idx].closed_cycle < 0):
            self.next_pop_ns = 1 << 62
            return
        clock = self.clock
        depth = self.depth_offset
        while True:
            main_actual = None
            if idx < len(entries):
                main = entries[idx]
                if main.closed_cycle >= 0:
                    local, main_actual = self._entry_times(main)
            inj_idx = -1
            inj_actual = None
            for i, rec in enumerate(injected):
                a = rec[0]
                r = rec[1] * clock + depth
                if r > a:
                    a = r
                if inj_actual is None or a < inj_actual:
                    inj_actual, inj_idx = a, i
            if (main_actual is not None and main_actual <= now_ns
                    and (inj_actual is None or main_actual <= inj_actual)):
                self._issue_entry(main, local, main_actual)
                idx += 1
                self.pop_idx = idx
                continue
            if inj_actual is not None and inj_actual <= now_ns:
                self._issue_injected(injected.pop(inj_idx), inj_actual)
                continue
            nxt = 1 << 62
            if main_actual is not None:
                nxt = main_actual
            if inj_actual is not None and inj_actual < nxt:
                nxt = inj_actual
            self.next_pop_ns = nxt
            break

    def _issue_entry(self, entry: _Entry, local: int, actual: int) -> None:
        """Issue a timing point at `actual`; `local` is its time on the
        program's chain, so a positive difference is a violation."""
        engine = self.engine
        core_id = self.core_id
        if actual > local:
            engine.violations.append((core_id, local, actual))
        self.prev_actual = actual
        qpu = engine.qpu
        rf = engine.result_file
        sched = entry.sched
        ops = entry.ops
        for gate, qubits, rreg, pc in ops:
            qpu.accept_issue(actual, sched, gate, qubits, core_id)
            if rreg >= 0:
                bit, ready = qpu.measurement_result(qubits[0], actual, pc)
                slot = rf[rreg]
                slot[0] = R_SCHEDULED
                slot[1] = bit
                slot[2] = ready
        if engine.collect_steps:
            engine.steps.append(StepRecord(
                core_id, entry.block, sched, actual, len(ops),
                entry.q_cycles, entry.c_cycles, entry.s_cycles, entry.f_cycles,
                actual - local))

    def _issue_injected(self, rec: list, actual: int) -> None:
        sched, _cycle, gate, qubit, _pc, budget = rec
        self.engine.qpu.accept_issue(actual, sched, gate, (qubit,), self.core_id)
        if actual > sched:
            self.engine.violations.append((self.core_id, sched, actual))
        if self.engine.collect_steps:
            cq = 1 if budget >= 1 else 0
            block = self.executing if self.executing is not None else -1
            self.engine.steps.append(StepRecord(
                self.core_id, block, sched, actual, 1, cq, 0, 0, budget - cq,
                actual - sched, injected=True))

    # ── completion ─────────────────────────────────────────────────

    def _block_complete(self, cycle: int) -> bool:
        # nothing can join the newest timing point anymore; release it so
        # stalls waiting on its measurements can make progress
        if self.open_entry is not None and self.open_entry.closed_cycle < 0:
            self.open_entry.closed_cycle = cycle
            self.next_pop_ns = 0
        if (self.fmr_wait is not None or self.ctx_pause
                or self.mrce_contexts or self.redirect_penalty
                or self._ctx_resolving is not None):
            if self.mrce_contexts or self._ctx_resolving is not None:
                # completion deliberately waits for open contexts to resolve
                self._drained_ctx = True
            return False
        return self.pop_idx >= len(self.entries) and not self.injected

    def _finish_block(self, cycle: int) -> None:
        span = cycle - self.exec_start_cycle + 1
        if self.attributed != span:
            raise SimulatorBug(
                f"cycle attribution gap on core {self.core_id} block "
                f"{self.executing}: {self.attributed} classified of {span}")
        self.engine.result_wait_total += self.result_wait_cycles
        self.engine.drain_total += self.drain_cycles
        if self._drained_ctx:
            self.engine.context_drained_blocks.append(
                (self.executing, self.core_id))
            self._drained_ctx = False
        self.finished_block = self.executing
        self.executing = None
        self.entries.clear()
        self.pop_idx = 0
        self.open_entry = None
        self.scoreboard.clear()

    # ── wake hinting for the event-skipping engine ─────────────────

    def _idle_wake(self, cycle: int) -> int | None:
        if self.ctx_pause or self.redirect_penalty:
            return None
        if self.fmr_wait is None and (not self.stream_ended or self.pending):
            if self.stall_reason is None:
                return None
        return self._queue_wake(cycle)

    def _queue_wake(self, cycle: int) -> int | None:
        best: int | None = None
        if self.pop_idx < len(self.entries):
            entry = self.entries[self.pop_idx]
            if entry.closed_cycle >= 0:
                best = -(-self._entry_times(entry)[1] // self.clock)
        for rec in self.injected:
            a = rec[0]
            r = rec[1] * self.clock + self.depth_offset
            if r > a:
                a = r
            c = -(-a // self.clock)
            if best is None or c < best:
                best = c
        rf = self.engine.result_file
        for ctx in self.mrce_contexts:
            slot = rf[ctx.result_reg]
            if slot[0] == R_SCHEDULED:
                c = -(-slot[2] // self.clock)
                if best is None or c < best:
                    best = c
        if self.fmr_wait is not None:
            slot = rf[self.fmr_wait[0]]
            if slot[0] == R_SCHEDULED:
                c = -(-slot[2] // self.clock)
                if best is None or c < best:
                    best = c
        if best is not None and best <= cycle:
            best = cycle + 1
        return best
