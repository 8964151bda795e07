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

A timing point closes (`Core._close_point`) when nothing more can join it: a
quantum group with a non-zero label opens the next point, a classical
instruction ends the open point where it stands in program order (after the
older quantum work dispatched with it, before the younger), a stalled or
held-back head releases it, and so does the end of the block's stream.

Every dispatch cycle follows one rule: `_pick_classical` chooses the
cycle's classical instruction, if any, and `_dispatch_picked` dispatches it
with the quantum group beside it. `_dispatch_classical_alone` and
`_dispatch_quantum` are fast paths of that rule for a buffer with nothing to
choose: a classical head with no quantum follower, and quantum work alone.
Both may run several cycles in one call, but only cycles the rule would
spend the same way, and only up to `_horizon`, before which nothing else
can see that the cycles ran early. The other cores bound that horizon at
their next calls, unless this core's block is independent: no block that
may run beside it touches its qubits or registers. The scheduler bounds it
only while one of its ticks could start a block; ticks that can only start
or land prefetches run beside the call. `_dispatch_quantum`'s loop
dispatches one whole timing point per step, with the number of cycles the
rule spends on it. Refills top the buffer up one issue width at a time, so
each of those cycles takes the point's next issue width of instructions,
and the count is arithmetic. It also runs beside an open conditional
context, up to the cycle before it resolves. At width 1,
`_dispatch_classical_alone` goes on to retire the classical instructions
after the head, one per cycle, and counts each taken branch's dead cycles
at once. Its run ends before a quantum item, an MRCE, the stream's last
item or an FMR whose register is not readable yet, and no later than the
cycle the next queued issue falls due in. `_drain` issues in one call the
queued points of an ended stream, or of a core stalled on an FMR up to the
cycle before the read can resolve, that fall due up to the horizon, which
never passes the engine's next deadlock-watchdog check. The `OPTIMIZATIONS`
table in `tests/test_core.py` lists both fast paths, the engine's event
skipping and this run-ahead, each with the replacement that turns it off;
every row runs on every input set and must change no output.

Each result register is a `[value, ready_ns, producers]` list: a
measurement's result is readable from `ready_ns` on, and `producers` counts
its dispatched measurements that have not issued yet. A register with any
such producer reads as not ready (`ready_ns` is `NEVER`); an issuing
measurement writes its result only when it is the last producer in flight,
so an older result never shows through a younger measurement. `NEVER` also
marks a register no measurement has filled yet.

A conditional-execution instruction whose result is not readable yet opens
a context on its target qubit. `Core.contexts` is the one record of the
open contexts, and its keys are the scoreboard: no quantum work on those
qubits dispatches while they are open. `_resolve_contexts` resolves each
one in full in the cycle its switch starts, charging the switch's pause
then and queueing the chosen operation for the pause's last cycle.

The simulation collapses the pipeline stages into one pass per cycle;
pipeline depth appears as a constant offset on issue readiness, never as
extra dispatch cycles, so steady-state cycle counts are stage-exact.
"""

from __future__ import annotations

__all__ = ["Core", "decode_for_execution", "StepRecord", "SHARED_REG_BASE"]

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
_OP_CMP = int(ClassicalOp.CMP)
_OP_BR = int(ClassicalOp.BR)
_OP_JMP = int(ClassicalOp.JMP)
_OP_FMR = int(ClassicalOp.FMR)

# a time that never comes: an unfilled result register's ready time, and
# the next issue time of an empty queue
NEVER = 2 ** 62


# gate names for the lowered form, read without the enum's `name` property
_GATE_NAMES = {g: g.name for g in Gate}


def decode_for_execution(p: Program) -> list[tuple]:
    """The program lowered to flat tuples for the simulation hot path, one
    per instruction."""
    quantum, classical, mrce = Kind.QUANTUM, Kind.CLASSICAL, Kind.MRCE
    meas, nop, names = Gate.MEAS, Gate.NOP, _GATE_NAMES
    items: list[tuple] = []
    append = items.append
    for pc, ins in enumerate(p.instructions):
        kind = ins.kind
        if kind == quantum:
            gate = ins.gate
            append((K_QUANTUM, ins.timing_label, names[gate], ins.qubits,
                    ins.result_reg if gate == meas else -1, pc))
        elif kind == classical:
            append((K_CLASSICAL, int(ins.classical_op), ins.rd, ins.ra,
                    ins.rb, ins.imm, int(ins.cond), ins.target,
                    ins.result_reg, pc))
        elif kind == mrce:
            op0, op1 = ins.mrce_op0, ins.mrce_op1
            append((K_MRCE, ins.result_reg, ins.mrce_target,
                    None if op0 == nop else names[op0],
                    None if op1 == nop else names[op1], pc))
        else:
            append((K_END, pc))
    return items


class _Entry:
    """One timing point: the operations sharing a scheduled issue time."""

    __slots__ = ("sched", "gap", "ops", "has_meas", "last_cycle",
                 "closed_cycle", "q_cycles", "c_cycles", "s_cycles",
                 "f_cycles", "block")

    def __init__(self, sched: int, gap: int, block: int):
        self.sched = sched
        self.gap = gap                  # ns since the previous timing point
        self.ops: list[tuple] = []      # the decoded quantum items
        self.has_meas = False           # any op writes a result register
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


class Core:
    """One processor, stepped by the engine one call per active cycle."""

    __slots__ = (
        "core_id", "engine", "width", "clock", "depth_offset",
        "branch_penalty", "ctx_cycles", "regs", "flag_eq", "flag_lt",
        "slots", "slot_loaded", "switch_until", "switch_args", "executing",
        "finished_block", "pc", "pc_end", "stream_ended", "pending",
        "entries", "pop_idx", "open_entry", "chain_sched", "prev_actual",
        "anchor", "injected", "contexts", "ctx_pause", "redirect_penalty",
        "fmr_wait", "fb_mode", "pot_c", "pot_s", "pot_f",
        "exec_start_cycle", "attributed", "stall_reason", "last_seen",
        "next_pop_ns", "next_call", "clash", "late_results",
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
        # a result is readable no earlier than the cycle after its issue's
        qpu = engine.config.qpu
        self.late_results = qpu.meas_pulse_ns + qpu.daq_ns >= clock

        self.regs = [0] * SHARED_REG_BASE
        self.flag_eq = False
        self.flag_lt = False

        # dual private caches; slots hold block ids, managed by the scheduler
        self.slots: list[int | None] = [None, None]
        self.slot_loaded = [False, False]
        self.switch_until: int | None = None
        self.switch_args: tuple | None = None

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
        # conditional ops waiting to issue:
        # (earliest_issue_ns, sched, one-op point, charged_cycles)
        self.injected: list[tuple] = []

        # open conditional contexts, oldest first: target qubit ->
        # (decoded MRCE item, anchor_ns); the keys are the scoreboard
        self.contexts: dict[int, tuple] = {}
        self.ctx_pause = 0

        self.redirect_penalty = 0
        self.fmr_wait: tuple | None = None   # a stalled FMR's (result_reg, rd)
        self.fb_mode = False

        # attribution pot: cycles waiting to be claimed by the next timing point
        self.pot_c = 0
        self.pot_s = 0
        self.pot_f = 0
        self.exec_start_cycle = 0
        self.attributed = 0
        self.stall_reason: str | None = None
        self.last_seen = -1
        self.next_pop_ns = NEVER
        self.next_call = 0
        # the clash mask of the block it runs (`Engine.clash`); 0 when the
        # block is independent of the other cores'
        self.clash = 0

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
        self.switch_args = (block, slot, start_cycle, pc_start, pc_end)
        # the core is first called in the cycle its switch ends
        self.next_call = start_cycle
        self.engine.activate(self)

    def start_block(self, block: int, slot: int, start_cycle: int,
                    pc_start: int, pc_end: int) -> None:
        self._check_idle(block)
        self.next_call = 0
        self.engine.activate(self)
        self.executing = block
        masks = self.engine.clash
        self.clash = masks[block] if masks is not None else 0
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
        self.stall_reason = None
        self.last_seen = start_cycle - 1
        self.next_pop_ns = NEVER

    # ── per-cycle evaluation ───────────────────────────────────────

    def run_cycle(self, cycle: int) -> int | None:
        """Advance one cycle; returns the next cycle this core needs to run,
        or None for "call again at cycle + 1"."""
        if self.switch_until is not None:
            if cycle >= self.switch_until:
                args = self.switch_args
                self.switch_until = self.switch_args = None
                self.start_block(*args)
            else:
                return self.switch_until
        if self.executing is None:
            return None

        # cycles skipped while this core slept keep their meaning: a wait
        # for a result, an FMR wait among them, or the drain of issued work
        gap = cycle - self.last_seen - 1
        if gap > 0:
            self.attributed += gap
            if (self.stream_ended and not self.pending
                    and self.fmr_wait is None):
                self.engine.drain_total += gap
            else:
                self.engine.result_wait_total += gap
        self.last_seen = cycle

        now_ns = cycle * self.clock
        eff = cycle

        if self.contexts and not self.ctx_pause:
            self._resolve_contexts(cycle, now_ns)
        if self.ctx_pause > 0:
            self.ctx_pause -= 1
            self.attributed += 1
        elif self.redirect_penalty > 0:
            self.redirect_penalty -= 1
            self.attributed += 1
            if self.fb_mode:
                self.pot_f += 1
            else:
                self.pot_s += 1
        elif self.fmr_wait is not None:
            self._check_fmr(now_ns)
        else:
            extra = self._dispatch(cycle, now_ns)
            if extra:
                eff = cycle + extra
                self.last_seen = eff
                now_ns = eff * self.clock

        if self.next_pop_ns <= now_ns:
            self._pop_ready(now_ns)

        if self.stream_ended and not self.pending:
            if self._block_complete(eff):
                if eff > cycle:
                    # the engine logs the block's end at the call's cycle
                    raise SimulatorBug(
                        f"block {self.executing} on core {self.core_id} would "
                        f"finish at cycle {eff} in a call at cycle {cycle}")
                self._finish_block(eff)
                return None
            if eff > cycle:
                return eff + 1
            if self.pop_idx + 1 < len(self.entries):
                self._drain(cycle)
            return self._queue_wake(cycle)
        if eff > cycle:
            return eff + 1
        if self.stall_reason is None:
            return None
        if self.fmr_wait is not None and self.pop_idx < len(self.entries):
            self._drain(cycle)
        return self._queue_wake(cycle)

    # ── conditional-execution contexts ─────────────────────────────

    def _resolve_contexts(self, cycle: int, now_ns: int) -> None:
        """Switch to the open contexts whose results are readable, oldest
        first, each resolved in full in the cycle its switch starts. A free
        switch leaves the cycle to dispatch; the first paid one pauses the
        core for `ctx_cycles` cycles, this one included. The pause's cycles
        are charged now: to the conditional op, queued for the pause's last
        cycle, or to the next timing point's feedback cycles when the op is
        NOP. Nothing dispatches in the pause, so nothing can see that they
        were charged early."""
        rf = self.engine.result_file
        contexts = self.contexts
        pause = self.ctx_cycles
        for target, (item, anchor) in list(contexts.items()):
            value, ready, _ = rf[item[1]]
            if ready > now_ns:
                continue
            del contexts[target]
            self.engine.context_switches.append(pause)
            # the freed qubit may let a held-back head dispatch
            self.stall_reason = None
            op = item[4] if value else item[3]
            if op is None:
                self.pot_f += pause
            else:
                end = cycle + pause - 1 if pause else cycle
                self._inject(max(ready, anchor), op, target, end, pause)
            if pause:
                self.ctx_pause = pause
                return

    # ── classical stall handling ───────────────────────────────────

    def _check_fmr(self, now_ns: int) -> None:
        reg, rd = self.fmr_wait
        value, ready, _ = self.engine.result_file[reg]
        self.attributed += 1
        if ready <= now_ns:
            self._write_reg(rd, value)
            self.fmr_wait = None
            self.fb_mode = True
            self.pot_f += 1          # the latch cycle starts the conditional work
            self.stall_reason = None
        else:
            self.engine.result_wait_total += 1
            # `_queue_wake` wakes the core when the register becomes ready
            self.stall_reason = "result wait"

    # ── dispatch ───────────────────────────────────────────────────

    def _dispatch(self, cycle: int, now_ns: int) -> int:
        self.stall_reason = None    # set again if this cycle stalls
        pending = self.pending
        width = self.width
        if not self.stream_ended and len(pending) < width:
            # top the buffer up with the block's next instructions, at most
            # one issue width of them
            pc = self.pc
            end = self.pc_end + 1
            n = end - pc
            if n > width:
                n = width
            pending += self.engine.items[pc:pc + n]
            self.pc = pc = pc + n
            if pc >= end:
                self.stream_ended = True
        if not pending:
            self.engine.drain_total += 1
            self.attributed += 1
            return 0

        kind = pending[0][0]
        if kind == K_CLASSICAL or kind == K_END:
            # a classical head always dispatches: `_pick_classical` gives
            # (0, 0) for it, and only an MRCE head can be held back
            if len(pending) == 1 or pending[1][0] != K_QUANTUM:
                return self._dispatch_classical_alone(cycle, now_ns)
            return self._dispatch_picked(0, 0, cycle, now_ns)
        if not self.contexts:
            for item in pending:
                if item[0] != K_QUANTUM:
                    break
            else:
                return self._dispatch_quantum(cycle)
        else:
            busy = self.contexts.keys()
            if all(item[0] == K_QUANTUM and busy.isdisjoint(item[3])
                   for item in pending):
                return self._dispatch_quantum(cycle)
        return self._dispatch_picked(*self._pick_classical(pending, now_ns),
                                     cycle, now_ns)

    def _dispatch_quantum(self, cycle: int) -> int:
        """`_dispatch_picked` for a buffer of quantum work only, none of it
        on the qubit of an open conditional context: the cycle dispatches
        the leading group.

        This is the fast path of the one dispatch rule. It goes on to run
        the cycles after `cycle` in the same call while the general rule
        would dispatch one group in each of them, up to `_horizon` and to
        the cycle before `_resolve_contexts` takes an open context.
        Each step of its loop hands one timing point to `_dispatch_group`:
        the buffer's leading item and the label-0 items that join it, with
        the cycles the rule spends on them, one cycle for a point no wider
        than the issue width.

        The count of cycles is arithmetic. The buffer holds at least `width`
        items or the rest of the stream whenever a cycle starts, as a
        refill adds one chunk of `width` stream items whenever it holds
        fewer, so each cycle takes the point's next `width` items (the last
        cycle, fewer) from the buffer followed by `items[pc:]`. The point
        ends at the next non-zero label, the end of the stream or an item
        on a context's qubit. The call ends earlier at the horizon, whose
        cycle does not refill, and after a cycle whose refill would fetch
        a chunk holding a classical, MRCE or END item, or one on a
        context's qubit. Timing points due in those cycles issue when the
        call returns. Returns how many cycles it ran past `cycle`.
        """
        pending = self.pending
        width = self.width
        items = self.engine.items
        end = self.pc_end + 1
        x = cycle
        # the cycles after `x` it may run
        left = self._horizon(cycle) - cycle
        wall = end      # the first stream item the call must not fetch
        contexts = self.contexts
        if contexts:
            # an open context: end before `_resolve_contexts` takes it,
            # or at `cycle` while its measurement may still issue in the run,
            # and fetch no classical item or item on its qubit
            rf = self.engine.result_file
            for item, _ in contexts.values():
                ready = rf[item[1]][1]
                left = min(left, 0 if ready == NEVER
                           else -(-ready // self.clock) - 1 - cycle)
            busy = contexts.keys()
            wall = self.pc
            stop = min(end, wall + (left + 1) * width)
            while (wall < stop and not items[wall][0]
                   and busy.isdisjoint(items[wall][3])):
                wall += 1
        while True:
            held = len(pending)
            pc = past = self.pc
            # the point's length `n`; `past` is the first stream item after it
            n = held
            for i in range(1, held):
                if pending[i][1]:
                    n = i
                    break
            else:
                # the stream, no further than the cycles up to the horizon
                # can take; a cycle with none after it takes only from the
                # buffer, which holds `width` items or the rest of the stream
                if left and not self.stream_ended:
                    stop = pc + (left + 1) * width - held
                    if stop > wall:
                        stop = wall
                    while past < stop:
                        item = items[past]
                        if item[0] or item[1]:      # not quantum, or a label
                            break
                        past += 1
                    n += past - pc
            cycles = -(-n // width)
            if cycles > left:
                # the horizon's cycle takes what it can and does not refill
                cycles = left + 1
                taken = left * width
                if n > taken + width:
                    n = taken + width
            else:
                taken = n       # the items taken up to the last refill
            if held - taken < width and not self.stream_ended:
                # one chunk for each cycle that leaves fewer than `width`
                # items; the point's own items are quantum
                top = pc - (held - taken - width) // width * width
                if top > end:
                    top = end
                for item in items[past:top]:
                    if item[0]:     # a classical, MRCE or END item
                        halt = item[-1]     # each item ends with its pc
                        break
                else:
                    halt = wall
                if halt < top:
                    # the cycle whose refill would fetch its chunk is the
                    # call's last, and `_dispatch` takes the next
                    chunk = (halt - pc) // width
                    top = pc + chunk * width
                    cycles = held // width + chunk
                    if n > cycles * width:
                        n = cycles * width
                    left = cycles - 1
                pending += items[pc:top]
                self.pc = top
                if top >= end:
                    self.stream_ended = True
            run = pending[:n]
            del pending[:n]
            self._dispatch_group(run, x, cycles)
            if cycles > left or not pending:
                return x + cycles - 1 - cycle
            x += cycles
            left -= cycles

    def _horizon(self, cycle: int) -> int:
        """The last cycle this core may run ahead to in a call at `cycle`.

        Up to it nothing else can see that the cycles ran early, so they
        give the same outputs as when each runs in its own turn. The other
        active cores bound it at their next calls, so that none of them
        reads or writes the shared result registers, the shared register
        file or the device in between. A core whose block's clash mask
        (`Engine.clash`) is 0 skips that bound: every block that runs
        while it does, including one that starts later, touches none of
        its qubits and registers. The engine restores the issue logs to
        the per-cycle order once the run is over.

        The scheduler bounds it only while a tick could start a block on
        an idle core (`Scheduler.can_start_block`). Until some block
        finishes, ticks start and land only prefetches, which no core
        reads; and a core finishes its block only in its own call.

        It is no later than the engine's `deadline`, so the engine visits
        the cycle of its next deadlock-watchdog check on every path.
        """
        engine = self.engine
        active = engine.active_cores
        last = engine.deadline
        if len(active) < len(engine.cores):
            # the engine ticks the next cycle while the scheduler is dirty,
            # else when its transfer lands
            sched = engine.scheduler
            if ((sched.dirty or sched.transfer is not None)
                    and sched.can_start_block()):
                if sched.dirty:
                    return cycle
                last = min(last, sched.transfer[4] - 1)
        if self.clash:
            me = self.core_id
            for core in active:
                if core is not self:
                    # a lower-numbered core acts before this one in a cycle
                    n = (core.next_call - 1 if core.core_id < me
                         else core.next_call)
                    if n < last:
                        last = n
        return last if last > cycle else cycle

    def _dispatch_picked(self, cl_idx: int, barrier: int, cycle: int,
                         now_ns: int) -> int:
        """The rest of `_dispatch` once `_pick_classical` has chosen."""
        pending = self.pending
        width = self.width
        branch_taken = False
        stalled = False
        cut = len(pending)
        mrce_cycle = False
        mrce_effect = None
        if cl_idx >= 0:
            item = pending[cl_idx]
            k = item[0]
            if k == K_END:
                self.stream_ended = True
                branch_taken = True     # drop everything younger
                cut = cl_idx
            elif k == K_MRCE:
                mrce_effect = self._execute_mrce(item, now_ns)
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

        group: list[int] = []
        blocked = False
        busy = self.contexts.keys() if self.contexts else None
        for i in range(cut):
            if i == cl_idx:
                if group:
                    break       # the classical ends the point the group joins
                continue
            item = pending[i]
            if item[0] != K_QUANTUM:
                break
            if group and item[1] != 0:
                break
            if busy is not None and not busy.isdisjoint(item[3]):
                blocked = True
                break
            group.append(i)
            if len(group) == width:
                break

        # only quantum work is older than the picked classical, so the group
        # is either a prefix of the buffer or follows a classical at its head
        group_items = [pending[i] for i in group]
        older = bool(group) and group[0] < cl_idx
        if branch_taken:
            del pending[cut:]           # the classical and everything younger
        elif cl_idx >= 0:
            del pending[cl_idx]
        del pending[:len(group)]

        if mrce_effect is not None:
            # an immediately-resolved conditional op is free when the cycle
            # already belongs to a quantum dispatch, one cycle otherwise
            self._inject(*mrce_effect, cycle, 0 if group_items else 1)
        if cl_idx >= 0 and not older:
            self._close_point(cycle)
        if group_items:
            self._dispatch_group(group_items, cycle)
            if older:
                self._close_point(cycle)
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
            self.engine.result_wait_total += 1
            self.stall_reason = "scoreboard" if blocked else "result wait"
            self._close_point(cycle)
        return 0

    def _dispatch_classical_alone(self, cycle: int, now_ns: int) -> int:
        """`_dispatch_picked(0, 0, ...)` for a classical head with no
        quantum follower: the cycle is the classical instruction's alone.

        At width 1, with no context open, it goes on to retire the
        classical instructions after the head in the same call, one per
        cycle, as the rule would: each of those cycles refills the empty
        buffer with `items[pc]` and retires it alone. A taken branch jumps
        to its target; its `branch_penalty` dead cycles are charged at once,
        as the rule charges them, if they end by the run's last cycle, and
        are left to the rule otherwise. The run ends before a quantum item,
        an MRCE, the stream's last item (END among them) or an FMR whose
        register is not readable in its cycle. Its last cycle is no later
        than `_horizon`, nor than the cycle the next queued issue falls due
        in, which then issues after that cycle's dispatch, as in the rule.
        Returns how many cycles it ran past `cycle`."""
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
        self._close_point(cycle)
        self.attributed += 1
        fb = self.fb_mode
        if fb:
            self.pot_f += 1
        else:
            self.pot_c += 1
        if pending or self.stream_ended or self.contexts or self.width != 1:
            return 0
        items = self.engine.items
        rf = self.engine.result_file
        clock = self.clock
        final = self.pc_end     # the stream's last item keeps its own call
        x = cycle               # the run's last cycle so far
        last = -1               # the last cycle it may reach, once needed
        while True:
            pc = self.pc
            item = items[pc]
            classical = pc < final and item[0] == K_CLASSICAL
            penalty = self.redirect_penalty
            if not (classical or penalty):
                break
            if last < 0:
                last = self._horizon(cycle)
                due = -(-self.next_pop_ns // clock)
                if due < last:
                    last = due
            if penalty:
                if x + penalty > last:
                    break
                self.redirect_penalty = 0
                x += penalty
                if fb:
                    self.pot_f += penalty
                else:
                    self.pot_s += penalty
                if not classical:
                    break
            if x == last:
                break
            if item[1] == _OP_FMR:
                value, ready, _ = rf[item[8]]
                if ready > (x + 1) * clock:
                    break
                self._write_reg(item[2], value)
                self.fb_mode = fb = True
                self.pc = pc + 1
            else:
                # a taken branch then sets `pc` and `redirect_penalty`
                self.pc = pc + 1
                self._execute_classical_op(item, x + 1, 0)
            x += 1
            if fb:
                self.pot_f += 1
            else:
                self.pot_c += 1
        self.attributed += x - cycle
        return x - cycle

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
                    if rf[reg][1] > now_ns:
                        # would stall ahead of older quantum work; hold it
                        return -1, i
            elif k == K_MRCE:
                if (self._older_meas(pending, i, item[1])
                        or item[2] in self.contexts):
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

    def _dispatch_group(self, group: list[tuple], cycle: int,
                        cycles: int = 1) -> None:
        """Dispatch `group` in `cycle`, or a run of groups of one timing
        point in the `cycles` cycles from `cycle` on."""
        head = group[0]
        label = head[1]
        entry = self.open_entry
        if entry is None or label != 0:
            self._close_point(cycle)
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
        entry.ops.extend(group)
        for item in group:
            r = item[4]
            if r >= 0:
                reg = self.engine.result_file[r]
                reg[1] = NEVER
                reg[2] += 1
                entry.has_meas = True
        entry.last_cycle = cycle + cycles - 1
        entry.q_cycles += cycles
        if self.pot_c or self.pot_s or self.pot_f:
            entry.c_cycles += self.pot_c
            entry.s_cycles += self.pot_s
            entry.f_cycles += self.pot_f
            self.pot_c = self.pot_s = self.pot_f = 0
        self.attributed += cycles
        self.fb_mode = False

    def _execute_classical_op(self, item: tuple, cycle: int,
                              now_ns: int) -> tuple[bool, bool]:
        """Returns (redirected, stalled)."""
        op = item[1]
        if op == _OP_FMR:
            reg = item[8]
            value, ready, _ = self.engine.result_file[reg]
            if ready <= now_ns:
                self._write_reg(item[2], value)
                self.fb_mode = True
                return False, False
            # the stall's cycle is the wait's first
            self.fmr_wait = (reg, item[2])
            self.attributed += 1
            self.engine.result_wait_total += 1
            self.stall_reason = "result wait"
            # the stalled pipeline cannot extend the newest timing point;
            # release it or its own measurement could never issue
            self._close_point(cycle)
            return False, True
        if op <= _OP_CMP:
            regs = self.regs
            ra, rb = item[3], item[4]
            a = (regs[ra] if ra < SHARED_REG_BASE
                 else self.engine.shared_regs[ra - SHARED_REG_BASE])
            b = (regs[rb] if rb < SHARED_REG_BASE
                 else self.engine.shared_regs[rb - SHARED_REG_BASE])
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
            else:   # OR
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

    def _execute_mrce(self, item: tuple, now_ns: int) -> tuple | None:
        """Run a conditional-execution instruction; returns the operation to
        inject, `(sched, gate, qubit)`, when the result is already readable,
        else stores a context. Cycle attribution is the caller's concern."""
        reg, target = item[1], item[2]
        value, ready, _ = self.engine.result_file[reg]
        anchor = self.chain_sched if self.chain_sched >= 0 else self.anchor
        if ready <= now_ns:
            op = item[4] if value else item[3]
            if op is not None:
                return max(ready, anchor), op, target
            self.fb_mode = True
            return None
        self.contexts[target] = (item, anchor)
        return None

    def _write_reg(self, idx: int, value: int) -> None:
        if idx < SHARED_REG_BASE:
            self.regs[idx] = value
        else:
            self.engine.shared_regs[idx - SHARED_REG_BASE] = value

    # ── timing controller ──────────────────────────────────────────
    #
    # `next_pop_ns` is always the earliest time anything queued can issue:
    # the oldest timing point once closed, or any injected op.

    def _close_point(self, cycle: int) -> None:
        """End the open timing point at `cycle`; nothing joins it after."""
        entry = self.open_entry
        if entry is None:
            return
        entry.closed_cycle = cycle
        self.open_entry = None
        if self.entries[self.pop_idx] is entry:
            actual = self._entry_times(entry)[1]
            if actual < self.next_pop_ns:
                self.next_pop_ns = actual

    def _inject(self, sched: int, gate: str, qubit: int, cycle: int,
                charged: int) -> None:
        """Queue a conditional op dispatched at `cycle`, the last cycle of
        its context switch's pause when it has one; `charged` is the cycle
        count its step record claims."""
        earliest = cycle * self.clock + self.depth_offset
        if sched > earliest:
            earliest = sched
        # the op as a one-op timing point of decoded quantum items
        point = ((K_QUANTUM, 0, gate, (qubit,), -1, -1),)
        self.injected.append((earliest, sched, point, charged))
        if earliest < self.next_pop_ns:
            self.next_pop_ns = earliest

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
        while True:
            main_actual = NEVER
            if idx < len(entries):
                main = entries[idx]
                if main.closed_cycle >= 0:
                    local, main_actual = self._entry_times(main)
            inj_idx = -1
            inj_actual = NEVER
            for i, rec in enumerate(injected):
                if rec[0] < inj_actual:
                    inj_actual, inj_idx = rec[0], i
            if main_actual <= now_ns and main_actual <= inj_actual:
                self._issue_entry(main, local, main_actual)
                idx += 1
                self.pop_idx = idx
                continue
            if inj_actual <= now_ns:
                self._issue_injected(injected.pop(inj_idx), inj_actual)
                continue
            self.next_pop_ns = min(main_actual, inj_actual)
            break

    def _drain(self, cycle: int) -> None:
        """Issue now the queued points that the rule issues in later calls
        of this core while it does nothing else: those of an ended stream,
        and those due before a stalled FMR resolves. Each issues only if
        the cycle it falls in is no later than `_horizon`, and, in an FMR
        wait, earlier than the cycle its register becomes ready in, which a
        drained measurement may set.

        The last point of an ended stream stays queued, so the block ends
        in the call that issues it. The gap before the core's next call
        charges the cycles between once: as result-wait cycles in an FMR
        wait, as drain cycles otherwise."""
        if (self.contexts or self.ctx_pause or self.redirect_penalty
                or self.injected):
            return
        clock = self.clock
        actual = self.next_pop_ns
        fmr = self.fmr_wait
        if fmr is None:
            stop = NEVER
        elif not self.late_results:
            # a drained measurement could resolve the FMR in its own cycle,
            # where the rule reads the register before issuing it
            return
        else:
            # the last time that falls in a cycle before the FMR resolves
            reg = self.engine.result_file[fmr[0]]
            stop = (-(-reg[1] // clock) - 1) * clock
            if actual > stop:
                return
        reach = self._horizon(cycle) * clock
        limit = reach if reach < stop else stop
        if actual > limit:
            return
        entries = self.entries
        idx = self.pop_idx
        final = len(entries)
        if self.stream_ended and not self.pending:
            final -= 1
        while idx < final:
            entry = entries[idx]
            local, actual = self._entry_times(entry)
            if actual > limit:
                break
            self._issue_entry(entry, local, actual)
            idx += 1
            if fmr is not None and entry.has_meas:
                stop = (-(-reg[1] // clock) - 1) * clock
                limit = reach if reach < stop else stop
        else:
            actual = (self._entry_times(entries[final])[1]
                      if final < len(entries) else NEVER)
        self.pop_idx = idx
        self.next_pop_ns = actual

    def _issue_entry(self, entry: _Entry, local: int, actual: int) -> None:
        """Issue a timing point at `actual`; `local` is its time on the
        program's chain, so a positive difference is a violation."""
        engine = self.engine
        core_id = self.core_id
        if actual > local:
            engine.violations.append((core_id, local, actual))
        self.prev_actual = actual
        qpu = engine.qpu
        ops = entry.ops
        qpu.accept_issue(actual, ops, core_id)
        if entry.has_meas:
            # the device draws each outcome; the engine's result file holds
            # it once no younger dispatched measurement of the register is
            # still waiting to issue
            rf = engine.result_file
            for item in ops:
                rreg = item[4]
                if rreg >= 0:
                    value, ready = qpu.measurement_result(
                        item[3][0], actual, item[5])
                    reg = rf[rreg]
                    reg[2] -= 1
                    if not reg[2]:
                        reg[0] = value
                        reg[1] = ready
        if engine.collect_steps:
            engine.points.append((
                core_id, entry.block, entry.sched, actual, ops,
                entry.q_cycles, entry.c_cycles, entry.s_cycles, entry.f_cycles,
                actual - local, False))

    def _issue_injected(self, rec: tuple, actual: int) -> None:
        _earliest, sched, point, budget = rec
        self.engine.qpu.accept_issue(actual, point, self.core_id)
        if actual > sched:
            self.engine.violations.append((self.core_id, sched, actual))
        if self.engine.collect_steps:
            cq = 1 if budget >= 1 else 0
            block = self.executing if self.executing is not None else -1
            self.engine.points.append((
                self.core_id, block, sched, actual, point, cq, 0, 0,
                budget - cq, actual - sched, True))

    # ── completion ─────────────────────────────────────────────────

    def _block_complete(self, cycle: int) -> bool:
        # nothing can join the newest timing point anymore; release it so
        # stalls waiting on its measurements can make progress
        self._close_point(cycle)
        # completion waits out any stall in progress, and deliberately waits
        # for open contexts to resolve
        if (self.fmr_wait is not None or self.ctx_pause or self.contexts
                or self.redirect_penalty):
            return False
        return self.pop_idx >= len(self.entries) and not self.injected

    def _finish_block(self, cycle: int) -> None:
        span = cycle - self.exec_start_cycle + 1
        if self.attributed != span:
            raise SimulatorBug(
                f"cycle attribution gap on core {self.core_id} block "
                f"{self.executing}: {self.attributed} classified of {span}")
        self.finished_block = self.executing
        self.executing = None
        self.entries.clear()
        self.pop_idx = 0

    # ── wake hinting for the event-skipping engine ─────────────────

    def progress_due(self) -> bool:
        """Whether this core is sure to move on at a known time: it has an
        issue queued, it is paused by a context switch, or its stalled FMR
        or one of its open conditional contexts waits on a result register
        that has a ready time. An FMR held in the buffer is not counted: a
        stall ahead of it can keep it there however ready its register is.
        Nor are a taken branch's dead cycles, which a loop of branches
        repeats without end."""
        if self.next_pop_ns < NEVER or self.ctx_pause:
            return True
        rf = self.engine.result_file
        if self.fmr_wait is not None and rf[self.fmr_wait[0]][1] < NEVER:
            return True
        return any(rf[item[1]][1] < NEVER
                   for item, _ in self.contexts.values())

    def _queue_wake(self, cycle: int) -> int | None:
        """The next cycle anything this stalled or draining core waits on can
        change: a queued issue, or a result register it reads becoming
        ready, and no later than the deadlock watchdog's next check, so the
        watchdog looks at the same cycles on every wake schedule. None asks
        for the next cycle.

        A waited register with no ready time polls, each cycle, only if it
        is in the block's clash mask (`Engine.clash`). Any other is filled,
        if at all, by one of this core's own issues, so the wait lasts
        until the next of them; with none queued, only the watchdog's check
        can change anything."""
        if self.ctx_pause or self.redirect_penalty:
            return None
        rf = self.engine.result_file
        clash = self.clash
        waits = [item[1] for item, _ in self.contexts.values()]
        if self.fmr_wait is not None:
            waits.append(self.fmr_wait[0])
        # an FMR held behind quantum work until its register is ready
        waits += [item[8] for item in self.pending
                  if item[0] == K_CLASSICAL and item[1] == _OP_FMR]
        best = self.next_pop_ns
        for reg in waits:
            ready = rf[reg][1]
            if ready < best:
                best = ready
            elif ready == NEVER and clash >> reg & 1:
                return None
        best = -(-best // self.clock)
        check = self.engine.deadline + 1
        if best > check:
            best = check
        return best if best > cycle else cycle + 1
