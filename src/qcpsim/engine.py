"""Simulation kernel: steps cores and scheduler on one deterministic clock.

The loop is cycle-accurate but event-skipping: when every active component
knows the next cycle it can possibly act (a pending transfer, a measurement
becoming readable, a timing point falling due), the clock jumps there
directly. Skipped spans are charged to the waiting components in bulk, so
cycle accounting is identical to stepping one cycle at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .blocks import (BlockInfoTable, build_table, to_direct_table,
                     to_priority_table)
from .config import MachineConfig
from .core import (K_CLASSICAL, K_MRCE, K_QUANTUM, NEVER, SHARED_REG_BASE,
                   Core, StepRecord, decode_for_execution)
from .isa import (REGISTER_COUNT, ClassicalOp, Diagnostic, Program,
                  program_hash, qubits_used, validate_program)
from .qpu import Collision, IssueEvent, QpuState, issue_events
from .sched import Scheduler, SchedulerEvent

__all__ = ["Engine", "PreparedProgram", "RunTrace", "RuntimeFault",
           "ValidationFault", "prepare", "run_program"]


class RuntimeFault(RuntimeError):
    """Unrecoverable runtime condition (deadlock, attribution gap)."""


class ValidationFault(ValueError):
    """Program failed static validation; carries the diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunTrace:
    """Everything observable about one run. `points` logs each issued
    timing point once, as `StepRecord`'s fields with the point's decoded ops
    for `qices`; `steps` and `events` are views of it, built on first read.
    `points`, `violations` and `collisions` are in issue order: by the cycle
    each issue falls in, then by core."""

    config: MachineConfig
    total_cycles: int = 0
    total_exec_ns: int = 0
    points: list[tuple] = field(default_factory=list)
    violations: list[tuple[int, int, int]] = field(default_factory=list)
    collisions: list[Collision] = field(default_factory=list)
    scheduler_events: list[SchedulerEvent] = field(default_factory=list)
    block_spans: list[tuple[int, int, int, int]] = field(default_factory=list)
    context_switches: list[int] = field(default_factory=list)
    result_wait_cycles: int = 0
    drain_cycles: int = 0
    issue_count: int = 0

    @cached_property
    def steps(self) -> list[StepRecord]:
        return [tuple.__new__(StepRecord, (
                    core, block, sched, actual, len(ops), cq, cc, cs, cf,
                    violation, injected))
                for (core, block, sched, actual, ops, cq, cc, cs, cf,
                     violation, injected) in self.points]

    @cached_property
    def events(self) -> list[IssueEvent]:
        return issue_events(self.points, self.config.qpu)


class PreparedProgram:
    """Validation, table construction, and lowering done once per program,
    shared by every run of that program. This is the one place on the run
    path where a program is validated, every qubit it names against
    `qubit_budget`. Its `program_hash`, `qubits_used` and the blocks' clash
    masks under each dependency mode are computed on first use, once."""

    __slots__ = ("program", "table", "items", "qubit_count", "qubit_budget",
                 "_hash", "_qubits_used", "_clashes")

    def __init__(self, program: Program, qubit_budget: int | None = None):
        diagnostics = validate_program(program, qubit_budget)
        if diagnostics:
            raise ValidationFault(diagnostics)
        self.program = program
        self.table = build_table(program)
        self.items = decode_for_execution(program)
        self.qubit_count = program.qubit_count
        self.qubit_budget = qubit_budget or program.qubit_count
        self._hash: str | None = None
        self._qubits_used: int | None = None
        self._clashes: dict[str, tuple[int, ...]] = {}

    @property
    def program_hash(self) -> str:
        if self._hash is None:
            self._hash = program_hash(self.program)
        return self._hash

    @property
    def qubits_used(self) -> int:
        """One more than the highest qubit the program names."""
        if self._qubits_used is None:
            self._qubits_used = qubits_used(self.program.instructions)
        return self._qubits_used

    def block_clashes(self, mode: str,
                      table: BlockInfoTable) -> tuple[int, ...]:
        """Each block's clash mask under dependency mode `mode`, whose table
        is `table`: see `block_clashes`."""
        masks = self._clashes.get(mode)
        if masks is None:
            masks = self._clashes[mode] = block_clashes(self.items, table)
        return masks


_FMR = int(ClassicalOp.FMR)
# footprint bits: result register r is bit r, shared register r24 + i is
# bit 32 + i, and qubit q is bit 40 + q
_SHARED_SHIFT = REGISTER_COUNT - SHARED_REG_BASE
_QUBIT_SHIFT = 2 * REGISTER_COUNT - SHARED_REG_BASE


def _footprint(items) -> int:
    """The qubits, result registers and shared registers that the decoded
    `items` touch, as one bit set."""
    bits = 0
    for item in items:
        kind = item[0]
        if kind == K_QUANTUM:
            for q in item[3]:
                bits |= 1 << (_QUBIT_SHIFT + q)
            if item[4] >= 0:
                bits |= 1 << item[4]
        elif kind == K_CLASSICAL:
            if item[1] == _FMR:
                bits |= 1 << item[8]
            for r in item[2:5]:     # rd, ra, rb
                if r >= SHARED_REG_BASE:
                    bits |= 1 << (_SHARED_SHIFT + r)
        elif kind == K_MRCE:
            bits |= 1 << item[1] | 1 << (_QUBIT_SHIFT + item[2])
    return bits


def block_clashes(items, table: BlockInfoTable) -> tuple[int, ...]:
    """For each block of `table`, its clash mask: the bits of its footprint
    that some block that may run concurrently with it also has. A block
    whose mask is 0 is independent.

    A block's footprint is the qubits it touches, MRCE targets included,
    the result registers it measures into or reads with FMR or MRCE, and
    the shared registers r24-r31 it reads or writes. Two blocks may run
    concurrently when neither is a transitive dependence of the other. A
    priority table runs as its direct table over the level before, whose
    concurrent blocks are exactly those of one level.
    No other core can see when an independent block's cycles run, and only
    the block's own measurements fill a result register outside its mask
    while it runs: those of its dependences have issued, and its
    dependents have not started.
    """
    entries = to_direct_table(table).entries
    prints = [_footprint(items[e.pc_start:e.pc_end + 1]) for e in entries]
    n = len(entries)
    clash = [0] * n
    # every block's transitive dependences, to a fixed point
    deps = [e.dep_mask for e in entries]
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(deps):
            closed = mask
            rest = mask
            while rest:
                low = rest & -rest
                closed |= deps[low.bit_length() - 1]
                rest ^= low
            if closed != mask:
                deps[i] = closed
                changed = True
    for i in range(n):
        for j in range(i + 1, n):
            both = prints[i] & prints[j]
            if both and not deps[i] >> j & 1 and not deps[j] >> i & 1:
                clash[i] |= both
                clash[j] |= both
    return tuple(clash)


def prepare(program: Program | PreparedProgram,
            config: MachineConfig) -> PreparedProgram:
    """The program prepared for `config`'s qubit budget; one already
    prepared is returned as it is. Either way a machine that lacks a qubit
    the program uses is a `ValidationFault` here, before anything runs."""
    if not isinstance(program, PreparedProgram):
        program = PreparedProgram(program, config.qpu.qubit_count or None)
    qubit_count = config.qpu.qubit_count or program.qubit_count
    if program.qubit_count > qubit_count:
        raise ValidationFault([Diagnostic(
            "machine", f"program uses {program.qubit_count} qubits, "
            f"machine has {qubit_count}")])
    if (program.qubit_budget > qubit_count
            and program.qubits_used > qubit_count):
        # validation checked the qubits against a larger budget
        raise ValidationFault([Diagnostic(
            "machine", f"program uses qubit q{program.qubits_used - 1}, "
            f"machine has {qubit_count}")])
    return program


class Engine:
    """One complete machine bound to one program and one configuration."""

    def __init__(self, program: Program | PreparedProgram,
                 config: MachineConfig):
        config.validate()
        program = prepare(program, config)
        self.config = config
        self.clock = config.clock_period_ns
        self.program = program.program
        self.items = program.items

        table = program.table
        if config.dependency_mode == "priority":
            table = to_priority_table(table)
        elif config.dependency_mode == "direct":
            table = to_direct_table(table)
        self.table = table
        # each block's clash mask (`block_clashes`); None, as if every mask
        # were 0, with one core or one block
        self.clash = (
            program.block_clashes(config.dependency_mode, table)
            if config.cores > 1 and len(table) > 1 else None)

        qubit_count = config.qpu.qubit_count or program.qubit_count
        self.qpu = QpuState(config.qpu, max(qubit_count, 1), config.seed)

        # [value, ready_ns, dispatched measurements not yet issued]
        self.result_file = [[0, NEVER, 0] for _ in range(REGISTER_COUNT)]
        self.shared_regs = [0] * (REGISTER_COUNT - SHARED_REG_BASE)
        self.collect_steps = config.collect_steps
        self.points: list[tuple] = []
        self.violations: list[tuple[int, int, int]] = []
        self.context_switches: list[int] = []
        self.result_wait_total = 0
        self.drain_total = 0
        # the watchdog checks after this cycle: `timeout` cycles past the
        # later of the last progress and the newest issue's cycle
        self.deadline = config.deadlock_timeout_cycles

        self.active_cores: list = []
        self.cores = [Core(i, self, config.superscalar_width)
                      for i in range(config.cores)]
        self.scheduler = Scheduler(
            table, self.cores,
            sched_response=config.sched_response,
            fetch_bandwidth=config.fetch_bandwidth,
            t_switch=config.t_switch,
            prefetch=config.prefetch)

    def activate(self, core) -> None:
        # a core starting (or about to start) a block changes what the
        # scheduler can do with its cache slots
        self.scheduler.dirty = True
        if core not in self.active_cores:
            self.active_cores.append(core)
            self.active_cores.sort(key=lambda c: c.core_id)

    def run(self) -> RunTrace:
        """Run the program to completion; an engine runs once.

        On the way out each core drops its reference back to the engine,
        so a finished engine is freed by reference counting alone instead
        of waiting for the cyclic garbage collector.
        """
        try:
            return self._run()
        finally:
            for core in self.cores:
                core.engine = None

    def _run(self) -> RunTrace:
        sched = self.scheduler
        active = self.active_cores
        timeout = self.config.deadlock_timeout_cycles
        sched.preload(len(self.cores))

        cycle = 0
        seen_events = 0
        seen_done = 0
        qpu = self.qpu
        n_blocks = len(self.table)
        while True:
            if sched.dirty or (sched.transfer is not None
                               and sched.transfer[4] <= cycle):
                sched.tick(cycle)
                if sched.done_count == n_blocks:
                    break

            min_wake: int | None = None
            finished = False
            for core in active:
                w = core.next_call
                if w <= cycle:
                    w = core.run_cycle(cycle)
                    if core.finished_block is not None:
                        sched.notify_done(core.finished_block, core, cycle)
                        core.finished_block = None
                        finished = True
                        continue
                    if w is None:
                        w = cycle + 1
                    core.next_call = w
                if min_wake is None or w < min_wake:
                    min_wake = w
            if finished:
                self.active_cores = [c for c in active
                                     if c.executing is not None
                                     or c.switch_until is not None]
                active = self.active_cores
                if min_wake is None or cycle + 1 < min_wake:
                    min_wake = cycle + 1

            if sched.transfer is not None:
                w = sched.transfer[4]
                if min_wake is None or w < min_wake:
                    min_wake = w
            elif sched.dirty:
                if min_wake is None or cycle + 1 < min_wake:
                    min_wake = cycle + 1

            if qpu.event_count != seen_events or sched.done_count != seen_done:
                seen_events = qpu.event_count
                seen_done = sched.done_count
                # the newest issue counts from the cycle the rule makes it
                # in, later than the call of a core that ran ahead to it
                last = -(-qpu.last_issue_ns // self.clock)
                self.deadline = (last if last > cycle else cycle) + timeout
                if seen_done == n_blocks:
                    cycle += 1
                    continue

            if min_wake is None:
                raise RuntimeFault(
                    f"deadlock: no runnable component at cycle {cycle} "
                    f"({sched.done_count}/{n_blocks} blocks done)")
            if cycle > self.deadline:
                # a wait that ends at a known time is not a deadlock,
                # however many of its cycles the engine visits
                if not any(core.progress_due() for core in active):
                    raise RuntimeFault(
                        f"deadlock: no progress for {timeout} cycles "
                        f"(stalled at cycle {cycle})")
                self.deadline = cycle + timeout
            cycle = min_wake if min_wake > cycle else cycle + 1

        if self.clash is not None:
            self._restore_issue_order()
        trace = RunTrace(self.config)
        trace.total_cycles = cycle
        trace.total_exec_ns = max(cycle * self.clock, self.qpu.last_event_end_ns)
        trace.points = self.points
        trace.violations = self.violations
        trace.collisions = self.qpu.collisions
        trace.scheduler_events = sched.events
        trace.block_spans = sched.block_spans
        trace.context_switches = self.context_switches
        trace.result_wait_cycles = self.result_wait_total
        trace.drain_cycles = self.drain_total
        trace.issue_count = self.qpu.event_count
        return trace

    def _restore_issue_order(self) -> None:
        """Sort the issue logs into the order of the per-cycle rule, which
        issues each timing point in the cycle its time falls in, and the
        cores of one cycle in id order. A core whose block is independent
        logs its issues ahead of the other cores' earlier ones; each core's
        own issues are already in order, and the sorts are stable."""
        clock = self.clock
        n = len(self.cores)
        self.points.sort(key=lambda p: -(-p[3] // clock) * n + p[0])
        self.violations.sort(key=lambda v: -(-v[2] // clock) * n + v[0])
        qpu = self.qpu
        if len(qpu.collisions) > 1:
            keyed = sorted(zip(qpu.collision_cores, qpu.collisions),
                           key=lambda kc: -(-kc[1].time_ns // clock) * n
                           + kc[0])
            qpu.collisions[:] = [c for _, c in keyed]


def run_program(program: Program, config: MachineConfig) -> RunTrace:
    return Engine(program, config).run()
