"""Simulation kernel: steps cores and scheduler on one deterministic clock.

The loop is cycle-accurate but event-skipping: when every active component
knows the next cycle it can possibly act (a pending transfer, a measurement
becoming readable, a timing point falling due), the clock jumps there
directly. Skipped spans are charged to the waiting components in bulk, so
cycle accounting is identical to stepping one cycle at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import build_table, to_direct_table, to_priority_table
from .config import MachineConfig
from .core import (NEVER, SHARED_REG_BASE, Core, StepRecord,
                   decode_for_execution)
from .isa import (REGISTER_COUNT, Diagnostic, Program, program_hash,
                  validate_program)
from .qpu import Collision, IssueEvent, QpuState
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
    """Everything observable about one run."""

    config: MachineConfig
    total_cycles: int = 0
    total_exec_ns: int = 0
    steps: list[StepRecord] = field(default_factory=list)
    violations: list[tuple[int, int, int]] = field(default_factory=list)
    events: list[IssueEvent] = field(default_factory=list)
    collisions: list[Collision] = field(default_factory=list)
    scheduler_events: list[SchedulerEvent] = field(default_factory=list)
    block_spans: list[tuple[int, int, int, int]] = field(default_factory=list)
    context_switches: list[int] = field(default_factory=list)
    result_wait_cycles: int = 0
    drain_cycles: int = 0
    issue_count: int = 0


class PreparedProgram:
    """Validation, table construction, and lowering done once per program,
    shared by every run of that program. This is the one place on the run
    path where a program is validated. Its `program_hash` is computed on
    first use, once."""

    __slots__ = ("program", "table", "items", "qubit_count", "_hash")

    def __init__(self, program: Program, qubit_budget: int | None = None):
        diagnostics = validate_program(program, qubit_budget)
        if diagnostics:
            raise ValidationFault(diagnostics)
        self.program = program
        self.table = build_table(program)
        self.items = decode_for_execution(program)
        self.qubit_count = program.qubit_count
        self._hash: str | None = None

    @property
    def program_hash(self) -> str:
        if self._hash is None:
            self._hash = program_hash(self.program)
        return self._hash


def prepare(program: Program | PreparedProgram,
            config: MachineConfig) -> PreparedProgram:
    """The program prepared for `config`'s qubit budget; one already
    prepared is returned as it is."""
    if isinstance(program, PreparedProgram):
        return program
    return PreparedProgram(program, config.qpu.qubit_count or None)


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

        qubit_count = config.qpu.qubit_count or program.qubit_count
        if program.qubit_count > qubit_count:
            raise ValidationFault([Diagnostic(
                "machine", f"program uses {program.qubit_count} qubits, "
                f"machine has {qubit_count}")])
        self.qpu = QpuState(config.qpu, max(qubit_count, 1), config.seed,
                            collect_events=config.collect_events)

        # [value, ready_ns, dispatched measurements not yet issued]
        self.result_file = [[0, NEVER, 0] for _ in range(REGISTER_COUNT)]
        self.shared_regs = [0] * (REGISTER_COUNT - SHARED_REG_BASE)
        self.collect_steps = config.collect_steps
        self.steps: list[StepRecord] = []
        self.violations: list[tuple[int, int, int]] = []
        self.context_switches: list[int] = []
        self.result_wait_total = 0
        self.drain_total = 0

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
        last_progress = 0
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
                last_progress = cycle
                if seen_done == n_blocks:
                    cycle += 1
                    continue

            if min_wake is None:
                raise RuntimeFault(
                    f"deadlock: no runnable component at cycle {cycle} "
                    f"({sched.done_count}/{n_blocks} blocks done)")
            if cycle - last_progress > timeout:
                # a wait that ends at a known time is not a deadlock,
                # however many of its cycles the engine visits
                if not any(core.progress_due() for core in active):
                    raise RuntimeFault(
                        f"deadlock: no progress for {timeout} cycles "
                        f"(stalled at cycle {cycle})")
                last_progress = cycle
            cycle = min_wake if min_wake > cycle else cycle + 1

        trace = RunTrace(self.config)
        trace.total_cycles = cycle
        trace.total_exec_ns = max(cycle * self.clock, self.qpu.last_event_end_ns)
        trace.steps = self.steps
        trace.violations = self.violations
        trace.events = self.qpu.events
        trace.collisions = self.qpu.collisions
        trace.scheduler_events = sched.events
        trace.block_spans = sched.block_spans
        trace.context_switches = self.context_switches
        trace.result_wait_cycles = self.result_wait_total
        trace.drain_cycles = self.drain_total
        trace.issue_count = self.qpu.event_count
        return trace


def run_program(program: Program, config: MachineConfig) -> RunTrace:
    return Engine(program, config).run()
