"""Quantitative measures over run traces.

Each circuit step is one timing point: all operations the program schedules
at the same instant on one core. For every step the processor-cycle cost
decomposes into four buckets (quantum dispatch, classical retirement,
control stalls, conditional-execution delay) whose sum is
the step's CES. The time ratio TR compares that control cost against the
gate duration the device needs for the step; TR <= 1 means the control
processor kept up.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field

from .engine import RunTrace
from .isa import Program, encode_program
from .qpu import IssueEvent

__all__ = ["StepMetrics", "RunReport", "steps_of", "tr_of_step",
           "build_report", "speedup", "program_hash", "events_to_csv",
           "steps_to_csv"]


@dataclass(frozen=True)
class StepMetrics:
    core: int
    step_index: int
    scheduled_ns: int
    actual_ns: int
    qices: int
    cycles_quantum: int
    cycles_classical: int
    cycles_stall: int
    cycles_feedback: int
    ces: int
    tr: float

    def to_dict(self) -> dict:
        return {
            "core": self.core, "step": self.step_index,
            "scheduled_ns": self.scheduled_ns, "actual_ns": self.actual_ns,
            "qices": self.qices, "cycles_quantum": self.cycles_quantum,
            "cycles_classical": self.cycles_classical,
            "cycles_stall": self.cycles_stall,
            "cycles_feedback": self.cycles_feedback,
            "ces": self.ces, "tr": self.tr,
        }


@dataclass
class RunReport:
    program_hash: str
    config: dict
    steps: list[StepMetrics]
    avg_tr: float
    max_tr: float
    total_exec_ns: int
    total_cycles: int
    violations: list[tuple[int, int, int]]
    collision_count: int
    issue_count: int
    context_switches: list[int]
    result_wait_cycles: int
    drain_cycles: int
    speedup_vs_base: float | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "program_hash": self.program_hash,
            "config": self.config,
            "avg_tr": self.avg_tr,
            "max_tr": self.max_tr,
            "total_exec_ns": self.total_exec_ns,
            "total_cycles": self.total_cycles,
            "violations": [list(v) for v in self.violations],
            "collision_count": self.collision_count,
            "issue_count": self.issue_count,
            "context_switches": self.context_switches,
            "result_wait_cycles": self.result_wait_cycles,
            "drain_cycles": self.drain_cycles,
            "steps": [s.to_dict() for s in self.steps],
        }
        if self.speedup_vs_base is not None:
            out["speedup_vs_base"] = self.speedup_vs_base
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def program_hash(p: Program) -> str:
    return hashlib.sha256(encode_program(p)).hexdigest()[:16]


def steps_of(events: list[IssueEvent]) -> list[list[IssueEvent]]:
    """Group issued operations into circuit steps.

    Operations on one core timeline sharing a scheduled instant form one
    step; steps come back ordered by (core, scheduled time). This view is
    built purely from the issue log, independent of the cycle accounting.
    """
    groups: dict[tuple[int, int], list[IssueEvent]] = {}
    for e in events:
        groups.setdefault((e.core, e.scheduled_ns), []).append(e)
    return [groups[k] for k in sorted(groups)]


def tr_of_step(ces: int, clock_ns: int, gate_ns: int) -> float:
    if gate_ns <= 0:
        raise ValueError("gate time must be positive")
    return clock_ns * ces / gate_ns


def build_report(trace: RunTrace, phash: str = "",
                 gate_ns: int | None = None) -> RunReport:
    cfg = trace.config
    clock = cfg.clock_period_ns
    gate = gate_ns if gate_ns is not None else cfg.qpu.single_gate_ns
    steps: list[StepMetrics] = []
    per_core_trs: dict[int, list[float]] = {}
    index_per_core: dict[int, int] = {}
    max_tr = 0.0
    for rec in trace.steps:
        ces = rec.ces
        tr = tr_of_step(ces, clock, gate)
        idx = index_per_core.get(rec.core, 0)
        index_per_core[rec.core] = idx + 1
        steps.append(StepMetrics(
            rec.core, idx, rec.scheduled_ns, rec.actual_ns, rec.qices,
            rec.cycles_quantum, rec.cycles_classical, rec.cycles_stall,
            rec.cycles_feedback, ces, tr))
        per_core_trs.setdefault(rec.core, []).append(tr)
        if tr > max_tr:
            max_tr = tr
    if per_core_trs:
        avg_tr = max(sum(v) / len(v) for v in per_core_trs.values())
    else:
        avg_tr = 0.0
    return RunReport(
        program_hash=phash,
        config=cfg.to_dict(),
        steps=steps,
        avg_tr=avg_tr,
        max_tr=max_tr,
        total_exec_ns=trace.total_exec_ns,
        total_cycles=trace.total_cycles,
        violations=list(trace.violations),
        collision_count=len(trace.collisions),
        issue_count=trace.issue_count,
        context_switches=list(trace.context_switches),
        result_wait_cycles=trace.result_wait_cycles,
        drain_cycles=trace.drain_cycles,
    )


def speedup(base: RunReport, variant: RunReport) -> float:
    """Execution-time ratio of two runs of the same program."""
    if base.program_hash and variant.program_hash \
            and base.program_hash != variant.program_hash:
        raise ValueError("speedup comparison across different programs")
    if variant.total_exec_ns == 0:
        raise ValueError("variant run has zero execution time")
    return base.total_exec_ns / variant.total_exec_ns


def events_to_csv(events: list[IssueEvent]) -> str:
    buf = io.StringIO()
    buf.write("time_ns,gate,qubits,channel,duration_ns\n")
    for e in events:
        qubits = " ".join(f"q{q}" for q in e.qubits)
        buf.write(f"{e.time_ns},{e.gate},{qubits},{e.channel},{e.duration_ns}\n")
    return buf.getvalue()


def steps_to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    buf.write("core,step,qices,cycles_quantum,cycles_classical,"
              "cycles_stall,cycles_feedback,ces,tr\n")
    for s in report.steps:
        buf.write(f"{s.core},{s.step_index},{s.qices},{s.cycles_quantum},"
                  f"{s.cycles_classical},{s.cycles_stall},{s.cycles_feedback},"
                  f"{s.ces},{s.tr}\n")
    return buf.getvalue()
