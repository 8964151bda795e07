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
import json
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import RunTrace
from .isa import Program, encode_program
from .qpu import IssueEvent

__all__ = ["StepMetrics", "RunReport", "steps_of", "tr_of_step",
           "build_report", "speedup", "program_hash", "events_to_csv",
           "steps_to_csv"]


class StepMetrics(NamedTuple):
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
        out = self._summary()
        out["violations"] = [list(v) for v in self.violations]
        out["steps"] = [s.to_dict() for s in self.steps]
        return out

    def _summary(self) -> dict:
        """`to_dict()` with empty `violations` and `steps` lists."""
        out = {
            "program_hash": self.program_hash,
            "config": self.config,
            "avg_tr": self.avg_tr,
            "max_tr": self.max_tr,
            "total_exec_ns": self.total_exec_ns,
            "total_cycles": self.total_cycles,
            "violations": [],
            "collision_count": self.collision_count,
            "issue_count": self.issue_count,
            "context_switches": self.context_switches,
            "result_wait_cycles": self.result_wait_cycles,
            "drain_cycles": self.drain_cycles,
            "steps": [],
        }
        if self.speedup_vs_base is not None:
            out["speedup_vs_base"] = self.speedup_vs_base
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), sort_keys=True, indent=2)`, byte for
        byte.

        With `indent` set, `json` falls back to its pure-Python encoder, so
        only the small summary goes through it; the step and violation lists
        are rendered one template per record and put in place of the empty
        lists at the summary's top level. Every step and violation field
        must be a plain int or a finite float, as `build_report` makes them.
        """
        text = json.dumps(self._summary(), sort_keys=True, indent=2)
        if self.steps:
            text = _splice(text, "steps", [_STEP_JSON % _step_values(s)
                                           for s in self.steps])
        if self.violations:
            text = _splice(text, "violations", [
                _VIOLATION_JSON % (core, sched, actual)
                for core, sched, actual in self.violations])
        return text


def _step_layout() -> tuple[str, operator.itemgetter]:
    """One element of the report's "steps" list as `json.dumps(...,
    sort_keys=True, indent=2)` lays it out at the top level, and a getter
    for a `StepMetrics`' fields in that order. Both come from the key names
    of `StepMetrics.to_dict`, so the two outputs cannot drift apart."""
    key_to_field = StepMetrics._make(StepMetrics._fields).to_dict()
    keys = sorted(key_to_field)
    body = ",\n".join(f"      {json.dumps(k)}: %s" for k in keys)
    index = [StepMetrics._fields.index(key_to_field[k]) for k in keys]
    return "    {\n" + body + "\n    }", operator.itemgetter(*index)


_STEP_JSON, _step_values = _step_layout()
# one element of the report's "violations" list, laid out the same way
_VIOLATION_JSON = """\
    [
      %s,
      %s,
      %s
    ]"""


def _splice(text: str, key: str, rows: list[str]) -> str:
    """Fill the empty list at top-level `key` of an indent-2 JSON dump.

    Two spaces of indent is the top level only: a key of the same name
    inside `config` or `extras` sits deeper, and a JSON string holds no raw
    newline.
    """
    return text.replace(f'\n  "{key}": []',
                        f'\n  "{key}": [\n' + ",\n".join(rows) + "\n  ]", 1)


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
    if gate <= 0:
        raise ValueError("gate time must be positive")
    steps: list[StepMetrics] = []
    append = steps.append
    # per core, the TR of each of its steps; a step's index on its core is
    # how many came before it
    per_core_trs: dict[int, list[float]] = {}
    max_tr = 0.0
    # CES and TR as `StepRecord.ces` and `tr_of_step` give them, inline:
    # two calls per step cost more than the arithmetic
    for (core, _block, sched, actual, qices, cq, cc, cs, cf,
         _violation, _injected) in trace.steps:
        ces = cq + cc + cs + cf
        tr = clock * ces / gate
        trs = per_core_trs.get(core)
        if trs is None:
            trs = per_core_trs[core] = []
        append(StepMetrics(core, len(trs), sched, actual, qices,
                           cq, cc, cs, cf, ces, tr))
        trs.append(tr)
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
    rows = ["time_ns,gate,qubits,channel,duration_ns\n"]
    append = rows.append
    names: dict[tuple[int, ...], str] = {}
    for time_ns, _sched, gate, qubits, channel, duration_ns, _core in events:
        name = names.get(qubits)
        if name is None:
            name = names[qubits] = " ".join(f"q{q}" for q in qubits)
        append(f"{time_ns},{gate},{name},{channel},{duration_ns}\n")
    return "".join(rows)


def steps_to_csv(report: RunReport) -> str:
    rows = ["core,step,qices,cycles_quantum,cycles_classical,"
            "cycles_stall,cycles_feedback,ces,tr\n"]
    append = rows.append
    for (core, step, _sched, _actual, qices, cq, cc, cs, cf,
         ces, tr) in report.steps:
        append(f"{core},{step},{qices},{cq},{cc},{cs},{cf},{ces},{tr}\n")
    return "".join(rows)
