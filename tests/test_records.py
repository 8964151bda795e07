"""The record types: fields, repr, immutability and derived values.

Issue events, step records, step metrics and scheduler events are named
tuples. These tests pin what callers rely on: field names, order and
defaults, the repr, that a field cannot be assigned, and `ces`/`to_dict`.
"""

import pytest

from qcpsim import IssueEvent, SchedulerEvent, StepMetrics, StepRecord


def test_issue_event():
    e = IssueEvent(10, 0, "CNOT", (0, 1), 4, 40, 1)
    assert IssueEvent._fields == ("time_ns", "scheduled_ns", "gate", "qubits",
                                  "channel", "duration_ns", "core")
    assert repr(e) == ("IssueEvent(time_ns=10, scheduled_ns=0, gate='CNOT', "
                       "qubits=(0, 1), channel=4, duration_ns=40, core=1)")
    assert e == (10, 0, "CNOT", (0, 1), 4, 40, 1)
    assert hash(e) == hash(IssueEvent(10, 0, "CNOT", (0, 1), 4, 40, 1))
    with pytest.raises(AttributeError):
        e.time_ns = 20


def test_step_record():
    r = StepRecord(0, 1, 100, 110, 2, 1, 2, 3, 4, 10)
    assert StepRecord._fields == (
        "core", "block", "scheduled_ns", "actual_ns", "qices",
        "cycles_quantum", "cycles_classical", "cycles_stall",
        "cycles_feedback", "violation_ns", "injected")
    assert r.injected is False
    assert r.ces == 1 + 2 + 3 + 4
    assert StepRecord(0, -1, 5, 5, 1, 1, 0, 0, 0, 0, injected=True).injected
    assert repr(r) == (
        "StepRecord(core=0, block=1, scheduled_ns=100, actual_ns=110, "
        "qices=2, cycles_quantum=1, cycles_classical=2, cycles_stall=3, "
        "cycles_feedback=4, violation_ns=10, injected=False)")
    assert hash(r) == hash(StepRecord(0, 1, 100, 110, 2, 1, 2, 3, 4, 10))
    with pytest.raises(AttributeError):
        r.cycles_stall = 0


def test_step_metrics():
    m = StepMetrics(0, 3, 100, 110, 2, 1, 2, 3, 4, 10, 5.0)
    assert StepMetrics._fields == (
        "core", "step_index", "scheduled_ns", "actual_ns", "qices",
        "cycles_quantum", "cycles_classical", "cycles_stall",
        "cycles_feedback", "ces", "tr")
    assert repr(m) == (
        "StepMetrics(core=0, step_index=3, scheduled_ns=100, actual_ns=110, "
        "qices=2, cycles_quantum=1, cycles_classical=2, cycles_stall=3, "
        "cycles_feedback=4, ces=10, tr=5.0)")
    assert m.to_dict() == {
        "core": 0, "step": 3, "scheduled_ns": 100, "actual_ns": 110,
        "qices": 2, "cycles_quantum": 1, "cycles_classical": 2,
        "cycles_stall": 3, "cycles_feedback": 4, "ces": 10, "tr": 5.0}
    assert hash(m) == hash(StepMetrics(0, 3, 100, 110, 2, 1, 2, 3, 4, 10, 5.0))
    with pytest.raises(AttributeError):
        m.tr = 0.0


def test_scheduler_event():
    e = SchedulerEvent(5, "switch", 2, 1)
    assert SchedulerEvent._fields == ("cycle", "action", "block", "core")
    assert repr(e) == "SchedulerEvent(cycle=5, action='switch', block=2, core=1)"
    assert e == (5, "switch", 2, 1)
    assert hash(e) == hash(SchedulerEvent(5, "switch", 2, 1))
    with pytest.raises(AttributeError):
        e.cycle = 6
