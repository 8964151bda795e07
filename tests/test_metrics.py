"""Step grouping, CES decomposition, TR, speedup, serialization."""

import io
import json
from dataclasses import replace

import pytest

import qcpsim.engine
from qcpsim.bench import (BENCHMARKS, ExperimentSpec, gen_dense,
                          gen_feedforward, gen_parallel_rus, make_benchmark,
                          run_experiment)
from qcpsim.config import MachineConfig, QpuConfig
from qcpsim.engine import Engine
from qcpsim.isa import parse_program
from qcpsim.metrics import (build_report, events_to_csv, program_hash,
                            speedup, steps_of, steps_to_csv, tr_of_step)


def run(p, width=1, bias=0.0, **kw):
    if isinstance(p, str):
        p = parse_program(p)
    cfg = MachineConfig(superscalar_width=width, **kw)
    cfg.qpu.outcome_bias = bias
    return p, Engine(p, cfg).run()


def test_steps_of_feedforward_is_five():
    _p, trace = run(gen_feedforward(), bias=1.0)
    assert len(steps_of(trace.events)) == 5


def test_steps_of_single_gate():
    _p, trace = run("0 H q0\n")
    assert len(steps_of(trace.events)) == 1


def test_steps_of_three_liner():
    # grouping oracle: bucket events by scheduled time by hand
    _p, trace = run("0 H q0\n0 H q1\n1 CNOT q0,q1\n")
    by_time = {}
    for e in trace.events:
        by_time.setdefault(e.scheduled_ns, []).append(e.gate)
    assert len(by_time) == 2
    steps = steps_of(trace.events)
    assert len(steps) == 2
    assert sorted(e.gate for e in steps[0]) == ["H", "H"]
    assert [e.gate for e in steps[1]] == ["CNOT", "CNOT"]  # one per channel


def test_ces_pure_quantum_steps():
    _p, trace = run(gen_feedforward(), bias=1.0)
    rep = build_report(trace, gate_ns=20)
    for s in rep.steps[:4]:
        assert s.cycles_classical == 0
        assert s.cycles_stall == 0
        assert s.cycles_feedback == 0
    assert rep.steps[4].cycles_feedback > 0


def test_ces_decomposition_total():
    for p, bias, width in ((gen_feedforward(), 1.0, 1),
                           (gen_dense(8, 5), 0.0, 4)):
        _p, trace = run(p, width=width, bias=bias)
        rep = build_report(trace)
        for s in rep.steps:
            assert (s.cycles_quantum + s.cycles_classical + s.cycles_stall
                    + s.cycles_feedback) == s.ces


def test_ces_scalar_vs_wide():
    _p, t1 = run(gen_dense(8, 1), width=1)
    _p, t8 = run(gen_dense(8, 1), width=8)
    r1, r8 = build_report(t1), build_report(t8)
    assert r1.steps[0].ces == 8
    assert r8.steps[0].ces == 1


def test_tr_arithmetic():
    assert tr_of_step(2, 10, 20) == 1.0
    assert tr_of_step(8, 10, 20) == 4.0
    assert tr_of_step(1, 10, 20) == 0.5
    with pytest.raises(ValueError):
        tr_of_step(1, 10, 0)


def test_stage_one_two_excluded_from_ces():
    p = gen_feedforward()
    cfg = MachineConfig()
    cfg.qpu.outcome_bias = 1.0
    base = build_report(Engine(p, cfg).run())
    cfg2 = MachineConfig()
    cfg2.qpu.outcome_bias = 1.0
    cfg2.qpu.meas_pulse_ns = 600
    longer = build_report(Engine(p, cfg2).run())
    assert [s.cycles_feedback for s in base.steps] == \
           [s.cycles_feedback for s in longer.steps]
    assert longer.total_exec_ns > base.total_exec_ns


def test_speedup_self_is_one():
    p, trace = run(gen_dense(2, 3))
    h = program_hash(p)
    rep = build_report(trace, h)
    assert speedup(rep, rep) == 1.0


def test_speedup_rejects_mismatched_programs():
    p1, t1 = run(gen_dense(2, 3))
    p2, t2 = run(gen_dense(3, 3))
    r1 = build_report(t1, program_hash(p1))
    r2 = build_report(t2, program_hash(p2))
    with pytest.raises(ValueError):
        speedup(r1, r2)


def test_width_monotone_avg_tr():
    suite = [(gen_dense(n, 12), 0.0) for n in (2, 4, 8)]
    suite.append((gen_feedforward(), 1.0))
    for p, bias in suite:
        prev = None
        for width in (1, 2, 4, 8):
            _p, trace = run(p, width=width, bias=bias)
            rep = build_report(trace, gate_ns=20)
            if prev is not None:
                assert rep.avg_tr <= prev + 1e-12, (width, rep.avg_tr, prev)
            prev = rep.avg_tr


def test_report_json_shape():
    p, trace = run(gen_dense(2, 2))
    rep = build_report(trace, program_hash(p))
    data = json.loads(rep.to_json())
    for key in ("program_hash", "config", "avg_tr", "max_tr", "total_exec_ns",
                "violations", "steps", "collision_count"):
        assert key in data
    assert data["config"]["qpu"]["clock_period_ns"] == 10


def test_event_csv_columns():
    _p, trace = run("0 H q0\n1 MEAS q0 -> r0\n")
    csv = events_to_csv(trace.events)
    header, *rows = csv.strip().splitlines()
    assert header == "time_ns,gate,qubits,channel,duration_ns"
    assert len(rows) == 2
    assert rows[0].split(",")[1] == "H"


def test_steps_csv_columns():
    p, trace = run(gen_dense(2, 2))
    rep = build_report(trace, program_hash(p))
    header, *rows = steps_to_csv(rep).strip().splitlines()
    assert header.split(",") == [
        "core", "step", "qices", "cycles_quantum", "cycles_classical",
        "cycles_stall", "cycles_feedback", "ces", "tr"]
    assert len(rows) == len(rep.steps)


# ── serializers against their references ─────────────────────────────

def _reference_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def _reference_events_csv(events) -> str:
    # the earlier one-row-at-a-time writer, kept as the reference
    buf = io.StringIO()
    buf.write("time_ns,gate,qubits,channel,duration_ns\n")
    for e in events:
        qubits = " ".join(f"q{q}" for q in e.qubits)
        buf.write(f"{e.time_ns},{e.gate},{qubits},{e.channel},{e.duration_ns}\n")
    return buf.getvalue()


def _reference_steps_csv(report) -> str:
    buf = io.StringIO()
    buf.write("core,step,qices,cycles_quantum,cycles_classical,"
              "cycles_stall,cycles_feedback,ces,tr\n")
    for s in report.steps:
        buf.write(f"{s.core},{s.step_index},{s.qices},{s.cycles_quantum},"
                  f"{s.cycles_classical},{s.cycles_stall},{s.cycles_feedback},"
                  f"{s.ces},{s.tr}\n")
    return buf.getvalue()


def _assert_serializers_match(report, events=()):
    assert report.to_json() == _reference_json(report)
    assert steps_to_csv(report) == _reference_steps_csv(report)
    assert events_to_csv(list(events)) == _reference_events_csv(events)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_serializers_match_reference(name):
    bench = make_benchmark(name)
    for width in (1, 4, 8):
        for cores in (1, 2, 6):
            cfg = MachineConfig(superscalar_width=width, cores=cores, seed=1,
                                qpu=QpuConfig(outcome_bias=bench.bias))
            trace = Engine(bench.program, cfg).run()
            report = build_report(trace, program_hash(bench.program))
            _assert_serializers_match(report, trace.events)


def _dense_report():
    p, trace = run(gen_dense(4, 6), width=2)
    return build_report(trace, program_hash(p)), trace


def test_serializers_match_reference_no_steps():
    report, _trace = _dense_report()
    _assert_serializers_match(replace(report, steps=[], violations=[]))
    _assert_serializers_match(replace(report, steps=[]))


def test_serializers_match_reference_with_violations():
    report, _trace = _dense_report()
    report = replace(report, violations=[(0, 40, 60), (1, 0, 10), (0, 80, 90)])
    assert '"violations": [\n    [\n      0,' in report.to_json()
    _assert_serializers_match(report)


def test_serializers_match_reference_speedup_and_extras():
    report, _trace = _dense_report()
    nested = {"steps": [], "violations": [], "inner": {"steps": []}}
    report = replace(report, speedup_vs_base=1.25,
                     violations=[(0, 40, 60)],
                     extras={"steps": [], "violations": [], "run": nested,
                             "exec_ns_mean": 123.5})
    text = report.to_json()
    assert text.count('"steps": []') == 3
    assert text.count('"violations": []') == 2
    _assert_serializers_match(report)


def test_serializers_match_reference_flux_pairs():
    p, trace = run("0 H q0\n0 H q3\n1 CNOT q0,q3\n1 CZ q1,q2\n"
                   "2 CNOT q3,q0\n3 CZ q1,q2\n")
    pairs = [e for e in trace.events if len(e.qubits) == 2]
    assert len(pairs) == 8          # one event per channel of each pair
    assert "q0 q3" in events_to_csv(trace.events)
    _assert_serializers_match(build_report(trace, program_hash(p)),
                              trace.events)


def test_serializers_match_reference_dense_width8():
    # every row of a long dense run shares its gate, qubit, channel and
    # duration with many others: only the time is new
    p, trace = run(gen_dense(8, 300), width=8)
    assert len(trace.events) == 2400
    assert len({e[2:6] for e in trace.events}) <= 16
    _assert_serializers_match(build_report(trace, program_hash(p)),
                              trace.events)


def test_serializers_match_reference_meas():
    # a measurement row differs from a gate row on the same qubit in its
    # channel and duration only
    p, trace = run("0 H q0\n0 H q1\n1 MEAS q0 -> r0\n0 MEAS q1 -> r1\n"
                   "30 X q0\n0 X q1\n1 MEAS q0 -> r2\n", width=4, bias=0.5)
    rows = events_to_csv(trace.events).splitlines()[1:]
    assert sorted({row.split(",", 1)[1] for row in rows}) == [
        "H,q0,0,20", "H,q1,3,20", "MEAS,q0,2,300", "MEAS,q1,5,300",
        "X,q0,0,20", "X,q1,3,20"]
    _assert_serializers_match(build_report(trace, program_hash(p)),
                              trace.events)


def test_trace_views_are_built_only_when_read(monkeypatch):
    # the run keeps one record per issued timing point; its issue events
    # are expanded on the first read of `events` only, and a report reads
    # the point log itself
    expansions = []
    expand = qcpsim.engine.issue_events

    def counted(points, config):
        expansions.append(len(points))
        return expand(points, config)

    monkeypatch.setattr(qcpsim.engine, "issue_events", counted)
    program = gen_parallel_rus(2)
    trace = Engine(program, MachineConfig(cores=2)).run()
    build_report(trace, program_hash(program))
    assert expansions == []
    assert "steps" not in vars(trace)   # no `StepRecord` built either
    events = trace.events
    assert trace.events is events
    assert expansions == [len(trace.points)] and len(events) > 0
    expansions.clear()
    run_experiment(ExperimentSpec(program, repetitions=4, bias=0.3),
                   MachineConfig(cores=2))
    assert expansions == []
