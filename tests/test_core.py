"""Processor behavior: dispatch, timing control, branches, fast context switch."""

import gc
import json
import weakref

import pytest

from qcpsim.bench import (gen_active_reset_plus_rb, gen_dense, gen_feedforward,
                          gen_parallel_rus, gen_steane_syndrome)
from qcpsim.config import MachineConfig
from qcpsim.core import K_CLASSICAL, Core
from qcpsim.engine import Engine, RuntimeFault
from qcpsim.isa import parse_program
from qcpsim.metrics import build_report


def run(src_or_program, width=1, bias=0.0, cores=1, **kw):
    p = (parse_program(src_or_program) if isinstance(src_or_program, str)
         else src_or_program)
    cfg = MachineConfig(cores=cores, superscalar_width=width, **kw)
    cfg.qpu.outcome_bias = bias
    return Engine(p, cfg).run()


def issue_times(trace, gate=None):
    return [e.time_ns for e in trace.events if gate is None or e.gate == gate]


def test_three_liner_issue_pattern():
    # the two parallel gates issue together; the pair gate one clock later
    for width in (1, 8):
        trace = run("0 H q0\n0 H q1\n1 CNOT q0,q1\n", width=width)
        hs = [e for e in trace.events if e.gate == "H"]
        cnot = [e for e in trace.events if e.gate == "CNOT"]
        assert hs[0].time_ns == hs[1].time_ns
        assert cnot[0].time_ns == hs[0].time_ns + 10


def test_full_width_bundle_single_cycle():
    trace = run(gen_dense(4, 1), width=4)
    rep = build_report(trace)
    assert len(rep.steps) == 1
    assert rep.steps[0].cycles_quantum == 1
    assert rep.steps[0].qices == 4


def test_split_labels_two_dispatch_cycles():
    # labels [0,0,1,1]: the two 0-labelled gates go together; the 1-labelled
    # ones wait in the buffers and issue as later timing points
    trace = run("0 H q0\n0 H q1\n1 H q2\n1 H q3\n", width=4)
    rep = build_report(trace)
    scheds = [s.scheduled_ns for s in rep.steps]
    assert rep.steps[0].qices == 2
    assert scheds[1] == scheds[0] + 10
    assert scheds[2] == scheds[1] + 10


def test_branch_dispatches_with_quantum_group():
    # a leading branch goes to the classical unit in the same cycle as the
    # quantum group behind it
    src = ("CMP r1, r2\n"        # flags: eq -> BR.ne not taken
           "BR.ne 5\n"
           "0 H q0\n0 H q1\n0 H q2\n"
           "END\n")
    trace = run(src, width=4)
    rep = build_report(trace)
    q_steps = [s for s in rep.steps if s.qices == 3]
    assert len(q_steps) == 1
    # the branch cycle is absorbed into dispatch, not a stall
    assert q_steps[0].cycles_stall == 0


# the open conditional context turns the quantum batch path off, so the LDI
# shares dispatch cycles with quantum work at widths above 1
SPLIT_PROBE = "\n".join([
    ".qubits 8", "0 MEAS q0 -> r0", "MRCE r0, q0, NOP, X", "2 H q1",
    "0 H q2", "0 H q3", "0 H q4", "0 H q5", "LDI r1, 1", "{tail}", "END",
]) + "\n"


@pytest.mark.parametrize("width", [1, 2, 4, 8])
@pytest.mark.parametrize("tail, points", [
    ("2 H q6", [(40, 1), (60, 5), (80, 1)]),
    # a label-0 op after the LDI opens its own point at the same time
    ("0 H q6\n2 H q7", [(40, 1), (60, 5), (60, 1), (80, 1)]),
], ids=["P1", "P2"])
def test_classical_ends_the_open_timing_point(tail, points, width):
    # `2 H q1` .. `0 H q5` form one timing point, which the LDI ends where
    # it stands in program order: at every width its five ops are one step
    # and issue at one time
    trace = run(SPLIT_PROBE.format(tail=tail), width=width, bias=1.0)
    assert [(s.scheduled_ns, s.qices)
            for s in trace.steps if not s.injected] == points
    assert len({e.time_ns for e in trace.events
                if 1 <= e.qubits[0] <= 5}) == 1


def test_taken_branch_penalty_and_flush():
    # CMP sets eq; BR.eq jumps over the middle gate, costing the penalty
    src = ("0 H q0\n"
           "CMP r1, r2\n"
           "BR.eq 4\n"
           "0 X q1\n"
           "2 H q2\n")
    trace = run(src)  # target 4 is the last instruction: in range
    gates = sorted(e.gate for e in trace.events)
    assert gates == ["H", "H"]          # the X never issues
    rep = build_report(trace)
    assert sum(s.cycles_stall for s in rep.steps) == 2  # branch penalty


def test_no_speculative_issue_any_width():
    src = ("0 H q0\n"
           "CMP r1, r2\n"
           "BR.eq 5\n"
           "0 X q1\n0 X q2\n"
           "2 H q3\n")
    for width in (1, 2, 4, 8):
        trace = run(src, width=width)
        assert all(e.gate != "X" for e in trace.events), width


def test_fmr_ready_no_stall():
    # enough unrelated classical work that the result is ready on arrival
    pads = "".join("LDI r3, 7\n" for _ in range(60))
    src = "0 MEAS q0 -> r0\n" + pads + "FMR r1, r0\n"
    trace = run(src)
    assert trace.result_wait_cycles == 0


def test_fmr_450ns_waits_45_cycles():
    # one filler op lines the read up with the measurement issue, so the
    # wait is exactly the readout-plus-acquisition latency
    trace = run("0 MEAS q0 -> r0\nLDI r2, 1\nFMR r1, r0\n")
    assert trace.result_wait_cycles == 45


def test_fmr_never_ready_deadlock_fault():
    # statically fine (a measurement does write r0), but the read sits
    # before it in program order and stalls the pipeline forever
    src = "FMR r1, r0\n0 MEAS q0 -> r0\n"
    cfg = MachineConfig(deadlock_timeout_cycles=2000)
    with pytest.raises(RuntimeFault):
        Engine(parse_program(src), cfg).run()


def test_scalar_superscalar_scheduled_equivalence():
    programs = [gen_dense(nq, 9) for nq in (1, 2, 5, 8)]
    for p in programs:
        base = None
        for width in (1, 2, 4, 8):
            trace = run(p, width=width)
            ms = sorted((e.gate, e.qubits, e.scheduled_ns) for e in trace.events)
            if base is None:
                base = ms
            else:
                assert ms == base, width


def test_issue_times_monotone_per_core():
    for p, bias in ((gen_feedforward(), 1.0),
                    (gen_active_reset_plus_rb(20), 1.0),
                    (gen_dense(8, 20), 0.0)):
        for width in (1, 8):
            trace = run(p, width=width, bias=bias)
            per_core = {}
            for e in trace.events:
                assert e.time_ns >= per_core.get(e.core, 0)
                per_core[e.core] = e.time_ns


def test_relative_gap_preserved():
    # consecutive timing points keep at least their label spacing
    trace = run(gen_dense(8, 30), width=1)
    rep = build_report(trace)
    actuals = [s.actual_ns for s in rep.steps]
    for a, b in zip(actuals, actuals[1:]):
        assert b - a >= 20
    # and exactly the label spacing when nothing slipped
    trace8 = run(gen_dense(8, 30), width=8)
    rep8 = build_report(trace8)
    actuals8 = [s.actual_ns for s in rep8.steps]
    assert all(b - a == 20 for a, b in zip(actuals8, actuals8[1:]))
    assert not trace8.violations


def test_scalar_dense_violation_arithmetic():
    # eight parallel gates cost 80 ns of control against a 20 ns budget:
    # every steady-state step slips by 60 ns
    trace = run(gen_dense(8, 10), width=1)
    slips = {a - s for _core, s, a in trace.violations[2:]}
    assert slips == {60}


def test_mrce_active_reset_both_outcomes():
    for outcome, expect_x in ((0.0, False), (1.0, True)):
        trace = run("0 MEAS q0 -> r0\nMRCE r0, q0, NOP, X\n", bias=outcome)
        xs = [e for e in trace.events if e.gate == "X"]
        assert bool(xs) == expect_x
        if expect_x:
            meas = next(e for e in trace.events if e.gate == "MEAS")
            assert xs[0].time_ns >= meas.time_ns + 450


def test_mrce_context_switch_cost_measured():
    trace = run(gen_active_reset_plus_rb(20), bias=1.0)
    assert trace.context_switches == [3]


def test_mrce_gates_proceed_during_wait():
    trace = run(gen_active_reset_plus_rb(20), bias=1.0)
    meas = next(e for e in trace.events if e.gate == "MEAS")
    rb = [e for e in trace.events if e.qubits == (1,)]
    assert len(rb) == 20
    assert max(e.time_ns for e in rb) < meas.time_ns + 450


def test_mrce_matches_branch_reference():
    for outcome in (0.0, 1.0):
        multisets = []
        times = []
        for mrce in (True, False):
            trace = run(gen_active_reset_plus_rb(20, mrce=mrce), bias=outcome)
            multisets.append(sorted((e.gate, e.qubits) for e in trace.events))
            times.append(trace.total_exec_ns)
        assert multisets[0] == multisets[1]
        assert times[0] <= times[1]


def test_mrce_scoreboard_stalls_dependent_gate():
    # the gate on the conditioned qubit must wait for resolution
    src = ("0 MEAS q0 -> r0\n"
           "MRCE r0, q0, NOP, X\n"
           "2 H q0\n")
    trace = run(src, bias=1.0)
    meas = next(e for e in trace.events if e.gate == "MEAS")
    h = next(e for e in trace.events if e.gate == "H")
    x = next(e for e in trace.events if e.gate == "X")
    assert h.time_ns >= meas.time_ns + 450
    assert h.time_ns >= x.time_ns


def test_nested_mrce_same_qubit_serializes():
    src = ("0 MEAS q0 -> r0\n"
           "0 MEAS q1 -> r1\n"
           "MRCE r0, q2, NOP, X\n"
           "MRCE r1, q2, NOP, Y\n")
    trace = run(src, bias=1.0)
    x = next(e for e in trace.events if e.gate == "X")
    y = next(e for e in trace.events if e.gate == "Y")
    assert y.time_ns > x.time_ns
    assert len(trace.context_switches) >= 1


def test_block_done_waits_for_open_contexts():
    trace = run("0 MEAS q0 -> r0\nMRCE r0, q0, NOP, X\n", bias=1.0)
    x = next(e for e in trace.events if e.gate == "X")
    [done] = [e for e in trace.scheduler_events if e.action == "done"]
    assert done.block == 0
    assert done.cycle >= x.time_ns // trace.config.clock_period_ns
    assert trace.total_exec_ns >= x.time_ns


def test_empty_block_drains_and_completes():
    trace = run("END\n")
    assert trace.total_cycles > 0
    assert trace.events == []


def test_rus_loop_failure_then_success():
    # force one failure then success by scanning seeds for that draw pattern
    from qcpsim.qpu import QpuState, QpuConfig
    seed = None
    for cand in range(1, 400):
        s = QpuState(QpuConfig(outcome_bias=0.5), 3, cand)
        draws = [s.measurement_result(2, 0, 0)[0], s.measurement_result(2, 0, 0)[0]]
        if draws == [1, 0]:
            seed = cand
            break
    assert seed is not None
    src = ("0 H q0\n0 H q1\n"
           "loop:\n"
           "2 CZ q0, q2\n"
           "4 H q2\n"
           "2 MEAS q2 -> r0\n"
           "FMR r1, r0\n"
           "LDI r2, 1\n"
           "CMP r1, r2\n"
           "BR.ne out\n"
           "45 X q2\n"
           "JMP loop\n"
           "out:\n"
           "END\n")
    trace = run(src, bias=0.5, seed=seed)
    assert len([e for e in trace.events if e.gate == "MEAS"]) == 2
    assert len([e for e in trace.events if e.gate == "X"]) == 1


def test_cycle_attribution_is_total():
    # the hard-fault check runs inside the engine; a full mixed run
    # completing without a fault is the assertion
    for p, bias in ((gen_feedforward(), 1.0),
                    (gen_active_reset_plus_rb(7), 1.0),
                    (gen_dense(3, 5), 0.0)):
        for width in (1, 4):
            run(p, width=width, bias=bias)


def test_shared_registers_visible_across_cores():
    # block A (core 0) leaves a value in a shared register; block B runs
    # after it on whichever core and only fires its gate if the value
    # arrived intact
    src = "\n".join([
        ".qubits 1",
        "LDI r24, 7",        # shared register write
        "END",
        "LDI r2, 7",
        "MOV r1, r24",
        "CMP r1, r2",
        "BR.ne skip",
        "0 X q0",
        "skip:",
        "END",
        ".block writer start=0 end=1 deps=none",
        ".block reader start=2 end=7 deps=writer",
    ])
    p = parse_program(src)
    for cores in (1, 2):
        trace = run(p, cores=cores)
        assert any(e.gate == "X" for e in trace.events), cores


def _shared_register_race(pa, pb):
    # block A (core 0) reads r24 after pa filler ops and skips its X when it
    # sees 1; block B (core 1) writes 1 to r24 after pb filler ops
    a = ["LDI r1, 0"] * pa + ["MOV r2, r24", "LDI r3, 1", "CMP r2, r3",
                              "BR.eq skipA", "0 X q0", "skipA:", "END"]
    b = ["LDI r1, 0"] * pb + ["LDI r24, 1", "END"]
    a_len = len(a) - 1           # the label line holds no instruction
    return parse_program("\n".join(
        [".qubits 1"] + a + b
        + [f".block A start=0 end={a_len - 1} deps=none",
           f".block B start={a_len} end={a_len + len(b) - 1} deps=none"]))


def test_shared_register_read_sees_earlier_cycles_only():
    # one classical instruction retires per core per cycle and cores step
    # in id order, so A's read (cycle pa) misses B's write (cycle pb)
    # exactly when pa <= pb
    wrong = []
    for pa in range(8):
        for pb in range(8):
            trace = run(_shared_register_race(pa, pb), cores=2)
            fired = any(e.gate == "X" for e in trace.events)
            if fired != (pa <= pb):
                wrong.append((pa, pb))
    assert wrong == []


def _canonical(trace):
    report = build_report(trace).to_dict()
    report["steps"] = sorted(report["steps"], key=lambda s: (
        s["core"], s["scheduled_ns"], s["step"]))
    report["violations"] = sorted(report["violations"])
    report["context_switches"] = sorted(report["context_switches"])
    return (json.dumps(report, sort_keys=True), sorted(trace.events),
            trace.total_cycles)


def _differential_configs():
    programs = [gen_steane_syndrome(), gen_parallel_rus(4),
                gen_active_reset_plus_rb(30), gen_feedforward(),
                gen_dense(8, 20)]
    configs = [(p, MachineConfig(cores=cores, superscalar_width=width,
                                 seed=seed))
               for p in programs for width in (1, 4, 8)
               for cores in (1, 2, 6) for seed in (1, 2, 3)]
    for _, cfg in configs:
        cfg.qpu.outcome_bias = 0.3
    return configs


def test_event_skipping_matches_wake_every_cycle(monkeypatch):
    # the engine jumps over the cycles a core says it will sleep through;
    # waking every core on every cycle must not change any output. A wake
    # is still honoured when the core already ran the cycles before it.
    configs = _differential_configs()
    skipping = [_canonical(Engine(p, cfg).run()) for p, cfg in configs]

    run_cycle = Core.run_cycle

    def every_cycle(core, cycle):
        wake = run_cycle(core, cycle)
        return wake if core.last_seen > cycle else None

    monkeypatch.setattr(Core, "run_cycle", every_cycle)
    for (p, cfg), expected in zip(configs, skipping):
        assert _canonical(Engine(p, cfg).run()) == expected, cfg


def _exact(trace):
    return (build_report(trace).to_json(), trace.events, trace.steps,
            repr(trace.scheduler_events), trace.total_cycles)


def test_classical_alone_fast_path_matches_general_dispatch(monkeypatch):
    # a classical head skips `_pick_classical`, and with no quantum follower
    # also the group scan; routing it through them instead must change
    # nothing, down to the order of every event and step
    configs = _differential_configs()
    alone_cycles, mixed_cycles = [], []
    alone = Core._dispatch_classical_alone
    picked = Core._dispatch_picked

    def counted(core, cycle, now_ns):
        alone_cycles.append(cycle)
        return alone(core, cycle, now_ns)

    def checked(core, cl_idx, barrier, cycle, now_ns):
        assert core._pick_classical(core.pending, now_ns) == (cl_idx, barrier)
        if cl_idx == 0 and core.pending[0][0] == K_CLASSICAL:
            mixed_cycles.append(cycle)
        return picked(core, cl_idx, barrier, cycle, now_ns)

    monkeypatch.setattr(Core, "_dispatch_classical_alone", counted)
    monkeypatch.setattr(Core, "_dispatch_picked", checked)
    fast = [_exact(Engine(p, cfg).run()) for p, cfg in configs]
    assert alone_cycles and mixed_cycles
    monkeypatch.setattr(Core, "_dispatch_picked", picked)

    def general(core, cycle, now_ns):
        return core._dispatch_picked(
            *core._pick_classical(core.pending, now_ns), cycle, now_ns)

    monkeypatch.setattr(Core, "_dispatch_classical_alone", general)
    for (p, cfg), expected in zip(configs, fast):
        assert _exact(Engine(p, cfg).run()) == expected, cfg


def test_finished_engine_freed_by_reference_counting():
    # with the cyclic collector off, only reference counting can free an
    # engine: no core may keep a reference back to it once the run is over
    hang = parse_program("FMR r1, r0\n0 MEAS q0 -> r0\n")
    gc.disable()
    try:
        engine = Engine(gen_parallel_rus(2), MachineConfig(cores=2))
        trace = engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
        assert trace.issue_count > 0

        engine = Engine(hang, MachineConfig(deadlock_timeout_cycles=50))
        with pytest.raises(RuntimeFault):
            engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
