"""Processor behavior: dispatch, timing control, branches, fast context switch."""

import functools
import gc
import re
import weakref
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcpsim.bench import (BENCHMARKS, gen_active_reset_plus_rb, gen_dense,
                          gen_feedforward, gen_parallel_rus,
                          gen_steane_syndrome, make_benchmark)
from qcpsim.config import MachineConfig
from qcpsim.blocks import PRIORITY
from qcpsim.core import K_CLASSICAL, K_QUANTUM, SHARED_REG_BASE, Core
from qcpsim.engine import Engine, RunTrace, RuntimeFault
from qcpsim.isa import ClassicalOp, Gate, Kind, parse_program, validate_program
from qcpsim.metrics import build_report
from qcpsim.qpu import QpuConfig, QpuState
from qcpsim.sched import SimulatorBug
from test_golden import RECORD_CASES, _programs


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


# the open conditional context keeps q0 on the scoreboard; at widths above 1
# the LDI is dispatched in the same cycle as the quantum work before it
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


def test_one_core_deadlock_sleeps_until_the_watchdog(monkeypatch):
    # nothing can fill r0 once the read stalls: no other block touches it,
    # so the core sleeps until the watchdog's check instead of being woken
    # each cycle, on one core and beside a block on another core
    calls = []
    run_cycle = Core.run_cycle

    def counted(core, cycle):
        calls.append(cycle)
        return run_cycle(core, cycle)

    monkeypatch.setattr(Core, "run_cycle", counted)
    beside = _two_blocks(2, ["FMR r1, r0", "0 MEAS q0 -> r0", "END"],
                         ["1 H q1", "END"])
    for program, cores, stalled, most in (
            (parse_program("FMR r1, r0\n0 MEAS q0 -> r0\n"), 1, 1000001, 3),
            (beside, 2, 1000006, 10)):
        calls.clear()
        with pytest.raises(RuntimeFault) as fault:
            Engine(program, MachineConfig(cores=cores)).run()
        assert str(fault.value) == (
            "deadlock: no progress for 1000000 cycles "
            f"(stalled at cycle {stalled})")
        assert len(calls) <= most, cores


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


@pytest.mark.parametrize("bias", [0.0, 1.0])
def test_context_switch_inside_an_fmr_wait_is_charged_once(bias):
    # the FMR stalls on r1 while the context on r0 resolves: the switch's
    # three cycles count once, as the switch's, not as result wait too, so
    # the attribution check at the block's end holds
    trace = run(_lines(".qubits 4", "0 MEAS q0 -> r0", "MRCE r0, q1, NOP, X",
                       "5 MEAS q2 -> r1", "FMR r3, r1", "0 H q3", "END"),
                bias=bias)
    assert trace.total_cycles == 58
    assert trace.result_wait_cycles == 46
    assert trace.drain_cycles == 1
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


@pytest.mark.parametrize("width", [1, 4])
def test_alu_ops_write_exact_values(width):
    # shared registers outlive the run; 6 is 0b0110 and 11 is 0b1011
    src = "\n".join([
        ".qubits 1",
        "LDI r1, 6",
        "LDI r2, 11",
        "SUB r24, r1, r2",
        "OR r25, r1, r2",
        "ADD r26, r1, r2",
        "AND r27, r1, r2",
        "SUB r28, r2, r1",
        "MOV r29, r2",
        "END",
    ])
    engine = Engine(parse_program(src),
                    MachineConfig(superscalar_width=width))
    engine.run()
    assert engine.shared_regs == [-5, 15, 17, 2, 5, 11, 0, 0]


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


def _lines(*lines):
    return "\n".join(lines) + "\n"


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
    # quantum work runs beside the open reset context, then the queue drains
    reset = gen_active_reset_plus_rb(20, mrce=True)
    for width in (1, 4):
        for seed in (1, 2, 3):
            cfg = MachineConfig(superscalar_width=width, seed=seed)
            cfg.qpu.outcome_bias = 0.5
            configs.append((reset, cfg))
    return configs


def test_collect_steps_changes_nothing_but_the_point_log():
    # with `collect_steps` off the point log and both its views are empty,
    # and every other field of the trace is the same
    kept = [f.name for f in fields(RunTrace)
            if f.name not in ("config", "points")]
    for p, cfg in _differential_configs():
        on = Engine(p, cfg).run()
        off = Engine(p, replace(cfg, collect_steps=False)).run()
        assert on.points and off.points == off.steps == off.events == []
        assert ([getattr(off, name) for name in kept]
                == [getattr(on, name) for name in kept]), cfg


def _outcome(program, cfg):
    """Every output of a run, each in the order the run leaves it, or the
    text of the fault it ends in."""
    try:
        trace = Engine(program, cfg).run()
    except RuntimeFault as fault:
        return str(fault)
    return (build_report(trace).to_json(), trace.events, trace.steps,
            repr(trace.scheduler_events), trace.total_cycles, trace.points,
            trace.violations, trace.collisions)


_run_cycle = Core.run_cycle


def _every_cycle(core, cycle):
    # `Core.run_cycle` asking to be woken on the next cycle; a wake is still
    # honoured when the core already ran the cycles before it
    wake = _run_cycle(core, cycle)
    return wake if core.last_seen > cycle else None


def _classical_rule(core, cycle, now_ns):
    # `Core._dispatch_classical_alone` replaced by the general per-cycle rule
    return core._dispatch_picked(*core._pick_classical(core.pending, now_ns),
                                 cycle, now_ns)


def _general_rule(core, cycle):
    # `Core._dispatch_quantum` replaced by the general per-cycle rule
    return _classical_rule(core, cycle, cycle * core.clock)


def _no_run_ahead(core, cycle):
    # `Core._horizon` ending every run-ahead at the call's own cycle: no
    # fast path or drain runs a cycle past it
    return cycle


# The kernel's optimizations: each row names one, the `Core` method that
# makes it, and the replacement that turns it off. Each is a pure
# optimization: turning it off must change no output of any run.
OPTIMIZATIONS = {
    "quantum_fast_path": ("_dispatch_quantum", _general_rule),
    "classical_fast_path": ("_dispatch_classical_alone", _classical_rule),
    "event_skipping": ("run_cycle", _every_cycle),
    "run_ahead": ("_horizon", _no_run_ahead),
}


def _verdicts(program, cfg):
    """The total cycles of the run, or its fault text, with every
    optimization on and with each one off in turn."""
    verdicts = set()
    for method, replacement in [(None, None), *OPTIMIZATIONS.values()]:
        with pytest.MonkeyPatch.context() as patch:
            if method:
                patch.setattr(Core, method, replacement)
            try:
                verdicts.add(Engine(program, cfg).run().total_cycles)
            except RuntimeFault as fault:
                verdicts.add(str(fault))
    return verdicts


# (program, config) pairs whose runs each need one kind of wake hint: a
# core that sleeps through a cycle it could act in changes the outputs
WAKE_PROBES = {
    # resolving the context frees q0, so the held-back H dispatches at once
    "context_frees_qubit": (
        ".qubits 4\n0 MEAS q3 -> r0\nMRCE r0, q0, X, NOP\n0 H q0\nEND\n",
        {}),
    # the FMR waits for r0 while a timing point of its block is queued
    "fmr_wait_with_queued_point": (
        ".qubits 4\n0 MEAS q3 -> r0\nLDI r1, 1\nEND\n1 H q0\n1 H q0\n"
        "FMR r1, r0\nEND\n0 H q0\nEND\n"
        ".block b0 start=0 end=2 deps=none\n"
        ".block b1 start=3 end=6 deps=none\n"
        ".block b2 start=7 end=8 deps=none\n", {"cores": 2}),
    # the FMR is held behind the blocked H until r1 is ready, then the END
    # behind it dispatches too
    "held_fmr": (
        ".qubits 4\n0 MEAS q3 -> r1\n0 H q0\nEND\n0 MEAS q0 -> r0\n"
        "MRCE r0, q1, NOP, NOP\n0 H q1\nFMR r1, r1\nEND\n"
        ".block b0 start=0 end=2 deps=none\n"
        ".block b1 start=3 end=7 deps=none\n",
        {"superscalar_width": 2, "pipeline_depth": 1, "ctx_switch_cycles": 0}),
    # the other core fills r5 long before this core's next timing point
    "other_core_fills_register": (
        ".qubits 4\n90 H q1\nFMR r1, r5\nEND\n0 MEAS q2 -> r5\nEND\n"
        ".block A start=0 end=2 deps=none\n"
        ".block B start=3 end=4 deps=none\n", {"cores": 2}),
    # nothing issues for 1 us before the last timing point, longer than the
    # deadlock timeout: a queued point is progress that is sure to come
    "long_wait_for_queued_point": (
        ".qubits 4\n" + "1 H q0\n" * 3
        + "100 X q1\n0 H q2\n0 H q3\n0 H q0\nEND\n",
        {"deadlock_timeout_cycles": 50}),
    # two repeat-until-success blocks share r24, so neither is independent,
    # and each FMR waits on a register only its own block measures: it
    # sleeps until its own measurement issues, then until the result
    "shared_block_waits_on_own_register": (
        ".qubits 4\n0 H q0\nloop0:\n2 CZ q0, q1\n2 MEAS q1 -> r0\n"
        "FMR r1, r0\nADD r24, r24, r1\nLDI r2, 1\nCMP r1, r2\nBR.eq loop0\n"
        "END\n0 H q2\nloop1:\n2 CZ q2, q3\n2 MEAS q3 -> r3\nFMR r4, r3\n"
        "ADD r24, r24, r4\nLDI r2, 1\nCMP r4, r2\nBR.eq loop1\nEND\n"
        ".block A start=0 end=8 deps=none\n"
        ".block B start=9 end=17 deps=none\n",
        {"cores": 2, "seed": 3, "qpu": QpuConfig(outcome_bias=0.5)}),
}


# a wait of 1 us for a queued point, longer than the timeout, and a read
# that no measurement can fill
LONG_WAIT = (parse_program(WAKE_PROBES["long_wait_for_queued_point"][0]),
             108)
HANG = (parse_program("FMR r1, r0\n0 MEAS q0 -> r0\n"),
        "deadlock: no progress for 50 cycles (stalled at cycle 51)")
# waits longer than the timeout that end at a known time, with their total
# cycles: an FMR whose register is ready only at cycle 49, past several of
# the watchdog's checks, and two active resets whose 20-cycle switch pauses
# the core, one with its conditional X queued and one with a NOP
KNOWN_WAITS = [
    (parse_program(_lines(".qubits 2", "0 MEAS q0 -> r0", "FMR r1, r0",
                          "0 H q1", "END")),
     MachineConfig(deadlock_timeout_cycles=5), 53),
    *[(parse_program(_lines(".qubits 2", "0 MEAS q0 -> r0",
                            f"MRCE r0, q1, NOP, {op}", "0 H q0", "END")),
       MachineConfig(ctx_switch_cycles=20, deadlock_timeout_cycles=10,
                     qpu=QpuConfig(outcome_bias=1.0)), cycles)
      for op, cycles in (("X", 71), ("NOP", 69))],
]
# loops of taken branches that never end: their dead cycles are no
# progress, so each faults at the watchdog's check after its one issue
LIVELOCKS = [
    (parse_program(_lines(".qubits 1", "0 H q0", "loop:", *body, "END")),
     "deadlock: no progress for 50 cycles (stalled at cycle 55)")
    for body in (["JMP loop"], ["ADD r1, r1, r2", "JMP loop"])]


def test_deadlock_verdict_does_not_depend_on_the_wake_schedule():
    # the watchdog counts the cycles the engine visits, so it must look at
    # what the cores wait on before it calls a long wait a deadlock; a read
    # that no measurement can fill and a loop of branches still fault, each
    # with the same text
    cfg = MachineConfig(deadlock_timeout_cycles=50)
    for program, verdict in (LONG_WAIT, HANG, *LIVELOCKS):
        assert _verdicts(program, cfg) == {verdict}
    for program, cfg, verdict in KNOWN_WAITS:
        assert _verdicts(program, cfg) == {verdict}


def _short_timeout_configs():
    # at bias 1 the repeat-until-success loops never end
    programs = [(gen_feedforward(), (0.0, 1.0)),
                (gen_active_reset_plus_rb(10, mrce=False), (0.0, 1.0)),
                (gen_active_reset_plus_rb(10, mrce=True), (0.0, 1.0)),
                (gen_parallel_rus(2), (0.0, 0.5))]
    return [(program, MachineConfig(
                cores=cores, ctx_switch_cycles=ctx,
                deadlock_timeout_cycles=timeout,
                qpu=QpuConfig(outcome_bias=bias)))
            for program, biases in programs
            for timeout in (1, 2, 3, 5, 10, 20, 44, 45, 46, 50)
            for ctx in (0, 3, 20) for cores in (1, 2) for bias in biases]


def test_deadlock_verdicts_agree_at_short_timeouts():
    # timeouts shorter than, near and past a measurement's latency, with
    # context switches that pause a core longer than some of them: every
    # run gives one verdict on every path, and some of them fault
    kinds = Counter()
    for program, cfg in _short_timeout_configs():
        verdicts = _verdicts(program, cfg)
        assert len(verdicts) == 1, (cfg, verdicts)
        kinds[type(verdicts.pop())] += 1
    assert kinds[int] and kinds[str]


# one timing point of 400 operations: no issue for 400 cycles at width 1
LONG_POINT = _lines(".qubits 4", "1 H q0",
                    *[f"0 H q{i % 4}" for i in range(399)], "END")
# the first point issues while the long second one dispatches
ISSUE_THEN_LONG_POINT = _lines(".qubits 4", "1 H q0", "1 H q1",
                               *[f"0 H q{i % 4}" for i in range(399)], "END")
LONG_POINTS = [
    (LONG_POINT, 1,
     "deadlock: no progress for 300 cycles (stalled at cycle 301)"),
    (ISSUE_THEN_LONG_POINT, 1,
     "deadlock: no progress for 300 cycles (stalled at cycle 306)"),
    (LONG_POINT, 4, 104)]


@pytest.mark.parametrize("source, width, verdict", LONG_POINTS)
def test_deadlock_verdict_does_not_depend_on_the_dispatch_path(
        source, width, verdict):
    # the watchdog counts cycles with no issue and no block completion, so a
    # timing point whose dispatch outlasts the timeout is a deadlock on every
    # path: a run ahead stops at the watchdog's next check, and an issue
    # made in it counts from the cycle the rule issues it in
    cfg = MachineConfig(superscalar_width=width, deadlock_timeout_cycles=300)
    assert _verdicts(parse_program(source), cfg) == {verdict}


def test_block_never_finishes_after_the_call_cycle(monkeypatch):
    # the engine logs a block's end and span at the cycle of the call that
    # finished it, so a call that ran ahead must not finish its block
    engine = Engine(parse_program(".qubits 1\n0 H q0\nEND\n"),
                    MachineConfig())
    core = engine.cores[0]
    core.start_block(0, 0, 0, 1, 0)     # an empty stream
    monkeypatch.setattr(Core, "_dispatch", lambda core, cycle, now_ns: 2)
    with pytest.raises(SimulatorBug, match="finish at cycle 2 in a call at "
                       "cycle 0"):
        core.run_cycle(0)


def test_finished_engine_freed_by_reference_counting():
    # with the cyclic collector off, only reference counting can free an
    # engine: no core may keep a reference back to it once the run is over
    gc.disable()
    try:
        engine = Engine(gen_parallel_rus(2), MachineConfig(cores=2))
        trace = engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
        assert trace.issue_count > 0

        engine = Engine(HANG[0], MachineConfig(deadlock_timeout_cycles=50))
        with pytest.raises(RuntimeFault):
            engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


def _two_blocks(qubits, a, b):
    """Blocks A and B of lines `a` and `b`, independent of each other, so
    two cores run them side by side."""
    end_b = len(a) + len(b) - 1
    return parse_program("\n".join(
        [f".qubits {qubits}"] + a + [ln.format(end_b=end_b) for ln in b]
        + [f".block A start=0 end={len(a) - 1} deps=none",
           f".block B start={len(a)} end={end_b} deps=none"]))


def _seeded(program):
    configs = [(program, MachineConfig(cores=2, seed=seed))
               for seed in (1, 2, 3)]
    for _, cfg in configs:
        cfg.qpu.outcome_bias = 0.5
    return configs


# block A measures r5 twice; block B, on the other core, reads r5 between
# the two and must see the first result, not wait for the second
RACE = "\n".join(
    [".qubits 4", "0 MEAS q0 -> r5", "FMR r1, r5"] + ["1 H q1"] * 30
    + ["1 MEAS q0 -> r5", "END",
       "0 MEAS q3 -> r6", "FMR r4, r6", "FMR r2, r5", "LDI r3, 1",
       "CMP r2, r3", "BR.eq 41", "1 X q2", "END",
       ".block A start=0 end=33 deps=none",
       ".block B start=34 end=41 deps=none"]) + "\n"

# A dispatches its second r5 measurement in cycle 56, long before the
# timing point issues; B reads r5 in cycle 51 and must see the first result
HIDDEN_RESULT = _two_blocks(
    4, ["0 MEAS q0 -> r5", "FMR r1, r5", "30 H q1"] + ["0 X q1"] * 5
    + ["0 MEAS q0 -> r5", "END"],
    ["LDI r7, 0"] * 49 + ["FMR r2, r5", "LDI r3, 1", "CMP r2, r3",
                          "BR.eq {end_b}", "1 X q2", "END"])


def _shared_qubit(late_x):
    # block A and block B each put an X on q0, B's first; A issues a
    # timing point to the device every cycle or two
    if late_x:
        return _two_blocks(3, ["0 H q1", "0 H q2", "1 X q0", "0 H q1",
                               "0 H q2", "1 H q1", "0 H q2", "END"],
                           ["2 X q0", "END"])
    return _two_blocks(3, ["1 H q1", "1 X q0", "1 H q2", "1 H q1", "1 H q2",
                           "1 H q1", "END"], ["1 X q0", "END"])


# block A issues to q0 every cycle; with prefetch off, block B's cache load
# lands while A runs, and B's X on q0 issues just before A's first H there
LATE_START = _two_blocks(2, ["5 H q1"] + ["1 H q0"] * 10 + ["END"],
                         ["0 X q0", "END"])


# both blocks issue to q0 each cycle; core 0 acts first in a cycle, so
# core 1 runs ahead only to the cycle before core 0's next call
SAME_QUBIT_EACH_CYCLE = _two_blocks(1, ["1 H q0"] * 4 + ["END"],
                                    ["1 H q0"] * 7 + ["END"])


def _probe_configs():
    return (_seeded(parse_program(RACE)) + _seeded(HIDDEN_RESULT)
            + [(_shared_qubit(late_x),
                MachineConfig(cores=2, pipeline_depth=depth))
               for late_x in (False, True) for depth in (1, 2, 3)]
            + [(LATE_START, MachineConfig(cores=2, prefetch=False)),
               (SAME_QUBIT_EACH_CYCLE, MachineConfig(cores=2))])


def test_cross_core_race_pinned():
    for p, cfg in _seeded(parse_program(RACE)):
        trace = Engine(p, cfg).run()
        assert trace.total_cycles == 83, cfg.seed
        [span_b] = [s for s in trace.block_spans if s[0] == 1]
        assert span_b[3] == 56
        assert issue_times(trace, "X") == [560]


def test_dispatched_measurement_hides_result_from_later_cycles_only():
    for p, cfg in _seeded(HIDDEN_RESULT):
        trace = Engine(p, cfg).run()
        assert trace.total_cycles == 59, cfg.seed
        assert issue_times(trace, "MEAS") == [40, 580]
        assert [e.time_ns for e in trace.events if e.qubits == (2,)] == [570]


@pytest.mark.parametrize("late_x, depth, collisions", [
    (False, 3, [(0, 60, 70, "X")]),
    (False, 2, [(0, 50, 60, "X")]),
    (True, 3, []),
    (True, 2, []),
])
def test_device_sees_cores_in_issue_time_order(late_x, depth, collisions):
    # A's X issues after B's. A core that issued its later timing points
    # before the other core's earlier ones would make the device record the
    # collision the wrong way round, or one that never happens.
    trace = run(_shared_qubit(late_x), cores=2, pipeline_depth=depth)
    assert [(c.qubit, c.time_ns, c.busy_until_ns, c.gate)
            for c in trace.collisions] == collisions


def test_device_sees_a_block_started_mid_run_in_issue_time_order():
    trace = run(LATE_START, cores=2, prefetch=False)
    assert [(e.time_ns, e.gate, e.core) for e in trace.events
            if e.qubits == (0,)][:2] == [(140, "X", 1), (150, "H", 0)]
    assert [(c.time_ns, c.busy_until_ns, c.gate) for c in
            trace.collisions][:2] == [(150, 160, "H"), (160, 170, "H")]


def _runs(lengths, qubits=8):
    """Lines of timing points whose label-0 runs have the given lengths,
    their gates walking over the qubits."""
    lines, q = [], 0
    for n in lengths:
        lines.append(f"1 H q{q % qubits}")
        for q in range(q + 1, q + 1 + n):
            lines.append(f"0 X q{q % qubits}")
        q += 1
    return lines


# runs shorter than, as long as, and longer than each width
LONG_RUNS = parse_program("\n".join(
    [".qubits 8"] + _runs((0, 1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17, 31))
    + ["END"]) + "\n")

# block B issues a timing point every 20 cycles, so the horizon of core 0
# falls inside block A's runs; B's last point is on q0, one of A's qubits,
# so neither block is independent and the other core bounds each horizon
CUT_RUNS = _two_blocks(9, _runs((30, 40, 25, 33)) + ["END"],
                       ["0 H q8"] + ["20 H q8"] * 5 + ["20 H q0", "END"])

# short runs, and block B issues a timing point every 3 cycles: a point
# that starts with more than the issue width of its items in the buffer
# meets the horizon in its first cycle, which takes only the issue width;
# B's last point is on q0, so each core bounds the other's horizon
SHORT_CUT_RUNS = _two_blocks(9, _runs((2, 6, 9)) + ["END"],
                             ["0 H q8"] + ["3 H q8"] * 7 + ["3 H q0", "END"])

# a measurement inside a run, read by a later FMR
MEAS_RUN = parse_program("\n".join([
    ".qubits 6", "1 H q0", "0 MEAS q1 -> r3", "0 H q2", "0 H q3", "0 H q4",
    "1 H q4", "0 H q0", "FMR r1, r3", "LDI r2, 1", "CMP r1, r2", "BR.eq 13",
    "1 X q5", "0 X q1", "END"]) + "\n")

# while the context waits for r0, the label-0 gates join the point `1 H q1`
# opened; once it resolves, the rest of them join it in the first cycle of
# a call, with the switch's cycles still unclaimed
POT_RUN = parse_program("\n".join(
    [".qubits 4", "0 MEAS q3 -> r0", "MRCE r0, q0, NOP, NOP", "1 H q1"]
    + ["0 H q2", "0 H q1"] * 40 + ["END"]) + "\n")


def _chunk_end(n, tail):
    # a run of `n` label-0 gates, then a classical instruction or END that
    # shares a fetch chunk with the run's last gate at some width
    return parse_program("\n".join(
        [".qubits 8", "1 H q0"] + [f"0 H q{1 + i % 7}" for i in range(n)]
        + tail) + "\n")


def _join_configs():
    configs = [(LONG_RUNS, MachineConfig(superscalar_width=width))
               for width in (1, 2, 4, 8)]
    configs += [(CUT_RUNS, MachineConfig(cores=2, superscalar_width=width))
                for width in (1, 2, 4)]
    configs += [(SHORT_CUT_RUNS,
                 MachineConfig(cores=2, superscalar_width=width))
                for width in (2, 4)]
    for width in (1, 2):
        for seed in (1, 2, 3):
            cfg = MachineConfig(superscalar_width=width, seed=seed)
            cfg.qpu.outcome_bias = 0.5
            configs += [(MEAS_RUN, cfg), (POT_RUN, cfg)]
    configs += [(_chunk_end(n, tail), MachineConfig(superscalar_width=width))
                for n in range(9)
                for tail in (["LDI r1, 1", "0 H q0", "0 H q1", "END"], ["END"])
                for width in (1, 2, 4, 8)]
    return configs + FMR_BEFORE_CONDITIONAL + [
        ZERO_LATENCY, SELF_COLLIDING_BLOCKS, CONTEXT_QUBIT_RUN,
        CONTEXT_BOUND_RUN]


# with no readout latency, the measurement an FMR waits for is readable
# in the cycle it issues in, after the read that cycle has failed
ZERO_LATENCY = (parse_program(_lines(
    ".qubits 3", "1 H q1", "1 MEAS q0 -> r0", "0 H q2", "1 H q1",
    "FMR r1, r0", "1 X q2", "END")), MachineConfig(
        superscalar_width=4, qpu=QpuConfig(meas_pulse_ns=0, daq_ns=0)))


# the FMR resolves long before the queued `60 H q1` falls due, and the
# conditional X after it issues first, on the same qubit: a drain that
# issued `60 H q1` while the FMR waits would show the device the two
# out of time order. At pipeline depth 3 the measurement of r0 has issued
# when the FMR stalls; at depth 4 it is still queued, so the drain issues
# it and only then learns when r0 is ready
FMR_BEFORE_CONDITIONAL = [(parse_program(_lines(
    ".qubits 5", "0 MEAS q0 -> r0", "0 H q2", "0 H q3", "0 H q4",
    "60 H q1", "FMR r2, r0", "MRCE r0, q1, X, X", "END")),
    MachineConfig(pipeline_depth=depth)) for depth in (3, 4)]


# the gates on q0 join the point `0 H q1` opens while the context on q0 is
# open: the run must stop before it fetches them
CONTEXT_QUBIT_RUN = (parse_program(_lines(
    ".qubits 4", "0 MEAS q3 -> r0", "0 H q0", "MRCE r0, q0, NOP, NOP",
    "0 H q1", *["0 H q0"] * 6, "END")), MachineConfig(pipeline_depth=1))


# a run beside the open context on q1 that lasts past the cycle its switch
# starts in: the run must end in the cycle before, where the rule pauses
CONTEXT_BOUND_RUN = (parse_program(_lines(
    ".qubits 3", "0 MEAS q0 -> r0", "MRCE r0, q1, NOP, X", "1 H q2",
    *["0 H q2"] * 45, "END")), MachineConfig(qpu=QpuConfig(outcome_bias=1.0)))


# two independent blocks whose every point collides with itself: the
# device logs the collisions of both cores, interleaved in time
SELF_COLLIDING_BLOCKS = (_two_blocks(2, ["1 H q0", "0 X q0"] * 5 + ["END"],
                                     ["1 H q1", "0 X q1"] * 5 + ["END"]),
                         MachineConfig(cores=2))


def _prefetch_mid_run(c_deps):
    """Block A runs label-0 runs on core 0 while block B, on core 1, ends
    at once; block C, which depends on A or on nothing, is prefetched onto
    core 0 and lands in the middle of A, with core 1 idle."""
    a = _runs((1, 5) * 10, qubits=2) + ["END"]
    b = ["1 H q2", "END"]
    c = ["1 X q3"] * 40 + ["END"]
    end_a, end_b = len(a) - 1, len(a) + len(b) - 1
    return parse_program("\n".join(
        [".qubits 4"] + a + b + c
        + [f".block A start=0 end={end_a} deps=none",
           f".block B start={end_a + 1} end={end_b} deps=none",
           f".block C start={end_b + 1} end={end_b + len(c)} "
           f"deps={c_deps}"]) + "\n")


def _sched_bound_configs():
    # with C waiting for A, no tick can start a block before A ends, so A's
    # run goes on past the landing; with C ready, the run stops before it
    return [(_prefetch_mid_run(c_deps),
             MachineConfig(cores=2, superscalar_width=width,
                           dependency_mode=mode))
            for c_deps in ("A", "none") for width in (1, 4)
            for mode in ("direct", "priority")]


def _grid_configs():
    configs = []
    for name in sorted(BENCHMARKS):
        bench = make_benchmark(name)
        for width in (1, 2, 4, 8):
            for cores in (1, 2, 6):
                for seed in (1, 2, 3):
                    cfg = MachineConfig(cores=cores, superscalar_width=width,
                                        seed=seed)
                    cfg.qpu.outcome_bias = bench.bias
                    configs.append((bench.program, cfg))
    return configs


# a counted loop, taken and untaken branches and a JMP; the `20 H q1`
# point falls due inside the loop, and the FMR after it reads r0 ready or
# not, by the branch penalty
COUNTED_LOOP = parse_program(_lines(
    ".qubits 4", "0 MEAS q0 -> r0", "20 H q1", "LDI r1, 6", "LDI r2, 1",
    "LDI r3, 0", "loop:", "SUB r1, r1, r2", "ADD r5, r5, r2", "CMP r1, r3",
    "BR.ne loop", "FMR r6, r0", "CMP r6, r3", "BR.eq skip", "1 X q2",
    "skip:", "JMP done", "1 X q3", "done:", "END"))

# an FMR, after a run of classical work, of a register not readable yet
UNREADY_READ = parse_program(_lines(
    ".qubits 2", "0 MEAS q0 -> r0", *["LDI r1, 1"] * 5, "FMR r2, r0",
    "LDI r3, 1", "1 H q1", "END"))

# two counted loops that share r24 and r25, so that on two cores each
# block's clash mask is non-zero and each core bounds the other's horizon:
# A's loop runs up to the cycle B's FMR wait ends in; block B ends with a
# classical instruction, not END
SHARED_LOOPS = parse_program(_lines(
    ".qubits 2", "LDI r1, 20", "LDI r2, 1", "loopA:", "ADD r24, r24, r2",
    "SUB r1, r1, r2", "CMP r1, r3", "BR.ne loopA", "1 H q0", "MOV r4, r25",
    "END", "0 MEAS q1 -> r7", "FMR r8, r7", "LDI r1, 5", "LDI r2, 1",
    "loopB:", "ADD r25, r25, r2", "MOV r5, r24", "SUB r1, r1, r2",
    "CMP r1, r3", "BR.gt loopB", "1 H q1", "LDI r26, 3",
    ".block A start=0 end=8 deps=none", ".block B start=9 end=19 deps=none"))

# a counted loop whose taken branch is the block's last instruction, so
# that each redirect reopens an ended stream
TAIL_LOOP = parse_program(_lines(
    ".qubits 1", "1 H q0", "LDI r1, 5", "LDI r2, 1", "loop:",
    "SUB r1, r1, r2", "CMP r1, r0", "BR.ne loop"))


def _classical_configs():
    return [(program, MachineConfig(cores=cores, superscalar_width=width,
                                    branch_penalty=penalty))
            for program, core_counts in ((COUNTED_LOOP, (1,)),
                                         (UNREADY_READ, (1,)),
                                         (TAIL_LOOP, (1,)),
                                         (SHARED_LOOPS, (1, 2)))
            for cores in core_counts for width in (1, 2, 4, 8)
            for penalty in (0, 1, 2, 5)]


def _next_item(core):
    # the core's next instruction, or None at the end of its stream
    if core.pending:
        return core.pending[0]
    if core.stream_ended:
        return None
    return core.engine.items[core.pc]


def _run_goes_on(core):
    # the core's next instruction joins its open timing point
    item = _next_item(core)
    return item is not None and item[0] == K_QUANTUM and item[1] == 0


def _quantum_next(core):
    item = _next_item(core)
    return item is not None and item[0] == K_QUANTUM


def _observe(patch, seen):
    """Wrap the kernel's fast paths so that `seen` counts the kinds of work
    they do in a run, a classical run by what ends it. Each classical
    instruction that dispatches must be the one `_pick_classical` picks."""
    alone = Core._dispatch_classical_alone
    picked = Core._dispatch_picked
    fast = Core._dispatch_quantum
    run_cycle = Core.run_cycle
    issue_entry = Core._issue_entry
    redirect = Core._redirect
    reached = []
    targets = []

    def counted_alone(core, cycle, now_ns):
        seen["classical alone"] += 1
        last = core._horizon(cycle)
        targets.clear()
        extra = alone(core, cycle, now_ns)
        if not extra:
            return extra
        end = cycle + extra
        if extra > 1:
            seen["classical run of three cycles or more"] += 1
        if targets and (len(targets) > 1 or core.pc != targets[0]):
            seen["classical run across a taken branch"] += 1
        item = _next_item(core)
        if item is None:
            return extra
        if item[0] == K_QUANTUM and not core.redirect_penalty:
            seen["classical run stopped by a quantum item"] += 1
        elif item[0] == K_CLASSICAL:
            if end == last:
                seen["classical run stopped by the horizon"] += 1
            elif end == -(-core.next_pop_ns // core.clock):
                seen["classical run stopped by a due point"] += 1
            elif (item[1] == ClassicalOp.FMR
                  and core.engine.result_file[item[8]][1]
                  > (end + 1) * core.clock):
                seen["classical run stopped by an unready FMR"] += 1
        return extra

    def redirecting(core, target):
        targets.append(target)
        return redirect(core, target)

    def checked(core, cl_idx, barrier, cycle, now_ns):
        assert core._pick_classical(core.pending, now_ns) == (cl_idx, barrier)
        if cl_idx == 0 and core.pending[0][0] == K_CLASSICAL:
            seen["classical beside quantum"] += 1
        return picked(core, cl_idx, barrier, cycle, now_ns)

    def counted_quantum(core, cycle):
        if (core.open_entry is not None and core.pending[0][1] == 0
                and core.pot_c + core.pot_s + core.pot_f):
            seen["run joins with cycles to claim"] += 1
        engine = core.engine
        sched = engine.scheduler
        transfer = sched.transfer
        idle = len(engine.active_cores) < len(engine.cores)
        can_start = sched.can_start_block()
        bound = idle and (sched.dirty or transfer is not None) and can_start
        last = core._horizon(cycle)
        extra = fast(core, cycle)
        if extra > 1:
            seen["run of three cycles or more"] += 1
        if cycle + extra == last and _run_goes_on(core):
            seen["run cut by the horizon"] += 1
        if (idle and not can_start and transfer is not None
                and cycle + extra >= transfer[4]):
            seen["run past a prefetch landing"] += 1
        if bound and cycle + extra == last and _quantum_next(core):
            seen["run stopped while a block can start"] += 1
        if extra and core.contexts:
            seen["run beside an open context"] += 1
        return extra

    def issuing(core, entry, local, actual):
        reached.append(-(-actual // core.clock))
        return issue_entry(core, entry, local, actual)

    def tracked(core, cycle):
        # a call that dispatches or issues in a cycle after another active
        # core's next call, or in it when that core acts first in a cycle
        bounds = [other.next_call - (other.core_id < core.core_id)
                  for other in core.engine.active_cores if other is not core]
        reached.clear()
        wake = run_cycle(core, cycle)
        if bounds and max(reached + [core.last_seen]) > min(bounds):
            seen["run past another core"] += 1
        return wake

    for method, wrapper in (("_dispatch_classical_alone", counted_alone),
                            ("_dispatch_picked", checked),
                            ("_dispatch_quantum", counted_quantum),
                            ("_issue_entry", issuing),
                            ("_redirect", redirecting),
                            ("run_cycle", tracked)):
        patch.setattr(Core, method, wrapper)


def _wake_configs():
    return [(parse_program(source), MachineConfig(**kw))
            for source, kw in WAKE_PROBES.values()]


def _deadlock_configs():
    cfg = MachineConfig(deadlock_timeout_cycles=50)
    return ([(program, cfg) for program, _ in (LONG_WAIT, HANG, *LIVELOCKS)]
            + [(parse_program(source), MachineConfig(
                superscalar_width=width, deadlock_timeout_cycles=300))
               for source, width, _ in LONG_POINTS]
            + [(program, RUN_AHEAD_CONFIG)
               for program, _ in RUN_AHEAD_DEADLOCKS]
            + [(program, cfg) for program, cfg, _ in KNOWN_WAITS])


# the inputs each optimization runs on, by name
INPUT_SETS = {
    "differential": _differential_configs,
    "probes": _probe_configs,
    "joins": _join_configs,
    "grid": _grid_configs,
    "sched_bound": _sched_bound_configs,
    "wakes": _wake_configs,
    "deadlocks": _deadlock_configs,
    "classical": _classical_configs,
}


@functools.cache
def _baseline(inputs):
    """Input set `inputs`, the outcome of each of its runs with every
    optimization on, and the kinds of work the fast paths did in them."""
    configs = INPUT_SETS[inputs]()
    seen = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _observe(patch, seen)
        outcomes = [_outcome(p, cfg) for p, cfg in configs]
    return configs, outcomes, seen


@pytest.mark.parametrize("optimization, inputs", [
    pytest.param(optimization, inputs, id=f"{optimization}-{inputs}")
    for optimization in OPTIMIZATIONS for inputs in INPUT_SETS])
def test_optimization_changes_no_output(optimization, inputs, monkeypatch):
    # the optimization turned off must give every output of every run of
    # the set, down to the order of each log, or the same fault
    configs, expected, _ = _baseline(inputs)
    monkeypatch.setattr(Core, *OPTIMIZATIONS[optimization])
    for (p, cfg), want in zip(configs, expected):
        assert _outcome(p, cfg) == want, cfg


@pytest.mark.parametrize("name", sorted(WAKE_PROBES))
def test_wake_hints_are_never_late(name, monkeypatch):
    # with every optimization off at once each core steps through every
    # cycle by the plain rule, so a wake hint that sleeps through a cycle
    # the probe's core could act in shows as a changed output
    configs, expected, _ = _baseline("wakes")
    index = list(WAKE_PROBES).index(name)
    for method, replacement in OPTIMIZATIONS.values():
        monkeypatch.setattr(Core, method, replacement)
    assert _outcome(*configs[index]) == expected[index]


def test_input_sets_make_the_fast_paths_do_every_kind_of_work():
    # a fast path the inputs never take shows nothing when it is turned off
    classical = _baseline("differential")[2]
    for kind in ("classical alone", "classical beside quantum"):
        assert classical[kind], kind
    runs = _baseline("classical")[2]
    for kind in ("of three cycles or more", "across a taken branch",
                 "stopped by a due point", "stopped by an unready FMR",
                 "stopped by the horizon", "stopped by a quantum item"):
        assert runs["classical run " + kind], kind
    quantum = sum((_baseline(inputs)[2] for inputs in (
        "grid", "differential", "probes", "joins", "sched_bound")), Counter())
    for kind in ("run of three cycles or more",
                 "run joins with cycles to claim", "run cut by the horizon",
                 "run past a prefetch landing",
                 "run stopped while a block can start",
                 "run beside an open context"):
        assert quantum[kind], kind


def test_one_dispatch_group_call_per_timing_point(monkeypatch):
    # a timing point's leading group and the label-0 groups that join it in
    # later cycles go to `_dispatch_group` together, at every width, and so
    # does a point narrower than the issue width; only a fast-path call the
    # horizon ends inside a point leaves the rest to a later call
    calls = []
    cuts = []
    dispatch_group = Core._dispatch_group
    dispatch_quantum = Core._dispatch_quantum

    def counted(core, *args):
        calls.append(args)
        return dispatch_group(core, *args)

    def cut_counted(core, cycle):
        last = core._horizon(cycle)
        extra = dispatch_quantum(core, cycle)
        if cycle + extra == last and _run_goes_on(core):
            cuts.append(cycle)
        return extra

    monkeypatch.setattr(Core, "_dispatch_group", counted)
    monkeypatch.setattr(Core, "_dispatch_quantum", cut_counted)
    cases = [(gen_dense(8, 300), width, 1, 300) for width in (1, 2, 4, 8)]
    cases += [(gen_dense(qubits, 100), width, 1, 100)
              for qubits in (3, 5) for width in (4, 8)]
    # block B's 7 points bound the horizon of core 0 inside A's 4 points
    cases += [(CUT_RUNS, 1, 2, 4 + 7)]
    for program, width, cores, points in cases:
        calls.clear()
        cuts.clear()
        Engine(program, MachineConfig(cores=cores,
                                      superscalar_width=width)).run()
        assert len(calls) == points + len(cuts), (
            len(program.instructions), width, cores)
    assert cuts


def test_run_ahead_call_counts_pinned(monkeypatch):
    # a core issues its queued points in one call once its stream has
    # ended or while it waits on an FMR, runs quantum work ahead beside an
    # open context, runs ahead of the other cores while its block is
    # independent, retires a run of classical instructions and the dead
    # cycles of its taken branches in one call, and is first called for a
    # block when its context switch ends
    calls = []
    run_cycle = Core.run_cycle

    def counted(core, cycle):
        calls.append(cycle)
        return run_cycle(core, cycle)

    monkeypatch.setattr(Core, "run_cycle", counted)
    cfg = MachineConfig(superscalar_width=4, seed=1)
    cfg.qpu.outcome_bias = 0.5
    Engine(gen_active_reset_plus_rb(200, mrce=True), cfg).run()
    assert len(calls) <= 15
    calls.clear()
    Engine(gen_dense(8, 300), MachineConfig(superscalar_width=8)).run()
    assert len(calls) <= 6
    steane = gen_steane_syndrome()
    for cores, most in ((1, 148), (2, 164), (6, 179)):
        calls.clear()
        cfg = MachineConfig(cores=cores, seed=1)
        cfg.qpu.outcome_bias = 0.1
        Engine(steane, cfg).run()
        assert len(calls) <= most, cores
    calls.clear()
    cfg = MachineConfig(cores=4, seed=1)
    cfg.qpu.outcome_bias = 0.3
    Engine(gen_parallel_rus(8), cfg).run()
    assert len(calls) <= 130
    # blocks that share r24 each wait on their own result registers
    calls.clear()
    source, kw = WAKE_PROBES["shared_block_waits_on_own_register"]
    Engine(parse_program(source), MachineConfig(**kw)).run()
    assert len(calls) <= 57
    calls.clear()
    Engine(COUNTED_LOOP, MachineConfig()).run()
    assert len(calls) <= 8
    calls.clear()
    Engine(TAIL_LOOP, MachineConfig()).run()
    assert len(calls) <= 8


def test_fast_path_leaves_the_buffer_as_the_rule_does(monkeypatch):
    # when a fast-path call returns, the next cycle has not refilled yet;
    # the core's fetch state must be the one the general rule leaves after
    # the same cycle, also where a run is cut by the horizon
    def recording(dispatch, states):
        def dispatch_and_record(core, cycle):
            extra = dispatch(core, cycle)
            states[core.core_id, cycle + extra] = (
                core.pc, len(core.pending), core.stream_ended)
            return extra
        return dispatch_and_record

    skipped = 0
    for program, cfg in (_join_configs() + _probe_configs()
                         + _differential_configs()):
        fast, rule = {}, {}
        for dispatch, states in ((Core._dispatch_quantum, fast),
                                 (_general_rule, rule)):
            with monkeypatch.context() as patch:
                patch.setattr(Core, "_dispatch_quantum",
                              recording(dispatch, states))
                Engine(program, cfg).run()
        assert {key: rule[key] for key in fast} == fast, cfg
        skipped += len(rule) - len(fast)
    assert skipped > 0


def _check_one_issue_time_per_point(program, cfg, monkeypatch):
    """Each issued timing point reaches the device in one `accept_issue`
    call, at its record's `actual_ns` and with its record's `qices`
    operations. A core whose block is independent makes its calls ahead of
    the other cores', so they match the point records as a multiset; with
    no run-ahead they come in the order of the records."""
    for horizon in (None, _no_run_ahead):
        calls = []
        accept = QpuState.accept_issue

        def recorded(qpu, time_ns, ops, core=0):
            calls.append((time_ns, len(ops), core))
            return accept(qpu, time_ns, ops, core)

        with monkeypatch.context() as patch:
            patch.setattr(QpuState, "accept_issue", recorded)
            if horizon:
                patch.setattr(Core, "_horizon", horizon)
            trace = Engine(program, cfg).run()
        records = [(s.actual_ns, s.qices, s.core)
                   for s in trace.steps if s.qices]
        if horizon:
            assert calls == records
        else:
            assert Counter(calls) == Counter(records)


def test_each_timing_point_issues_at_one_time(monkeypatch):
    programs = _programs()
    for name, cfg in RECORD_CASES.values():
        _check_one_issue_time_per_point(programs[name], cfg, monkeypatch)
    for program, cfg in _join_configs() + _probe_configs():
        _check_one_issue_time_per_point(program, cfg, monkeypatch)


def test_steane_width4_cycles_pinned():
    program = gen_steane_syndrome()
    cycles = []
    for cores in (1, 2, 6):
        cfg = MachineConfig(cores=cores, superscalar_width=4, seed=1)
        cfg.qpu.outcome_bias = make_benchmark("steane").bias
        cycles.append(Engine(program, cfg).run().total_cycles)
    assert cycles == [1839, 1153, 842]


@pytest.mark.parametrize("width", [1, 4])
def test_younger_measurement_hides_register_until_it_issues(width):
    # the older measurement issues while the younger one of r5 waits in the
    # timing queue; the read must see the younger result (1), so no X
    src = ("\n".join([".qubits 3", "0 MEAS q0 -> r5", "60 MEAS q1 -> r5",
                      "FMR r1, r5", "LDI r2, 1", "CMP r1, r2", "BR.eq 7",
                      "1 X q2", "END"]) + "\n")
    trace = run(src, width=width, bias={0: 0.0, 1: 1.0})
    assert issue_times(trace, "MEAS") == [40, 640]
    assert issue_times(trace, "X") == []


_GATES = ("H", "X", "Y", "Z", "RX", "CNOT", "CZ", "MEAS")
_RESULTS = (0, 1, 2)
_COND = ("eq", "ne", "lt", "le", "gt", "ge")


@st.composite
def _instruction(draw, qubit_count, quantum_share=4, labels=st.integers(0, 3)):
    """One instruction; a branch is `(mnemonic, forward distance)` and the
    result register an FMR or MRCE reads is drawn from `_RESULTS`. Of every
    `quantum_share` + 5 draws, `quantum_share` are quantum."""
    kind = draw(st.sampled_from(("quantum",) * quantum_share + (
        "fmr", "mrce", "alu", "shared", "branch")))
    qubit = st.integers(0, qubit_count - 1)
    if kind == "quantum":
        label = draw(labels)
        gate = draw(st.sampled_from(_GATES))
        a = draw(qubit)
        if gate in ("CNOT", "CZ"):
            b = draw(qubit.filter(lambda q: q != a))
            return f"{label} {gate} q{a}, q{b}"
        if gate == "MEAS":
            return f"{label} MEAS q{a} -> r{draw(st.sampled_from(_RESULTS))}"
        return f"{label} {gate} q{a}" + (", 0.5" if gate == "RX" else "")
    if kind == "fmr":
        rd = draw(st.integers(1, 3))
        return f"FMR r{rd}, r{draw(st.sampled_from(_RESULTS))}"
    if kind == "mrce":
        op0, op1 = draw(st.sampled_from(("NOP", "X", "Z"))), draw(
            st.sampled_from(("NOP", "X", "H")))
        return (f"MRCE r{draw(st.sampled_from(_RESULTS))}, q{draw(qubit)}, "
                f"{op0}, {op1}")
    if kind == "alu":
        return draw(st.sampled_from((
            "LDI r1, 1", "CMP r1, r2", "ADD r2, r1, r3", "MOV r3, r1")))
    if kind == "shared":
        # registers r24-r31 are one file that every core reads and writes
        return draw(st.sampled_from((
            "LDI r24, 1", "ADD r24, r24, r1", "MOV r2, r24", "CMP r24, r1",
            "MOV r25, r1", "MOV r1, r25")))
    # forward only, so every program ends
    mnemonic = draw(st.sampled_from(["JMP"] + [f"BR.{c}" for c in _COND]))
    return (mnemonic, draw(st.integers(1, 4)))


@st.composite
def _block_programs(draw, instruction=_instruction(4), min_size=1,
                    max_size=10):
    """Assembly text of a small valid program of one to three blocks that
    share qubits, result registers and the shared register file, with
    direct or priority dependencies."""
    qubit_count = 4
    bodies = [draw(st.lists(instruction, min_size=min_size,
                            max_size=max_size)) + ["END"]
              for _ in range(draw(st.integers(1, 3)))]
    # every result register read is written by some measurement
    text = "\n".join(ins for body in bodies for ins in body
                     if isinstance(ins, str))
    written = set(re.findall(r"-> r(\d+)", text))
    for reg in set(re.findall(r"(?:FMR r\d+,|MRCE) r(\d+)", text)) - written:
        bodies[draw(st.integers(0, len(bodies) - 1))].insert(
            0, f"0 MEAS q3 -> r{reg}")
    return _assemble(draw, bodies, qubit_count)


def _assemble(draw, bodies, qubit_count):
    """The program text of blocks `bodies`, in order, with direct or
    priority dependencies drawn for them; a branch `(mnemonic, distance)`
    becomes a jump that stays inside its block."""
    lines, directives, start = [f".qubits {qubit_count}"], [], 0
    priority = draw(st.booleans())
    for b, body in enumerate(bodies):
        end = start + len(body) - 1
        for pc, ins in enumerate(body, start):
            if isinstance(ins, tuple):
                ins = f"{ins[0]} {min(pc + ins[1], end)}"
            lines.append(ins)
        if priority:
            deps = f"prio={draw(st.integers(0, 2))}"
        else:
            earlier = draw(st.sets(st.integers(0, b - 1))) if b else set()
            deps = "deps=" + ("+".join(f"b{d}" for d in sorted(earlier))
                              or "none")
        directives.append(f".block b{b} start={start} end={end} {deps}")
        start = end + 1
    return "\n".join(lines + directives) + "\n"


# the draws of the fuzz move with the package source, so inputs that test
# the drain are pinned: in the first two a block's last two points issue in
# one cycle, so a drain must not end the block late; in the third a drain
# that passed the horizon would issue ahead of the other core's next call
_PAIRED_LAST_POINTS = _lines(
    ".qubits 4", "0 H q0", "END", "0 H q0", "0 H q0", "2 H q0", "2 H q0",
    "LDI r1, 1", "0 H q0", "END", "1 H q0", "END",
    ".block b0 start=0 end=1 deps=none", ".block b1 start=2 end=8 deps=none",
    ".block b2 start=9 end=10 deps=none")
_PAIRED_LAST_POINTS_MRCE = _lines(
    ".qubits 4", "0 MEAS q3 -> r1", *["0 H q0"] * 8, "END", *["0 H q0"] * 3,
    "MRCE r1, q0, NOP, NOP", "0 H q0", "3 H q0", "MRCE r1, q0, NOP, NOP",
    "0 H q0", "END", "0 MEAS q3 -> r0", "0 H q0", "FMR r1, r0",
    *["0 H q0"] * 6, "END",
    ".block b0 start=0 end=9 deps=none", ".block b1 start=10 end=18 deps=none",
    ".block b2 start=19 end=28 deps=none")
_DRAIN_PAST_OTHER_CORE = _lines(
    ".qubits 3", "LDI r2, 1", "5 H q2", "END", "3 H q0", "2 H q0", "LDI r3, 1",
    "3 X q2", "3 CZ q2, q0", "8 CZ q1, q2", "END",
    ".block b0 start=0 end=2 deps=none", ".block b1 start=3 end=9 deps=none")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@example(source=_PAIRED_LAST_POINTS, width=1, cores=2, seed=1, bias=0.0,
         depth=3, ctx=0, prefetch=False, t_switch=0)
@example(source=_PAIRED_LAST_POINTS_MRCE, width=1, cores=2, seed=1,
         bias=0.0, depth=3, ctx=0, prefetch=False, t_switch=0)
@example(source=_DRAIN_PAST_OTHER_CORE, width=4, cores=2, seed=1, bias=0.0,
         depth=1, ctx=3, prefetch=True, t_switch=2)
@given(source=_block_programs(), width=st.sampled_from((1, 2, 4, 8)),
       cores=st.sampled_from((1, 2, 6)), seed=st.integers(1, 3),
       bias=st.sampled_from((0.0, 0.5, 1.0)),
       depth=st.sampled_from((1, 2, 3)), ctx=st.sampled_from((0, 1, 3)),
       prefetch=st.booleans(), t_switch=st.sampled_from((0, 2)))
def test_kernel_paths_agree_on_random_programs(**draws):
    _check_paths_agree(**draws)


def _check_paths_agree(source, width, cores, seed, bias, depth, ctx,
                       prefetch, t_switch):
    """Turn each optimization off in turn on the run drawn: it must give
    the same outcome. Returns what the fast paths did with all on."""
    p = parse_program(source)
    assert validate_program(p) == []
    cfg = MachineConfig(cores=cores, superscalar_width=width, seed=seed,
                        pipeline_depth=depth, ctx_switch_cycles=ctx,
                        prefetch=prefetch, t_switch=t_switch,
                        deadlock_timeout_cycles=300)
    cfg.qpu.outcome_bias = bias
    seen = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _observe(patch, seen)
        expected = _outcome(p, cfg)
    for name, (method, replacement) in OPTIMIZATIONS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Core, method, replacement)
            assert _outcome(p, cfg) == expected, name
    return seen


# mostly quantum and mostly label 0, so that long runs of label-0 groups
# join one timing point, across fetch chunks and the horizon
_RUN_HEAVY = _block_programs(
    _instruction(4, quantum_share=24,
                 labels=st.sampled_from((0,) * 7 + (1, 2, 3))),
    min_size=8, max_size=24)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(source=_RUN_HEAVY, width=st.sampled_from((1, 2, 4, 8)),
       cores=st.sampled_from((1, 2, 6)), seed=st.integers(1, 3),
       bias=st.sampled_from((0.0, 0.5, 1.0)),
       depth=st.sampled_from((1, 2, 3)), ctx=st.sampled_from((0, 1, 3)),
       prefetch=st.booleans(), t_switch=st.sampled_from((0, 2)))
def test_kernel_paths_agree_on_run_heavy_programs(**draws):
    _check_paths_agree(**draws)


def _own(ins, b):
    """Instruction `ins`, drawn on qubits q0-q1, result registers r0-r2 and
    shared registers r24-r25, moved to block `b`'s own ones: qubits
    q2b-q2b+1, result registers r3b-r3b+2 and shared r24+2b-r25+2b."""
    if isinstance(ins, tuple):
        return ins
    ins = re.sub(r"q(\d)", lambda m: f"q{int(m[1]) + 2 * b}", ins)
    ins = re.sub(r"(-> |FMR r\d, |MRCE )r(\d)",
                 lambda m: f"{m[1]}r{int(m[2]) + 3 * b}", ins)
    return re.sub(r"r2([45])", lambda m: f"r{int(m[1]) + 20 + 2 * b}", ins)


@st.composite
def _independent_block_programs(draw):
    """Assembly text of two to four blocks that each touch their own
    qubits, result registers and shared registers, so that each block is
    independent; in some, one block also touches a qubit, a result
    register or a shared register of another."""
    bodies = []
    for b in range(draw(st.integers(2, 4))):
        body = [_own(ins, b) for ins in draw(st.lists(
            _instruction(2), min_size=1, max_size=10))]
        # every result register the block reads, it also writes
        text = "\n".join(ins for ins in body if isinstance(ins, str))
        written = set(re.findall(r"-> r(\d+)", text))
        for reg in sorted(set(re.findall(r"(?:FMR r\d+,|MRCE) r(\d+)",
                                         text)) - written):
            body.insert(0, f"0 MEAS q{2 * b + 1} -> r{reg}")
        bodies.append(body + ["END"])
    shared = draw(st.sampled_from((None, "qubit", "result", "register")))
    if shared:
        i, j = draw(st.permutations(range(len(bodies))))[:2]
        ins = {"qubit": f"1 X q{2 * j}",
               "result": f"0 MEAS q{2 * i} -> r{3 * j}",
               "register": f"LDI r{24 + 2 * j}, 1"}[shared]
        bodies[i].insert(draw(st.integers(0, len(bodies[i]) - 1)), ins)
    return _assemble(draw, bodies, 8)


def test_kernel_paths_agree_on_independent_blocks():
    # blocks on disjoint qubits and registers let their cores run ahead of
    # each other; every kernel path must still agree, and some examples
    # must really run a core past another core's next call
    ahead = []

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(source=_independent_block_programs(),
           width=st.sampled_from((1, 2, 4, 8)),
           cores=st.sampled_from((2, 4, 6)), seed=st.integers(1, 3),
           bias=st.sampled_from((0.0, 0.5, 1.0)),
           depth=st.sampled_from((1, 2, 3)), ctx=st.sampled_from((0, 1, 3)),
           prefetch=st.booleans(), t_switch=st.sampled_from((0, 2)))
    def check(**draws):
        if _check_paths_agree(**draws)["run past another core"]:
            ahead.append(draws["source"])

    check()
    assert ahead


def _brute_force_clashes(program, table):
    """`block_clashes` by definition: the footprints as sets, read from the
    instructions, and every pair of blocks compared. Each block's set holds
    the elements of its footprint that a concurrent block also has."""
    def footprint(entry):
        touched = set()
        for ins in program.instructions[entry.pc_start:entry.pc_end + 1]:
            if ins.kind == Kind.QUANTUM:
                touched |= {("q", q) for q in ins.qubits}
                if ins.gate == Gate.MEAS:
                    touched.add(("result", ins.result_reg))
            elif ins.kind == Kind.MRCE:
                touched |= {("q", ins.mrce_target),
                            ("result", ins.result_reg)}
            elif ins.kind == Kind.CLASSICAL:
                if ins.classical_op == ClassicalOp.FMR:
                    touched.add(("result", ins.result_reg))
                touched |= {("shared", r) for r in (ins.rd, ins.ra, ins.rb)
                            if r >= SHARED_REG_BASE}
        return touched

    def needs(a, b):
        # block b is a transitive dependence of block a
        deps = [d for d in range(len(table)) if table.entries[a].dep_mask >> d & 1]
        return b in deps or any(needs(d, b) for d in deps)

    def concurrent(a, b):
        if table.representation == PRIORITY:
            return table.entries[a].priority == table.entries[b].priority
        return not needs(a, b) and not needs(b, a)

    prints = [footprint(e) for e in table.entries]
    return tuple(set().union(*(prints[a] & prints[b] for b in range(len(table))
                               if a != b and concurrent(a, b)))
                 for a in range(len(table)))


def _footprint_bits(elements):
    """Footprint elements as the engine's bits: result register r is bit r,
    shared register r24 + i is bit 32 + i, and qubit q is bit 40 + q."""
    offset = {"result": 0, "shared": 32 - SHARED_REG_BASE, "q": 40}
    return sum(1 << offset[kind] + i for kind, i in elements)


# b2 depends on b0 only through b1, so the two never run side by side
# although both touch q0
_DEPENDENCE_CHAIN = _lines(
    ".qubits 2", "1 H q0", "END", "1 H q1", "END", "1 X q0", "END",
    ".block b0 start=0 end=1 deps=none", ".block b1 start=2 end=3 deps=b0",
    ".block b2 start=4 end=5 deps=b1")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@example(source=_DEPENDENCE_CHAIN, mode="auto")
@given(source=st.one_of(_independent_block_programs(), _block_programs()),
       mode=st.sampled_from(("auto", "direct", "priority")))
def test_independent_blocks_match_pairwise_definition(source, mode):
    program = parse_program(source)
    engine = Engine(program, MachineConfig(cores=2, dependency_mode=mode))
    masks = engine.clash or (0,) * len(engine.table)
    assert masks == tuple(map(_footprint_bits,
                              _brute_force_clashes(program, engine.table)))


# in each program one block reads a register that its own measurement
# fills only after the read, so the run deadlocks; the other block, on
# its own qubits and registers, runs on
RUN_AHEAD_DEADLOCKS = [
    # block A issues a point each cycle, with a wait longer than the
    # timeout between, and B deadlocks
    (_two_blocks(4, ["1 H q0"] * 30 + ["60 X q1"] + ["1 H q0"] * 30
                 + ["END"], ["FMR r1, r5", "0 MEAS q3 -> r5", "END"]),
     "deadlock: no progress for 50 cycles (stalled at cycle 175)"),
    # A issues its `40 H q0` while its read waits, well before B issues
    # its last point, which is earlier in time: the watchdog counts from
    # the latest issue time, not from the newest issue
    (_two_blocks(4, ["1 H q0", "40 H q0", "FMR r1, r5", "0 MEAS q3 -> r5",
                     "END"], ["1 H q1"] * 10 + ["END"]),
     "deadlock: no progress for 50 cycles (stalled at cycle 96)"),
]


RUN_AHEAD_CONFIG = MachineConfig(cores=2, deadlock_timeout_cycles=50)


@pytest.mark.parametrize("program, verdict", RUN_AHEAD_DEADLOCKS)
def test_deadlock_verdict_does_not_depend_on_running_ahead(program,
                                                           verdict):
    assert Engine(program, RUN_AHEAD_CONFIG).clash == (0, 0)
    seen = Counter()
    with pytest.MonkeyPatch.context() as patch:
        _observe(patch, seen)
        with pytest.raises(RuntimeFault):
            Engine(program, RUN_AHEAD_CONFIG).run()
    assert seen["run past another core"]
    assert _verdicts(program, RUN_AHEAD_CONFIG) == {verdict}
