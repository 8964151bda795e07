"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
expensive multicore sweep is computed once and shared; its test is marked
`slow`, so `pytest -m "not slow"` skips it for a quick loop.
"""

import math
import sys
import time
from dataclasses import replace

import pytest

from qcpsim.bench import (gen_active_reset_plus_rb, gen_dense,
                          gen_feedforward, gen_parallel_rus,
                          gen_steane_syndrome)
from qcpsim.config import SEED_STRIDE, MachineConfig
from qcpsim.engine import Engine, PreparedProgram
from qcpsim.isa import parse_program, validate_program
from qcpsim.metrics import build_report

CORES = (1, 2, 4, 6)
BIASES = (0.05, 0.10, 0.20)
REPETITIONS = 1000
IDEAL_SAMPLE = 100


def _report(criterion, ok, detail):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def _run(program, width=1, cores=1, bias=0.0, seed=1, **kw):
    cfg = MachineConfig(cores=cores, superscalar_width=width, seed=seed, **kw)
    cfg.qpu.outcome_bias = bias
    return Engine(program, cfg).run()


def _avg_tr(program, width, bias=0.0, seed=1, gate_ns=20):
    trace = _run(program, width=width, bias=bias, seed=seed)
    return build_report(trace, gate_ns=gate_ns).avg_tr


def test_criterion_1_superscalar_upper_bound():
    p = gen_dense(8, 100)
    r1 = build_report(_run(p, width=1), gate_ns=20)
    r8 = build_report(_run(p, width=8), gate_ns=20)
    per_step_ok = all(s.tr == 4.0 for s in r1.steps)
    ratio = r1.avg_tr / r8.avg_tr
    ok = ratio == 8.0 and r8.max_tr <= 1.0 and per_step_ok
    _report("1 superscalar upper bound", ok,
            f"avg TR ratio {ratio} (want 8.00 exactly), width-8 max TR "
            f"{r8.max_tr}, width-1 per-step TR==4.0 {per_step_ok}")


def test_criterion_2_width_sweep():
    suite = [(f"dense{n}", gen_dense(n, 50), 0.0) for n in range(2, 9)]
    suite += [
        ("feedforward", gen_feedforward(), 1.0),
        ("parallel_rus2", gen_parallel_rus(2), 0.1),
        ("active_reset_rb20", gen_active_reset_plus_rb(20), 1.0),
        ("steane", gen_steane_syndrome(), 0.1),
    ]
    improvements = []
    monotone = True
    worst = None
    for name, program, bias in suite:
        a1 = _avg_tr(program, 1, bias)
        a8 = _avg_tr(program, 8, bias)
        if a8 > a1 + 1e-12:
            monotone = False
            worst = (name, a1, a8)
        improvements.append(a1 / a8)
    gmean = math.exp(sum(math.log(x) for x in improvements) / len(improvements))
    ok = monotone and gmean >= 2.0
    _report("2 width sweep", ok,
            f"monotone {monotone} ({worst if worst else 'all programs'}), "
            f"geometric-mean improvement {gmean:.2f}x (floor 2x)")


def _steane_sweep():
    program = PreparedProgram(gen_steane_syndrome())
    out = {}
    for bias in BIASES:
        for cores in CORES:
            for ideal in (False, True):
                reps = IDEAL_SAMPLE if ideal else REPETITIONS
                base = MachineConfig(cores=cores, collect_steps=False)
                if ideal:
                    base = base.zero_cost_scheduling()
                base.qpu.outcome_bias = bias
                acc = 0
                for rep in range(reps):
                    cfg = replace(base, seed=1 + rep * SEED_STRIDE)
                    acc += Engine(program, cfg).run().total_exec_ns
                    if not ideal and rep + 1 == IDEAL_SAMPLE:
                        # matched-sample mean for the ideal-bound check
                        out[(bias, cores, "sub")] = acc / IDEAL_SAMPLE
                out[(bias, cores, ideal)] = acc / reps
    return out


@pytest.fixture(scope="module")
def steane_sweep():
    t0 = time.time()
    data = _steane_sweep()
    print(f"\n[steane sweep: {time.time() - t0:.1f}s for "
          f"{len(BIASES) * len(CORES) * (REPETITIONS + IDEAL_SAMPLE)} runs]",
          file=sys.stderr)
    return data


@pytest.mark.slow
def test_criterion_3_multicore_speedup(steane_sweep):
    details = []
    ok = True
    for bias in BIASES:
        means = [steane_sweep[(bias, c, False)] for c in CORES]
        monotone = all(a >= b for a, b in zip(means, means[1:]))
        sp6 = means[0] / means[-1]
        in_window = 2.0 <= sp6 <= 3.5
        # bound check on the matched seed subsample: the zero-cost rerun
        # must never make the speedup look smaller
        bound = True
        sub1 = steane_sweep[(bias, CORES[0], "sub")]
        for c in CORES:
            actual = sub1 / steane_sweep[(bias, c, "sub")]
            ideal = sub1 / steane_sweep[(bias, c, True)]
            if actual > ideal:
                bound = False
        ok = ok and monotone and in_window and bound
        details.append(f"bias {bias}: 6-core {sp6:.2f}x monotone={monotone} "
                       f"actual<=ideal={bound}")
    _report("3 multicore speedup", ok, "; ".join(details))


def test_criterion_4_two_block_parallelism():
    program = PreparedProgram(gen_parallel_rus(2))
    # speedup strictly above 1 on every seed at 10% failure rate
    all_above = True
    for rep in range(REPETITIONS):
        seed = 1 + rep * SEED_STRIDE
        t1 = t2 = None
        for cores in (1, 2):
            cfg = MachineConfig(cores=cores, seed=seed, collect_steps=False)
            cfg.qpu.outcome_bias = 0.1
            t = Engine(program, cfg).run().total_exec_ns
            if cores == 1:
                t1 = t
            else:
                t2 = t
        if not t1 > t2:
            all_above = False
            break
    # deterministic case: two cores finish in about one block's time,
    # one core in about the sum
    cfg1 = MachineConfig(cores=1, seed=1)
    cfg2 = MachineConfig(cores=2, seed=1)
    tr1 = Engine(program, cfg1).run()
    tr2 = Engine(program, cfg2).run()
    spans2 = {b: (end - start) for b, _c, start, end in tr2.block_spans}
    clock = cfg2.clock_period_ns
    overhead = 40  # cycles: preload, switches, allocation, drain margins
    two_core_ok = tr2.total_cycles <= max(spans2.values()) + overhead
    one_core_ok = tr1.total_cycles >= sum(spans2.values())
    ok = all_above and two_core_ok and one_core_ok
    _report("4 two-block parallelism", ok,
            f"speedup>1 on all {REPETITIONS} seeds: {all_above}; bias-0 "
            f"two-core {tr2.total_cycles}cy <= max block {max(spans2.values())}"
            f"+{overhead}: {two_core_ok}; one-core {tr1.total_cycles}cy >= "
            f"sum {sum(spans2.values())}: {one_core_ok}")


def test_criterion_5_fast_context_switch():
    overhead_ok = True
    overlap_ok = True
    equal_ok = True
    faster_ok = True
    for outcome in (0.0, 1.0):
        mrce = _run(gen_active_reset_plus_rb(20), bias=outcome)
        branch = _run(gen_active_reset_plus_rb(20, mrce=False), bias=outcome)
        if sorted((e.gate, e.qubits) for e in mrce.events) != \
                sorted((e.gate, e.qubits) for e in branch.events):
            equal_ok = False
        if mrce.total_exec_ns > branch.total_exec_ns:
            faster_ok = False
        meas = next(e for e in mrce.events if e.gate == "MEAS")
        rb = [e.time_ns for e in mrce.events if e.qubits == (1,)]
        if len(rb) != 20 or max(rb) >= meas.time_ns + 450:
            overlap_ok = False
        if outcome == 1.0 and mrce.context_switches != [3]:
            overhead_ok = False
    ok = overhead_ok and overlap_ok and equal_ok and faster_ok
    _report("5 fast context switch", ok,
            f"20 gates before result: {overlap_ok}; switch overhead==3: "
            f"{overhead_ok}; multisets equal both outcomes: {equal_ok}; "
            f"conditional form never slower: {faster_ok}")


def test_criterion_6_ces_decomposition():
    p = gen_feedforward()
    rep = build_report(_run(p, bias=1.0), gate_ns=20)
    five = len(rep.steps) == 5
    early_clean = all(s.cycles_classical == 0 and s.cycles_stall == 0
                      and s.cycles_feedback == 0 for s in rep.steps[:4])
    feedback_present = rep.steps[4].cycles_feedback > 0
    total = all(s.cycles_quantum + s.cycles_classical + s.cycles_stall
                + s.cycles_feedback == s.ces for s in rep.steps)
    cfg = MachineConfig()
    cfg.qpu.outcome_bias = 1.0
    cfg.qpu.meas_pulse_ns = 600
    rep2 = build_report(Engine(p, cfg).run(), gate_ns=20)
    unchanged = [s.cycles_feedback for s in rep.steps] == \
                [s.cycles_feedback for s in rep2.steps]
    ok = five and early_clean and feedback_present and total and unchanged
    _report("6 CES decomposition", ok,
            f"steps={len(rep.steps)} (want 5), steps 1-4 pure quantum: "
            f"{early_clean}, step 5 feedback {rep.steps[4].cycles_feedback}>0, "
            f"buckets total: {total}, pulse-doubling leaves feedback: "
            f"{unchanged}")


def test_criterion_7_timing_semantics():
    p = parse_program("0 H q0\n0 H q1\n1 CNOT q0,q1\n")
    pattern_ok = True
    for width in (1, 8):
        trace = _run(p, width=width)
        hs = sorted(e.time_ns for e in trace.events if e.gate == "H")
        cnot = next(e.time_ns for e in trace.events if e.gate == "CNOT")
        if hs[0] != hs[1] or cnot != hs[0] + 10:
            pattern_ok = False
    equal_ok = True
    for program in [gen_dense(n, 25) for n in (1, 3, 5, 8)]:
        base = None
        for width in (1, 8):
            trace = _run(program, width=width)
            ms = sorted((e.gate, e.qubits, e.scheduled_ns)
                        for e in trace.events)
            if base is None:
                base = ms
            elif ms != base:
                equal_ok = False
    ok = pattern_ok and equal_ok
    _report("7 timing semantics", ok,
            f"parallel pair + one-clock offset at widths 1 and 8: "
            f"{pattern_ok}; scheduled multisets width-invariant on "
            f"control-free programs: {equal_ok}")


def test_criterion_8_determinism_and_capacity():
    from qcpsim.metrics import events_to_csv, program_hash

    p = gen_steane_syndrome()
    outs = []
    for _ in range(2):
        cfg = MachineConfig(cores=4, seed=77)
        cfg.qpu.outcome_bias = 0.2
        trace = Engine(p, cfg).run()
        report = build_report(trace, program_hash(p))
        outs.append((report.to_json(), events_to_csv(trace.events)))
    identical = outs[0] == outs[1]

    lines = [".qubits 1"] + ["0 H q0"] * 65
    lines += [f".block b{i} start={i} end={i} deps=none" for i in range(65)]
    diags = validate_program(parse_program("\n".join(lines) + "\n"))
    rejected = any("capacity exceeded" in d.message for d in diags)
    ok = identical and rejected
    _report("8 determinism and capacity", ok,
            f"repeat runs byte-identical: {identical}; 65-block program "
            f"rejected: {rejected}")
