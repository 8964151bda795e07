"""Benchmark generators, the experiment runner, and the command line."""

import json
import os
import subprocess
import sys

import pytest

import qcpsim
from qcpsim.bench import (BENCHMARKS, ExperimentSpec, compare_runs,
                          gen_active_reset_plus_rb, gen_dense, gen_feedforward,
                          gen_parallel_rus, gen_steane_syndrome, ideal_speedup,
                          make_benchmark, run_experiment)
from qcpsim.config import MachineConfig
from qcpsim.engine import Engine
from qcpsim.isa import ClassicalOp, Gate, Kind, print_program, validate_program


def test_all_generated_programs_validate():
    programs = [gen_dense(8, 10), gen_feedforward(), gen_parallel_rus(2),
                gen_parallel_rus(4), gen_active_reset_plus_rb(20),
                gen_active_reset_plus_rb(20, mrce=False), gen_steane_syndrome()]
    for p in programs:
        assert validate_program(p) == [], print_program(p)[:400]


def test_dense_structure():
    p = gen_dense(3, 4)
    assert len(p.instructions) == 12
    labels = [i.timing_label for i in p.instructions]
    assert labels == [0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0]
    assert p.qubit_count == 3


def test_parallel_rus_structure():
    p = gen_parallel_rus(2)
    assert len(p.block_directives) == 2
    qubits_per_block = []
    for d in p.block_directives:
        qs = set()
        for ins in p.instructions[d.pc_start:d.pc_end + 1]:
            qs.update(ins.qubits)
        qubits_per_block.append(qs)
    assert qubits_per_block[0] == {0, 1, 2}
    assert qubits_per_block[1] == {3, 4, 5}
    assert qubits_per_block[0].isdisjoint(qubits_per_block[1])
    branches = sum(1 for i in p.instructions if i.is_classical
                   and i.classical_op in (ClassicalOp.BR, ClassicalOp.JMP))
    assert branches == 2 * 2


def test_parallel_rus_serializes_on_one_core():
    p = gen_parallel_rus(2)
    cfg = MachineConfig(cores=1)
    trace = Engine(p, cfg).run()
    first_w2 = min(e.time_ns for e in trace.events if 3 in e.qubits)
    last_w1 = max(e.time_ns for e in trace.events
                  if e.qubits and max(e.qubits) <= 2)
    assert first_w2 > last_w1


def test_steane_structure():
    p = gen_steane_syndrome()
    assert p.qubit_count == 37
    used = set()
    for ins in p.instructions:
        used.update(ins.qubits)
    assert used == set(range(37))
    prios = [d.priority for d in p.block_directives]
    levels = sorted(set(prios))
    # six parallel verification blocks on the first level of each round
    assert prios.count(0) == 6
    assert 20 <= len(p.block_directives) <= 64
    assert 8 <= len(levels) <= 30
    meas = sum(1 for i in p.instructions
               if i.is_quantum and i.gate == Gate.MEAS)
    # per round: 6 verifications (at least) plus 24 cat readouts
    assert meas >= 3 * 30


def test_steane_reports_instruction_mix():
    p = gen_steane_syndrome()
    nq = sum(1 for i in p.instructions if i.is_quantum)
    nc = len(p.instructions) - nq
    assert nq > 0 and nc > 0
    # complex classical control is present, as the benchmark requires
    assert nc >= len(p.instructions) // 4


def test_steane_bias_zero_deterministic_lower_bound():
    p = gen_steane_syndrome()
    cfg = MachineConfig(cores=6, collect_events=False, collect_steps=False)
    times = set()
    for seed in (1, 7, 123):
        cfg2 = MachineConfig(cores=6, seed=seed, collect_events=False,
                             collect_steps=False)
        times.add(Engine(p, cfg2).run().total_exec_ns)
    assert len(times) == 1  # no retries, no randomness in the timeline


def test_active_reset_rb_structure():
    p = gen_active_reset_plus_rb(5)
    kinds = [i.kind for i in p.instructions]
    assert kinds[0] == Kind.QUANTUM
    assert kinds[1] == Kind.MRCE
    assert kinds.count(Kind.QUANTUM) == 6  # measurement plus five gates


def test_run_experiment_deterministic_json():
    spec = ExperimentSpec(gen_feedforward(), repetitions=3, bias=1.0)
    cfg = MachineConfig()
    a = run_experiment(spec, cfg).to_json()
    b = run_experiment(spec, cfg).to_json()
    assert a == b


def test_repetitions_vary_outcomes():
    spec = ExperimentSpec(gen_parallel_rus(2), repetitions=40, bias=0.4)
    rep = run_experiment(spec, MachineConfig(collect_events=False))
    assert rep.extras["exec_ns_p90"] > rep.extras["exec_ns_p10"]


def test_compare_runs_fills_speedup():
    spec = ExperimentSpec(gen_parallel_rus(2), repetitions=5, bias=0.1)
    base = MachineConfig(cores=1)
    variant = MachineConfig(cores=2)
    b, v = compare_runs(spec, base, variant)
    assert v.speedup_vs_base is not None
    assert v.speedup_vs_base > 1.0


def test_ideal_speedup_bounds_actual():
    spec = ExperimentSpec(gen_parallel_rus(2), repetitions=20, bias=0.1)
    cfg = MachineConfig(collect_events=False, collect_steps=False)
    from dataclasses import replace
    base = run_experiment(spec, replace(cfg, cores=1))
    two = run_experiment(spec, replace(cfg, cores=2))
    actual = base.extras["exec_ns_mean"] / two.extras["exec_ns_mean"]
    ideal = ideal_speedup(spec, cfg, 2)
    assert actual <= ideal


def test_make_benchmark_registry():
    for name in BENCHMARKS:
        bench = make_benchmark(name)
        assert bench.program.instructions
    with pytest.raises(ValueError):
        make_benchmark("nope")


def test_unknown_benchmark_parameter_is_refused():
    assert make_benchmark("dense", qubits=4, steps=2).name == "dense4x2"
    with pytest.raises(ValueError, match="'qubit'.*qubits, steps"):
        make_benchmark("dense", qubit=4, steps=2)
    with pytest.raises(ValueError, match="'bias'"):
        make_benchmark("dense", bias=0.1)
    r = _cli("bench", "dense", "qubit=4", "steps=2")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("error:") and "'qubit'" in r.stderr
    r = _cli("bench", "dense", "--bias", "0.1")
    assert r.returncode == 1 and "'bias'" in r.stderr


def test_rus_terminates_at_half_bias():
    p = gen_parallel_rus(1, failure_bias=0.5)
    for seed in range(1, 30):
        cfg = MachineConfig(seed=seed, collect_events=False)
        cfg.qpu.outcome_bias = 0.5
        Engine(p, cfg).run()  # the deadlock watchdog would fault on a hang


def test_collision_free_benchmarks_default_config():
    cases = [(gen_dense(8, 10), 0.0), (gen_feedforward(), 1.0),
             (gen_parallel_rus(2), 0.3), (gen_active_reset_plus_rb(20), 1.0),
             (gen_steane_syndrome(), 0.2)]
    for p, bias in cases:
        for cores in (1, 2):
            cfg = MachineConfig(cores=cores, seed=11)
            cfg.qpu.outcome_bias = bias
            trace = Engine(p, cfg).run()
            assert trace.collisions == [], (bias, cores)


# ── command line ────────────────────────────────────────────────────

def _cli(*args):
    # the child imports qcpsim from where this process did, whether that is
    # an install or a source tree on pytest's own path
    src = os.path.dirname(os.path.dirname(qcpsim.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "qcpsim.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_assemble_run_roundtrip(tmp_path):
    asm = tmp_path / "prog.qasm"
    asm.write_text("0 H q0\n0 H q1\n1 CNOT q0,q1\n")
    binary = tmp_path / "prog.bin"
    r = _cli("assemble", str(asm), "-o", str(binary))
    assert r.returncode == 0, r.stderr
    assert binary.read_bytes()[:8] == b"QAPE0001"
    trace_csv = tmp_path / "trace.csv"
    r = _cli("run", str(binary), "--trace", str(trace_csv))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["issue_count"] == 4  # H, H, and one event per CNOT qubit
    assert trace_csv.read_text().startswith("time_ns,gate,qubits")


def test_cli_run_is_byte_identical(tmp_path):
    asm = tmp_path / "prog.qasm"
    asm.write_text("0 H q0\n2 MEAS q0 -> r0\n")
    a = _cli("run", str(asm))
    b = _cli("run", str(asm))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_validation_failure_exit_code(tmp_path):
    asm = tmp_path / "bad.qasm"
    asm.write_text("FMR r1, r5\n0 H q0\n")
    r = _cli("run", str(asm))
    assert r.returncode == 1
    assert "never produced" in r.stderr


def test_cli_runtime_fault_exit_code(tmp_path):
    asm = tmp_path / "hang.qasm"
    asm.write_text("FMR r1, r0\n0 MEAS q0 -> r0\n")
    cfgf = tmp_path / "cfg.json"
    cfg = MachineConfig(deadlock_timeout_cycles=500)
    cfgf.write_text(cfg.to_json())
    r = _cli("run", str(asm), "--config", str(cfgf))
    assert r.returncode == 2
    assert "deadlock" in r.stderr


def test_cli_bench_sweep(tmp_path):
    r = _cli("bench", "parallel_rus", "n=2", "--cores", "1,2",
             "--seeds", "5", "--bias", "0.1")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert set(data["cells"]) == {"1", "2"}
    assert data["cells"]["2"]["speedup"] > 1.0


def test_cli_compare(tmp_path):
    asm = tmp_path / "prog.qasm"
    asm.write_text(print_program(gen_dense(8, 10)))
    base = tmp_path / "base.json"
    variant = tmp_path / "wide.json"
    base.write_text(MachineConfig(superscalar_width=1).to_json())
    variant.write_text(MachineConfig(superscalar_width=8).to_json())
    r = _cli("compare", str(asm), "--base", str(base), "--variant", str(variant))
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["avg_tr_ratio"] == 8.0
    assert data["speedup"] >= 1.0


def test_cli_compare_uses_each_configs_bias(tmp_path):
    asm = tmp_path / "prog.qasm"
    asm.write_text(print_program(gen_parallel_rus(2)))
    base = tmp_path / "base.json"
    variant = tmp_path / "var.json"
    base.write_text("{}")
    variant.write_text('{"qpu": {"outcome_bias": 0.9}}')
    r = _cli("compare", str(asm), "--base", str(base), "--variant", str(variant),
             "--seeds", "4")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["base"]["config"]["qpu"]["outcome_bias"] == 0.0
    assert data["variant"]["config"]["qpu"]["outcome_bias"] == 0.9
    # the variant's measurements are those of its own config run alone
    spec = ExperimentSpec(gen_parallel_rus(2), repetitions=4, bias=0.9)
    alone = run_experiment(spec, MachineConfig.from_json(variant.read_text()))
    assert data["variant"]["extras"]["exec_ns_mean"] == \
        alone.extras["exec_ns_mean"]
    # with equal biases both sides run under that bias, as before
    r = _cli("compare", str(asm), "--base", str(variant), "--variant",
             str(variant), "--seeds", "4")
    data = json.loads(r.stdout)
    cfg = MachineConfig.from_json(variant.read_text())
    base_rep, var_rep = compare_runs(spec, cfg, cfg)
    assert data["base"] == base_rep.to_dict()
    assert data["variant"] == var_rep.to_dict()


def test_cli_help_lists_subcommands():
    r = _cli("--help")
    assert r.returncode == 0
    for sub in ("assemble", "run", "bench", "compare"):
        assert sub in r.stdout


def test_single_rus_bias_zero_runs_once():
    p = gen_parallel_rus(1)
    cfg = MachineConfig()   # bias 0: success on the first try
    trace = Engine(p, cfg).run()
    assert sum(1 for e in trace.events if e.gate == "MEAS") == 1
    assert not any(e.gate == "X" for e in trace.events)


def _count_engine_runs(monkeypatch) -> list:
    runs = []
    orig = Engine.run

    def counting(self):
        runs.append(self.config.cores)
        return orig(self)

    monkeypatch.setattr(Engine, "run", counting)
    return runs


@pytest.mark.parametrize("cores, expected_runs", [
    ("1,2,4,6", 80),    # 40 for the sweep, one ideal run set per core count
    ("2,4", 50),        # no 1-core cell: the baseline is measured once
])
def test_cli_bench_ideal_reuses_one_core_baseline(monkeypatch, capsys, cores,
                                                  expected_runs):
    from dataclasses import replace

    from qcpsim import cli
    runs = _count_engine_runs(monkeypatch)
    argv = ["bench", "parallel_rus", "n=2", "--cores", cores, "--seeds", "10",
            "--ideal"]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(runs) == expected_runs
    cells = json.loads(capsys.readouterr().out)["cells"]
    bench = make_benchmark("parallel_rus", n=2)
    spec = ExperimentSpec(bench.program, repetitions=10, bias=bench.bias,
                          gate_ns=bench.gate_ns)
    config = replace(MachineConfig(), superscalar_width=1)
    for n in cores.split(","):
        # the same value as measuring the baseline afresh for every cell
        assert cells[n]["ideal_speedup"] == ideal_speedup(spec, config, int(n))
