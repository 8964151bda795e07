"""Benchmark program generators and the experiment runner.

Generators emit assembly text and parse it, so every shipped benchmark also
exercises the assembler path and can be dumped for inspection. Timing labels
are derived from the device durations (in clock cycles) so the default
programs are collision-free on the default device model.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .config import SEED_STRIDE, MachineConfig
from .engine import Engine, PreparedProgram, prepare
from .isa import Program, parse_program
from .metrics import RunReport, build_report
from .qpu import QpuConfig

__all__ = [
    "gen_dense", "gen_feedforward", "gen_parallel_rus", "gen_steane_syndrome",
    "gen_active_reset_plus_rb", "Benchmark", "BENCHMARKS", "make_benchmark",
    "ExperimentSpec", "run_experiment", "compare_runs",
    "sweep_cores", "ideal_speedup",
]

# default device geometry, in clock cycles at the default 10 ns clock
SINGLE_C = 2     # 20 ns single-qubit gate
TWO_C = 4        # 40 ns two-qubit gate
FEEDBACK_C = 45  # 450 ns measure-to-result latency


def _steane_supports() -> list[tuple[str, tuple[int, ...]]]:
    # parity sets of the 7-qubit code; each appears once as an X-type and
    # once as a Z-type stabilizer
    sets = [(3, 4, 5, 6), (1, 2, 5, 6), (0, 2, 4, 6)]
    return [("X", s) for s in sets] + [("Z", s) for s in sets]


# ── generators ──────────────────────────────────────────────────────

def gen_dense(qubits: int, steps: int, step_gap_cycles: int = SINGLE_C) -> Program:
    """Fully parallel single-qubit layers: `steps` timing points, each with
    `qubits` simultaneous gates, spaced one gate time apart."""
    if qubits < 1 or steps < 1:
        raise ValueError("qubits and steps must be >= 1")
    lines = [f".qubits {qubits}"]
    for s in range(steps):
        lead = 0 if s == 0 else step_gap_cycles
        lines.append(f"{lead} H q0")
        for q in range(1, qubits):
            lines.append(f"0 H q{q}")
    return parse_program("\n".join(lines) + "\n")


def gen_feedforward() -> Program:
    """Five-step entangle-and-correct circuit: four plain quantum steps, a
    measurement, then one gate conditioned on the outcome (applied on 1)."""
    lines = [
        ".qubits 2",
        "0 H q0",
        "0 H q1",
        f"{SINGLE_C} CZ q0, q1",
        f"{TWO_C} H q1",
        f"{SINGLE_C} MEAS q0 -> r0",
        "FMR r1, r0",
        "LDI r2, 1",
        "CMP r1, r2",
        "BR.ne done",
        f"{FEEDBACK_C + SINGLE_C} X q1",
        "done:",
        "END",
    ]
    return parse_program("\n".join(lines) + "\n")


def gen_active_reset_plus_rb(length: int, mrce: bool = True) -> Program:
    """Active reset of q0 interleaved with `length` independent gates on q1.

    With `mrce` the reset is a single conditional-execution instruction; the
    reference variant spells it out as a read-and-branch sequence, which
    serializes the whole stream behind the readout latency.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    lines = [".qubits 2", "0 MEAS q0 -> r0"]
    if mrce:
        lines.append("MRCE r0, q0, NOP, X")
    else:
        lines += [
            "FMR r1, r0",
            "LDI r2, 1",
            "CMP r1, r2",
            "BR.ne run_rb",
            f"{FEEDBACK_C} X q0",
            "run_rb:",
        ]
    for k in range(length):
        lines.append(f"{SINGLE_C} H q1")
    return parse_program("\n".join(lines) + "\n")


def gen_parallel_rus(n_subcircuits: int, failure_bias: float = 0.1) -> Program:
    """Independent repeat-until-success sub-circuits, one block each.

    Every block entangles two data qubits with an ancilla, measures the
    ancilla, and on failure (outcome 1, drawn with probability
    `failure_bias` by the device model) corrects, resets, and branches back.
    """
    if n_subcircuits < 1:
        raise ValueError("need at least one sub-circuit")
    if not 0.0 <= failure_bias < 1.0:
        raise ValueError("failure bias must be in [0, 1)")
    lines = [f".qubits {3 * n_subcircuits}"]
    blocks = []
    pc = 0
    for i in range(n_subcircuits):
        d0, d1, a = 3 * i, 3 * i + 1, 3 * i + 2
        start = pc
        body = [
            f"0 H q{d0}",
            f"0 H q{d1}",
            f"loop{i}:",
            f"{SINGLE_C} CZ q{d0}, q{a}",
            f"{TWO_C} CZ q{d1}, q{a}",
            f"{TWO_C} H q{a}",
            f"{SINGLE_C} MEAS q{a} -> r{i}",
            f"FMR r1, r{i}",
            "LDI r2, 1",
            "CMP r1, r2",
            f"BR.ne done{i}",
            f"{FEEDBACK_C} X q{a}",
            f"0 X q{d0}",
            f"0 X q{d1}",
            f"JMP loop{i}",
            f"done{i}:",
            "END",
        ]
        lines += body
        pc += sum(1 for ln in body if not ln.endswith(":"))
        blocks.append((f"W{i + 1}", start, pc - 1))
    for name, s, e in blocks:
        lines.append(f".block {name} start={s} end={e} deps=none")
    return parse_program("\n".join(lines) + "\n")


def gen_steane_syndrome(cfg: MachineConfig | None = None,
                        rounds: int = 3) -> Program:
    """Shor-style syndrome measurement for the 7-qubit code.

    37 qubits: a 7-qubit data block plus, per stabilizer, a 4-qubit cat
    state and one verification ancilla. Each round prepares and verifies the
    six cat states in parallel (repeat-until-verified), couples them
    bit-wise to the data block, measures them, and folds each syndrome bit
    into a shared accumulator; after the last round a classical block takes
    the majority vote. Blocks carry priorities: verifications share a level,
    couplings are serialized (they touch overlapping data qubits), and
    extractions share a level again.
    """
    qpu = cfg.qpu if cfg is not None else QpuConfig()
    clock = qpu.clock_period_ns
    single_c = -(-qpu.single_gate_ns // clock)
    two_c = -(-qpu.two_gate_ns // clock)
    feedback_c = -(-(qpu.meas_pulse_ns + qpu.daq_ns) // clock)
    stabs = _steane_supports()
    lines = [".qubits 37"]
    blocks: list[tuple[str, int, int, int]] = []  # name, start, end, priority
    pc = 0
    prio = 0

    def emit(block_name: str, body: list[str], priority: int) -> None:
        nonlocal pc
        start = pc
        lines.extend(body)
        pc += sum(1 for ln in body if not ln.endswith(":"))
        blocks.append((block_name, start, pc - 1, priority))

    for r in range(rounds):
        # cat preparation + verification, all six in parallel
        for s in range(6):
            c = [7 + 5 * s + k for k in range(4)]
            v = 7 + 5 * s + 4
            body = [
                "LDI r2, 1",
                f"prep{r}_{s}:",
                f"{single_c} H q{c[0]}",
                f"{single_c} CNOT q{c[0]}, q{c[1]}",
                f"{two_c} CNOT q{c[0]}, q{c[2]}",
                f"0 CNOT q{c[1]}, q{c[3]}",
                # parity check across the fan-out ends, repeated until 0
                f"{two_c} CNOT q{c[0]}, q{v}",
                f"{two_c} CNOT q{c[3]}, q{v}",
                f"{two_c} MEAS q{v} -> r{s}",
                f"FMR r1, r{s}",
                "CMP r1, r2",
                f"BR.ne prepok{r}_{s}",
                f"{feedback_c} X q{c[0]}",
                f"0 X q{c[1]}",
                f"0 X q{c[2]}",
                f"0 X q{c[3]}",
                f"0 X q{v}",
                f"JMP prep{r}_{s}",
                f"prepok{r}_{s}:",
                "END",
            ]
            emit(f"prep_r{r}s{s}", body, prio)
        prio += 1

        # bit-wise coupling to the data block; every pair of stabilizer
        # supports overlaps, so couplings are serialized, three to a block,
        # and the two coupling blocks sit on consecutive levels
        for half in range(2):
            body = []
            first = True
            for s in range(3 * half, 3 * half + 3):
                kind, support = stabs[s]
                c = [7 + 5 * s + k for k in range(4)]
                gate = "CNOT" if kind == "X" else "CZ"
                for k, dq in enumerate(support):
                    lead = two_c if k == 0 and not first else 0
                    body.append(f"{lead} {gate} q{c[k]}, q{dq}")
                    first = False
                for k in range(4):
                    lead = two_c if k == 0 else 0
                    body.append(f"{lead} H q{c[k]}")
                for k in range(4):
                    lead = single_c if k == 0 else 0
                    body.append(f"{lead} MEAS q{c[k]} -> r{6 + 4 * s + k}")
            body.append("END")
            emit(f"couple_r{r}h{half}", body, prio)
            prio += 1

        # syndrome extraction into the shared accumulators, parallel again
        for half in range(2):
            body = []
            for s in range(3 * half, 3 * half + 3):
                regs = [6 + 4 * s + k for k in range(4)]
                body += [
                    f"FMR r1, r{regs[0]}",
                    f"FMR r2, r{regs[1]}",
                    f"FMR r3, r{regs[2]}",
                    f"FMR r4, r{regs[3]}",
                    "ADD r5, r1, r2",
                    "ADD r6, r3, r4",
                    "ADD r7, r5, r6",
                    "LDI r9, 1",
                    "AND r8, r7, r9",
                    f"ADD r{24 + s}, r{24 + s}, r8",
                ]
            body.append("END")
            emit(f"extract_r{r}h{half}", body, prio)
        prio += 1

    # majority vote over the three rounds of each stabilizer
    vote = ["LDI r2, 2", "LDI r4, 1", "LDI r3, 0"]
    for s in range(6):
        vote += [
            f"MOV r1, r{24 + s}",
            "CMP r1, r2",
            f"BR.lt novote{s}",
            "ADD r3, r3, r4",
            f"novote{s}:",
        ]
    vote.append("END")
    emit("vote", vote, prio)

    for name, s, e, p in blocks:
        lines.append(f".block {name} start={s} end={e} prio={p}")
    return parse_program("\n".join(lines) + "\n")


# ── experiment plumbing ─────────────────────────────────────────────

@dataclass
class Benchmark:
    name: str
    program: Program
    bias: float = 0.0
    gate_ns: int = 20


def make_benchmark(name: str, **params) -> Benchmark:
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; "
                         f"choose from {sorted(BENCHMARKS)}")
    factory = BENCHMARKS[name]
    accepted = inspect.signature(factory).parameters
    for key in params:
        if key not in accepted:
            raise ValueError(f"benchmark {name!r} takes no parameter {key!r}; "
                             f"it takes {', '.join(accepted)}")
    return factory(**params)


BENCHMARKS = {
    "dense": lambda qubits=8, steps=100:
        Benchmark(f"dense{qubits}x{steps}", gen_dense(qubits, steps)),
    "feedforward": lambda bias=1.0:
        Benchmark("feedforward", gen_feedforward(), bias=bias),
    "parallel_rus": lambda n=2, bias=0.1:
        Benchmark(f"parallel_rus{n}", gen_parallel_rus(n, bias), bias=bias),
    "active_reset_rb": lambda length=20, bias=1.0, mrce=True:
        Benchmark(f"active_reset_rb{length}",
                  gen_active_reset_plus_rb(length, mrce=mrce), bias=bias),
    "steane": lambda bias=0.1, rounds=3:
        Benchmark("steane", gen_steane_syndrome(rounds=rounds), bias=bias),
}


@dataclass
class ExperimentSpec:
    """What to run. `bias` replaces the configuration's
    `qpu.outcome_bias`; `None` keeps each configuration's own."""

    program: Program | PreparedProgram
    repetitions: int = 1
    bias: float | dict | None = 0.0
    gate_ns: int = 20

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def _config_for(spec: ExperimentSpec, config: MachineConfig,
                seed: int, steps: bool) -> MachineConfig:
    # a report reads the step records, never the issue events
    qpu = config.qpu
    if spec.bias is not None:
        qpu = replace(qpu, outcome_bias=spec.bias)
    return replace(config, qpu=qpu, seed=seed, collect_events=False,
                   collect_steps=steps)


def run_experiment(spec: ExperimentSpec, config: MachineConfig) -> RunReport:
    """Run one program under one configuration, repeated over a seed stride.

    The report carries the first repetition's full step breakdown; with more
    than one repetition the execution-time distribution is summarized in
    `extras`. A `PreparedProgram` in the spec is used as it is.
    """
    prepared = prepare(spec.program, config)
    phash = prepared.program_hash
    first_cfg = _config_for(spec, config, config.seed, steps=True)
    trace = Engine(prepared, first_cfg).run()
    report = build_report(trace, phash, spec.gate_ns)
    if spec.repetitions > 1:
        times = np.empty(spec.repetitions, dtype=np.int64)
        times[0] = trace.total_exec_ns
        for rep in range(1, spec.repetitions):
            seed = config.seed + rep * SEED_STRIDE
            cfg = _config_for(spec, config, seed, steps=False)
            times[rep] = Engine(prepared, cfg).run().total_exec_ns
        report.extras["repetitions"] = spec.repetitions
        report.extras["exec_ns_mean"] = float(times.mean())
        report.extras["exec_ns_p10"] = float(np.percentile(times, 10))
        report.extras["exec_ns_p50"] = float(np.percentile(times, 50))
        report.extras["exec_ns_p90"] = float(np.percentile(times, 90))
    else:
        report.extras["repetitions"] = 1
        report.extras["exec_ns_mean"] = float(trace.total_exec_ns)
    return report


def compare_runs(spec: ExperimentSpec, base: MachineConfig,
                 variant: MachineConfig) -> tuple[RunReport, RunReport]:
    base_report = run_experiment(spec, base)
    var_report = run_experiment(spec, variant)
    ratio = (base_report.extras["exec_ns_mean"]
             / var_report.extras["exec_ns_mean"])
    var_report.speedup_vs_base = ratio
    var_report.extras["avg_tr_ratio"] = (
        base_report.avg_tr / var_report.avg_tr if var_report.avg_tr else 0.0)
    return base_report, var_report


def mean_exec_ns(spec: ExperimentSpec, config: MachineConfig) -> float:
    return run_experiment(spec, config).extras["exec_ns_mean"]


def sweep_cores(spec: ExperimentSpec, config: MachineConfig,
                core_counts: list[int]) -> dict[int, RunReport]:
    # every core count shares `config.qpu`, so one preparation serves all
    spec = replace(spec, program=prepare(spec.program, config))
    out = {}
    for n in core_counts:
        out[n] = run_experiment(spec, replace(config, cores=n))
    return out


def ideal_speedup(spec: ExperimentSpec, config: MachineConfig,
                  cores: int, base_ns: float | None = None) -> float:
    """Observed single-core time against a zero-cost-scheduling run at the
    target core count; actual speedup can never exceed this bound.

    `base_ns` is the single-core mean execution time when the caller has
    already measured it; otherwise it is measured here.
    """
    base = base_ns
    if base is None:
        base = mean_exec_ns(spec, replace(config, cores=1))
    ideal = mean_exec_ns(
        spec, replace(config.zero_cost_scheduling(), cores=cores))
    return base / ideal
