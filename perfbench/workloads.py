"""The benchmark's workloads: set-up, one timed op, and the op's outputs.

A run repeats one round of ops, drawn from the workload seed, so every
round does the same work. Every op takes its machine seed from 1..POOL, the
seeds whose outputs are recorded in refs.json, so each op can be checked
against the reference. Outputs are compared in a canonical order (events
by time, core and channel; steps by core and scheduled time), so a reorder
across cores alone is not a failure.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import replace

POOL = 32


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_report(report) -> str:
    d = report.to_dict()
    d["steps"] = sorted(d["steps"], key=lambda s: (s["core"], s["scheduled_ns"],
                                                   s["step"]))
    d["violations"] = sorted(d["violations"])
    d["context_switches"] = sorted(d["context_switches"])
    return json.dumps(d, sort_keys=True)


def canonical_events_csv(q, events) -> str:
    ordered = sorted(events, key=lambda e: (e.time_ns, e.core, e.channel,
                                            e.scheduled_ns, e.gate, e.qubits))
    return q.events_to_csv(ordered)


class Workload:
    """Set-up is the constructor; `op(args)` is the timed unit of work."""

    name = ""
    round_size = 1

    def __init__(self, q):
        self.q = q

    def round(self, seed: int) -> list:
        """The op arguments of one round, chosen by the workload seed."""
        rng = random.Random(seed)
        return [(rng.randrange(POOL) + 1,) for _ in range(self.round_size)]

    def pool(self):
        """Every op argument a round can hold."""
        return ((s,) for s in range(1, POOL + 1))

    def key(self, args) -> str:
        return "/".join(str(a) for a in args)

    def op(self, args):
        raise NotImplementedError

    def observe(self, outcome):
        """The outputs compared against the reference, as JSON data."""
        raise NotImplementedError

    def check(self, outcome, ref) -> bool:
        return self.observe(outcome) == ref["out"]


class SteaneSweep(Workload):
    """Acceptance-sweep traffic: one `run_experiment` cell per op."""

    name = "steane_sweep"
    CORES = (1, 2, 4, 6)
    BIASES = (0.05, 0.1, 0.2)
    REPS = 16
    round_size = len(CORES) * len(BIASES)

    def __init__(self, q):
        super().__init__(q)
        self.program = q.gen_steane_syndrome()
        q.engine.PreparedProgram(self.program)

    def round(self, seed):
        rng = random.Random(seed)
        cells = list(itertools.product(self.CORES, self.BIASES))
        rng.shuffle(cells)
        return [(cores, bias, rng.randrange(POOL) + 1) for cores, bias in cells]

    def pool(self):
        return itertools.product(self.CORES, self.BIASES, range(1, POOL + 1))

    def op(self, args):
        cores, bias, seed = args
        q = self.q
        spec = q.ExperimentSpec(self.program, repetitions=self.REPS, bias=bias)
        return q.sweep_cores(spec, q.MachineConfig(seed=seed), [cores])[cores]

    def observe(self, report):
        x = report.extras
        return [x["exec_ns_mean"], x["exec_ns_p10"], x["exec_ns_p50"],
                x["exec_ns_p90"]]


class DenseTrace(Workload):
    """What `qcpsim run --trace` does, on dense layers at widths 1 and 8."""

    name = "dense_trace"
    QUBITS = 8
    STEPS = 300
    WIDTHS = (1, 8)
    round_size = 2

    def __init__(self, q):
        super().__init__(q)
        self.text = q.print_program(q.gen_dense(self.QUBITS, self.STEPS))
        q.engine.PreparedProgram(q.parse_program(self.text))

    def op(self, args):
        q = self.q
        program = q.parse_program(self.text)
        out = []
        for width in self.WIDTHS:
            cfg = q.MachineConfig(superscalar_width=width, seed=args[0])
            diagnostics = q.validate_program(program, cfg.qpu.qubit_count or None)
            if diagnostics:
                raise q.ValidationFault(diagnostics)
            trace = q.Engine(program, cfg).run()
            report = q.build_report(trace, q.program_hash(program))
            report.to_json()
            q.events_to_csv(trace.events)
            q.steps_to_csv(report)
            out.append((trace, report))
        return out

    def observe(self, out):
        return {f"w{w}": {"cycles": trace.total_cycles,
                          "report": _sha(canonical_report(report)),
                          "events": _sha(canonical_events_csv(self.q, trace.events))}
                for w, (trace, report) in zip(self.WIDTHS, out)}

    def check(self, out, ref):
        # the paper's headline: scalar-to-8-way average TR is exactly 8x
        return (out[0][1].avg_tr / out[1][1].avg_tr == 8.0
                and super().check(out, ref))


class Feedback(Workload):
    """Short feedback runs: RUS on 4 cores, then MRCE active reset at width 4.

    One op is one run of each, so op latency has one mode: a single RUS run
    takes about half as long as an active-reset run, and the median of
    single runs would sit in the gap between the two and flip with noise.
    A round runs every machine seed of the pool once, in an order the
    workload seed picks: how long RUS takes depends on the machine seed, so
    every seed's round then does the same work.
    """

    name = "feedback"
    round_size = POOL

    def round(self, seed):
        seeds = [(s,) for s in range(1, POOL + 1)]
        random.Random(seed).shuffle(seeds)
        return seeds

    def __init__(self, q):
        super().__init__(q)
        rus = q.gen_parallel_rus(8)
        rb = q.gen_active_reset_plus_rb(200, mrce=True)
        prepare = q.engine.PreparedProgram
        self.runs = (
            (prepare(rus), q.program_hash(rus),
             q.MachineConfig(cores=4, qpu=q.QpuConfig(outcome_bias=0.3))),
            (prepare(rb), q.program_hash(rb),
             q.MachineConfig(superscalar_width=4,
                             qpu=q.QpuConfig(outcome_bias=0.5))),
        )

    def op(self, args):
        out = []
        for prepared, phash, cfg in self.runs:
            trace = self.q.Engine(prepared, replace(cfg, seed=args[0])).run()
            out.append((trace, self.q.build_report(trace, phash)))
        return out

    def observe(self, out):
        return [{"cycles": trace.total_cycles,
                 "report": _sha(canonical_report(report))}
                for trace, report in out]


WORKLOADS = {w.name: w for w in (SteaneSweep, DenseTrace, Feedback)}
