"""In-memory span tracer over the public functions of qcpsim's modules.

`Tracer.installed()` replaces each traced function at every name where
qcpsim's modules (and the package itself) bind it, and each traced method at
class level, since `Core`, `Scheduler` and `QpuState` use `__slots__`. Leaving
the block restores the originals. Spans are kept as parallel arrays of
(name, start, end, parent, run id); self time is a span's duration minus the
durations of its direct children, accumulated as spans close.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

# module, attribute path, span name; span names become metric prefixes
TRACED = [
    ("isa", "parse_program", "isa.parse"),
    ("isa", "validate_program", "isa.validate"),
    ("isa", "encode_program", "isa.encode"),
    ("blocks", "build_table", "blocks.build_table"),
    ("core", "decode_for_execution", "core.decode"),
    ("engine", "PreparedProgram.__init__", "engine.prepare"),
    ("engine", "Engine.__init__", "engine.init"),
    ("engine", "Engine.run", "engine.run"),
    ("core", "Core.run_cycle", "core.run_cycle"),
    ("sched", "Scheduler.tick", "sched.tick"),
    ("sched", "Scheduler.notify_done", "sched.notify_done"),
    ("qpu", "QpuState.accept_issue", "qpu.accept"),
    ("qpu", "QpuState.measurement_result", "qpu.meas"),
    ("metrics", "build_report", "metrics.build_report"),
    ("metrics", "RunReport.to_json", "metrics.to_json"),
    ("metrics", "events_to_csv", "metrics.events_csv"),
    ("metrics", "steps_to_csv", "metrics.steps_csv"),
    ("metrics", "program_hash", "metrics.program_hash"),
    ("bench", "gen_dense", "bench.gen"),
    ("bench", "gen_active_reset_plus_rb", "bench.gen"),
    ("bench", "gen_parallel_rus", "bench.gen"),
    ("bench", "gen_steane_syndrome", "bench.gen"),
    ("bench", "run_experiment", "bench.run_experiment"),
]

# simulated quantities summed over every Engine.run of a pass
MODEL_COUNTS = ("sim_cycles", "issue_count", "result_wait_cycles",
                "drain_cycles", "context_switches", "violations",
                "collisions")

# counts taken from arguments and return values of traced calls
BASE_COUNTS = ("engine.visited_cycles", "sched.tick_useful", "sched.switches",
               "sched.cold_starts")


class Tracer:
    def __init__(self, qcpsim):
        self.q = qcpsim
        self.names = sorted({span for _, _, span in TRACED})
        self._index = {n: i for i, n in enumerate(self.names)}
        self.reset()

    def reset(self) -> None:
        """Drop all spans and counters; the next pass starts from zero."""
        self.s_name = array("h")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("l")
        self.s_run = array("l")
        self._stack: list[int] = []
        self._child: list[int] = []
        self.run_id = 0
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.model = dict.fromkeys(MODEL_COUNTS, 0)
        self.base = dict.fromkeys(BASE_COUNTS, 0)
        self._visited: set[int] = set()

    # ── patching ───────────────────────────────────────────────────

    @contextmanager
    def installed(self):
        restore = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qcpsim" or name.startswith("qcpsim.")]
        try:
            for mod_name, path, span in TRACED:
                owner = getattr(self.q, mod_name)
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, span, path))
                    restore.append((cls, meth, orig))
                    continue
                orig = getattr(owner, path)
                wrapper = self._wrap(orig, span, path)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, orig))
            yield self
        finally:
            for target, attr, orig in reversed(restore):
                setattr(target, attr, orig)

    def _wrap(self, fn, span: str, path: str):
        idx = self._index[span]
        before = after = None
        if path == "Engine.run":
            before, after = self._engine_run_before, self._engine_run_after
        elif path == "Core.run_cycle":
            before = self._run_cycle_before
        elif path == "Scheduler.tick":
            before, after = self._tick_before, self._tick_after

        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack, child = self._stack, self._child
            sid = len(self.s_name)
            self.s_name.append(idx)
            self.s_parent.append(stack[-1] if stack else -1)
            self.s_run.append(self.run_id)
            self.s_end.append(0)
            stack.append(sid)
            child.append(0)
            start = clock()
            self.s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.s_end[sid] = end
                stack.pop()
                dur = end - start
                self.self_ns[idx] += dur - child.pop()
                self.calls[idx] += 1
                if child:
                    child[-1] += dur
            if after is not None:
                after(args, token, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ── counters read from traced calls ────────────────────────────

    def _engine_run_before(self, args):
        self._visited = set()

    def _engine_run_after(self, args, token, trace):
        m = self.model
        m["sim_cycles"] += trace.total_cycles
        m["issue_count"] += trace.issue_count
        m["result_wait_cycles"] += trace.result_wait_cycles
        m["drain_cycles"] += trace.drain_cycles
        m["context_switches"] += len(trace.context_switches)
        m["violations"] += len(trace.violations)
        m["collisions"] += len(trace.collisions)
        b = self.base
        b["engine.visited_cycles"] += len(self._visited)
        for e in trace.scheduler_events:
            if e.action == "switch":
                b["sched.switches"] += 1
            elif e.action == "start":
                b["sched.cold_starts"] += 1

    def _run_cycle_before(self, args):
        self._visited.add(args[1])

    def _tick_before(self, args):
        sched = args[0]
        self._visited.add(args[1])
        return len(sched.events), sched.transfer

    def _tick_after(self, args, token, result):
        sched = args[0]
        n_events, transfer = token
        if len(sched.events) != n_events or (
                sched.transfer is not None and sched.transfer is not transfer):
            self.base["sched.tick_useful"] += 1

    # ── results ────────────────────────────────────────────────────

    def engine_runs(self) -> int:
        return self.calls[self._index["engine.run"]]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        calls = dict(zip(self.names, self.calls))
        ms = {n: ns / 1e6 for n, ns in zip(self.names, self.self_ns)}
        model, base = self.model, self.base

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "isa.parse_ms": ms["isa.parse"],
            "isa.parse_calls": calls["isa.parse"],
            "isa.validate_ms": ms["isa.validate"],
            "isa.validate_calls": calls["isa.validate"],
            "isa.encode_ms": ms["isa.encode"],
            "blocks.build_table_ms": ms["blocks.build_table"],
            "blocks.build_table_calls": calls["blocks.build_table"],
            "core.decode_ms": ms["core.decode"],
            "engine.prepare_ms": ms["engine.prepare"],
            "engine.init_ms": ratio(ms["engine.init"], calls["engine.init"]),
            "engine.run_calls": calls["engine.run"],
            "engine.run_self_ms": ms["engine.run"],
            "engine.visited_cycle_frac": ratio(base["engine.visited_cycles"],
                                               model["sim_cycles"]),
            "core.run_cycle_calls": calls["core.run_cycle"],
            "core.run_cycle_self_ms": ms["core.run_cycle"],
            "core.calls_per_sim_cycle": ratio(calls["core.run_cycle"],
                                              model["sim_cycles"]),
            "sched.tick_calls": calls["sched.tick"],
            "sched.tick_ms": ms["sched.tick"],
            "sched.tick_useful_frac": ratio(base["sched.tick_useful"],
                                            calls["sched.tick"]),
            "sched.notify_done_ms": ms["sched.notify_done"],
            "sched.prefetch_hit_frac": ratio(
                base["sched.switches"],
                base["sched.switches"] + base["sched.cold_starts"]),
            "qpu.accept_calls": calls["qpu.accept"],
            "qpu.accept_ms": ms["qpu.accept"],
            "qpu.meas_calls": calls["qpu.meas"],
            "qpu.meas_ms": ms["qpu.meas"],
            "metrics.build_report_ms": ms["metrics.build_report"],
            "metrics.to_json_ms": ms["metrics.to_json"],
            "metrics.events_csv_ms": ms["metrics.events_csv"],
            "metrics.steps_csv_ms": ms["metrics.steps_csv"],
            "metrics.program_hash_ms": ms["metrics.program_hash"],
            "bench.gen_ms": ms["bench.gen"],
            "bench.run_experiment_self_ms": ms["bench.run_experiment"],
        }
        out.update(base)
        out.update({f"model.{k}": v for k, v in model.items()})
        return out

    def write_spans(self, path) -> int:
        """Write the spans as CSV, one per line; returns how many."""
        with open(path, "w") as f:
            f.write("span,name,start_ns,end_ns,parent,run\n")
            for i in range(len(self.s_name)):
                f.write(f"{i},{self.names[self.s_name[i]]},{self.s_start[i]},"
                        f"{self.s_end[i]},{self.s_parent[i]},{self.s_run[i]}\n")
        return len(self.s_name)
