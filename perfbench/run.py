"""qcpsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload steane_sweep --seed 1 --seconds 25 --trace 0

`--trace 0` times the workload with nothing patched and prints every
end-to-end metric of BENCHMARK.json. `--trace 1` runs fixed passes of the
workload under the span tracer and prints every per-layer metric. The last
line of standard output is the JSON result; lines before it give the sample
counts, the Python version and the CPU count. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 12
# Host time is scaled to a reference host on which calibrate() takes
# REF_CAL_S; a calibration runs after every CAL_EVERY_S of timed ops.
CAL_LOOPS = 100_000
REF_CAL_S = 0.008
CAL_EVERY_S = 0.05
MIN_PASSES = 3
MAX_PASSES = 8


def import_qcpsim():
    """Import qcpsim from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qcpsim" / "__init__.py").is_file():
        sys.exit(f"error: qcpsim sources not found under {src}")
    sys.path.insert(0, str(src))
    import qcpsim
    if Path(qcpsim.__file__).resolve().parent != src / "qcpsim":
        sys.exit(f"error: imported qcpsim from {qcpsim.__file__}")
    return qcpsim


def load_refs(workload: str) -> dict:
    return json.loads((HERE / "refs.json").read_text())["workloads"][workload]


def calibrate() -> float:
    """Seconds this host takes, right now, for a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - start


def setup_once(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    qcpsim and prepared the workload's programs, at reference speed."""
    start = time.perf_counter_ns()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    end_ns, cal = done.stdout.split()[-2:]
    return (int(end_ns) - start) / 1e9 * REF_CAL_S / float(cal)


class Outcomes:
    """Op latencies, failure counts and completed simulated work."""

    def __init__(self, q, workload, refs):
        self.wl = workload
        self.refs = refs
        self.faults = (q.RuntimeFault, q.SimulatorBug, q.ValidationFault)
        self.op_s: list[float] = []
        self.attempted = self.failed = 0

    def timed(self, args):
        """Run and time one op; returns its outcome, or None if it faulted."""
        start = time.perf_counter()
        try:
            outcome = self.wl.op(args)
        except self.faults as exc:
            outcome = None
            print(f"op {args} faulted: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        self.op_s.append(time.perf_counter() - start)
        return outcome

    def record(self, args, outcome, counted=None) -> tuple[int, int]:
        """Check one op against the reference; `counted` is the (runs,
        cycles) the tracer saw, when the op ran traced. Returns the op's
        engine runs and simulated cycles, or zeros if it failed."""
        self.attempted += 1
        ref = self.refs[self.wl.key(args)]
        ok = outcome is not None and self.wl.check(outcome, ref)
        if ok and counted is not None:
            ok = counted == (ref["runs"], ref["cycles"])
        if not ok:
            self.failed += 1
            if outcome is not None:
                print(f"op {args}: output differs from the reference",
                      file=sys.stderr)
            return 0, 0
        return ref["runs"], ref["cycles"]

    def p50_ms(self) -> float:
        return statistics.median(self.op_s) * 1e3


def reference_times(op_s: list[float], cals: list[tuple[int, float]]):
    """Each op's time scaled to the reference host. `cals` holds
    (ops done, seconds) per calibration; an op is scaled by the median of
    the two calibrations before it and the two after it."""
    at = [n for n, _ in cals]
    scaled = []
    for i, t in enumerate(op_s):
        k = bisect.bisect_right(at, i)
        near = [c for _, c in cals[max(0, k - 2):k + 2]]
        scaled.append(t * REF_CAL_S / statistics.median(near))
    return scaled


def run_untraced(q, wl, refs, seed: int, seconds: float):
    out = Outcomes(q, wl, refs)
    ops = wl.round(seed)
    out.record(ops[0], out.timed(ops[0]))   # untimed: lets lazy set-up finish
    out.op_s.clear()
    work, setup = [], []
    cals = [(0, calibrate())]
    busy = since_cal = 0.0
    while busy < seconds:
        for args in ops:
            outcome = out.timed(args)
            busy += out.op_s[-1]
            since_cal += out.op_s[-1]
            work.append(out.record(args, outcome))
            if since_cal >= CAL_EVERY_S:
                cals.append((len(out.op_s), calibrate()))
                since_cal = 0.0
        if len(setup) < min(SETUP_PROBES, SETUP_PROBES * busy / seconds):
            setup.append(setup_once(wl.name))
    cals.append((len(out.op_s), calibrate()))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_once(wl.name))

    # The host's speed swings by up to 2x, in phases of seconds to minutes,
    # and a pure-Python loop slows down with it. So every host time is
    # scaled by how long the calibration loop took next to it: the metrics
    # read as times on a host where calibrate() takes REF_CAL_S.
    #
    # The host also stalls single ops for tens of milliseconds, often for
    # minutes at a time, which the short calibrations miss. Every round does
    # the same work, so the rounds that took longest are the ones stalled
    # most: the third of the rounds with the highest scaled time is dropped.
    op_ref = reference_times(out.op_s, cals)
    b = len(ops)
    rounds = sorted(range(0, len(op_ref), b), key=lambda i: sum(op_ref[i:i + b]))
    kept = [j for i in rounds[:max(1, len(rounds) * 2 // 3)] for j in range(i, i + b)]
    lat = [op_ref[j] for j in kept]
    deciles = statistics.quantiles(lat, n=10)
    runs, cycles = sum(work[j][0] for j in kept), sum(work[j][1] for j in kept)
    metrics = {
        "setup_s": statistics.median(setup),
        "runs_per_s": runs / sum(lat),
        "sim_cycles_per_s": cycles / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(lat)
    cal_s = [c for _, c in cals]
    runs, cycles = sum(r for r, _ in work), sum(c for _, c in work)
    info = {"ops_timed": len(op_ref), "ops_per_round": b, "rounds": len(rounds),
            "ops_kept": n, "ops_beyond_p90": sum(t > deciles[8] for t in lat),
            "busy_s": busy, "engine_runs": runs, "sim_cycles": cycles,
            "calibrations": len(cals), "cal_ms_median": statistics.median(cal_s) * 1e3,
            "cal_ms_min": min(cal_s) * 1e3, "cal_ms_max": max(cal_s) * 1e3,
            "host_runs_per_s": runs / busy, "host_sim_cycles_per_s": cycles / busy,
            "host_op_ms_p50": out.p50_ms(),
            "host_op_ms_p90": statistics.quantiles(out.op_s, n=10)[8] * 1e3,
            "setup_samples_s": setup}
    OUT.mkdir(exist_ok=True)
    (OUT / f"samples-{wl.name}.json").write_text(json.dumps(
        {"ops": [wl.key(a) for a in ops], "op_s": out.op_s, "op_ref_s": op_ref,
         "cals": cals}))
    if n < 100:
        print(f"warning: {n} ops kept, fewer than ten beyond p90",
              file=sys.stderr)
    return out, metrics, info


def run_traced(q, wl_cls, refs, seed: int, seconds: float):
    from tracer import BASE_COUNTS, Tracer

    tracer = Tracer(q)
    wl = wl_cls(q)
    ops = wl.round(seed)
    untraced, traced = Outcomes(q, wl, refs), Outcomes(q, wl, refs)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start < seconds and len(passes) < MAX_PASSES):
        for args in ops:
            untraced.record(args, untraced.timed(args))

        tracer.reset()
        done = []
        with tracer.installed():
            wl_cls(q)   # set-up, traced as run 0
            for i, args in enumerate(ops, 1):
                tracer.run_id = i
                runs, cycles = tracer.engine_runs(), tracer.model["sim_cycles"]
                outcome = traced.timed(args)
                done.append((args, outcome, (tracer.engine_runs() - runs,
                                             tracer.model["sim_cycles"] - cycles)))
        for args, outcome, counted in done:
            traced.record(args, outcome, counted)
        passes.append(tracer.layer_metrics())

    counts = [k for k in passes[0]
              if k.endswith("_calls") or k.startswith("model.") or k in BASE_COUNTS]
    unsteady = [k for k in counts if len({p[k] for p in passes}) > 1]
    for k in unsteady:
        print(f"ERROR: count {k} differs between passes of the same seed: "
              f"{[p[k] for p in passes]}", file=sys.stderr)
    metrics = {k: (statistics.median(p[k] for p in passes) if k.endswith("_ms")
                   else passes[0][k])
               for k in passes[0]}
    metrics["trace.op_ms_p50_untraced"] = untraced.p50_ms()
    metrics["trace.op_ms_p50_traced"] = traced.p50_ms()
    metrics["trace.overhead_ms"] = traced.p50_ms() - untraced.p50_ms()

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl_cls.name}.csv"
    n_spans = tracer.write_spans(spans)
    info = {"passes": len(passes), "ops_per_pass": len(ops),
            "spans_last_pass": n_spans, "spans_file": str(spans.relative_to(ROOT))}
    failed = untraced.failed + traced.failed
    attempted = untraced.attempted + traced.attempted
    return attempted, failed, not unsteady, metrics, info


# kernel-efficiency ratios with the counts they are made of
RATIOS = [
    ("core.calls_per_sim_cycle", "core.run_cycle_calls", "model.sim_cycles"),
    ("engine.visited_cycle_frac", "engine.visited_cycles", "model.sim_cycles"),
    ("sched.tick_useful_frac", "sched.tick_useful", "sched.tick_calls"),
    ("sched.prefetch_hit_frac", "sched.switches", "sched.cold_starts"),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    q = import_qcpsim()
    from workloads import WORKLOADS
    wl_cls = WORKLOADS.get(args.workload)
    if wl_cls is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        wl_cls(q)
        print(time.perf_counter_ns())
        print(statistics.median(calibrate() for _ in range(3)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    refs = load_refs(args.workload)

    if args.trace:
        attempted, failed, deterministic, metrics, info = run_traced(
            q, wl_cls, refs, args.seed, args.seconds)
        for name, *base in RATIOS:
            print(f"{name} = {metrics[name]:.4f} ("
                  + ", ".join(f"{k} = {metrics[k]}" for k in base) + ")")
    else:
        out, metrics, info = run_untraced(q, wl_cls(q), refs, args.seed,
                                          args.seconds)
        attempted, failed, deterministic = out.attempted, out.failed, True

    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        sys.exit(f"error: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                python=platform.python_version(), cpu_count=os.cpu_count())
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=1) + "\n")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
