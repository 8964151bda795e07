"""Command-line front end: assemble, run, bench, compare."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (BENCHMARKS, ExperimentSpec, compare_runs, make_benchmark,
                    mean_exec_ns, sweep_cores, ideal_speedup)
from .config import ConfigError, MachineConfig
from .engine import Engine, RuntimeFault, ValidationFault, prepare
from .isa import (ParseError, decode_program, encode_program, parse_program,
                  validate_program)
from .metrics import build_report, events_to_csv, program_hash
from .sched import SimulatorBug

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load_config(path: str | None) -> MachineConfig:
    if path is None:
        return MachineConfig()
    return MachineConfig.from_json(Path(path).read_text())


def _load_program(path: str):
    data = Path(path).read_bytes()
    if data[:8] == b"QAPE0001":
        return decode_program(data)
    return parse_program(data.decode("utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


def cmd_assemble(args) -> int:
    try:
        program = parse_program(Path(args.input).read_text())
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    diagnostics = validate_program(program)
    if diagnostics:
        for d in diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_VALIDATION
    Path(args.output).write_bytes(encode_program(program))
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    try:
        prepared = prepare(program, config)
    except ValidationFault as fault:
        for d in fault.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_VALIDATION
    trace = Engine(prepared, config).run()
    report = build_report(trace, program_hash(program))
    if args.trace:
        Path(args.trace).write_text(events_to_csv(trace.events))
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"bad parameter {pair!r}, expected name=value")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    params = _parse_params(args.param)
    if args.bias is not None:
        params.setdefault("bias", args.bias)
    bench = make_benchmark(args.name, **params)
    cores = [int(c) for c in args.cores.split(",")]
    width = args.width
    config = replace(config, superscalar_width=width)
    spec = ExperimentSpec(prepare(bench.program, config),
                          repetitions=args.seeds, bias=bench.bias,
                          gate_ns=bench.gate_ns)
    results = sweep_cores(spec, config, cores)
    base_mean = results[cores[0]].extras["exec_ns_mean"]
    if args.ideal:
        one_core_ns = (results[1].extras["exec_ns_mean"] if 1 in results
                       else mean_exec_ns(spec, replace(config, cores=1)))
    summary = {
        "benchmark": bench.name,
        "width": width,
        "bias": bench.bias,
        "seeds": args.seeds,
        "cells": {},
    }
    for n in cores:
        rep = results[n]
        cell = {
            "exec_ns_mean": rep.extras["exec_ns_mean"],
            "avg_tr": rep.avg_tr,
            "max_tr": rep.max_tr,
            "speedup": base_mean / rep.extras["exec_ns_mean"],
        }
        if args.ideal:
            cell["ideal_speedup"] = ideal_speedup(spec, config, n, one_core_ns)
        summary["cells"][str(n)] = cell
    _emit(json.dumps(summary, sort_keys=True, indent=2), args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    base_cfg = _load_config(args.base)
    var_cfg = _load_config(args.variant)
    program = _load_program(args.program)
    diagnostics = validate_program(program)
    if diagnostics:
        for d in diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_VALIDATION
    spec = ExperimentSpec(program, repetitions=args.seeds,
                          bias=base_cfg.qpu.outcome_bias)
    base_rep, var_rep = compare_runs(spec, base_cfg, var_cfg)
    out = {
        "base": base_rep.to_dict(),
        "variant": var_rep.to_dict(),
        "speedup": var_rep.speedup_vs_base,
        "avg_tr_ratio": var_rep.extras.get("avg_tr_ratio"),
    }
    _emit(json.dumps(out, sort_keys=True, indent=2), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcpsim",
        description="Cycle-level simulator of a parallel quantum control "
                    "processor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="assemble text into the binary format")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("run", help="run a program and print the report JSON")
    p.add_argument("program")
    p.add_argument("--config", help="machine config JSON file")
    p.add_argument("--trace", help="write the issue-event log as CSV")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run a generated benchmark over a core sweep")
    p.add_argument("name", choices=sorted(BENCHMARKS))
    p.add_argument("param", nargs="*", help="generator parameters, name=value")
    p.add_argument("--cores", default="1")
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--bias", type=float)
    p.add_argument("--ideal", action="store_true",
                   help="also compute the zero-cost-scheduling bound")
    p.add_argument("--config", help="machine config JSON file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="compare one program under two configs")
    p.add_argument("program")
    p.add_argument("--base", required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationFault, ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeFault, SimulatorBug) as e:
        print(f"runtime fault: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
