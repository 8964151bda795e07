"""Cycle-level simulator of a parallel quantum control processor.

The package models a control processor that feeds timed quantum operations
to a device: a timed assembly language, a block-scheduled multiprocessor,
superscalar quantum dispatch with a single classical pipeline, a fast
context switch for measurement-conditioned operations, a seeded classical
device model, and the step/cycle metrics used to judge whether the control
side keeps up with the device.
"""

from .blocks import (BlockInfoEntry, BlockInfoTable, build_table,
                     deps_satisfied, level_assignment, pack_priority_entry,
                     to_direct_table, to_priority_table, unpack_priority_entry)
from .bench import (Benchmark, BENCHMARKS, ExperimentSpec, compare_runs,
                    gen_active_reset_plus_rb, gen_dense, gen_feedforward,
                    gen_parallel_rus, gen_steane_syndrome, ideal_speedup,
                    make_benchmark, run_experiment, sweep_cores)
from .config import MachineConfig, ConfigError, SEED_STRIDE
from .core import SHARED_REG_BASE, StepRecord, decode_for_execution
from .engine import Engine, RunTrace, RuntimeFault, ValidationFault, run_program
from .isa import (BranchCond, ClassicalOp, Diagnostic, EncodingError, Gate,
                  Instruction, Kind, ParseError, Program, decode_instruction,
                  decode_program, encode_instruction, encode_program,
                  parse_program, print_program, quantize_angle,
                  validate_program)
from .metrics import (RunReport, StepMetrics, build_report, events_to_csv,
                      program_hash, speedup, steps_of, steps_to_csv,
                      tr_of_step)
from .qpu import (IssueEvent, QpuConfig, QpuState, SplitMix64, channel_for)
from .sched import BlockStatus, Scheduler, SchedulerEvent, SimulatorBug

__version__ = "0.1.0"
