"""Machine configuration: processor counts, widths, cost model, seeding."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from .qpu import QpuConfig

__all__ = ["MachineConfig", "ConfigError", "SEED_STRIDE"]

VALID_WIDTHS = (1, 2, 4, 8)

# seed spacing between repetitions of one experiment
SEED_STRIDE = 0x9E37


class ConfigError(ValueError):
    pass


@dataclass
class MachineConfig:
    cores: int = 1
    superscalar_width: int = 1
    qpu: QpuConfig = field(default_factory=QpuConfig)
    # scheduler / core cost model, in clock cycles except where noted
    t_switch: int = 2                 # activate an already-prefetched cache
    sched_response: int = 4           # scheduler reaction before a transfer
    fetch_bandwidth: int = 4          # words per cycle, main memory -> cache
    branch_penalty: int = 2           # dead cycles after a taken branch
    ctx_switch_cycles: int = 3        # conditional-execution context switch
    pipeline_depth: int = 3           # fetch / decode / execute
    prefetch: bool = True
    seed: int = 1
    dependency_mode: str = "auto"     # auto | direct | priority
    deadlock_timeout_cycles: int = 1_000_000
    collect_steps: bool = True

    @property
    def clock_period_ns(self) -> int:
        return self.qpu.clock_period_ns

    def validate(self) -> None:
        if self.cores < 1:
            raise ConfigError("cores must be >= 1")
        if self.superscalar_width not in VALID_WIDTHS:
            raise ConfigError(f"width must be one of {VALID_WIDTHS}")
        for name in ("t_switch", "sched_response", "fetch_bandwidth",
                     "branch_penalty", "ctx_switch_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.fetch_bandwidth == 0:
            raise ConfigError("fetch_bandwidth must be positive")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        if self.dependency_mode not in ("auto", "direct", "priority"):
            raise ConfigError(f"bad dependency_mode {self.dependency_mode!r}")
        if self.deadlock_timeout_cycles < 1:
            raise ConfigError("deadlock_timeout_cycles must be >= 1")
        q = self.qpu
        for name in ("single_gate_ns", "two_gate_ns", "meas_pulse_ns",
                     "daq_ns", "jitter_ns"):
            if getattr(q, name) < 0:
                raise ConfigError(f"qpu.{name} must be >= 0")
        if q.single_gate_ns == 0:
            # the unit of every report's time ratio
            raise ConfigError("qpu.single_gate_ns must be positive")
        if q.clock_period_ns <= 0:
            raise ConfigError("qpu.clock_period_ns must be positive")
        bias = q.outcome_bias
        for p in bias.values() if isinstance(bias, dict) else (bias,):
            if not 0.0 <= p <= 1.0:     # NaN fails both comparisons
                raise ConfigError("qpu.outcome_bias must be in [0, 1]")

    def zero_cost_scheduling(self) -> "MachineConfig":
        """Variant with free allocation and switching, for ideal-speedup
        runs. Prefetching is disabled: it only exists to hide transfer
        cost, and its early core binding can otherwise lose to the
        free-allocation schedule under execution-time variance."""
        return replace(self, t_switch=0, sched_response=0,
                       fetch_bandwidth=1_000_000, prefetch=False)

    def to_dict(self) -> dict:
        """Every field of the machine and its device; `collect_steps` is
        left out, since it chooses what a run records, not the machine it
        simulates."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if not f.name.startswith("collect_")}
        q = self.qpu
        out["qpu"] = qpu = {f.name: getattr(q, f.name) for f in fields(q)}
        if isinstance(q.outcome_bias, dict):
            qpu["outcome_bias"] = {str(k): v for k, v
                                   in sorted(q.outcome_bias.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        data = dict(data)
        qdata = dict(data.pop("qpu", {}))
        bias = qdata.get("outcome_bias", 0.0)
        if isinstance(bias, dict):
            qdata["outcome_bias"] = {int(k): float(v) for k, v in bias.items()}
        known_q = {k: v for k, v in qdata.items() if k in QpuConfig.__dataclass_fields__}
        unknown_q = set(qdata) - set(known_q)
        if unknown_q:
            raise ConfigError(f"unknown qpu config keys: {sorted(unknown_q)}")
        known = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(qpu=QpuConfig(**known_q), **known)
        cfg.validate()
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MachineConfig":
        return cls.from_dict(json.loads(text))
