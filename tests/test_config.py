"""`MachineConfig.validate`: each value it rejects, one case each."""

import pytest

from qcpsim.config import ConfigError, MachineConfig
from qcpsim.engine import Engine
from qcpsim.isa import parse_program


@pytest.mark.parametrize("field, value, message", [
    ("cores", 0, "cores must be >= 1"),
    ("superscalar_width", 3, "width must be one of (1, 2, 4, 8)"),
    ("t_switch", -1, "t_switch must be >= 0"),
    ("sched_response", -1, "sched_response must be >= 0"),
    ("fetch_bandwidth", -1, "fetch_bandwidth must be >= 0"),
    ("branch_penalty", -1, "branch_penalty must be >= 0"),
    ("ctx_switch_cycles", -1, "ctx_switch_cycles must be >= 0"),
    ("fetch_bandwidth", 0, "fetch_bandwidth must be positive"),
    ("pipeline_depth", 0, "pipeline_depth must be >= 1"),
    ("dependency_mode", "eager", "bad dependency_mode 'eager'"),
    ("qpu.single_gate_ns", -1, "qpu.single_gate_ns must be >= 0"),
    ("qpu.two_gate_ns", -1, "qpu.two_gate_ns must be >= 0"),
    ("qpu.meas_pulse_ns", -1, "qpu.meas_pulse_ns must be >= 0"),
    ("qpu.daq_ns", -1, "qpu.daq_ns must be >= 0"),
    ("qpu.jitter_ns", -1, "qpu.jitter_ns must be >= 0"),
    ("qpu.single_gate_ns", 0, "qpu.single_gate_ns must be positive"),
    ("qpu.clock_period_ns", 0, "qpu.clock_period_ns must be positive"),
    ("deadlock_timeout_cycles", 0, "deadlock_timeout_cycles must be >= 1"),
    ("qpu.outcome_bias", 1.5, "qpu.outcome_bias must be in [0, 1]"),
    ("qpu.outcome_bias", -0.2, "qpu.outcome_bias must be in [0, 1]"),
    ("qpu.outcome_bias", float("nan"), "qpu.outcome_bias must be in [0, 1]"),
    ("qpu.outcome_bias", {0: 0.5, 3: 2.0},
     "qpu.outcome_bias must be in [0, 1]"),
])
def test_validate_rejects(field, value, message):
    cfg = MachineConfig()
    target = cfg.qpu if field.startswith("qpu.") else cfg
    setattr(target, field.removeprefix("qpu."), value)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert str(err.value) == message
    # the engine checks its configuration before it runs anything
    with pytest.raises(ConfigError):
        Engine(parse_program("1 H q0\n"), cfg)
    data = MachineConfig().to_dict()
    (data["qpu"] if field.startswith("qpu.") else data)[
        field.removeprefix("qpu.")] = value
    with pytest.raises(ConfigError):
        MachineConfig.from_dict(data)
