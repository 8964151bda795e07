"""Simulated quantum device and acquisition chain.

Qubits are classical outcome generators: a measurement draws a Bernoulli bit
from a seeded SplitMix64 stream and becomes readable after the readout pulse
plus acquisition latency. Gate durations only matter for occupancy tracking
(collision detection); no quantum state is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "SplitMix64", "QpuConfig", "IssueEvent", "Collision", "QpuState",
    "channel_for", "CHANNELS_PER_QUBIT",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# per-qubit analog channel triplet: microwave, flux, readout
CHANNELS_PER_QUBIT = 3
_CH_MICROWAVE = 0
_CH_FLUX = 1
_CH_READOUT = 2


class SplitMix64:
    """SplitMix64 stream; bit-exact across platforms and languages."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, n: int) -> int:
        return self.next_u64() % n


def _qubit_stream(seed: int, qubit: int) -> SplitMix64:
    # One independent stream per qubit: outcome sequences depend only on the
    # seed and how often that particular qubit was measured, never on the
    # interleaving of measurements across qubits or cores.
    return SplitMix64((seed ^ ((qubit + 1) * _GOLDEN)) & _MASK64)


@dataclass
class QpuConfig:
    qubit_count: int = 0             # 0 = size from the program
    single_gate_ns: int = 20
    two_gate_ns: int = 40
    meas_pulse_ns: int = 300
    daq_ns: int = 150
    jitter_ns: int = 0
    clock_period_ns: int = 10
    # probability of reading 1; either one number or {program point: p}
    outcome_bias: float | dict[int, float] = 0.0

    def bias_at(self, program_point: int) -> float:
        if isinstance(self.outcome_bias, dict):
            return self.outcome_bias.get(program_point, 0.0)
        return self.outcome_bias


class IssueEvent(NamedTuple):
    """Ground truth for one operation delivered to the device."""

    time_ns: int           # actual issue time
    scheduled_ns: int      # program-defined timing point (width-independent)
    gate: str
    qubits: tuple[int, ...]
    channel: int
    duration_ns: int
    core: int


@dataclass(frozen=True)
class Collision:
    qubit: int
    time_ns: int
    busy_until_ns: int
    gate: str


def channel_for(gate_name: str, qubit: int) -> int:
    if gate_name in ("CNOT", "CZ"):
        return CHANNELS_PER_QUBIT * qubit + _CH_FLUX
    if gate_name == "MEAS":
        return CHANNELS_PER_QUBIT * qubit + _CH_READOUT
    return CHANNELS_PER_QUBIT * qubit + _CH_MICROWAVE


class QpuState:
    """Device occupancy, issue log, and the seeded measurement model."""

    __slots__ = ("config", "qubit_count", "seed", "collect_events",
                 "busy_until", "events", "collisions", "event_count",
                 "last_event_end_ns", "_streams", "_gates",
                 "_scalar_bias", "_result_latency")

    def __init__(self, config: QpuConfig, qubit_count: int, seed: int,
                 collect_events: bool = True):
        self.config = config
        self.qubit_count = qubit_count
        self.seed = seed
        self.collect_events = collect_events
        self.busy_until = [0] * qubit_count
        self.events: list[IssueEvent] = []
        self.collisions: list[Collision] = []
        self.event_count = 0
        self.last_event_end_ns = 0
        self._streams: dict[int, SplitMix64] = {}
        durations = {
            "X": config.single_gate_ns, "Y": config.single_gate_ns,
            "Z": config.single_gate_ns, "H": config.single_gate_ns,
            "RX": config.single_gate_ns, "RY": config.single_gate_ns,
            "RZ": config.single_gate_ns, "CNOT": config.two_gate_ns,
            "CZ": config.two_gate_ns, "MEAS": config.meas_pulse_ns,
        }
        # gate -> (duration, channel of qubit 0); qubit q's channel is
        # CHANNELS_PER_QUBIT * q more, as `channel_for` gives it
        self._gates = {gate: (ns, channel_for(gate, 0))
                       for gate, ns in durations.items()}
        bias = config.outcome_bias
        self._scalar_bias = bias if not isinstance(bias, dict) else None
        self._result_latency = config.meas_pulse_ns + config.daq_ns

    def accept_issue(self, time_ns: int, scheduled_ns: int, ops,
                     core: int) -> None:
        """Log the operations of one timing point, all issued at `time_ns`,
        and mark each one's qubits busy for its gate duration.

        Each op is a decoded quantum item as `decode_for_execution` lowers
        it: the gate name at index 2 and the qubit tuple at index 3. Ops take
        effect in order, so a qubit used twice in one point collides with
        itself. Overlapping use of a busy qubit is recorded as a collision;
        the run continues so the full schedule stays inspectable. A qubit
        the device does not have raises `ValueError`, leaving the point
        partly recorded.
        """
        gates = self._gates
        busy = self.busy_until
        collect = self.collect_events
        last_end = self.last_event_end_ns
        count = 0
        for op in ops:
            gate = op[2]
            qubits = op[3]
            duration, channel = gates[gate]
            end = time_ns + duration
            for q in qubits:
                if q >= self.qubit_count:
                    raise ValueError(f"unknown qubit q{q}")
                if time_ns < busy[q]:
                    self.collisions.append(
                        Collision(q, time_ns, busy[q], gate))
                busy[q] = end
            if end > last_end:
                last_end = end
            if len(qubits) == 2:
                count += 2
                if collect:
                    # one flux event per involved qubit, same timestamp
                    q0, q1 = qubits
                    self.events.append(tuple.__new__(IssueEvent, (
                        time_ns, scheduled_ns, gate, qubits,
                        CHANNELS_PER_QUBIT * q0 + channel, duration, core)))
                    self.events.append(tuple.__new__(IssueEvent, (
                        time_ns, scheduled_ns, gate, qubits,
                        CHANNELS_PER_QUBIT * q1 + channel, duration, core)))
            else:
                count += 1
                if collect:
                    self.events.append(tuple.__new__(IssueEvent, (
                        time_ns, scheduled_ns, gate, qubits,
                        CHANNELS_PER_QUBIT * qubits[0] + channel, duration,
                        core)))
        self.event_count += count
        self.last_event_end_ns = last_end

    def measurement_result(self, qubit: int, issue_time_ns: int,
                           program_point: int) -> tuple[int, int]:
        """Draw the outcome bit and compute when it becomes readable."""
        stream = self._streams.get(qubit)
        if stream is None:
            stream = self._streams[qubit] = _qubit_stream(self.seed, qubit)
        bias = self._scalar_bias
        if bias is None:
            bias = self.config.bias_at(program_point)
        bit = 1 if stream.next_float() < bias else 0
        ready = issue_time_ns + self._result_latency
        if self.config.jitter_ns > 0:
            ready += stream.next_below(self.config.jitter_ns + 1)
        return bit, ready
