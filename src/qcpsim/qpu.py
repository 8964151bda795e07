"""Simulated quantum device and acquisition chain.

Qubits are classical outcome generators: a measurement draws a Bernoulli bit
from a seeded SplitMix64 stream and becomes readable after the readout pulse
plus acquisition latency. Gate durations only matter for occupancy tracking
(collision detection); no quantum state is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "SplitMix64", "QpuConfig", "IssueEvent", "Collision", "QpuState",
    "channel_for", "issue_events", "CHANNELS_PER_QUBIT",
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


@lru_cache(maxsize=64)
def _gate_table(single: int, two: int, meas: int) -> dict[str, tuple]:
    """gate -> (duration, channel of qubit 0) for a `QpuConfig`'s gate
    times; qubit q's channel is CHANNELS_PER_QUBIT * q more. Every caller
    with the same times shares the one dict, so none may change it."""
    durations = dict.fromkeys(("X", "Y", "Z", "H", "RX", "RY", "RZ"), single)
    durations.update(CNOT=two, CZ=two, MEAS=meas)
    return {gate: (ns, channel_for(gate, 0)) for gate, ns in durations.items()}


def issue_events(points, config: QpuConfig) -> list[IssueEvent]:
    """One `IssueEvent` per qubit of each operation of `points`, issued
    timing points as `RunTrace.points` logs them."""
    gates = _gate_table(config.single_gate_ns, config.two_gate_ns,
                        config.meas_pulse_ns)
    return [tuple.__new__(IssueEvent, (
                time_ns, sched, gate, qubits,
                CHANNELS_PER_QUBIT * q + channel, duration, core))
            for core, _block, sched, time_ns, ops, *_ in points
            for _, _, gate, qubits, _, _ in ops
            for duration, channel in [gates[gate]]
            for q in qubits]


class QpuState:
    """Device occupancy and the seeded measurement model; it keeps no log."""

    __slots__ = ("config", "qubit_count", "seed", "busy_until",
                 "collisions", "collision_cores", "event_count",
                 "last_event_end_ns", "last_issue_ns", "_streams", "_gates",
                 "_scalar_bias", "_result_latency")

    def __init__(self, config: QpuConfig, qubit_count: int, seed: int):
        self.config = config
        self.qubit_count = qubit_count
        self.seed = seed
        self.busy_until = [0] * qubit_count
        self.collisions: list[Collision] = []
        self.collision_cores: list[int] = []    # the core issuing each one
        self.event_count = 0
        self.last_event_end_ns = 0
        self.last_issue_ns = 0          # the latest issue time
        self._streams: dict[int, SplitMix64] = {}
        self._gates = _gate_table(config.single_gate_ns, config.two_gate_ns,
                                  config.meas_pulse_ns)
        bias = config.outcome_bias
        self._scalar_bias = bias if not isinstance(bias, dict) else None
        self._result_latency = config.meas_pulse_ns + config.daq_ns

    def accept_issue(self, time_ns: int, ops, core: int = 0) -> None:
        """Mark the qubits of one timing point's operations, all issued at
        `time_ns` by `core`, busy for each one's gate duration; keep no
        record of it.

        Each op is a decoded quantum item as `decode_for_execution` lowers
        it: the gate name at index 2 and the qubit tuple at index 3. Ops take
        effect in order, so a qubit used twice in one point collides with
        itself. Overlapping use of a busy qubit is recorded as a collision;
        the run continues so the full schedule stays inspectable. A qubit
        the device does not have raises `ValueError`. `event_count` counts
        one operation per qubit.
        """
        gates = self._gates
        busy = self.busy_until
        last_end = self.last_event_end_ns
        count = 0
        for op in ops:
            gate = op[2]
            qubits = op[3]
            end = time_ns + gates[gate][0]
            for q in qubits:
                if q >= self.qubit_count:
                    raise ValueError(f"unknown qubit q{q}")
                if time_ns < busy[q]:
                    self.collisions.append(
                        Collision(q, time_ns, busy[q], gate))
                    self.collision_cores.append(core)
                busy[q] = end
            if end > last_end:
                last_end = end
            count += len(qubits)
        self.event_count += count
        self.last_event_end_ns = last_end
        if time_ns > self.last_issue_ns:
            self.last_issue_ns = time_ns

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
