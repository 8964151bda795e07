"""Device model: occupancy, seeded outcomes, channels."""

import random
from collections import Counter

import pytest

from qcpsim.core import K_QUANTUM
from qcpsim.qpu import (CHANNELS_PER_QUBIT, Collision, IssueEvent, QpuConfig,
                        QpuState, SplitMix64, channel_for, issue_events)


def _op(gate: str, qubits: tuple[int, ...]) -> tuple:
    """One operation as `decode_for_execution` lowers it, with no result
    register."""
    return (K_QUANTUM, 0, gate, qubits, -1, 0)


def _point(time_ns: int, scheduled_ns: int, ops: list, core: int) -> tuple:
    """One issued timing point as `RunTrace.points` logs it."""
    return (core, 0, scheduled_ns, time_ns, ops, 1, 0, 0, 0,
            time_ns - scheduled_ns, False)


def test_splitmix64_reference_vector():
    # first outputs of the stream seeded with zero, a widely published vector
    s = SplitMix64(0)
    assert s.next_u64() == 0xE220A8397B1DCDAF
    assert s.next_u64() == 0x6E789E6AA1B965F4
    assert s.next_u64() == 0x06C45D188009454F


def test_splitmix64_float_range():
    s = SplitMix64(42)
    for _ in range(1000):
        x = s.next_float()
        assert 0.0 <= x < 1.0


def test_same_seed_same_stream():
    a = QpuState(QpuConfig(outcome_bias=0.3), 4, 99)
    b = QpuState(QpuConfig(outcome_bias=0.3), 4, 99)
    seq_a = [a.measurement_result(q, 100 * i, 0) for i, q in
             enumerate([0, 1, 0, 2, 3, 1] * 20)]
    seq_b = [b.measurement_result(q, 100 * i, 0) for i, q in
             enumerate([0, 1, 0, 2, 3, 1] * 20)]
    assert seq_a == seq_b


def test_streams_partitioned_per_qubit():
    # outcomes for one qubit do not depend on measurements of other qubits
    a = QpuState(QpuConfig(outcome_bias=0.5), 4, 7)
    b = QpuState(QpuConfig(outcome_bias=0.5), 4, 7)
    own_a = [a.measurement_result(1, t, 0)[0] for t in range(0, 500, 100)]
    for t in range(5):
        b.measurement_result(0, t, 0)
        b.measurement_result(3, t, 0)
    own_b = [b.measurement_result(1, t, 0)[0] for t in range(0, 500, 100)]
    assert own_a == own_b


def test_measurement_latency_defaults():
    q = QpuState(QpuConfig(), 1, 1)
    _bit, ready = q.measurement_result(0, 1000, 0)
    assert ready == 1450


def test_bias_zero_always_zero():
    q = QpuState(QpuConfig(outcome_bias=0.0), 1, 3)
    assert all(q.measurement_result(0, t, 0)[0] == 0 for t in range(200))


def test_bias_one_always_one():
    q = QpuState(QpuConfig(outcome_bias=1.0), 1, 3)
    assert all(q.measurement_result(0, t, 0)[0] == 1 for t in range(200))


def test_monte_carlo_bias():
    q = QpuState(QpuConfig(outcome_bias=0.1), 1, 2024)
    n = 100_000
    mean = sum(q.measurement_result(0, t, 0)[0] for t in range(n)) / n
    assert abs(mean - 0.1) <= 0.005


def test_per_point_bias_map():
    cfg = QpuConfig(outcome_bias={5: 1.0, 9: 0.0})
    q = QpuState(cfg, 1, 1)
    assert q.measurement_result(0, 0, 5)[0] == 1
    assert q.measurement_result(0, 0, 9)[0] == 0
    assert q.measurement_result(0, 0, 7)[0] == 0  # default 0 elsewhere


def test_jitter_extends_readiness():
    cfg = QpuConfig(jitter_ns=40)
    q = QpuState(cfg, 1, 11)
    for t in range(50):
        _bit, ready = q.measurement_result(0, 0, 0)
        assert 450 <= ready <= 490
    # never below the pulse length
    assert all(q.measurement_result(0, 100, 0)[1] >= 100 + 300
               for _ in range(20))


def test_back_to_back_gates_legal():
    q = QpuState(QpuConfig(), 1, 1)
    q.accept_issue(0, [_op("H", (0,))])
    q.accept_issue(20, [_op("X", (0,))])
    assert q.collisions == []


def test_overlap_is_collision():
    q = QpuState(QpuConfig(), 2, 1)
    q.accept_issue(0, [_op("H", (0,))])
    q.accept_issue(10, [_op("CZ", (0, 1))])
    assert len(q.collisions) == 1
    assert q.collisions[0].qubit == 0


def test_simultaneous_different_qubits_legal():
    q = QpuState(QpuConfig(), 2, 1)
    q.accept_issue(0, [_op("H", (0,))])
    q.accept_issue(0, [_op("H", (1,))])
    assert q.collisions == []


def test_collision_against_interval_oracle():
    rng = random.Random(15)
    cfg = QpuConfig()
    for _ in range(30):
        q = QpuState(cfg, 3, 1)
        schedule = []
        t = 0
        for _ in range(40):
            t += rng.randrange(0, 50)
            gate = rng.choice(["H", "X", "MEAS"])
            qubit = rng.randrange(3)
            schedule.append((t, gate, qubit))
        # oracle: count overlaps per qubit with a plain interval scan
        expected = 0
        busy = {}
        for t_i, gate, qubit in schedule:
            dur = cfg.meas_pulse_ns if gate == "MEAS" else cfg.single_gate_ns
            if t_i < busy.get(qubit, 0):
                expected += 1
            busy[qubit] = t_i + dur
        for t_i, gate, qubit in schedule:
            q.accept_issue(t_i, [_op(gate, (qubit,))])
        assert len(q.collisions) == expected


def test_unknown_qubit_rejected():
    q = QpuState(QpuConfig(), 2, 1)
    with pytest.raises(ValueError):
        q.accept_issue(0, [_op("H", (5,))])


def test_channel_map():
    assert channel_for("H", 0) == 0
    assert channel_for("CZ", 0) == 1
    assert channel_for("CZ", 1) == 4
    assert channel_for("MEAS", 0) == 2
    # a ten-qubit machine fits a 38-channel analog budget
    channels = {channel_for(g, qb) for qb in range(10)
                for g in ("H", "CZ", "MEAS")}
    assert len(channels) == 30
    assert max(channels) < 38
    assert CHANNELS_PER_QUBIT == 3


def test_pair_gate_emits_event_per_qubit():
    q = QpuState(QpuConfig(), 2, 1)
    q.accept_issue(0, [_op("CZ", (0, 1))])
    assert q.event_count == 2
    events = issue_events([_point(0, 0, [_op("CZ", (0, 1))], 0)], q.config)
    assert [e.channel for e in events] == [1, 4]
    assert all(e.time_ns == 0 for e in events)


class _PerOpDevice:
    """Oracle for `QpuState.accept_issue` and `issue_events`: the device
    model taking one operation at a time and logging its events, with every
    channel from `channel_for`."""

    def __init__(self, config: QpuConfig, qubit_count: int):
        self.durations = {g: config.single_gate_ns
                          for g in ("X", "Y", "Z", "H", "RX", "RY", "RZ")}
        self.durations.update(CNOT=config.two_gate_ns, CZ=config.two_gate_ns,
                              MEAS=config.meas_pulse_ns)
        self.busy_until = [0] * qubit_count
        self.events = []
        self.collisions = []
        self.event_count = 0
        self.last_event_end_ns = 0

    def accept_op(self, time_ns, scheduled_ns, gate, qubits, core):
        duration = self.durations[gate]
        end = time_ns + duration
        for q in qubits:
            if time_ns < self.busy_until[q]:
                self.collisions.append(
                    Collision(q, time_ns, self.busy_until[q], gate))
            self.busy_until[q] = end
        self.event_count += len(qubits)
        self.last_event_end_ns = max(self.last_event_end_ns, end)
        for q in qubits:
            self.events.append(IssueEvent(time_ns, scheduled_ns, gate, qubits,
                                          channel_for(gate, q), duration,
                                          core))


@pytest.mark.parametrize("per_point", [True, False])
def test_point_accept_matches_per_op_oracle(per_point):
    # the events of the points a device accepted, expanded one point at a
    # time or all at once at the end: the expansion reads nothing but the
    # log, so a view built on first read is the one built as the run goes
    rng = random.Random(9)
    cfg = QpuConfig()
    single = ["X", "Y", "Z", "H", "RX", "RY", "RZ", "MEAS"]
    kinds = Counter()
    for _ in range(40):
        device = QpuState(cfg, 3, 1)
        oracle = _PerOpDevice(cfg, 3)
        log = []
        events = []
        t = 0
        for _ in range(30):
            t += rng.choice([0, 10, 20, 40, 300])
            sched = t - rng.randrange(0, 30)
            core = rng.randrange(2)
            point = []
            for _ in range(rng.randrange(1, 5)):
                if rng.random() < 0.3:
                    gate = rng.choice(["CNOT", "CZ"])
                    qubits = tuple(rng.sample(range(3), 2))
                else:
                    gate = rng.choice(single)
                    qubits = (rng.randrange(3),)
                point.append(_op(gate, qubits))
            used = [q for op in point for q in op[3]]
            kinds["pair"] += any(len(op[3]) == 2 for op in point)
            kinds["meas"] += any(op[2] == "MEAS" for op in point)
            kinds["twice"] += len(used) != len(set(used))
            device.accept_issue(t, point)
            log.append(_point(t, sched, point, core))
            if per_point:
                events += issue_events(log[-1:], cfg)
            for op in point:
                oracle.accept_op(t, sched, op[2], op[3], core)
        if not per_point:
            events = issue_events(log, cfg)
        assert events == oracle.events
        assert all(type(e) is IssueEvent for e in events)
        assert device.collisions == oracle.collisions
        assert device.busy_until == oracle.busy_until
        assert device.event_count == oracle.event_count
        assert device.last_event_end_ns == oracle.last_event_end_ns
    # the random points cover two-qubit gates, measurements and a qubit
    # used twice in one point
    assert min(kinds.values()) > 50, kinds
