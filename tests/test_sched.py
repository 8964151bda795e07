"""Block scheduling: allocation, prefetching, cache switches, completion."""

import random

import pytest

from qcpsim.blocks import build_table, to_priority_table
from qcpsim.config import MachineConfig
from qcpsim.engine import Engine
from qcpsim.isa import parse_program
from qcpsim.sched import BlockStatus, Scheduler, SimulatorBug, transfer_cost
from qcpsim.bench import gen_steane_syndrome


def _four_block_program(gap_label=2):
    # W1 and W2 independent; W3 joins them; W4 follows W3
    lines = [".qubits 4"]
    spans = []
    pc = 0
    for i, q in enumerate((0, 1, 2, 3)):
        start = pc
        for k in range(5):
            lines.append(f"{0 if k == 0 else gap_label} H q{q}")
            pc += 1
        spans.append((f"W{i + 1}", start, pc - 1))
    deps = ["none", "none", "W1+W2", "W3"]
    for (name, s, e), d in zip(spans, deps):
        lines.append(f".block {name} start={s} end={e} deps={d}")
    return parse_program("\n".join(lines) + "\n")


def _run(program, **kw):
    cfg = MachineConfig(**kw)
    return Engine(program, cfg).run()


def test_transfer_cost_model():
    assert transfer_cost(40, 4, 4) == 4 + 10
    assert transfer_cost(0, 4, 4) == 4
    assert transfer_cost(1, 4, 4) == 5


def test_independent_blocks_allocate_to_both_cores():
    trace = _run(_four_block_program(), cores=2, prefetch=False)
    allocs = [(e.block, e.core) for e in trace.scheduler_events
              if e.action == "alloc"]
    assert allocs[0] == (0, 0)
    assert allocs[1] == (1, 1)


def test_tick_during_transfer_clears_dirty():
    # while a cold allocation is in flight nothing a tick reads can change
    # until it lands, so the tick clears `dirty`
    engine = Engine(_four_block_program(), MachineConfig(cores=2,
                                                         prefetch=False))
    sched = engine.scheduler
    sched.tick(0)
    assert sched.transfer is not None and sched.dirty
    sched.tick(1)
    assert not sched.dirty
    assert [e.action for e in sched.events] == ["alloc"]


def test_empty_table_no_actions():
    p = parse_program(".qubits 1\n")
    trace = _run(p, cores=2)
    assert trace.scheduler_events == []
    assert trace.total_cycles == 0


def test_prefetch_and_switch_sequence():
    trace = _run(_four_block_program(), cores=2)
    ev = trace.scheduler_events
    kinds = {}
    for e in ev:
        kinds.setdefault(e.block, []).append(e.action)
    # W1 and W2 are preloaded before the run, then switched in
    assert kinds[0][:2] == ["preload", "switch"]
    assert kinds[1][:2] == ["preload", "switch"]
    # W3 is prefetched while its dependencies execute, switched in after
    assert kinds[2][0] == "prefetch"
    assert "switch" in kinds[2]
    assert kinds[3][0] == "prefetch"
    prefetch3 = next(e.cycle for e in ev
                     if e.action == "prefetch" and e.block == 2)
    done1 = max(e.cycle for e in ev
                if e.action == "done" and e.block in (0, 1))
    switch3 = next(e.cycle for e in ev
                   if e.action == "switch" and e.block == 2)
    assert prefetch3 < done1, "prefetch overlaps execution"
    assert switch3 >= done1, "switch waits for both dependencies"


def test_block_never_starts_before_deps_clear():
    p = _four_block_program()
    table = build_table(p)
    trace = _run(p, cores=2)
    done_at = {}
    for e in trace.scheduler_events:
        if e.action == "done":
            done_at[e.block] = e.cycle
    for e in trace.scheduler_events:
        if e.action in ("alloc", "switch"):
            mask = table.entries[e.block].dep_mask
            for dep in range(len(table)):
                if (mask >> dep) & 1:
                    assert done_at[dep] <= e.cycle


def test_every_block_done_exactly_once():
    trace = _run(_four_block_program(), cores=2)
    done = [e.block for e in trace.scheduler_events if e.action == "done"]
    assert sorted(done) == [0, 1, 2, 3]


def test_double_completion_is_a_bug():
    p = _four_block_program()
    engine = Engine(p, MachineConfig(cores=1))
    engine.run()
    with pytest.raises(SimulatorBug):
        engine.scheduler.notify_done(0, engine.cores[0], 0)


def test_status_transitions_legal():
    table = build_table(_four_block_program())

    class _Slot:
        def __init__(self):
            self.slots = [None, None]
            self.slot_loaded = [False, False]
            self.executing = None
            self.switch_until = None
            self.core_id = 0

    sched = Scheduler(table, [_Slot()], sched_response=4, fetch_bandwidth=4,
                      t_switch=2, prefetch=False)
    with pytest.raises(SimulatorBug):
        sched._set_status(0, BlockStatus.DONE)   # WAIT -> DONE is illegal
    sched.cores[0].slots[0] = 0     # a block in execution holds a cache slot
    sched._set_status(0, BlockStatus.IN_EXECUTION)
    sched._set_status(0, BlockStatus.DONE)
    # the core that holds a block runs it only while it is in execution
    sched.cores[0].slots[1] = 1
    sched.cores[0].executing = 1
    with pytest.raises(SimulatorBug,
                       match="core 0 runs block 1, which is PREFETCH"):
        sched._set_status(1, BlockStatus.PREFETCH)


_honest_transfer = Scheduler._try_transfer


def _faulty_transfer(fault):
    """`Scheduler._try_transfer` with one fault in the cache slot it fills:
    "copy" also puts the block into another core's free slot, "lost"
    empties the slot again."""
    def transfer(sched, now, kind):
        if not _honest_transfer(sched, now, kind):
            return False
        _, b, c, slot, _ = sched.transfer
        if fault == "lost":
            sched.cores[c].slots[slot] = None
        else:
            for core in sched.cores:
                if core.core_id != c and None in core.slots:
                    core.slots[core.slots.index(None)] = b
                    break
        return True
    return transfer


@pytest.mark.parametrize("fault, prefetch, message", [
    ("copy", True, "block 2 is IN_EXECUTION in 2 cache slots"),
    ("lost", False, "block 0 is DONE in 0 cache slots")])
def test_block_ownership_is_checked_where_a_status_changes(
        monkeypatch, fault, prefetch, message):
    # the copied prefetch is caught when it is switched in, the lost
    # allocation when its block finishes
    monkeypatch.setattr(Scheduler, "_try_transfer", _faulty_transfer(fault))
    with pytest.raises(SimulatorBug, match=message):
        _run(_four_block_program(), cores=2, prefetch=prefetch)


def test_uniprocessor_degeneracy_matches_serial_oracle():
    # with one core and no prefetching, total time = sum of block times
    # plus per-block allocation costs, in id order
    p = _four_block_program()
    table = build_table(p)
    cfg = MachineConfig(cores=1, prefetch=False)
    trace = Engine(p, cfg).run()
    allocs = [e for e in trace.scheduler_events if e.action == "alloc"]
    assert [e.block for e in allocs] == [0, 1, 2, 3]
    spans = {b: (start, end) for b, _c, start, end in trace.block_spans}
    prev_end = 0
    for b in range(4):
        cost = transfer_cost(table.entries[b].length, cfg.sched_response,
                             cfg.fetch_bandwidth)
        start, end = spans[b]
        # allocation begins one cycle after the previous completion lands
        assert start >= prev_end + cost
        assert start <= prev_end + cost + 2
        prev_end = end
    assert trace.total_cycles >= prev_end


def test_steane_priority_order_oracle():
    p = gen_steane_syndrome()
    table = build_table(p)
    cfg = MachineConfig(cores=4)
    cfg.qpu.outcome_bias = 0.1
    trace = Engine(p, cfg).run()
    done = [e for e in trace.scheduler_events if e.action == "done"]
    assert sorted(e.block for e in done) == list(range(len(table)))
    # order oracle: completions never run ahead of an unfinished lower level
    finished = set()
    for e in done:
        prio = table.entries[e.block].priority
        for other in table.entries:
            if other.priority < prio:
                assert other.block_id in finished, (e.block, other.block_id)
        finished.add(e.block)


def test_deterministic_event_sequence():
    p = _four_block_program()
    a = _run(p, cores=2)
    b = _run(p, cores=2)
    assert a.scheduler_events == b.scheduler_events
    assert a.total_cycles == b.total_cycles


def test_prefetch_only_when_deps_running_or_done():
    # reconstruct block statuses from the event log and check every
    # prefetch happened with all dependencies in execution or finished
    p = _four_block_program()
    table = build_table(p)
    trace = _run(p, cores=2)
    status = {b: "wait" for b in range(len(table))}
    for e in trace.scheduler_events:
        if e.action in ("alloc", "switch", "start"):
            status[e.block] = "run"
        elif e.action == "done":
            status[e.block] = "done"
        elif e.action in ("prefetch", "preload"):
            mask = table.entries[e.block].dep_mask
            for dep in range(len(table)):
                if (mask >> dep) & 1:
                    assert status[dep] in ("run", "done"), (e, dep)


def test_switch_costs_t_switch_cycles():
    p = _four_block_program()
    cfg = MachineConfig(cores=2)
    trace = Engine(p, cfg).run()
    starts = {b: start for b, _c, start, _end in trace.block_spans}
    for e in trace.scheduler_events:
        if e.action == "switch":
            assert starts[e.block] == e.cycle + cfg.t_switch


def test_alloc_target_is_not_switched_onto_another_block():
    # b2 is cold-allocated to core 1 at cycle 0; b1 (prefetched on core 1)
    # becomes ready while that transfer is in flight. Core 1 must not be
    # switched onto b1, or the landing b2 would overwrite it and b1 would
    # never finish
    body = ["0 H q0"] + ["2 H q0"] * 15
    src = "\n".join([".qubits 2", "0 H q0", "END", "0 H q1", "END"] + body
                    + ["END",
                       ".block b0 start=0 end=1 deps=none",
                       ".block b1 start=2 end=3 deps=b0",
                       ".block b2 start=4 end=20 deps=none"])
    trace = _run(parse_program(src), cores=2)
    ev = [(e.cycle, e.action, e.block, e.core) for e in trace.scheduler_events]
    assert (0, "alloc", 2, 1) in ev
    assert (9, "start", 2, 1) in ev
    assert sorted(b for _c, a, b, _k in ev if a == "done") == [0, 1, 2]
    done2 = next(c for c, a, b, _k in ev if a == "done" and b == 2)
    switch1 = next(c for c, a, b, _k in ev if a == "switch" and b == 1)
    assert switch1 > done2
    assert trace.total_cycles == 47


def test_busy_core_cannot_take_a_block():
    engine = Engine(_four_block_program(), MachineConfig(cores=1))
    core = engine.cores[0]
    core.start_block(0, 0, 0, 0, 4)
    with pytest.raises(SimulatorBug):
        core.start_block(1, 1, 0, 5, 9)
    with pytest.raises(SimulatorBug):
        core.begin_switch(1, 1, 2, 5, 9)

    engine = Engine(_four_block_program(), MachineConfig(cores=1))
    core = engine.cores[0]
    core.begin_switch(0, 0, 2, 0, 4)
    with pytest.raises(SimulatorBug):
        core.start_block(1, 1, 0, 5, 9)
    with pytest.raises(SimulatorBug):
        core.begin_switch(1, 1, 2, 5, 9)
    core.run_cycle(2)           # the refused requests left the switch intact
    assert core.executing == 0


class _Core:
    """What the scheduler reads and writes of a core; a block handed to it
    runs at once."""

    def __init__(self, core_id):
        self.core_id = core_id
        self.slots = [None, None]
        self.slot_loaded = [False, False]
        self.executing = None
        self.switch_until = None
        self.exec_start_cycle = 0

    def begin_switch(self, block, slot, start_cycle, pc_start, pc_end):
        self.executing = block

    start_block = begin_switch


def _scheduler(program, cores, prefetch, priority):
    table = build_table(program)
    if priority:
        table = to_priority_table(table)
    return Scheduler(table, [_Core(i) for i in range(cores)],
                     sched_response=4, fetch_bandwidth=4, t_switch=2,
                     prefetch=prefetch)


def _finish(sched, block, now):
    core = next(c for c in sched.cores if c.executing == block)
    core.executing = None
    sched.notify_done(block, core, now)


@pytest.mark.parametrize("priority", [False, True])
def test_can_start_block_follows_prefetches_and_levels(priority):
    # W1 and W2 are preloaded and ready; W3 needs both, W4 needs W3
    sched = _scheduler(_four_block_program(), 2, True, priority)
    sched.preload(2)
    assert sched.can_start_block()
    sched.tick(0)
    # the level's last block started; W3 is prefetched while it waits
    assert [e.action for e in sched.events[2:]] == [
        "switch", "switch", "prefetch"]
    assert sched.transfer[:2] == ("prefetch", 2)
    assert not sched.can_start_block()
    sched.tick(sched.transfer[4])
    assert sched.transfer is None and not sched.can_start_block()
    _finish(sched, 0, 20)
    assert not sched.can_start_block()
    # the last dependence of W3 ends, so the level moves on
    _finish(sched, 1, 21)
    assert sched.can_start_block()
    sched.tick(22)
    assert sched.statuses[2] == BlockStatus.IN_EXECUTION
    assert not sched.can_start_block()


@pytest.mark.parametrize("priority", [False, True])
def test_can_start_block_while_an_allocation_is_in_flight(priority):
    # b1 follows b0, so only the cold allocation of b0 can start a block
    program = parse_program(
        ".qubits 1\n0 H q0\nEND\n0 H q0\nEND\n"
        ".block b0 start=0 end=1 deps=none\n"
        ".block b1 start=2 end=3 deps=b0\n")
    sched = _scheduler(program, 2, False, priority)
    assert sched.can_start_block()
    sched.tick(0)
    assert sched.transfer[:2] == ("alloc", 0)
    assert sched.can_start_block()
    sched.tick(sched.transfer[4])
    assert sched.cores[0].executing == 0
    assert sched.transfer is None and not sched.can_start_block()
    _finish(sched, 0, 10)
    assert sched.can_start_block()


def _prio_program(prios, length=4):
    # one block of `length` single-qubit gates per priority, on its own qubit
    lines = [f".qubits {len(prios)}"]
    for b in range(len(prios)):
        lines += [f"{0 if k == 0 else 2} H q{b}" for k in range(length)]
    lines += [f".block b{b} start={length * b} end={length * b + length - 1}"
              f" prio={p}" for b, p in enumerate(prios)]
    return parse_program("\n".join(lines) + "\n")


@pytest.mark.parametrize("cores", [1, 2])
def test_priorities_need_not_start_at_zero(cores):
    # levels are read by rank, so a table whose lowest priority is 1 starts
    # at once instead of waiting for a level 0 that no block has
    trace = _run(_prio_program([1, 3]), cores=cores)
    assert sorted(e.block for e in trace.scheduler_events
                  if e.action == "done") == [0, 1]
    compact = _run(_prio_program([0, 1]), cores=cores)
    assert trace.scheduler_events == compact.scheduler_events
    assert trace.total_cycles == compact.total_cycles


def test_next_existing_level_is_prefetched():
    # with one core, block b1 is prefetched while b0 runs although no
    # block has priority 1
    trace = _run(_prio_program([0, 2]), cores=1)
    ev = [(e.action, e.block) for e in trace.scheduler_events]
    assert ev == [("preload", 0), ("switch", 0), ("prefetch", 1), ("done", 0),
                  ("switch", 1), ("done", 1)]


def test_gapped_priorities_run_like_compacted_ones():
    # only the order of the distinct priorities matters: offset and gapped
    # levels give the same run as the same table with levels 0..k-1
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, n + 1)
        levels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(levels)
        values = sorted(rng.sample(range(1, 256), k))
        gapped = _prio_program([values[lv] for lv in levels])
        compact = _prio_program(levels)
        cfg = dict(cores=rng.randrange(1, 5), prefetch=rng.random() < 0.7,
                   t_switch=rng.choice((0, 2)))
        a, b = _run(gapped, **cfg), _run(compact, **cfg)
        assert a.scheduler_events == b.scheduler_events, (levels, values, cfg)
        assert a.block_spans == b.block_spans
        assert a.total_cycles == b.total_cycles
