"""Block information table semantics against brute-force oracles."""

import random

import pytest

from qcpsim.blocks import (
    DIRECT, PRIORITY, BlockInfoEntry, BlockInfoTable, TableError,
    build_table, level_assignment, pack_priority_entry,
    to_direct_table, to_priority_table, unpack_priority_entry,
)
from qcpsim.isa import MAX_BLOCKS, parse_program
from qcpsim.sched import BlockStatus, Scheduler


def _program(block_lines):
    top = max(int(tok.split("=")[1]) for line in block_lines
              for tok in line.split() if tok.startswith("end="))
    lines = [".qubits 1"] + ["0 H q0"] * (top + 1)
    lines += block_lines
    return parse_program("\n".join(lines) + "\n")


def test_build_table_direct_example():
    p = _program([
        ".block W1 start=0 end=10 deps=none",
        ".block W2 start=11 end=20 deps=none",
        ".block W3 start=21 end=30 deps=W1+W2",
        ".block W4 start=31 end=40 deps=W3",
    ])
    t = build_table(p)
    assert t.representation == DIRECT
    assert [e.pc_start for e in t.entries] == [0, 11, 21, 31]
    assert [e.pc_end for e in t.entries] == [10, 20, 30, 40]
    assert [e.dep_mask for e in t.entries] == [0b0000, 0b0000, 0b0011, 0b0100]


def test_build_table_priorities():
    p = _program([
        ".block W1 start=0 end=9 prio=0",
        ".block W2 start=10 end=19 prio=0",
        ".block W3 start=20 end=29 prio=1",
        ".block W4 start=30 end=39 prio=2",
    ])
    t = build_table(p)
    assert t.representation == PRIORITY
    assert [e.priority for e in t.entries] == [0, 0, 1, 2]


def test_build_table_single_block_no_deps():
    t = build_table(_program([".block only start=0 end=9 deps=none"]))
    assert len(t) == 1 and t.entries[0].dep_mask == 0


def test_build_table_implicit_main_block():
    # a program without block directives is one block over every instruction
    t = build_table(parse_program("0 H q0\n1 H q0\n2 H q0\n"))
    assert t.representation == DIRECT
    assert [(e.name, e.pc_start, e.pc_end, e.dep_mask) for e in t.entries] \
        == [("main", 0, 2, 0)]
    assert len(build_table(parse_program(".qubits 1\n"))) == 0


def test_build_table_unresolved_dep():
    with pytest.raises(TableError):
        build_table(_program([".block a start=0 end=9 deps=ghost"]))


def test_build_table_capacity():
    with pytest.raises(TableError, match="capacity exceeded"):
        build_table(_program([f".block b{i} start={i} end={i} deps=none"
                              for i in range(MAX_BLOCKS + 1)]))


def _priority_table(prios):
    entries = tuple(BlockInfoEntry(i, f"b{i}", 10 * i, 10 * i + 9, priority=p)
                    for i, p in enumerate(prios))
    return BlockInfoTable(entries, PRIORITY)


class _StubCore:
    """Just enough of a core for `Scheduler.notify_done`."""

    core_id = 0
    exec_start_cycle = 0

    def __init__(self):
        self.slots = [None, None]
        self.slot_loaded = [False, False]


def _scheduler(table):
    return Scheduler(table, [_StubCore()], sched_response=4,
                     fetch_bandwidth=4, t_switch=2, prefetch=False)


def _finish(sched, b):
    """Complete block b as a core does; returns the priority counter."""
    core = sched.cores[0]
    sched._set_status(b, BlockStatus.IN_EXECUTION)
    core.slots = [b, None]
    sched.notify_done(b, core, 0)
    return sched.priority_counter


def _ready(table, done, b):
    """`Scheduler.ready` of block b once the blocks in the `done` mask
    have finished."""
    sched = _scheduler(table)
    for d in range(len(table)):
        if (done >> d) & 1:
            _finish(sched, d)
    return sched.ready(b)


def test_deps_satisfied_direct_example():
    t = build_table(_program([
        ".block W1 start=0 end=9 deps=none",
        ".block W2 start=10 end=19 deps=none",
        ".block W3 start=20 end=29 deps=W1+W2",
    ]))
    assert _ready(t, 0b011, 2)
    assert not _ready(t, 0b001, 2)
    assert _ready(t, 0, 0)  # empty dependency vector


def _random_dag_tables(rng, blocks):
    deps = []
    for i in range(blocks):
        mask = 0
        for j in range(i):
            if rng.random() < 0.4:
                mask |= 1 << j
        deps.append(mask)
    entries = tuple(BlockInfoEntry(i, f"b{i}", 10 * i, 10 * i + 9, dep_mask=m)
                    for i, m in enumerate(deps))
    return BlockInfoTable(entries, DIRECT), deps


def test_deps_satisfied_matches_subset_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 9)
        table, deps = _random_dag_tables(rng, n)
        for bits in range(1 << n):
            done = bits
            for b in range(n):
                # oracle: every predecessor present in the done set
                expected = all((done >> j) & 1 for j in range(n)
                               if (deps[b] >> j) & 1)
                assert _ready(table, done, b) == expected


def test_monotone_readiness():
    rng = random.Random(11)
    table, _ = _random_dag_tables(rng, 8)
    order = list(range(8))
    rng.shuffle(order)
    sched = _scheduler(table)
    ready_seen = set()
    for b in order:
        for probe in range(8):
            if sched.ready(probe):
                ready_seen.add(probe)
        for probe in ready_seen:
            assert sched.ready(probe)
        _finish(sched, b)


def test_advance_counter_example():
    sched = _scheduler(_priority_table([0, 0, 1, 2]))
    assert _finish(sched, 0) == 0     # the other priority-0 block is pending
    assert _finish(sched, 1) == 1     # both done; W3 still pending at 1


def test_advance_counter_terminal():
    sched = _scheduler(_priority_table([0, 0, 1, 2]))
    for b in range(4):
        counter = _finish(sched, b)
    assert counter == 3               # one past the last of the three levels


def test_counter_trace_matches_min_pending_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 9)
        prios = [rng.randrange(0, 4) for _ in range(n)]
        # normalize so every level below max is populated
        levels = sorted(set(prios))
        remap = {p: i for i, p in enumerate(levels)}
        prios = [remap[p] for p in prios]
        sched = _scheduler(_priority_table(prios))
        # an execution order legal under the counter semantics
        counter = sched.priority_counter
        assert counter == 0
        remaining = set(range(n))
        while remaining:
            eligible = [b for b in remaining if prios[b] == counter]
            b = rng.choice(eligible)
            remaining.discard(b)
            counter = _finish(sched, b)
            expected = min((prios[b] for b in remaining), default=max(prios) + 1)
            assert counter == expected


def test_priority_direct_equivalent_order_sets():
    # when priorities are a level assignment of the DAG, both
    # representations admit exactly the same execution orders
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 7)
        table, deps = _random_dag_tables(rng, n)
        levels = level_assignment(table)
        ptable = to_priority_table(table)
        assert [e.priority for e in ptable.entries] == levels

        def orders(ready):
            out = set()

            def rec(done, prefix):
                avail = [b for b in range(n)
                         if not (done >> b) & 1 and ready(done, b)]
                if not avail:
                    if len(prefix) == n:
                        out.add(tuple(prefix))
                    return
                for b in avail:
                    rec(done | (1 << b), prefix + [b])

            rec(0, [])
            return out

        direct_orders = orders(lambda done, b: _ready(table, done, b))
        # the counter depends only on which blocks are done
        prio_orders = orders(lambda done, b: _ready(ptable, done, b))
        # priority levels are a coarsening: every priority-legal order is
        # direct-legal, and levelwise orders exist in both
        assert prio_orders <= direct_orders
        assert prio_orders


def test_packed_priority_entry_round_trip():
    e = BlockInfoEntry(3, "w", 17, 141, priority=9)
    word = pack_priority_entry(e)
    assert 0 <= word < (1 << 32)
    back = unpack_priority_entry(3, word, "w")
    assert (back.pc_start, back.pc_end, back.priority) == (17, 141, 9)
    with pytest.raises(TableError):
        pack_priority_entry(BlockInfoEntry(0, "x", 0, 5000, priority=0))


def test_to_direct_table_levels():
    t = _priority_table([0, 0, 1, 2])
    d = to_direct_table(t)
    assert d.representation == DIRECT
    assert [e.dep_mask for e in d.entries] == [0, 0, 0b0011, 0b0100]
