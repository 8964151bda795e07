"""Multiprocessor control unit: block statuses, allocation, prefetching.

The scheduler owns one memory port. A cold allocation occupies both the port
and the scheduler itself (it answers no other request until the transfer
lands); a prefetch occupies only the port and overlaps execution. Activating
an already-prefetched cache path costs a short switch instead of a refetch.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

from .blocks import BlockInfoTable, DIRECT

__all__ = ["BlockStatus", "SchedulerEvent", "Scheduler", "SimulatorBug",
           "transfer_cost"]


class SimulatorBug(RuntimeError):
    """Internal invariant broken; never expected on legal inputs."""


class BlockStatus(IntEnum):
    WAIT = 0
    PREFETCH = 1
    IN_EXECUTION = 2
    DONE = 3


_LEGAL_TRANSITIONS = {
    (BlockStatus.WAIT, BlockStatus.PREFETCH),
    (BlockStatus.WAIT, BlockStatus.IN_EXECUTION),
    (BlockStatus.PREFETCH, BlockStatus.IN_EXECUTION),
    (BlockStatus.IN_EXECUTION, BlockStatus.DONE),
}


class SchedulerEvent(NamedTuple):
    cycle: int
    action: str          # preload | alloc | prefetch | switch | start | done
    block: int
    core: int


def transfer_cost(length_words: int, sched_response: int, bandwidth: int) -> int:
    """Cycles to move a block from main memory into a private cache."""
    return sched_response + -(-length_words // bandwidth)


class Scheduler:
    """Dynamic block scheduler over a fixed block information table.

    A priority table runs its levels in increasing order of their distinct
    priorities: `priority_counter` is the rank of the running level among
    them, so it starts at the lowest level that exists.
    """

    __slots__ = ("table", "cores", "sched_response", "fetch_bandwidth",
                 "t_switch", "prefetch_enabled", "statuses", "done_mask",
                 "priority_counter", "transfer", "events", "dirty",
                 "done_count", "_direct", "_deps", "_levels", "block_spans")

    def __init__(self, table: BlockInfoTable, cores, *, sched_response: int,
                 fetch_bandwidth: int, t_switch: int, prefetch: bool):
        self.table = table
        self.cores = cores
        self.sched_response = sched_response
        self.fetch_bandwidth = fetch_bandwidth
        self.t_switch = t_switch
        self.prefetch_enabled = prefetch
        n = len(table)
        self.statuses = [BlockStatus.WAIT] * n
        self.done_mask = 0
        self.priority_counter = 0
        # at most one transfer in flight: (kind, block, core, slot, finish)
        self.transfer: tuple[str, int, int, int, int] | None = None
        self.events: list[SchedulerEvent] = []
        self.dirty = True
        self.done_count = 0
        self._direct = table.representation == DIRECT
        self._deps = [e.dep_mask for e in table.entries]
        # the blocks of each level, indexed by the rank of its priority among
        # the distinct ones; the counter reaches the empty level past the
        # last once every block is done
        self._levels = [
            tuple(e.block_id for e in table.entries if e.priority == p)
            for p in sorted({e.priority for e in table.entries})] + [()]
        self.block_spans: list[tuple[int, int, int, int]] = []  # block, core, start, end

    # ── status bookkeeping ─────────────────────────────────────────

    def _set_status(self, b: int, status: BlockStatus) -> None:
        old = self.statuses[b]
        if (old, status) not in _LEGAL_TRANSITIONS:
            raise SimulatorBug(f"illegal status transition {old.name} -> "
                               f"{status.name} for block {b}")
        self.statuses[b] = status
        # a block sits in exactly one cache slot from its load until its
        # core has finished it, and the core that holds it, the only one
        # that can run it, runs or switches to it only in execution
        held = 0
        for core in self.cores:
            if b in core.slots:
                held += core.slots.count(b)
                holder = core
        if held != 1:
            raise SimulatorBug(f"block {b} is {status.name} in {held} "
                               f"cache slots")
        if status is not BlockStatus.IN_EXECUTION and (
                holder.executing == b or holder.switch_until is not None
                and holder.switch_args[0] == b):
            raise SimulatorBug(f"core {holder.core_id} runs block {b}, "
                               f"which is {status.name}")

    def _record(self, cycle: int, action: str, block: int, core: int) -> None:
        self.events.append(tuple.__new__(
            SchedulerEvent, (cycle, action, block, core)))

    def ready(self, b: int) -> bool:
        """Whether block b's dependences are met: every block in its
        dependence mask is done, or its level is the running one."""
        if self._direct:
            return not self._deps[b] & ~self.done_mask
        return b in self._levels[self.priority_counter]

    def _first_ready(self, below: BlockStatus) -> int | None:
        """The first block whose dependences are met and whose status is
        below `below`, or None."""
        statuses = self.statuses
        if self._direct:
            done = self.done_mask
            for b, deps in enumerate(self._deps):
                if not deps & ~done and statuses[b] < below:
                    return b
        else:
            for b in self._levels[self.priority_counter]:
                if statuses[b] < below:
                    return b
        return None

    def can_start_block(self) -> bool:
        """Whether a tick could start a block on a core: a cold allocation
        is in flight, or a block whose dependences are met (its dependence
        mask is done, or it is on the running level) has not started.

        Otherwise ticks can only start and land prefetches until some block
        finishes, as only `notify_done` moves the done mask and the
        priority level.
        """
        transfer = self.transfer
        return ((transfer is not None and transfer[0] == "alloc")
                or self._first_ready(BlockStatus.IN_EXECUTION) is not None)

    def _prefetch_candidate(self) -> int | None:
        """The first waiting block whose dependences have all started; for
        priorities, of the running level, else of the next level."""
        statuses = self.statuses
        wait = BlockStatus.WAIT
        if self._direct:
            started = sum(1 << b for b, status in enumerate(statuses)
                          if status >= BlockStatus.IN_EXECUTION)
            for b, deps in enumerate(self._deps):
                if statuses[b] is wait and not deps & ~started:
                    return b
            return None
        counter = self.priority_counter
        for level in self._levels[counter:counter + 2]:
            for b in level:
                if statuses[b] is wait:
                    return b
        return None

    # ── engine entry points ────────────────────────────────────────

    def preload(self, count: int) -> None:
        """Load the first blocks into per-core caches before the run starts."""
        if not self.prefetch_enabled:
            return
        n = min(count, len(self.table), len(self.cores))
        for i in range(n):
            core = self.cores[i]
            core.slots[0] = i
            core.slot_loaded[0] = True
            self._set_status(i, BlockStatus.PREFETCH)
            self._record(0, "preload", i, i)
        self.dirty = True

    def tick(self, now: int) -> None:
        """One scheduler step. The engine calls it only while `dirty` is
        set or when a transfer lands, and a landing sets `dirty`."""
        if self.transfer is not None and self.transfer[4] <= now:
            kind, b, c, slot, finish = self.transfer
            self.transfer = None
            core = self.cores[c]
            core.slot_loaded[slot] = True
            if kind == "alloc":
                core.start_block(b, slot, finish,
                                 self.table.entries[b].pc_start,
                                 self.table.entries[b].pc_end)
                self._record(now, "start", b, c)
            self.dirty = True

        # activate prefetched blocks whose dependencies cleared; a core that
        # a cold allocation is loading is already taken
        alloc_core = (self.transfer[2] if self.transfer is not None
                      and self.transfer[0] == "alloc" else None)
        for core in self.cores:
            if (core.executing is not None or core.switch_until is not None
                    or core.core_id == alloc_core):
                continue
            for slot in (0, 1):
                b = core.slots[slot]
                if (b is not None and core.slot_loaded[slot]
                        and self.statuses[b] == BlockStatus.PREFETCH
                        and self.ready(b)):
                    self._set_status(b, BlockStatus.IN_EXECUTION)
                    start = now + self.t_switch
                    core.begin_switch(b, slot, start,
                                      self.table.entries[b].pc_start,
                                      self.table.entries[b].pc_end)
                    self._record(now, "switch", b, core.core_id)
                    break

        if self.transfer is not None:
            # nothing this tick reads can change before the transfer lands or
            # a core starts or finishes a block, and each of those sets
            # `dirty` again; until then the engine need not call tick
            self.dirty = False
            return

        # one cold allocation, else one prefetch start, per tick without a
        # transfer in flight
        if self._try_transfer(now, "alloc"):
            return
        if self.prefetch_enabled and self._try_transfer(now, "prefetch"):
            return
        self.dirty = False

    def _try_transfer(self, now: int, kind: str) -> bool:
        """Start moving a block into a free cache slot of the first core
        that can take it: an idle core for a cold allocation ("alloc"),
        any core not switching for a prefetch ("prefetch")."""
        alloc = kind == "alloc"
        for target in self.cores:
            if ((not alloc or target.executing is None)
                    and target.switch_until is None and None in target.slots):
                break
        else:
            return False
        b = (self._first_ready(BlockStatus.PREFETCH) if alloc
             else self._prefetch_candidate())
        if b is None:
            return False
        slot = target.slots.index(None)
        finish = now + transfer_cost(self.table.entries[b].length,
                                     self.sched_response,
                                     self.fetch_bandwidth)
        target.slots[slot] = b
        target.slot_loaded[slot] = False
        self._set_status(b, BlockStatus.IN_EXECUTION if alloc
                         else BlockStatus.PREFETCH)
        self.transfer = (kind, b, target.core_id, slot, finish)
        self._record(now, kind, b, target.core_id)
        return True

    def notify_done(self, b: int, core, now: int) -> None:
        if self.statuses[b] == BlockStatus.DONE:
            raise SimulatorBug(f"double completion of block {b}")
        self._set_status(b, BlockStatus.DONE)
        self.done_mask |= 1 << b
        self.done_count += 1
        slot = core.slots.index(b)
        core.slots[slot] = None
        core.slot_loaded[slot] = False
        if not self._direct:
            statuses = self.statuses
            levels = self._levels
            counter = self.priority_counter
            while levels[counter] and all(
                    statuses[x] is BlockStatus.DONE for x in levels[counter]):
                counter += 1
            self.priority_counter = counter
        self._record(now, "done", b, core.core_id)
        self.block_spans.append((b, core.core_id, core.exec_start_cycle, now))
        self.dirty = True
