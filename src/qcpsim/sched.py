"""Multiprocessor control unit: block statuses, allocation, prefetching.

The scheduler owns one memory port. A cold allocation occupies both the port
and the scheduler itself (it answers no other request until the transfer
lands); a prefetch occupies only the port and overlaps execution. Activating
an already-prefetched cache path costs a short switch instead of a refetch.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

from .blocks import BlockInfoTable, DIRECT, deps_satisfied

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
    """Dynamic block scheduler over a fixed block information table."""

    __slots__ = ("table", "cores", "sched_response", "fetch_bandwidth",
                 "t_switch", "prefetch_enabled", "statuses", "done_mask",
                 "priority_counter", "busy_until", "transfer", "events",
                 "dirty", "done_count", "_max_prio", "_by_priority",
                 "_level_remaining", "block_spans")

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
        self.busy_until = 0
        # at most one transfer in flight: (kind, block, core, slot, finish)
        self.transfer: tuple[str, int, int, int, int] | None = None
        self.events: list[SchedulerEvent] = []
        self.dirty = True
        self.done_count = 0
        self._max_prio = table.max_priority
        self._by_priority: dict[int, list[int]] = {}
        if table.representation != DIRECT:
            for e in table.entries:
                self._by_priority.setdefault(e.priority, []).append(e.block_id)
        self._level_remaining = {p: len(v) for p, v in self._by_priority.items()}
        self.block_spans: list[tuple[int, int, int, int]] = []  # block, core, start, end

    # ── status bookkeeping ─────────────────────────────────────────

    def _set_status(self, b: int, status: BlockStatus) -> None:
        old = self.statuses[b]
        if (old, status) not in _LEGAL_TRANSITIONS:
            raise SimulatorBug(f"illegal status transition {old.name} -> "
                               f"{status.name} for block {b}")
        self.statuses[b] = status

    def _record(self, cycle: int, action: str, block: int, core: int) -> None:
        self.events.append(tuple.__new__(
            SchedulerEvent, (cycle, action, block, core)))

    def ready(self, b: int) -> bool:
        return deps_satisfied(self.table, self.done_mask, self.priority_counter, b)

    def can_start_block(self) -> bool:
        """Whether a tick could start a block on a core: a cold allocation
        is in flight, or a block whose dependences are met has not started.

        Otherwise ticks can only start and land prefetches until some block
        finishes, as only `notify_done` moves the done mask and the
        priority level.
        """
        transfer = self.transfer
        if transfer is not None and transfer[0] == "alloc":
            return True
        statuses = self.statuses
        if self.table.representation == DIRECT:
            done = self.done_mask
            for b, entry in enumerate(self.table.entries):
                if (statuses[b] < BlockStatus.IN_EXECUTION
                        and not entry.dep_mask & ~done):
                    return True
            return False
        for b in self._by_priority.get(self.priority_counter, ()):
            if statuses[b] < BlockStatus.IN_EXECUTION:
                return True
        return False

    def _prefetchable(self, b: int) -> bool:
        """Dependencies all running or finished; for priorities, this level
        or the one right after the running level."""
        entry = self.table.entries[b]
        if self.table.representation == DIRECT:
            mask = entry.dep_mask
            i = 0
            while mask:
                if mask & 1 and self.statuses[i] not in (
                        BlockStatus.IN_EXECUTION, BlockStatus.DONE):
                    return False
                mask >>= 1
                i += 1
            return True
        return entry.priority in (self.priority_counter, self.priority_counter + 1)

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

        if not self.dirty:
            return

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

        if now < self.busy_until or self.transfer is not None:
            # nothing this tick reads can change before the transfer lands or
            # a core starts or finishes a block, and each of those sets
            # `dirty` again; until then the engine need not call tick
            self.dirty = False
            return

        # one cold allocation, else one prefetch start, per non-busy tick
        if self._try_alloc(now):
            return
        if self.prefetch_enabled and self._try_prefetch(now):
            return
        self.dirty = False

    def _alloc_candidates(self) -> list[int]:
        statuses = self.statuses
        if self.table.representation == DIRECT:
            done = self.done_mask
            entries = self.table.entries
            return [b for b, status in enumerate(statuses)
                    if status == BlockStatus.WAIT
                    and (entries[b].dep_mask & ~done) == 0]
        level = self._by_priority.get(self.priority_counter, ())
        return [b for b in level if statuses[b] == BlockStatus.WAIT]

    def _prefetch_candidates(self) -> list[int]:
        statuses = self.statuses
        if self.table.representation == DIRECT:
            return [b for b, status in enumerate(statuses)
                    if status == BlockStatus.WAIT and self._prefetchable(b)]
        out = []
        for level in (self.priority_counter, self.priority_counter + 1):
            for b in self._by_priority.get(level, ()):
                if statuses[b] == BlockStatus.WAIT:
                    out.append(b)
        return out

    def _try_alloc(self, now: int) -> bool:
        target = None
        for core in self.cores:
            if (core.executing is None and core.switch_until is None
                    and (core.slots[0] is None or core.slots[1] is None)):
                target = core
                break
        if target is None:
            return False
        cand = self._alloc_candidates()
        if not cand:
            return False
        b = cand[0]
        slot = 0 if target.slots[0] is None else 1
        finish = now + transfer_cost(self.table.entries[b].length,
                                     self.sched_response,
                                     self.fetch_bandwidth)
        target.slots[slot] = b
        target.slot_loaded[slot] = False
        self._set_status(b, BlockStatus.IN_EXECUTION)
        self.transfer = ("alloc", b, target.core_id, slot, finish)
        self.busy_until = finish
        self._record(now, "alloc", b, target.core_id)
        return True

    def _try_prefetch(self, now: int) -> bool:
        target = None
        for core in self.cores:
            if (core.switch_until is None
                    and (core.slots[0] is None or core.slots[1] is None)):
                target = core
                break
        if target is None:
            return False
        cand = self._prefetch_candidates()
        if not cand:
            return False
        b = cand[0]
        slot = 0 if target.slots[0] is None else 1
        finish = now + transfer_cost(self.table.entries[b].length,
                                     self.sched_response,
                                     self.fetch_bandwidth)
        target.slots[slot] = b
        target.slot_loaded[slot] = False
        self._set_status(b, BlockStatus.PREFETCH)
        self.transfer = ("prefetch", b, target.core_id, slot, finish)
        self._record(now, "prefetch", b, target.core_id)
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
        if self.table.representation != DIRECT:
            prio = self.table.entries[b].priority
            self._level_remaining[prio] -= 1
            remaining = self._level_remaining
            counter = self.priority_counter
            while counter <= self._max_prio and remaining.get(counter, 0) == 0:
                counter += 1
            self.priority_counter = counter
        self._record(now, "done", b, core.core_id)
        self.block_spans.append((b, core.core_id, core.exec_start_cycle, now))
        self.dirty = True
