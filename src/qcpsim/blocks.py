"""Block information table: PC ranges plus dependency bookkeeping.

Two dependency representations are supported. *Direct* stores, per block, a
bit vector over all block ids; a block is ready once every bit it depends on
is cleared (the block finished). *Priority* stores one small integer per
block; a counter admits all blocks of the current priority and advances when
they are all done.
"""

from __future__ import annotations

from dataclasses import dataclass

from .isa import MAX_BLOCKS, Program, _effective_blocks

__all__ = [
    "DIRECT", "PRIORITY", "BlockInfoEntry", "BlockInfoTable", "TableError",
    "build_table", "deps_satisfied",
    "pack_priority_entry", "unpack_priority_entry", "level_assignment",
    "to_priority_table",
]

DIRECT = "direct"
PRIORITY = "priority"

# packed priority entry: start[31:20] | end[19:8] | priority[7:0]
_PACK_PC_MAX = (1 << 12) - 1
_PACK_PRIO_MAX = (1 << 8) - 1


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class BlockInfoEntry:
    block_id: int
    name: str
    pc_start: int
    pc_end: int
    dep_mask: int = 0          # direct representation: bit per block id
    priority: int = 0          # priority representation

    @property
    def length(self) -> int:
        return self.pc_end - self.pc_start + 1


@dataclass(frozen=True)
class BlockInfoTable:
    entries: tuple[BlockInfoEntry, ...]
    representation: str        # DIRECT or PRIORITY

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def max_priority(self) -> int:
        if self.representation != PRIORITY or not self.entries:
            return 0
        return max(e.priority for e in self.entries)


def build_table(p: Program) -> BlockInfoTable:
    """Resolve block directives into a table; ids are dense in declaration order.

    Expects a program that `validate_program` accepted: block geometry and
    branch targets are not checked again here. Only what the table itself
    needs is checked, with a `TableError`: its capacity and that every
    dependency names a block.
    """
    directives = _effective_blocks(p)
    if not directives:
        return BlockInfoTable((), DIRECT)
    if len(directives) > MAX_BLOCKS:
        raise TableError(f"block table capacity exceeded ({len(directives)})")

    ids = {d.name: i for i, d in enumerate(directives)}
    representation = PRIORITY if directives[0].priority is not None else DIRECT
    entries = []
    for i, d in enumerate(directives):
        if representation == PRIORITY:
            entries.append(BlockInfoEntry(i, d.name, d.pc_start, d.pc_end,
                                          priority=d.priority))
        else:
            mask = 0
            for dep in d.deps or ():
                if dep not in ids:
                    raise TableError(f"unresolved dependency {dep!r}")
                mask |= 1 << ids[dep]
            entries.append(BlockInfoEntry(i, d.name, d.pc_start, d.pc_end,
                                          dep_mask=mask))
    return BlockInfoTable(tuple(entries), representation)


def deps_satisfied(table: BlockInfoTable, done_mask: int, counter: int,
                   block_id: int) -> bool:
    """True when the block may start: cleared dep vector, or matching priority."""
    entry = table.entries[block_id]
    if table.representation == DIRECT:
        return (entry.dep_mask & ~done_mask) == 0
    return entry.priority == counter


def pack_priority_entry(entry: BlockInfoEntry) -> int:
    """Pack a priority entry into its 32-bit table word."""
    if entry.pc_start > _PACK_PC_MAX or entry.pc_end > _PACK_PC_MAX:
        raise TableError(f"pc range of {entry.name!r} does not fit 12 bits")
    if entry.priority > _PACK_PRIO_MAX:
        raise TableError(f"priority of {entry.name!r} does not fit 8 bits")
    return (entry.pc_start << 20) | (entry.pc_end << 8) | entry.priority


def unpack_priority_entry(block_id: int, word: int,
                          name: str = "") -> BlockInfoEntry:
    return BlockInfoEntry(block_id, name or f"b{block_id}",
                          (word >> 20) & 0xFFF, (word >> 8) & 0xFFF,
                          priority=word & 0xFF)


def level_assignment(table: BlockInfoTable) -> list[int]:
    """Longest-path depth of each block in the direct dependency DAG."""
    if table.representation != DIRECT:
        return [e.priority for e in table.entries]
    levels = [0] * len(table.entries)
    resolved = [False] * len(table.entries)

    def depth(i: int) -> int:
        if resolved[i]:
            return levels[i]
        mask = table.entries[i].dep_mask
        best = -1
        j = 0
        while mask:
            if mask & 1:
                best = max(best, depth(j))
            mask >>= 1
            j += 1
        levels[i] = best + 1
        resolved[i] = True
        return levels[i]

    for i in range(len(table.entries)):
        depth(i)
    return levels


def to_priority_table(table: BlockInfoTable) -> BlockInfoTable:
    """Re-express a direct table with priorities set to DAG levels."""
    if table.representation == PRIORITY:
        return table
    levels = level_assignment(table)
    entries = tuple(
        BlockInfoEntry(e.block_id, e.name, e.pc_start, e.pc_end,
                       priority=levels[e.block_id])
        for e in table.entries)
    return BlockInfoTable(entries, PRIORITY)


def to_direct_table(table: BlockInfoTable) -> BlockInfoTable:
    """Re-express a priority table with direct vectors over the previous
    level; level barriers carry over transitively, so admitted execution
    orders are unchanged."""
    if table.representation == DIRECT:
        return table
    levels = sorted({e.priority for e in table.entries})
    previous: dict[int, int] = {}
    prev_mask = 0
    for lv in levels:
        previous[lv] = prev_mask
        prev_mask = 0
        for e in table.entries:
            if e.priority == lv:
                prev_mask |= 1 << e.block_id
    entries = tuple(
        BlockInfoEntry(e.block_id, e.name, e.pc_start, e.pc_end,
                       dep_mask=previous[e.priority])
        for e in table.entries)
    return BlockInfoTable(entries, DIRECT)
