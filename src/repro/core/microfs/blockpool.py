"""Circular hugeblock pool: O(1) allocation over a partition region.

§III-E, "Hugeblocks": "We use a circular block pool for O(1) hugeblock
allocation. The use of hugeblocks significantly lowers the amount of
information that must be kept to track file blocks."

The pool covers the data region of a rank's partition, divided into
fixed-size blocks. The free ring is a FIFO of ``(start, length)`` runs,
initially one run over the whole region. Allocation takes blocks from
the head run (splitting it, or popping it when used up); free appends
runs at the tail, merging into the tail run when contiguous with it.
Expanded block by block, that is exactly a ring of single block indices
— the same blocks come out in the same order — but the cost follows the
number of runs, not the number of blocks.

A byte-per-block used-map, written and searched only by C-level slice
operations, rejects double and foreign frees. ``footprint_bytes`` is the
paper's DRAM *model* (one 4-byte index per block), which is the 8x
reduction the paper credits to 32 KiB blocks vs 4 KiB; the simulator
reports it rather than paying it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.errors import InvalidArgument, NoSpace

__all__ = ["BlockPool", "Extent"]

#: A run of blocks: ``(first block index, number of blocks)``.
Extent = Tuple[int, int]

_USED = b"\x01"


class BlockPool:  # reproflow: ignore[FLOW103] (writes serialized by MicroFS op order)
    """Fixed-size block allocator over ``[0, capacity_blocks)``."""

    def __init__(self, region_bytes: int, block_bytes: int):
        if block_bytes <= 0:
            raise InvalidArgument(f"block size must be positive, got {block_bytes}")
        if region_bytes < block_bytes:
            raise InvalidArgument(
                f"region of {region_bytes} bytes holds no {block_bytes}-byte block"
            )
        self.block_bytes = block_bytes
        self.capacity_blocks = region_bytes // block_bytes
        self._free: Deque[Extent] = deque([(0, self.capacity_blocks)])
        self._free_count = self.capacity_blocks
        self._used = bytearray(self.capacity_blocks)  # 1 = allocated

    # -- allocation ---------------------------------------------------------------

    def alloc_many(self, count: int) -> List[Extent]:
        """Take the next ``count`` blocks off the ring as extents; all-or-nothing.

        Consecutive ring runs are never contiguous (``free_many`` merges
        those), so the returned extents are maximal.
        """
        if count < 0:
            raise InvalidArgument(f"negative block count: {count}")
        if count > self._free_count:
            raise NoSpace(
                f"need {count} blocks, only {self._free_count} free of "
                f"{self.capacity_blocks}"
            )
        extents: List[Extent] = []
        need = count
        while need:
            start, length = self._free[0]
            if length <= need:
                self._free.popleft()
            else:
                self._free[0] = (start + need, length - need)
                length = need
            self._used[start:start + length] = _USED * length
            extents.append((start, length))
            need -= length
        self._free_count -= count
        return extents

    def free_many(self, extents: List[Extent]) -> None:
        """Return extents to the tail of the ring, in order; all-or-nothing.

        Every extent must lie inside the pool, be wholly allocated, and
        not overlap another extent of the same call; otherwise nothing
        is freed.
        """
        prev_end = 0
        for start, length in sorted(extents):
            if length <= 0 or start < prev_end or start + length > self.capacity_blocks:
                raise InvalidArgument(f"bad or overlapping extent ({start}, {length})")
            if self._used.find(0, start, start + length) != -1:
                raise InvalidArgument(
                    f"double free or foreign blocks in extent ({start}, {length})"
                )
            prev_end = start + length
        free = self._free
        for start, length in extents:
            self._used[start:start + length] = bytes(length)
            if free and free[-1][0] + free[-1][1] == start:
                free[-1] = (free[-1][0], free[-1][1] + length)
            else:
                free.append((start, length))
            self._free_count += length

    # -- accounting ----------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._free_count

    @property
    def used_blocks(self) -> int:
        return self.capacity_blocks - self._free_count

    def offset_of(self, block: int) -> int:
        """Byte offset of a block within the data region."""
        if not 0 <= block < self.capacity_blocks:
            raise InvalidArgument(f"block {block} outside pool")
        return block * self.block_bytes

    def footprint_bytes(self) -> int:
        """Modelled DRAM cost of tracking the pool: 4 bytes per block index."""
        return 4 * self.capacity_blocks

    # -- persistence (for internal-state checkpoints) --------------------------------

    def snapshot(self) -> dict:
        """The free ring as runs; every block outside it is allocated."""
        return {
            "block_bytes": self.block_bytes,
            "capacity_blocks": self.capacity_blocks,
            "free": list(self._free),
        }

    @classmethod
    def restore(cls, snap: dict) -> "BlockPool":
        pool = cls.__new__(cls)
        pool.block_bytes = snap["block_bytes"]
        pool.capacity_blocks = snap["capacity_blocks"]
        pool._free = deque(snap["free"])
        pool._free_count = sum(length for _start, length in pool._free)
        pool._used = bytearray(_USED) * pool.capacity_blocks
        for start, length in pool._free:
            pool._used[start:start + length] = bytes(length)
        return pool
