"""Byte-addressed extent store backing each NVMe namespace.

Keeps written payloads in a sorted, non-overlapping list of extents.
Writes split/trim whatever they overlap (last-writer-wins, like flash
FTL mappings); reads return the overlapping pieces plus implicit-zero
gaps. Sequential checkpoint traffic produces O(files) extents, so the
store stays tiny even for multi-hundred-GB simulated dumps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import InvalidCommand
from repro.nvme.commands import Payload

__all__ = ["Extent", "ExtentStore"]


@dataclass
class Extent:
    """A contiguous written range: [start, start + length)."""

    start: int
    length: int
    payload: Payload

    @property
    def end(self) -> int:
        return self.start + self.length


class ExtentStore:
    """Sorted non-overlapping extents over a byte range of given size."""

    def __init__(self, size: int):
        if size < 0:
            raise InvalidCommand(f"negative store size: {size}")
        self.size = size
        self._starts: List[int] = []
        self._extents: List[Extent] = []

    # -- helpers ---------------------------------------------------------------

    def _check_range(self, start: int, length: int) -> None:
        if start < 0 or length < 0 or start + length > self.size:
            raise InvalidCommand(
                f"range [{start}, {start + length}) outside store of {self.size} bytes"
            )

    def _overlap_slice(self, start: int, end: int) -> Tuple[int, int]:
        """Index range [lo, hi) of extents intersecting [start, end)."""
        lo = bisect.bisect_right(self._starts, start) - 1
        if lo >= 0 and self._extents[lo].end <= start:
            lo += 1
        lo = max(lo, 0)
        hi = bisect.bisect_left(self._starts, end)
        return lo, hi

    # -- mutation ----------------------------------------------------------------

    def write(self, start: int, payload: Payload) -> None:
        """Write ``payload`` at ``start``, replacing what it overlaps."""
        length = payload.nbytes
        self._check_range(start, length)
        if length == 0:
            return
        end = start + length
        lo, hi = self._overlap_slice(start, end)
        keep_before: Optional[Extent] = None
        keep_after: Optional[Extent] = None
        if lo < hi:
            first = self._extents[lo]
            if first.start < start:
                keep_before = Extent(
                    first.start, start - first.start, first.payload.slice(0, start - first.start)
                )
            last = self._extents[hi - 1]
            if last.end > end:
                offset = end - last.start
                keep_after = Extent(end, last.end - end, last.payload.slice(offset, last.end - end))
        replacement = []
        if keep_before:
            replacement.append(keep_before)
        replacement.append(Extent(start, length, payload))
        if keep_after:
            replacement.append(keep_after)
        self._extents[lo:hi] = replacement
        self._starts[lo:hi] = [e.start for e in replacement]

    def discard(self, start: int, length: int) -> None:
        """Remove (trim) any data in [start, start+length) — TRIM/deallocate."""
        self._check_range(start, length)
        if length == 0:
            return
        end = start + length
        lo, hi = self._overlap_slice(start, end)
        replacement = []
        if lo < hi:
            first = self._extents[lo]
            if first.start < start:
                replacement.append(
                    Extent(first.start, start - first.start, first.payload.slice(0, start - first.start))
                )
            last = self._extents[hi - 1]
            if last.end > end:
                offset = end - last.start
                replacement.append(
                    Extent(end, last.end - end, last.payload.slice(offset, last.end - end))
                )
        self._extents[lo:hi] = replacement
        self._starts[lo:hi] = [e.start for e in replacement]

    def clear(self) -> None:
        self._starts.clear()
        self._extents.clear()

    # -- queries ---------------------------------------------------------------

    def read(self, start: int, length: int) -> List[Extent]:
        """Extents overlapping [start, start+length), clipped to the range.

        Gaps (never-written bytes) are simply absent — callers that need
        zero-fill semantics (the POSIX layer) synthesise zeros for gaps.
        """
        self._check_range(start, length)
        end = start + length
        lo, hi = self._overlap_slice(start, end)
        out: List[Extent] = []
        for extent in self._extents[lo:hi]:
            clip_start = max(extent.start, start)
            clip_end = min(extent.end, end)
            if clip_end <= clip_start:
                continue
            offset = clip_start - extent.start
            out.append(
                Extent(clip_start, clip_end - clip_start, extent.payload.slice(offset, clip_end - clip_start))
            )
        return out

    def read_bytes(self, start: int, length: int) -> bytes:
        """Materialise [start, start+length) as real bytes, zero-filling gaps.

        Only valid when every overlapping extent holds real bytes — the
        metadata/log path. Synthetic extents raise, catching misuse.
        """
        pieces = self.read(start, length)
        out = bytearray(length)
        for extent in pieces:
            if extent.payload.is_synthetic:
                raise InvalidCommand(
                    "read_bytes over synthetic payload — bulk data has no real bytes"
                )
            # A zero tail needs no copy: ``out`` is already zero.
            data = extent.payload.data
            at = extent.start - start
            out[at : at + len(data)] = data
        return bytes(out)

    def bytes_stored(self) -> int:
        return sum(e.length for e in self._extents)

    def extent_count(self) -> int:
        return len(self._extents)
