"""Write-ahead operation log: metadata provenance + record coalescing.

§III-E, "Metadata Provenance": metadata (inodes, block pool, B+Tree)
lives in compute-node DRAM; durability comes from journaling *operations*
— "Only the syscall type and its parameters need to be added to the
log". Replay re-executes the operations; block addresses need not be
logged because the circular pool re-allocates deterministically in log
order.

§III-E, "Log Record Coalescing": consecutive writes to the same file
coalesce into one record via a sliding window — "Instead of adding new
log records for each write, we can simply update the log record for the
previous write" (Figure 5). The log fill rate drops (fewer internal
state checkpoints) and replay length drops (near-instantaneous runtime
recovery, §IV-I).

Records encode to real bytes in fixed 64-byte slots (multi-slot for long
names); recovery decodes the raw log region read back from the SSD. The
physical-logging ablation (``metadata_provenance=False``) pads every
record to a 4 KiB inode image — the "large sized physical log records"
other systems ship. The padding reserves log slots and wire bytes; its
zeros are never encoded, and the device holds them as a size.
"""

from __future__ import annotations

import bisect
import enum
import re
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.bench import calibration as cal
from repro.errors import InvalidArgument, NoSpace, RecoveryError

__all__ = ["LogOp", "LogRecord", "AppendResult", "OperationLog"]

_SLOT = cal.NVMECR_LOG_RECORD_BYTES  # 64
_PAGE = 4096
_MAGIC = 0xC4
# lsn u64 | epoch u32 | op u8 | magic u8 | ino u64 | parent u64 |
# a u64 | b u64 | mode u32 | name_len u16  => 52 bytes + name
_FIXED = struct.Struct("<QIBBQQQQIH")
_NONZERO = re.compile(rb"[^\x00]")


class LogOp(enum.Enum):
    MKDIR = 1
    CREAT = 2
    WRITE = 3
    UNLINK = 4
    TRUNCATE = 5
    CLOSE = 6
    RENAME = 7


@dataclass
class LogRecord:
    """One journaled metadata operation."""

    lsn: int
    op: LogOp
    ino: int = 0
    parent_ino: int = 0
    a: int = 0  # WRITE: offset     TRUNCATE: new size
    b: int = 0  # WRITE: length
    mode: int = 0
    name: str = ""
    epoch: int = 0

    # -- wire format -------------------------------------------------------------

    def encode(self) -> bytes:
        name_bytes = self.name.encode()
        if len(name_bytes) > 65535:
            raise InvalidArgument("name too long for log record")
        raw = _FIXED.pack(
            self.lsn, self.epoch, self.op.value, _MAGIC, self.ino,
            self.parent_ino, self.a, self.b, self.mode, len(name_bytes),
        ) + name_bytes
        slots = -(-len(raw) // _SLOT)
        return raw.ljust(slots * _SLOT, b"\x00")

    @property
    def wire_slots(self) -> int:
        return -(-(_FIXED.size + len(self.name.encode())) // _SLOT)

    @classmethod
    def decode_stream(cls, data: bytes) -> List["LogRecord"]:
        """Decode back-to-back records.

        Empty (all-zero) slots are skipped — a physical-logging record of
        weight ``w`` reserves ``w`` 4 KiB pages but encodes into its first
        slot. The skip jumps straight to the slot holding the next
        non-zero byte, so an erased region costs a C-level scan, and
        scanning ends when no non-zero byte is left. An undecodable
        record raises :class:`RecoveryError`.
        """
        records: List[LogRecord] = []
        at = 0
        while at + _FIXED.size <= len(data):
            (lsn, epoch, op, magic, ino, parent, a, b, mode, name_len) = _FIXED.unpack_from(data, at)
            if magic != _MAGIC:
                found = _NONZERO.search(data, at)
                if found is None:
                    break  # the rest of the region is erased
                next_slot = found.start() - found.start() % _SLOT
                if next_slot == at:
                    raise RecoveryError(f"corrupt log record at offset {at}")
                at = next_slot  # erased slots — skip
                continue
            name_at = at + _FIXED.size
            if name_at + name_len > len(data):
                raise RecoveryError(f"log record at offset {at} runs past the region")
            try:
                name = data[name_at : name_at + name_len].decode()
                record = cls(lsn, LogOp(op), ino, parent, a, b, mode, name, epoch)
            except ValueError as exc:  # bad UTF-8 or an unknown op
                raise RecoveryError(f"corrupt log record at offset {at}: {exc}") from exc
            records.append(record)
            at += record.wire_slots * _SLOT
        return records


@dataclass
class AppendResult:
    """What the fs layer must write to the SSD for this append."""

    record: LogRecord
    coalesced: bool
    region_offset: int  # page-aligned offset within the log region
    page_bytes: bytes  # the (re)written page content
    wire_bytes: int = field(default=_PAGE)  # bytes crossing the fabric


class OperationLog:  # reproflow: ignore[FLOW103] (LSN order is the tie-break)
    """Fixed-capacity in-order log with an in-memory mirror.

    The in-memory record list is the authoritative mirror; ``append``
    returns the page image the caller must persist. Slots are allocated
    sequentially; ``reset`` (after an internal-state checkpoint) starts a
    new epoch so stale on-device records are ignored by recovery.
    """

    def __init__(
        self,
        capacity_bytes: int,
        coalescing: bool = True,
        window: int = 8,
        physical_records: bool = False,
    ):
        if capacity_bytes < _PAGE:
            raise InvalidArgument(f"log region of {capacity_bytes} bytes < one page")
        self.capacity_bytes = capacity_bytes
        self.coalescing = coalescing
        self.window = window
        self.physical_records = physical_records
        self.epoch = 1
        self._next_lsn = 1
        self._records: List[LogRecord] = []
        self._slots_used = 0  # in slot units
        self._positions: List[int] = []  # slot index of each record
        self._widest_slots = 1  # most slots any live record encodes into
        self._window: Deque[int] = deque(maxlen=window)  # record indices
        # Lifetime counters for Table I / drilldown accounting.
        self.total_appends = 0
        self.total_coalesced = 0
        self.total_wire_bytes = 0

    # -- capacity ----------------------------------------------------------------

    def _record_slots(self, record: LogRecord, weight: int = 1) -> int:
        if self.physical_records:
            # A name longer than the image keeps every slot it encodes into.
            return max(weight * (cal.PHYSICAL_LOG_RECORD_BYTES // _SLOT), record.wire_slots)
        return record.wire_slots

    @property
    def capacity_slots(self) -> int:
        return self.capacity_bytes // _SLOT

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self._slots_used

    @property
    def free_fraction(self) -> float:
        return self.free_slots / self.capacity_slots

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    # -- append ---------------------------------------------------------------------

    def append(
        self,
        op: LogOp,
        ino: int = 0,
        parent_ino: int = 0,
        a: int = 0,
        b: int = 0,
        mode: int = 0,
        name: str = "",
        physical_weight: int = 1,
    ) -> AppendResult:
        """Journal one operation; possibly coalesces into a prior WRITE.

        ``physical_weight`` only matters in physical-logging mode: it is
        the number of 4 KiB physical records (inode images + bitmap
        pages) the operation would journal — large writes touch many
        blocks and ship proportionally more journal bytes, the traffic
        metadata provenance eliminates (Figure 7(d)).
        """
        self.total_appends += 1
        if self.coalescing and op is LogOp.WRITE:
            merged = self._try_coalesce(ino, a, b)
            if merged is not None:
                return merged
        record = LogRecord(
            lsn=self._next_lsn, op=op, ino=ino, parent_ino=parent_ino,
            a=a, b=b, mode=mode, name=name, epoch=self.epoch,
        )
        slots = self._record_slots(record, physical_weight)
        if slots > self.free_slots:
            raise NoSpace(
                f"operation log full: need {slots} slots, {self.free_slots} free"
            )
        self._next_lsn += 1
        position = self._slots_used
        self._records.append(record)
        self._positions.append(position)
        self._widest_slots = max(self._widest_slots, record.wire_slots)
        self._slots_used += slots
        self._window.append(len(self._records) - 1)
        return self._result(len(self._records) - 1, coalesced=False, physical_weight=physical_weight)

    def _try_coalesce(self, ino: int, offset: int, length: int) -> Optional[AppendResult]:
        """Sliding-window search for the record of the preceding write."""
        for index in reversed(self._window):
            record = self._records[index]
            if record.op is LogOp.WRITE and record.ino == ino:
                if record.a + record.b == offset:
                    record.b += length
                    self.total_coalesced += 1
                    return self._result(index, coalesced=True)
                break  # most recent write to this file doesn't abut: stop
        return None

    def _result(self, index: int, coalesced: bool, physical_weight: int = 1) -> AppendResult:
        record = self._records[index]
        slot = self._positions[index]
        byte_offset = slot * _SLOT
        page_offset = (byte_offset // _PAGE) * _PAGE
        page = self._encode_range(page_offset, _PAGE)
        wire = (
            physical_weight * cal.PHYSICAL_LOG_RECORD_BYTES
            if self.physical_records
            else _PAGE
        )
        self.total_wire_bytes += wire
        return AppendResult(
            record=record, coalesced=coalesced,
            region_offset=page_offset, page_bytes=page, wire_bytes=wire,
        )

    def _encode_range(self, start: int, length: int) -> bytes:
        """Materialise bytes [start, start+length) of the log region.

        Only records that can overlap the range are encoded: positions
        are monotone and no encoding spans more than ``_widest_slots``
        slots, so two bisections bound the candidates.
        """
        out = bytearray(length)
        end = start + length
        positions = self._positions
        first = bisect.bisect_right(positions, start // _SLOT - self._widest_slots)
        stop = bisect.bisect_left(positions, -(-end // _SLOT))
        for index in range(first, stop):
            byte_at = positions[index] * _SLOT
            encoded = self._records[index].encode()
            if byte_at + len(encoded) <= start:
                continue
            lo = max(byte_at, start)
            hi = min(byte_at + len(encoded), end)
            out[lo - start : hi - start] = encoded[lo - byte_at : hi - byte_at]
        return bytes(out)

    def encode_region(self) -> bytes:
        """The full live log region image (what recovery reads back)."""
        return self._encode_range(0, self._slots_used * _SLOT)

    # -- truncation --------------------------------------------------------------------

    def reset(self) -> None:
        """Discard all records after a successful internal-state checkpoint.

        "Log records are only discarded once the checkpoint is complete"
        — the caller sequences this after the state write commits.
        """
        self.epoch += 1
        self._records.clear()
        self._positions.clear()
        self._widest_slots = 1
        self._slots_used = 0
        self._window.clear()

    # -- recovery ------------------------------------------------------------------------

    @staticmethod
    def replayable(data: bytes, epoch: int, after_lsn: int) -> List[LogRecord]:
        """Decode a log-region image and filter to records that must be
        replayed on top of a state checkpoint (matching epoch, newer lsn),
        in lsn order."""
        records = [
            r
            for r in LogRecord.decode_stream(data)
            if r.epoch == epoch and r.lsn > after_lsn
        ]
        records.sort(key=lambda r: r.lsn)
        return records
