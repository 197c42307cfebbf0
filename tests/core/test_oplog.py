"""Unit + property tests for the operation log and record coalescing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microfs.oplog import _FIXED, AppendResult, LogOp, LogRecord, OperationLog
from repro.errors import NoSpace, RecoveryError
from repro.units import KiB, MiB


def test_append_returns_page_image():
    log = OperationLog(KiB(64))
    result = log.append(LogOp.CREAT, ino=2, parent_ino=1, mode=0o644, name="f.dat")
    assert isinstance(result, AppendResult)
    assert not result.coalesced
    assert result.region_offset == 0
    assert len(result.page_bytes) == 4096
    assert log.record_count == 1


def test_lsn_monotonic():
    log = OperationLog(KiB(64))
    r1 = log.append(LogOp.CREAT, ino=2, parent_ino=1, name="a")
    r2 = log.append(LogOp.WRITE, ino=2, a=0, b=100)
    assert r2.record.lsn == r1.record.lsn + 1


def test_encode_decode_roundtrip():
    log = OperationLog(KiB(64))
    log.append(LogOp.MKDIR, ino=5, parent_ino=1, mode=0o755, name="ckpt")
    log.append(LogOp.CREAT, ino=6, parent_ino=5, mode=0o644, name="rank_000.dat")
    log.append(LogOp.WRITE, ino=6, a=0, b=1 << 20)
    log.append(LogOp.UNLINK, ino=6, parent_ino=5, name="rank_000.dat")
    decoded = LogRecord.decode_stream(log.encode_region())
    assert [r.op for r in decoded] == [LogOp.MKDIR, LogOp.CREAT, LogOp.WRITE, LogOp.UNLINK]
    assert decoded[1].name == "rank_000.dat"
    assert decoded[2].b == 1 << 20


def test_long_name_uses_multiple_slots():
    log = OperationLog(KiB(64))
    name = "x" * 100  # fixed header 54B + 100 > 2 slots
    result = log.append(LogOp.CREAT, ino=2, parent_ino=1, name=name)
    assert result.record.wire_slots >= 2
    decoded = LogRecord.decode_stream(log.encode_region())
    assert decoded[0].name == name


def test_coalescing_merges_sequential_writes():
    """Figure 5: consecutive writes to the same file become one record."""
    log = OperationLog(KiB(64), coalescing=True)
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name="f")
    first = log.append(LogOp.WRITE, ino=2, a=0, b=1024)
    second = log.append(LogOp.WRITE, ino=2, a=1024, b=1024)
    assert second.coalesced
    assert second.record is first.record
    assert first.record.b == 2048
    assert log.record_count == 2  # CREAT + one WRITE
    assert log.total_coalesced == 1


def test_coalescing_rewrites_same_page():
    log = OperationLog(KiB(64), coalescing=True)
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name="f")
    first = log.append(LogOp.WRITE, ino=2, a=0, b=512)
    second = log.append(LogOp.WRITE, ino=2, a=512, b=512)
    assert second.region_offset == first.region_offset


def test_non_adjacent_writes_not_coalesced():
    log = OperationLog(KiB(64), coalescing=True)
    log.append(LogOp.WRITE, ino=2, a=0, b=100)
    result = log.append(LogOp.WRITE, ino=2, a=500, b=100)  # gap
    assert not result.coalesced
    assert log.record_count == 2


def test_interleaved_files_within_window_coalesce():
    log = OperationLog(KiB(64), coalescing=True, window=8)
    log.append(LogOp.WRITE, ino=2, a=0, b=100)
    log.append(LogOp.WRITE, ino=3, a=0, b=100)
    # ino=2's previous write is still in the window but is not the most
    # recent write to ino 2's *offset chain*? It is: coalesce succeeds.
    result = log.append(LogOp.WRITE, ino=2, a=100, b=100)
    assert result.coalesced


def test_window_eviction_stops_coalescing():
    log = OperationLog(KiB(64), coalescing=True, window=2)
    log.append(LogOp.WRITE, ino=2, a=0, b=100)
    for i in range(3):  # push ino=2's record out of the window
        log.append(LogOp.WRITE, ino=10 + i, a=0, b=50)
    result = log.append(LogOp.WRITE, ino=2, a=100, b=100)
    assert not result.coalesced


def test_coalescing_disabled():
    log = OperationLog(KiB(64), coalescing=False)
    log.append(LogOp.WRITE, ino=2, a=0, b=100)
    result = log.append(LogOp.WRITE, ino=2, a=100, b=100)
    assert not result.coalesced
    assert log.record_count == 2


def test_physical_records_consume_4k_each():
    compact = OperationLog(MiB(1), physical_records=False)
    physical = OperationLog(MiB(1), physical_records=True)
    for log in (compact, physical):
        log.append(LogOp.CREAT, ino=2, parent_ino=1, name="f")
    assert physical.free_slots < compact.free_slots
    assert physical.capacity_slots - physical.free_slots == 4096 // 64


def test_physical_records_wire_bytes():
    log = OperationLog(MiB(1), physical_records=True)
    result = log.append(LogOp.WRITE, ino=2, a=0, b=100)
    assert result.wire_bytes == 4096


def test_log_full_raises():
    log = OperationLog(4096, coalescing=False)  # 64 slots
    for i in range(64):
        log.append(LogOp.WRITE, ino=i + 10, a=0, b=1)
    with pytest.raises(NoSpace):
        log.append(LogOp.WRITE, ino=999, a=0, b=1)


def test_reset_bumps_epoch_and_clears():
    log = OperationLog(KiB(64))
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name="f")
    lsn_before = log.next_lsn
    log.reset()
    assert log.record_count == 0
    assert log.epoch == 2
    assert log.free_fraction == 1.0
    result = log.append(LogOp.WRITE, ino=2, a=0, b=10)
    assert result.record.epoch == 2
    assert result.record.lsn == lsn_before  # lsn continues across epochs


def test_replayable_filters_epoch_and_lsn():
    log = OperationLog(KiB(64))
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name="old")
    region_with_old = log.encode_region()
    log.reset()
    log.append(LogOp.CREAT, ino=3, parent_ino=1, name="new")
    # Simulate the on-device region: new epoch-2 page overlaid on old data.
    region = bytearray(region_with_old.ljust(KiB(64), b"\x00"))
    new_region = log.encode_region()
    region[: len(new_region)] = new_region
    records = OperationLog.replayable(bytes(region), epoch=2, after_lsn=1)
    assert len(records) == 1
    assert records[0].name == "new"


def test_free_fraction_decreases():
    log = OperationLog(4096, coalescing=False)
    assert log.free_fraction == 1.0
    log.append(LogOp.WRITE, ino=2, a=0, b=1)
    assert log.free_fraction == pytest.approx(63 / 64)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(2, 6), st.integers(0, 50)),  # (ino, length unit)
        min_size=1,
        max_size=60,
    )
)
def test_coalescing_preserves_replay_semantics(writes):
    """Property: with or without coalescing, the replayable records
    describe the same total (ino -> max file extent) mapping when writes
    are sequential appends per file."""
    plain = OperationLog(MiB(1), coalescing=False)
    merged = OperationLog(MiB(1), coalescing=True, window=8)
    cursor = {}
    for ino, units in writes:
        length = units * 64 + 64
        offset = cursor.get(ino, 0)
        cursor[ino] = offset + length
        for log in (plain, merged):
            log.append(LogOp.WRITE, ino=ino, a=offset, b=length)

    def extents(log):
        out = {}
        for record in LogRecord.decode_stream(log.encode_region()):
            out[record.ino] = max(out.get(record.ino, 0), record.a + record.b)
        return out

    assert extents(plain) == extents(merged)
    assert merged.record_count <= plain.record_count


@pytest.mark.parametrize("weight", [1, 2, 256])
def test_physical_records_decode_across_their_reservation(weight):
    """A physical record of weight ``w`` reserves ``w`` pages but encodes
    into one slot; decoding must skip the zeros to the next record."""
    log = OperationLog(MiB(8), coalescing=False, physical_records=True)
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name="rank_000.dat")
    for i in range(5):
        log.append(LogOp.WRITE, ino=2, a=i * MiB(4), b=MiB(4), physical_weight=weight)
    region = log.encode_region()
    assert len(region) == (1 + 5 * weight) * 4096
    decoded = LogRecord.decode_stream(region)
    assert [r.op for r in decoded] == [LogOp.CREAT] + [LogOp.WRITE] * 5
    assert [r.a for r in decoded[1:]] == [i * MiB(4) for i in range(5)]
    replay = OperationLog.replayable(region, epoch=1, after_lsn=0)
    assert [r.lsn for r in replay] == [1, 2, 3, 4, 5, 6]


def test_decode_stream_skips_erased_region():
    log = OperationLog(KiB(64))
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name="f")
    region = log.encode_region() + bytes(MiB(8)) + log.encode_region()
    assert [r.lsn for r in LogRecord.decode_stream(region)] == [1, 1]
    assert LogRecord.decode_stream(bytes(MiB(8))) == []


def test_physical_long_name_keeps_its_slots():
    """Under physical logging a name longer than a 4 KiB image (9,000 B
    here) reserves every slot it encodes into, so the WRITE after it
    does not overwrite its tail and both records decode."""
    log = OperationLog(MiB(1), coalescing=False, physical_records=True)
    name = "n" * 9000
    log.append(LogOp.CREAT, ino=2, parent_ino=1, name=name)
    log.append(LogOp.WRITE, ino=2, a=0, b=4096)
    decoded = LogRecord.decode_stream(log.encode_region())
    assert [(r.op, r.name) for r in decoded] == [(LogOp.CREAT, name), (LogOp.WRITE, "")]
    creat_slots = LogRecord(lsn=1, op=LogOp.CREAT, name=name).wire_slots
    assert log.free_slots == log.capacity_slots - creat_slots - 4096 // 64


def _one_record(**fields) -> bytearray:
    return bytearray(LogRecord(lsn=1, epoch=1, **fields).encode())


@pytest.mark.parametrize("case", ["bad_utf8", "unknown_op", "name_past_region"])
def test_decode_stream_raises_recovery_error_on_undecodable_record(case):
    raw = _one_record(op=LogOp.CREAT, ino=2, name="abc")
    name_at = _FIXED.size  # fixed fields precede the name
    if case == "bad_utf8":
        raw[name_at] = 0xFF
    elif case == "unknown_op":
        raw[12] = 99  # the op byte
    else:
        raw = raw[: name_at + 2]  # the region ends inside the name
    with pytest.raises(RecoveryError):
        LogRecord.decode_stream(bytes(raw))
