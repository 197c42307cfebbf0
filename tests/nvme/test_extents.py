"""Tests for the extent store."""

import pytest

from repro.errors import InvalidCommand
from repro.nvme.commands import Payload
from repro.nvme.extents import ExtentStore


def test_write_then_read_back_bytes():
    store = ExtentStore(1024)
    store.write(100, Payload.of_bytes(b"hello"))
    assert store.read_bytes(100, 5) == b"hello"


def test_read_gap_zero_fills():
    store = ExtentStore(1024)
    store.write(10, Payload.of_bytes(b"ab"))
    assert store.read_bytes(8, 6) == b"\x00\x00ab\x00\x00"


def test_overwrite_replaces_overlap():
    store = ExtentStore(1024)
    store.write(0, Payload.of_bytes(b"aaaaaaaa"))
    store.write(2, Payload.of_bytes(b"BB"))
    assert store.read_bytes(0, 8) == b"aaBBaaaa"


def test_overwrite_spanning_multiple_extents():
    store = ExtentStore(1024)
    store.write(0, Payload.of_bytes(b"1111"))
    store.write(4, Payload.of_bytes(b"2222"))
    store.write(8, Payload.of_bytes(b"3333"))
    store.write(2, Payload.of_bytes(b"XXXXXXXX"))  # covers [2, 10)
    assert store.read_bytes(0, 12) == b"11XXXXXXXX33"
    assert store.extent_count() == 3


def test_exact_overwrite_keeps_single_extent():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b"old!"))
    store.write(0, Payload.of_bytes(b"new!"))
    assert store.read_bytes(0, 4) == b"new!"
    assert store.extent_count() == 1


def test_interior_overwrite_splits_extent():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b"abcdefgh"))
    store.write(3, Payload.of_bytes(b"XY"))
    assert store.read_bytes(0, 8) == b"abcXYfgh"
    assert store.extent_count() == 3


def test_synthetic_payload_identity_preserved():
    store = ExtentStore(10**9)
    store.write(0, Payload.synthetic("ckpt-r0-s1", 10**6))
    pieces = store.read(0, 10**6)
    assert len(pieces) == 1
    assert pieces[0].payload.tag == "ckpt-r0-s1"
    assert pieces[0].payload.nbytes == 10**6


def test_synthetic_partial_read_tags_offset():
    store = ExtentStore(10**6)
    store.write(0, Payload.synthetic("bulk", 1000))
    pieces = store.read(200, 300)
    assert len(pieces) == 1
    assert pieces[0].payload.tag == "bulk+200"
    assert pieces[0].payload.nbytes == 300


def test_read_bytes_over_synthetic_raises():
    store = ExtentStore(4096)
    store.write(0, Payload.synthetic("bulk", 128))
    with pytest.raises(InvalidCommand):
        store.read_bytes(0, 128)


def test_discard_removes_range():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b"abcdefgh"))
    store.discard(2, 4)
    assert store.read_bytes(0, 8) == b"ab\x00\x00\x00\x00gh"
    assert store.bytes_stored() == 4


def test_out_of_range_write_rejected():
    store = ExtentStore(8)
    with pytest.raises(InvalidCommand):
        store.write(4, Payload.of_bytes(b"too-long"))


def test_out_of_range_read_rejected():
    store = ExtentStore(8)
    with pytest.raises(InvalidCommand):
        store.read(0, 9)


def test_bytes_stored_accounting():
    store = ExtentStore(1024)
    store.write(0, Payload.of_bytes(b"x" * 100))
    store.write(50, Payload.of_bytes(b"y" * 100))  # overlaps 50
    assert store.bytes_stored() == 150


def test_clear():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b"data"))
    store.clear()
    assert store.extent_count() == 0
    assert store.read_bytes(0, 4) == b"\x00\x00\x00\x00"


def test_zero_length_write_noop():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b""))
    assert store.extent_count() == 0


def test_adjacent_extents_not_merged_but_read_contiguously():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b"ab"))
    store.write(2, Payload.of_bytes(b"cd"))
    assert store.read_bytes(0, 4) == b"abcd"


def test_read_on_empty_store_returns_empty_list():
    store = ExtentStore(1024)
    assert store.read(0, 1024) == []
    assert store.read_bytes(0, 8) == b"\x00" * 8
    assert store.bytes_stored() == 0


def test_zero_length_read_returns_empty_list():
    store = ExtentStore(64)
    store.write(0, Payload.of_bytes(b"data"))
    assert store.read(2, 0) == []


def test_discard_on_empty_store_is_noop():
    store = ExtentStore(64)
    store.discard(0, 64)
    assert store.extent_count() == 0


def test_zero_size_store_accepts_only_empty_ranges():
    store = ExtentStore(0)
    assert store.read(0, 0) == []
    store.write(0, Payload.of_bytes(b""))
    with pytest.raises(InvalidCommand):
        store.read(0, 1)


def test_read_between_extents_returns_empty():
    store = ExtentStore(1024)
    store.write(0, Payload.of_bytes(b"aa"))
    store.write(100, Payload.of_bytes(b"bb"))
    assert store.read(10, 50) == []


# -- real bytes followed by a size-only zero tail -----------------------------


def test_padded_payload_holds_only_its_prefix():
    payload = Payload.padded(b"abc", 4096)
    assert payload.nbytes == 4096
    assert payload.data == b"abc"
    assert not payload.is_synthetic
    assert Payload.padded(b"abc", 3) == Payload.of_bytes(b"abc")
    with pytest.raises(InvalidCommand):
        Payload.padded(b"abc", 2)
    with pytest.raises(InvalidCommand):
        Payload(data=b"abc", tag="t")


@pytest.mark.parametrize(
    "offset, length, prefix",
    [
        (1, 2, b"bc"),  # inside the real prefix
        (0, 3, b"abc"),  # exactly the prefix
        (2, 5, b"c"),  # across the prefix into the tail
        (3, 5, b""),  # entirely in the tail
        (6, 2, b""),  # beyond the prefix, ending at the size
    ],
)
def test_padded_slice_clips_to_the_prefix(offset, length, prefix):
    payload = Payload.padded(b"abc", 8)
    piece = payload.slice(offset, length)
    assert piece.nbytes == length
    assert piece.data == prefix  # the zeros are never copied
    materialised = Payload.of_bytes(b"abc".ljust(8, b"\x00"))
    assert piece == materialised.slice(offset, length)


def test_padded_slice_past_size_raises():
    with pytest.raises(InvalidCommand):
        Payload.padded(b"abc", 8).slice(4, 5)


def test_padded_equality_is_by_materialised_content():
    assert Payload.padded(b"ab", 4) == Payload.of_bytes(b"ab\x00\x00")
    assert Payload.of_bytes(b"ab\x00\x00") == Payload.padded(b"ab", 4)
    assert Payload.padded(b"ab\x00", 4) == Payload.padded(b"ab", 4)
    assert Payload.padded(b"ab", 4) != Payload.of_bytes(b"ab\x00\x01")
    assert Payload.padded(b"ab", 4) != Payload.padded(b"ab", 5)
    assert Payload.padded(b"ab", 4) != Payload.padded(b"ba", 4)
    assert Payload.padded(b"", 4) != Payload.synthetic("t", 4)


def test_overwrite_splits_padded_extent_then_read_bytes():
    store = ExtentStore(1 << 20)
    store.write(0, Payload.padded(b"head", 65536))
    # Split it twice: once inside the prefix, once deep in the tail.
    store.write(2, Payload.of_bytes(b"XY"))
    store.write(40000, Payload.of_bytes(b"mid"))
    pieces = store.read(0, 65536)
    assert [(e.start, e.length) for e in pieces] == [
        (0, 2), (2, 2), (4, 39996), (40000, 3), (40003, 25533),
    ]
    assert sum(len(e.payload.data) for e in store._extents) == 2 + 2 + 3
    expected = bytearray(65536)
    expected[0:4] = b"heXY"
    expected[40000:40003] = b"mid"
    assert store.read_bytes(0, 65536) == bytes(expected)
    assert store.read_bytes(39998, 8) == b"\x00\x00mid\x00\x00\x00"
