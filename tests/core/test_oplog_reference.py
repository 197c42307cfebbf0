"""Byte-exact oracle for :meth:`OperationLog._encode_range`.

``_reference_encode_range`` below is the encode-every-record
implementation that the bisecting one replaced, kept verbatim as a
test-only model. Hypothesis drives one log with mixed operations, names
whose encodings cross slot boundaries, coalesced writes, physical
weights and resets; every appended page and every region image must be
byte-identical to the model's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microfs.oplog import _PAGE, _SLOT, LogOp, OperationLog
from repro.errors import NoSpace
from repro.units import KiB

# -- reference model (verbatim copy of the replaced implementation) ----------


def _reference_encode_range(log: OperationLog, start: int, length: int) -> bytes:
    """Materialise bytes [start, start+length) of the log region."""
    out = bytearray(length)
    for record, slot in zip(log._records, log._positions):
        byte_at = slot * _SLOT
        encoded = record.encode()
        if byte_at + len(encoded) <= start or byte_at >= start + length:
            continue
        lo = max(byte_at, start)
        hi = min(byte_at + len(encoded), start + length)
        out[lo - start : hi - start] = encoded[lo - byte_at : hi - byte_at]
    return bytes(out)


# -- harness --------------------------------------------------------------------


def _assert_matches_reference(physical, coalescing, window, steps):
    capacity = KiB(512) if physical else KiB(64)
    log = OperationLog(
        capacity, coalescing=coalescing, window=window, physical_records=physical
    )

    def assert_region_matches():
        region = log.encode_region()
        assert region == _reference_encode_range(log, 0, log._slots_used * _SLOT)

    for step in steps:
        if step is None:
            assert_region_matches()
            log.reset()
            continue
        op, ino, a, b, name, weight = step
        try:
            result = log.append(
                op, ino=ino, parent_ino=1, a=a, b=b, name=name,
                physical_weight=weight,
            )
        except NoSpace:
            continue
        assert result.page_bytes == _reference_encode_range(
            log, result.region_offset, _PAGE
        )
    assert_region_matches()


# The fixed header is 54 bytes: names of 10/11, 74/75 and 138/139 bytes
# sit on either side of a slot boundary, and 4042/4043 on either side of
# one page — past it a name outgrows a weight-1 physical reservation.
_name_lengths = st.one_of(
    st.sampled_from([0, 9, 10, 11, 73, 74, 75, 137, 138, 139]),
    st.integers(0, 200),
    st.sampled_from([4042, 4043, 4500, 9000]),
)
_names = st.one_of(
    _name_lengths.map(lambda n: "n" * n),
    st.text(alphabet="ab/é", max_size=24),  # multi-byte characters
)
_weights = st.one_of(st.integers(1, 4), st.sampled_from([16, 64]))


@st.composite
def _steps(draw):
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["write", "write", "write", "meta", "reset"]))
        if kind == "reset":
            steps.append(None)
        elif kind == "write":
            # Few inodes and block-aligned offsets, so writes often abut
            # the window's previous write to the same file and coalesce.
            ino = draw(st.integers(2, 4))
            a = draw(st.integers(0, 4)) * 4096
            b = draw(st.sampled_from([4096, 8192]))
            steps.append((LogOp.WRITE, ino, a, b, "", draw(_weights)))
        else:
            op = draw(st.sampled_from(
                [LogOp.CREAT, LogOp.MKDIR, LogOp.UNLINK, LogOp.RENAME, LogOp.CLOSE]
            ))
            steps.append((op, draw(st.integers(2, 4)), 0, 0, draw(_names), draw(_weights)))
    return steps


@settings(max_examples=300, deadline=None)
@given(
    physical=st.booleans(), coalescing=st.booleans(),
    window=st.integers(1, 8), steps=_steps(),
)
def test_matches_reference(physical, coalescing, window, steps):
    _assert_matches_reference(physical, coalescing, window, steps)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(
    physical=st.booleans(), coalescing=st.booleans(),
    window=st.integers(1, 8), steps=_steps(),
)
def test_matches_reference_long(physical, coalescing, window, steps):
    _assert_matches_reference(physical, coalescing, window, steps)


def test_matches_reference_long_name_outgrows_physical_reservation():
    """A weight-1 physical record whose name needs more than a page of
    slots reserves every slot it encodes into, so a page after the long
    record's first still sees its spill-over and the next record starts
    past it."""
    steps = [
        (LogOp.CREAT, 2, 0, 0, "n" * 9000, 1),
        (LogOp.WRITE, 2, 0, 4096, "", 1),
        (LogOp.WRITE, 3, 0, 4096, "", 1),
    ]
    _assert_matches_reference(True, False, 8, steps)
