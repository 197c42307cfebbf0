"""Crash-recovery tests: state checkpoints, log replay, power loss.

These exercise the paper's central durability claims (§III-E): metadata
is always reconstructible from the state checkpoint + operation log, a
completely-written checkpoint file never holds corrupted data, and log
record coalescing shortens replay.
"""


from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.core.microfs.recovery import recover
from repro.units import KiB, MiB

from tests.conftest import MicroFSRig


def fresh_recovery(rig):
    """Recover a new fs instance from the rig's partition."""
    data_plane = DataPlane(
        rig.env, rig.transport, rig.namespace.nsid, rig.config
    )

    def scenario():
        return (yield from recover(
            rig.env, rig.config, data_plane, rig.partition, instance_name="recovered"
        ))

    return rig.run(scenario())


def test_recovery_replays_creates_and_writes(rig):
    def workload():
        yield from rig.fs.mkdir("/ckpt")
        fd = yield from rig.fs.open("/ckpt/rank0.dat", create=True)
        yield from rig.fs.write(fd, MiB(2))
        yield from rig.fs.close(fd)

    rig.run(workload())
    recovered, report = fresh_recovery(rig)
    assert not report.state_loaded  # no state checkpoint was taken
    assert report.records_replayed >= 3  # mkdir + creat + write
    assert recovered.exists("/ckpt/rank0.dat")
    assert recovered.stat("/ckpt/rank0.dat").size == MiB(2)
    assert recovered.readdir("/ckpt") == ["rank0.dat"]


def test_recovery_block_assignment_deterministic(rig):
    """Replay must re-allocate exactly the blocks the live run used —
    the property that lets log records omit block addresses."""
    def workload():
        fd = yield from rig.fs.open("/a", create=True)
        yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)
        fd = yield from rig.fs.open("/b", create=True)
        yield from rig.fs.write(fd, KiB(96))
        yield from rig.fs.close(fd)

    rig.run(workload())
    live_a = rig.fs.stat("/a").extents
    live_b = rig.fs.stat("/b").extents
    recovered, _report = fresh_recovery(rig)
    assert recovered.stat("/a").extents == live_a
    assert recovered.stat("/b").extents == live_b


def test_recovered_data_readable(rig):
    """A completely written checkpoint file recovers with its content."""
    def workload():
        fd = yield from rig.fs.open("/real.dat", create=True)
        yield from rig.fs.write(fd, b"precious checkpoint bytes")
        yield from rig.fs.close(fd)

    rig.run(workload())
    recovered, _ = fresh_recovery(rig)

    def readback():
        fd = yield from recovered.open("/real.dat")
        pieces = yield from recovered.read(fd, 25)
        yield from recovered.close(fd)
        return b"".join(p.data for p in pieces)

    assert rig.run(readback()) == b"precious checkpoint bytes"


def test_recovery_applies_unlink(rig):
    def workload():
        for name in ("/keep", "/gone"):
            fd = yield from rig.fs.open(name, create=True)
            yield from rig.fs.write(fd, KiB(64))
            yield from rig.fs.close(fd)
        yield from rig.fs.unlink("/gone")

    rig.run(workload())
    recovered, _ = fresh_recovery(rig)
    assert recovered.exists("/keep")
    assert not recovered.exists("/gone")
    assert recovered.pool.used_blocks == rig.fs.pool.used_blocks


def test_state_checkpoint_then_recovery(rig):
    def workload():
        yield from rig.fs.mkdir("/d")
        fd = yield from rig.fs.open("/d/old.dat", create=True)
        yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)
        yield from rig.fs.checkpoint_state()
        # Post-checkpoint activity lives only in the (new-epoch) log.
        fd = yield from rig.fs.open("/d/new.dat", create=True)
        yield from rig.fs.write(fd, KiB(32))
        yield from rig.fs.close(fd)

    rig.run(workload())
    recovered, report = fresh_recovery(rig)
    assert report.state_loaded
    assert report.records_replayed >= 2  # creat + write of new.dat only
    assert recovered.exists("/d/old.dat")
    assert recovered.exists("/d/new.dat")
    assert recovered.stat("/d/old.dat").extents == rig.fs.stat("/d/old.dat").extents
    assert recovered.stat("/d/new.dat").extents == rig.fs.stat("/d/new.dat").extents


def test_state_checkpoint_resets_log(rig):
    def workload():
        for i in range(5):
            fd = yield from rig.fs.open(f"/f{i}", create=True)
            yield from rig.fs.write(fd, KiB(32))
            yield from rig.fs.close(fd)
        before = rig.fs.oplog.record_count
        yield from rig.fs.checkpoint_state()
        return before

    before = rig.run(workload())
    assert before > 0
    assert rig.fs.oplog.record_count == 0
    assert rig.fs.state_checkpoints == 1


def test_background_checkpointer_triggers_on_threshold():
    rig = MicroFSRig(
        config=RuntimeConfig(
            log_region_bytes=KiB(8),  # 128 slots -> fills fast
            state_region_bytes=MiB(8),
            log_free_threshold=0.5,
        )
    )
    stop = rig.env.event()
    rig.env.process(rig.fs.background_checkpointer(poll_interval=0.0005, stop_event=stop))

    def workload():
        for i in range(40):
            fd = yield from rig.fs.open(f"/f{i:02d}", create=True)
            yield from rig.fs.write(fd, KiB(32))
            yield from rig.fs.close(fd)
            yield rig.env.timeout(0.002)  # compute phase between files
        stop.succeed()

    rig.run(workload())
    assert rig.fs.state_checkpoints >= 1
    # The log never overflowed because checkpoints reclaimed space.
    assert rig.fs.oplog.free_fraction > 0.0


def test_checkpointer_waits_for_closed_files():
    """No state checkpoint while files are open (§III-E trigger)."""
    rig = MicroFSRig(
        config=RuntimeConfig(
            log_region_bytes=KiB(8),
            state_region_bytes=MiB(8),
            log_free_threshold=0.9,
        )
    )

    def workload():
        fd = yield from rig.fs.open("/f", create=True)
        # Non-adjacent strided writes defeat coalescing, filling the log.
        for i in range(60):
            yield from rig.fs.pwrite(fd, KiB(32), 2 * i * KiB(32))
        assert not rig.fs.needs_state_checkpoint()  # file still open
        yield from rig.fs.close(fd)
        assert rig.fs.needs_state_checkpoint()

    rig.run(workload())


def test_power_loss_preserves_completed_files(rig):
    """Completed writes + log survive power loss; recovery sees them."""
    from repro.errors import DevicePoweredOff

    outcome = {}

    def workload():
        fd = yield from rig.fs.open("/done.dat", create=True)
        yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)
        fd = yield from rig.fs.open("/inflight.dat", create=True)
        try:
            yield from rig.fs.write(fd, MiB(256))  # power dies mid-write
            outcome["second"] = "completed"
        except DevicePoweredOff:
            outcome["second"] = "lost"

    def killer():
        yield rig.env.timeout(0.05)
        rig.ssd.power_fail()

    rig.env.process(workload())
    rig.env.process(killer())
    rig.env.run()
    assert outcome["second"] == "lost"
    rig.ssd.power_restore()
    recovered, report = fresh_recovery(rig)
    assert recovered.exists("/done.dat")
    assert recovered.stat("/done.dat").size == MiB(1)
    # The in-flight file's CREAT was durable (WAL), so the file exists;
    # its completed size is whatever the log captured, not corrupt data.
    assert recovered.exists("/inflight.dat")


def test_coalescing_shortens_replay(rig):
    """Table II: coalescing cuts replayed records dramatically."""
    def workload(fs):
        def inner():
            fd = yield from fs.open("/big.dat", create=True)
            for _ in range(64):
                yield from fs.write(fd, KiB(256))  # sequential appends
            yield from fs.close(fd)
        return inner()

    rig.run(workload(rig.fs))
    _recovered, report = fresh_recovery(rig)

    plain_rig = MicroFSRig(
        config=RuntimeConfig(
            log_coalescing=False, log_region_bytes=MiB(1), state_region_bytes=MiB(16)
        )
    )
    plain_rig.run(workload(plain_rig.fs))
    data_plane = DataPlane(
        plain_rig.env, plain_rig.transport, plain_rig.namespace.nsid, plain_rig.config
    )

    def recover_plain():
        return (yield from recover(
            plain_rig.env, plain_rig.config, data_plane, plain_rig.partition
        ))

    _fs2, report_plain = plain_rig.run(recover_plain())
    assert report.records_replayed < report_plain.records_replayed / 10
    # Both recover the same file size.
    assert report.files_recovered == report_plain.files_recovered == 1


def test_double_checkpoint_alternates_slots(rig):
    def workload():
        fd = yield from rig.fs.open("/f1", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.checkpoint_state()
        fd = yield from rig.fs.open("/f2", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.checkpoint_state()
        fd = yield from rig.fs.open("/f3", create=True)
        yield from rig.fs.close(fd)

    rig.run(workload())
    recovered, report = fresh_recovery(rig)
    assert report.state_loaded
    for name in ("/f1", "/f2", "/f3"):
        assert recovered.exists(name)


def test_recovery_of_empty_fs(rig):
    recovered, report = fresh_recovery(rig)
    assert not report.state_loaded
    assert report.records_replayed == 0
    assert recovered.readdir("/") == []


def test_recovery_duration_is_fast(rig):
    """Runtime self-recovery is near-instantaneous (§III-E)."""
    def workload():
        fd = yield from rig.fs.open("/ckpt.dat", create=True)
        for _ in range(32):
            yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)

    rig.run(workload())
    _recovered, report = fresh_recovery(rig)
    assert report.duration < 0.1  # well under the paper's ~0.5s/instance


def test_persisted_state_is_o_extents():
    """The state blob records runs, not blocks: a 64x larger file at 4K
    blocks adds at most a few bytes, and recovering from it continues
    allocating exactly like the live instance."""
    def rig_with_file(nbytes):
        r = MicroFSRig(config=RuntimeConfig(
            hugeblocks=False, log_region_bytes=MiB(1), state_region_bytes=MiB(16)))

        def workload():
            fd = yield from r.fs.open("/f", create=True)
            yield from r.fs.write(fd, nbytes)
            yield from r.fs.close(fd)

        r.run(workload())
        return r

    small, big = rig_with_file(MiB(1)), rig_with_file(MiB(64))
    assert big.config.effective_block_bytes == KiB(4)
    assert big.fs.stat("/f").nblocks == MiB(64) // KiB(4)
    assert abs(len(big.fs.serialize_state()) - len(small.fs.serialize_state())) <= 32

    def more():
        yield from big.fs.checkpoint_state()
        fd = yield from big.fs.open("/g", create=True)
        yield from big.fs.write(fd, MiB(3))
        yield from big.fs.close(fd)

    big.run(more())
    recovered, report = fresh_recovery(big)
    assert report.state_loaded and report.records_replayed > 0
    for path in ("/", "/f", "/g"):
        assert recovered.stat(path).extents == big.fs.stat(path).extents
    recovered.check_consistency()
    assert recovered.pool.alloc_many(1000) == big.fs.pool.alloc_many(1000)


def test_recovery_under_physical_logging_replays_every_write():
    """Physical-log records of 4 MiB writes reserve 1 MiB each (256
    pages, one encoded slot); recovery must find all of them."""
    r = MicroFSRig(config=RuntimeConfig(
        metadata_provenance=False, hugeblocks=False, log_coalescing=False,
        log_region_bytes=MiB(8), state_region_bytes=MiB(16)))

    def workload():
        fd = yield from r.fs.open("/ckpt.dat", create=True)
        for _ in range(5):
            yield from r.fs.write(fd, MiB(4))
        yield from r.fs.close(fd)

    r.run(workload())
    assert r.fs.data_plane.counters.get("log_bytes_written") >= 5 * MiB(1)
    recovered, report = fresh_recovery(r)
    assert report.records_replayed == 6  # creat + five writes
    assert recovered.stat("/ckpt.dat").size == 5 * MiB(4)
    assert recovered.stat("/ckpt.dat").extents == r.fs.stat("/ckpt.dat").extents
