"""Tests for the data plane's batching and cost model."""

import numpy as np
import pytest

from repro.bench import calibration as cal
from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.fabric.transport import LocalPCIeTransport
from repro.nvme import SSD, Payload
from repro.sim import Environment
from repro.units import GiB, KiB, MiB

from tests.conftest import deterministic_spec


@pytest.fixture
def plane():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(4))
    config = RuntimeConfig(max_batch_bytes=MiB(8))
    dp = DataPlane(env, LocalPCIeTransport(env, ssd), ns.nsid, config)
    return env, ssd, ns, dp


def run(env, gen):
    return env.run_until_complete(env.process(gen))


def test_write_runs_single_run(plane):
    env, ssd, ns, dp = plane
    total = run(env, dp.write_runs([(0, Payload.synthetic("x", MiB(4)))]))
    assert total == MiB(4)
    assert ssd.counters.get("bytes_written") == MiB(4)


def test_large_run_split_into_batches(plane):
    env, ssd, ns, dp = plane
    run(env, dp.write_runs([(0, Payload.synthetic("big", MiB(32)))]))
    # 32 MiB / 8 MiB batches = 4 device-visible writes.
    assert dp.counters.get("data_bytes_written") == MiB(32)
    assert ns.store.bytes_stored() == MiB(32)


def test_userspace_cost_charged_per_command(plane):
    env, ssd, ns, dp = plane
    t0 = env.now
    run(env, dp.write_runs([(0, Payload.synthetic("x", MiB(1)))], command_size=KiB(32)))
    elapsed = env.now - t0
    software = 32 * cal.SPDK_SUBMIT_COST  # 1 MiB / 32 KiB commands
    floor = MiB(1) / ssd.spec.write_bandwidth
    assert elapsed >= floor + software * 0.9
    assert dp.counters.get("user_cpu_time") == pytest.approx(software)


def test_kernel_mode_charges_trap_and_copy():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(4))
    config = RuntimeConfig(userspace_direct=False, max_batch_bytes=MiB(8))
    dp = DataPlane(env, LocalPCIeTransport(env, ssd), ns.nsid, config)
    run(env, dp.write_runs([(0, Payload.synthetic("x", MiB(8)))]))
    assert dp.counters.get("kernel_time") > 0
    assert dp.counters.get("user_cpu_time") == 0


def test_read_runs_roundtrip(plane):
    env, ssd, ns, dp = plane

    def scenario():
        yield from dp.write_runs([(0, Payload.of_bytes(b"payload!"))])
        extents = yield from dp.read_runs([(0, 8)])
        return extents

    extents = run(env, scenario())
    assert extents[0].payload.data == b"payload!"


def test_write_log_page_flushes(plane):
    env, ssd, ns, dp = plane
    run(env, dp.write_log_page(KiB(4), b"\xaa" * 4096, 4096))
    assert dp.counters.get("log_flushes") == 1
    assert ssd.counters.get("flushes") == 1
    assert ns.store.read_bytes(KiB(4), 4096) == b"\xaa" * 4096


def test_physical_log_wire_bytes_padded(plane):
    env, ssd, ns, dp = plane
    run(env, dp.write_log_page(0, b"\x01" * 4096, 16384))
    assert dp.counters.get("log_bytes_written") == 16384
    assert ns.store.read_bytes(0, 4096) == b"\x01" * 4096


def test_write_state_pads_to_page(plane):
    env, ssd, ns, dp = plane
    run(env, dp.write_state(MiB(1), b"state-blob"))
    assert dp.counters.get("state_bytes_written") == 4096


def test_read_bytes_zero_fills(plane):
    env, ssd, ns, dp = plane

    def scenario():
        yield from dp.write_runs([(100, Payload.of_bytes(b"xy"))])
        data = yield from dp.read_bytes(96, 8)
        return data

    assert run(env, scenario()) == b"\x00" * 4 + b"xy" + b"\x00" * 2


def test_physical_log_padding_is_size_only(plane):
    """A 1 MiB physical-log record holds its 4 KiB page, not 1 MiB of
    zeros; reading it back zero-fills the tail."""
    env, ssd, ns, dp = plane
    page = b"\x02" * 100 + bytes(3996)
    run(env, dp.write_log_page(MiB(1), page, MiB(1)))
    assert dp.counters.get("log_bytes_written") == MiB(1)
    assert ns.store.bytes_stored() == MiB(1)
    (extent,) = ns.store.read(MiB(1), MiB(1))
    assert extent.length == MiB(1)
    assert len(extent.payload.data) == 4096
    back = run(env, dp.read_bytes(MiB(1) - 8, MiB(1) + 16))
    assert back == bytes(8) + page + bytes(MiB(1) - 4096 + 8)


def test_write_state_padding_is_size_only(plane):
    env, ssd, ns, dp = plane
    run(env, dp.write_state(MiB(1), b"state-blob"))
    (extent,) = ns.store.read(MiB(1), 4096)
    assert extent.length == 4096
    assert extent.payload.data == b"state-blob"
    assert run(env, dp.read_bytes(MiB(1), 4096)) == b"state-blob".ljust(4096, b"\x00")
