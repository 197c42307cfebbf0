"""Memory regression: journal padding is held as a size, not as bytes.

Under physical logging (``metadata_provenance=False``) a 4 MiB write
ships a 1 MiB journal record of which only the first page carries
content. The device extent store must hold that page and nothing more;
the figure 7(d) drilldown at 448 ranks fits in memory only because of it.
"""

from repro.core.config import RuntimeConfig
from repro.units import KiB, MiB

from tests.conftest import MicroFSRig


def _real_bytes_held(namespace):
    """Real bytes across the namespace's non-synthetic extents."""
    return sum(
        len(extent.payload.data)
        for extent in namespace.store.read(0, namespace.store.size)
        if not extent.payload.is_synthetic
    )


def test_physical_logging_holds_at_most_a_page_per_log_write():
    rig = MicroFSRig(config=RuntimeConfig(
        metadata_provenance=False, hugeblocks=False, log_coalescing=False,
        log_region_bytes=MiB(16), state_region_bytes=MiB(16)))

    def job():
        yield from rig.fs.mkdir("/ckpt")
        for rank in range(3):
            fd = yield from rig.fs.open(f"/ckpt/rank{rank}.dat", create=True)
            for _ in range(3):
                yield from rig.fs.write(fd, MiB(4))
            yield from rig.fs.close(fd)
        yield from rig.fs.checkpoint_state()
        fd = yield from rig.fs.open("/ckpt/rank0.dat")
        yield from rig.fs.pwrite(fd, MiB(4), MiB(12))
        yield from rig.fs.close(fd)

    rig.run(job())
    counters = rig.fs.data_plane.counters
    log_pages = counters.get("log_flushes")  # journal pages + superblocks
    state_bytes = counters.get("state_bytes_written")
    # The journal shipped ~1 MiB per 4 MiB write ...
    assert counters.get("log_bytes_written") >= 10 * MiB(1)
    # ... but the device holds at most one real page per log write.
    assert _real_bytes_held(rig.namespace) <= KiB(4) * log_pages + state_bytes
