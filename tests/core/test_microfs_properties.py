"""Property-based tests: MicroFS against a dict-of-bytes model, and
recovery equivalence under random operation sequences."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.core.microfs.recovery import recover
from repro.errors import FSError
from repro.units import KiB, MiB

from tests.conftest import MicroFSRig


def tiny_rig():
    return MicroFSRig(
        config=RuntimeConfig(log_region_bytes=KiB(64), state_region_bytes=MiB(4)),
        partition_bytes=MiB(64),
    )


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "append", "unlink", "checkpoint"]),
        st.integers(0, 4),  # file index
        st.integers(1, 8),  # write size in KiB units
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_microfs_matches_model_and_recovers(ops):
    """Apply a random op sequence; the live fs must match a trivial
    model, and a recovered instance must match the live one exactly."""
    rig = tiny_rig()
    fs, env = rig.fs, rig.env
    model = {}  # path -> size

    def apply_all():
        for op, index, size_units in ops:
            path = f"/f{index}"
            nbytes = size_units * 1024
            try:
                if op == "create":
                    fd = yield from fs.open(path, create=True, truncate=True)
                    yield from fs.close(fd)
                    model[path] = 0
                elif op in ("write", "append"):
                    if path not in model:
                        continue
                    fd = yield from fs.open(path)
                    offset = model[path] if op == "append" else 0
                    yield from fs.pwrite(fd, nbytes, offset)
                    yield from fs.close(fd)
                    model[path] = max(model[path], offset + nbytes)
                elif op == "unlink":
                    if path not in model:
                        continue
                    yield from fs.unlink(path)
                    del model[path]
                elif op == "checkpoint":
                    yield from fs.checkpoint_state()
            except FSError:
                raise AssertionError(f"unexpected FS error on {op} {path}")

    rig.run(apply_all())

    # Live fs matches the model.
    live = {
        f"/{name}": fs.stat(f"/{name}").size for name in fs.readdir("/")
    }
    assert live == model

    # Recovery reproduces the live state bit-for-bit (sizes + blocks).
    data_plane = DataPlane(env, rig.transport, rig.namespace.nsid, rig.config)

    def do_recover():
        return (yield from recover(env, rig.config, data_plane, rig.partition))

    recovered, _report = rig.run(do_recover())
    recovered_view = {
        f"/{name}": recovered.stat(f"/{name}").size
        for name in recovered.readdir("/")
    }
    assert recovered_view == model
    for path in model:
        assert recovered.stat(path).extents == fs.stat(path).extents
    assert recovered.pool.free_blocks == fs.pool.free_blocks


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=12),
    coalesce=st.booleans(),
)
def test_sequential_appends_any_sizes_recover(sizes, coalesce):
    """Appends of arbitrary sizes (coalescing on or off) always recover
    to the same total size and block list."""
    rig = MicroFSRig(
        config=RuntimeConfig(
            log_region_bytes=KiB(64), state_region_bytes=MiB(4),
            log_coalescing=coalesce,
        ),
        partition_bytes=MiB(64),
    )

    def workload():
        fd = yield from rig.fs.open("/seq", create=True)
        for size in sizes:
            yield from rig.fs.write(fd, size * 1024)
        yield from rig.fs.close(fd)

    rig.run(workload())
    expected = sum(sizes) * 1024
    assert rig.fs.stat("/seq").size == expected

    data_plane = DataPlane(rig.env, rig.transport, rig.namespace.nsid, rig.config)

    def do_recover():
        return (yield from recover(rig.env, rig.config, data_plane, rig.partition))

    recovered, _ = rig.run(do_recover())
    assert recovered.stat("/seq").size == expected
    assert recovered.stat("/seq").extents == rig.fs.stat("/seq").extents
