"""Tests for OrangeFS, GlusterFS, Crail, SPDK, and Lustre models."""

import pytest

from repro.apps import Deployment
from repro.baselines import (
    CrailCluster,
    GlusterFSCluster,
    LustreCluster,
    OrangeFSCluster,
    RawSPDKClient,
)
from repro.fabric.transport import LocalPCIeTransport
from repro.metrics import coefficient_of_variation
from repro.sim import Environment
from repro.units import GiB, MiB


def run(env, gen):
    return env.run_until_complete(env.process(gen))


def dump(client, nbytes, path):
    def scenario():
        t0 = client.env.now
        fd = yield from client.open(path, "w")
        yield from client.write(fd, nbytes)
        yield from client.fsync(fd)
        yield from client.close(fd)
        return client.env.now - t0
    return scenario()


def parallel_dump(env, clients, nbytes):
    finish = []

    def proc(i, client):
        yield from dump(client, nbytes, f"/ckpt/rank{i:04d}.dat")
        finish.append(env.now)

    for i, client in enumerate(clients):
        env.process(proc(i, client))
    env.run()
    return max(finish)


# ---------------------------------------------------------------------------
# OrangeFS
# ---------------------------------------------------------------------------


def test_orangefs_stripes_across_all_servers():
    dep = Deployment(seed=1, deterministic_devices=True)
    cluster = OrangeFSCluster(dep, GiB(8))
    client = cluster.client("c0")
    run(dep.env, dump(client, MiB(16), "/f"))
    loads = cluster.bytes_per_server()
    assert all(load > 0 for load in loads)
    assert coefficient_of_variation(loads) < 0.05


def test_orangefs_peak_fraction_of_hardware():
    """Figure 1: OrangeFS saturates well below hardware peak (~41%)."""
    dep = Deployment(seed=2, deterministic_devices=True)
    cluster = OrangeFSCluster(dep, GiB(16))
    clients = [cluster.client(f"c{i}") for i in range(56)]
    nbytes = MiB(64)
    elapsed = parallel_dump(dep.env, clients, nbytes)
    bandwidth = 56 * nbytes / elapsed
    fraction = bandwidth / dep.aggregate_write_bandwidth()
    assert 0.25 < fraction < 0.55


def test_orangefs_create_serialization():
    dep = Deployment(seed=3, deterministic_devices=True)
    cluster = OrangeFSCluster(dep, GiB(4))
    env = dep.env
    n = 64
    t0 = env.now

    def creator(i):
        client = cluster.client(f"c{i}")
        fd = yield from client.open(f"/f{i:03d}", "w")
        yield from client.close(fd)

    for i in range(n):
        env.process(creator(i))
    env.run()
    rate = n / (env.now - t0)
    # Single dir lock + distributed MDS: thousands/s, not hundreds of
    # thousands (NVMe-CR territory).
    assert rate < 100_000


def test_orangefs_metadata_accounting():
    dep = Deployment(seed=4, deterministic_devices=True)
    cluster = OrangeFSCluster(dep, GiB(4))
    client = cluster.client("c0")

    def scenario():
        for i in range(10):
            fd = yield from client.open(f"/f{i}", "w")
            yield from client.close(fd)

    run(dep.env, scenario())
    assert cluster.metadata_bytes_per_server() > 0


def test_orangefs_unaligned_writes_pinned():
    """Four ranks each write 1,000,003 B three times, so every write but
    the first starts mid-stripe. Per-server bytes, layout records, Table I
    metadata and finish times equal the values recorded at commit
    259be0f, where requests were still planned stripe by stripe."""
    dep = Deployment(seed=7, deterministic_devices=True)
    cluster = OrangeFSCluster(dep, GiB(1))
    env = dep.env
    finish = []

    def rank(i):
        client = cluster.client(f"c{i}")
        fd = yield from client.open(f"/ckpt/rank{i:04d}.dat", "w")
        for _ in range(3):
            yield from client.write(fd, 1_000_003)
        yield from client.fsync(fd)
        yield from client.close(fd)
        finish.append(env.now)

    for i in range(4):
        env.process(rank(i))
    env.run()
    assert cluster.bytes_per_server() == [
        1492681, 1441792, 1507328, 1558217, 1507328, 1492681, 1507328, 1492681]
    assert cluster.stripe_records_high_water == 192
    assert cluster.metadata_bytes_per_server() == 70656
    assert finish == [
        0.0029497345454545455, 0.0030937345454545456,
        0.0032377345454545456, 0.0033817345454545456]


# ---------------------------------------------------------------------------
# GlusterFS
# ---------------------------------------------------------------------------


def test_glusterfs_whole_file_on_one_brick():
    dep = Deployment(seed=5, deterministic_devices=True)
    cluster = GlusterFSCluster(dep, GiB(8))
    client = cluster.client("c0")
    run(dep.env, dump(client, MiB(16), "/f"))
    loads = cluster.bytes_per_server()
    assert sum(1 for load in loads if load > 0) == 1


def test_glusterfs_load_imbalance_at_low_concurrency():
    """Figure 7(b): consistent hashing leaves bricks idle at 28 files."""
    dep = Deployment(seed=6, deterministic_devices=True)
    cluster = GlusterFSCluster(dep, GiB(8))
    clients = [cluster.client(f"c{i}") for i in range(28)]
    parallel_dump(dep.env, clients, MiB(8))
    cov = coefficient_of_variation(cluster.bytes_per_server())
    assert cov > 0.2


def test_glusterfs_balance_improves_with_scale():
    def cov_at(nfiles):
        dep = Deployment(seed=7, deterministic_devices=True)
        cluster = GlusterFSCluster(dep, GiB(16))
        clients = [cluster.client(f"c{i}") for i in range(nfiles)]
        parallel_dump(dep.env, clients, MiB(2))
        return coefficient_of_variation(cluster.bytes_per_server())

    assert cov_at(224) < cov_at(28)


def test_glusterfs_peak_fraction_of_hardware():
    """Figure 1: GlusterFS approaches ~84% of hardware peak at scale;
    hash imbalance keeps it below the per-brick ceiling."""
    def fraction_at(nclients, seed):
        dep = Deployment(seed=seed, deterministic_devices=True)
        cluster = GlusterFSCluster(dep, GiB(16))
        clients = [cluster.client(f"c{i}") for i in range(nclients)]
        nbytes = MiB(32)
        elapsed = parallel_dump(dep.env, clients, nbytes)
        return nclients * nbytes / elapsed / dep.aggregate_write_bandwidth()

    mid = fraction_at(112, 8)
    assert 0.5 < mid < 0.95
    # More files -> smoother hashing -> closer to the ceiling.
    assert fraction_at(224, 88) > fraction_at(56, 89)


def test_glusterfs_creates_slower_than_orangefs():
    """Figure 8(b): GlusterFS create throughput < OrangeFS."""
    def create_rate(cluster_cls, seed):
        dep = Deployment(seed=seed, deterministic_devices=True)
        cluster = cluster_cls(dep, GiB(4))
        env = dep.env
        n = 128

        def creator(i):
            client = cluster.client(f"c{i}")
            fd = yield from client.open(f"/f{i:03d}", "w")
            yield from client.close(fd)

        for i in range(n):
            env.process(creator(i))
        env.run()
        return n / env.now

    assert create_rate(GlusterFSCluster, 9) < create_rate(OrangeFSCluster, 10)


# ---------------------------------------------------------------------------
# Crail
# ---------------------------------------------------------------------------


def test_crail_single_storage_server():
    dep = Deployment(seed=11, deterministic_devices=True)
    cluster = CrailCluster(dep, GiB(8))
    client = cluster.client("c0", "comp00")
    run(dep.env, dump(client, MiB(16), "/f"))
    assert cluster.ssd.counters.get("bytes_written") >= MiB(16)


def test_crail_mds_rpcs_per_block():
    dep = Deployment(seed=12, deterministic_devices=True)
    cluster = CrailCluster(dep, GiB(8))
    client = cluster.client("c0", "comp00")
    run(dep.env, dump(client, MiB(16), "/f"))
    # open + close + 16 block allocations (1 MiB blocks).
    assert client.counters.get("mds_rpcs") >= 17


def test_crail_mds_bottleneck_at_high_concurrency():
    """The paper's §IV-A expectation: Crail's single MDS saturates."""
    def wall(nclients, seed):
        dep = Deployment(seed=seed, deterministic_devices=True)
        cluster = CrailCluster(dep, GiB(64))
        clients = [cluster.client(f"c{i}", f"comp{i % 16:02d}") for i in range(nclients)]
        return parallel_dump(dep.env, clients, MiB(16)) * nclients  # normalised

    # Per-client cost grows superlinearly past MDS saturation: the
    # aggregate (wall * n) grows faster than linear in n.
    assert wall(64, 13) / 64 > wall(8, 14) / 8


# ---------------------------------------------------------------------------
# SPDK raw
# ---------------------------------------------------------------------------


def test_spdk_matches_device_bandwidth():
    dep = Deployment(seed=15, deterministic_devices=True)
    node = dep.cluster.storage_nodes()[0].name
    ssd = dep.ssds[node]
    ns = ssd.create_namespace(GiB(8), owner_job="spdk")
    client = RawSPDKClient(
        dep.env, LocalPCIeTransport(dep.env, ssd), ns.nsid, 0, GiB(8)
    )
    elapsed = run(dep.env, dump(client, MiB(512), "/f"))
    floor = MiB(512) / ssd.spec.write_bandwidth
    assert floor <= elapsed < 1.1 * floor


# ---------------------------------------------------------------------------
# Lustre
# ---------------------------------------------------------------------------


def test_lustre_bandwidth_is_raid_limited():
    env = Environment()
    lustre = LustreCluster(env)

    def scenario():
        t0 = env.now
        yield from lustre.write_file("/ckpt", GiB(1))
        return env.now - t0

    elapsed = run(env, scenario())
    bandwidth = GiB(1) / elapsed
    # 4 servers x 1.5 GB/s = 6 GB/s aggregate ceiling.
    assert bandwidth < lustre.aggregate_bandwidth()
    assert bandwidth > 0.8 * lustre.aggregate_bandwidth()


def test_lustre_read_back():
    env = Environment()
    lustre = LustreCluster(env)

    def scenario():
        yield from lustre.write_file("/ckpt", MiB(256))
        nbytes = yield from lustre.read_file("/ckpt")
        return nbytes

    assert run(env, scenario()) == MiB(256)


def test_lustre_unaligned_size_pinned():
    """A file of 5 MiB + 12,345 B leaves a partial last stripe; write and
    read completion times equal the values recorded at commit 259be0f,
    where each call looped over the file stripe by stripe."""
    env = Environment()
    lustre = LustreCluster(env)
    nbytes = MiB(5) + 12_345

    def scenario():
        yield from lustre.write_file("/f", nbytes)
        written_at = env.now
        got = yield from lustre.read_file("/f")
        return written_at, env.now, got

    assert run(env, scenario()) == (0.0015081013333333331, 0.0030162026666666663, nbytes)


def test_lustre_missing_file():
    from repro.errors import FileNotFound

    env = Environment()
    lustre = LustreCluster(env)

    def scenario():
        yield from lustre.read_file("/missing")

    with pytest.raises(FileNotFound):
        run(env, scenario())
