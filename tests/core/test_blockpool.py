"""Unit + property tests for the circular block pool."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microfs.blockpool import BlockPool
from repro.core.microfs.inode import FileType, Inode
from repro.errors import InvalidArgument, NoSpace
from repro.units import KiB, MiB


def test_alloc_sequential_blocks_are_contiguous():
    pool = BlockPool(MiB(1), KiB(32))
    assert pool.alloc_many(8) == [(0, 8)]
    assert pool.alloc_many(3) == [(8, 3)]


def test_capacity():
    pool = BlockPool(MiB(1), KiB(32))
    assert pool.capacity_blocks == 32
    assert pool.free_blocks == 32


def test_exhaustion_raises():
    pool = BlockPool(KiB(64), KiB(32))
    pool.alloc_many(2)
    with pytest.raises(NoSpace):
        pool.alloc_many(1)


def test_alloc_many_all_or_nothing():
    pool = BlockPool(KiB(96), KiB(32))
    with pytest.raises(NoSpace):
        pool.alloc_many(4)
    assert pool.free_blocks == 3  # nothing consumed


def test_free_recycles_in_fifo_order():
    pool = BlockPool(KiB(96), KiB(32))
    assert pool.alloc_many(3) == [(0, 3)]
    pool.free_many([(1, 1)])
    pool.free_many([(0, 1)])
    # Ring: freed blocks come back after any never-used ones (none left),
    # in free order.
    assert pool.alloc_many(2) == [(1, 1), (0, 1)]


def test_free_merges_contiguous_runs_at_the_tail():
    pool = BlockPool(KiB(320), KiB(32))
    assert pool.alloc_many(10) == [(0, 10)]
    pool.free_many([(2, 3), (5, 2)])
    pool.free_many([(7, 1)])
    pool.free_many([(0, 2)])  # contiguous only *before* the tail: not merged
    assert pool.snapshot()["free"] == [(2, 6), (0, 2)]
    assert pool.alloc_many(8) == [(2, 6), (0, 2)]


def test_free_many_all_or_nothing():
    pool = BlockPool(KiB(256), KiB(32))
    assert pool.alloc_many(3) == [(0, 3)]
    ring = pool.snapshot()
    for bad in (
        [(0, 1), (1, 1), (99, 1)],  # out of bounds
        [(0, 1), (1, 1), (4, 1)],   # not allocated
        [(0, 2), (1, 2)],           # overlaps itself
        [(1, 1), (0, 0)],           # empty extent
    ):
        with pytest.raises(InvalidArgument):
            pool.free_many(bad)
        assert (pool.free_blocks, pool.used_blocks) == (5, 3)
        assert pool.snapshot() == ring
    assert pool.alloc_many(5) == [(3, 5)]
    assert pool.free_blocks == 0  # blocks 0-2 were never handed back


def test_double_free_rejected():
    pool = BlockPool(KiB(64), KiB(32))
    (extent,) = pool.alloc_many(1)
    pool.free_many([extent])
    with pytest.raises(InvalidArgument):
        pool.free_many([extent])


def test_foreign_free_rejected():
    pool = BlockPool(KiB(64), KiB(32))
    with pytest.raises(InvalidArgument):
        pool.free_many([(99, 1)])


def test_offset_of():
    pool = BlockPool(MiB(1), KiB(32))
    assert pool.offset_of(0) == 0
    assert pool.offset_of(3) == 3 * KiB(32)
    with pytest.raises(InvalidArgument):
        pool.offset_of(1000)


def test_footprint_shrinks_8x_with_hugeblocks():
    """The paper's 8x metadata reduction from 4K -> 32K blocks."""
    small = BlockPool(MiB(64), 4096)
    huge = BlockPool(MiB(64), KiB(32))
    assert small.footprint_bytes() == 8 * huge.footprint_bytes()


def test_snapshot_restore_roundtrip():
    pool = BlockPool(MiB(1), KiB(32))
    assert pool.alloc_many(5) == [(0, 5)]
    pool.free_many([(2, 1)])
    restored = BlockPool.restore(pool.snapshot())
    assert restored.free_blocks == pool.free_blocks
    assert restored.used_blocks == pool.used_blocks
    with pytest.raises(InvalidArgument):
        restored.free_many([(7, 1)])  # still free: the restored pool guards frees
    # Deterministic continuation: both pools allocate identically.
    assert restored.alloc_many(28) == pool.alloc_many(28) == [(5, 27), (2, 1)]


def test_invalid_construction():
    with pytest.raises(InvalidArgument):
        BlockPool(0, KiB(32))
    with pytest.raises(InvalidArgument):
        BlockPool(MiB(1), 0)


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(st.sampled_from(["alloc", "free"]), max_size=300),
    nblocks=st.integers(min_value=1, max_value=64),
)
def test_pool_invariants_under_random_ops(ops, nblocks):
    """Property: no block is ever double-allocated; free+used == capacity;
    restore(snapshot) continues identically."""
    pool = BlockPool(nblocks * 4096, 4096)
    live = []
    for op in ops:
        if op == "alloc" and pool.free_blocks > 0:
            ((block, _one),) = pool.alloc_many(1)
            assert block not in live
            live.append(block)
        elif op == "free" and live:
            pool.free_many([(live.pop(0), 1)])
        assert pool.free_blocks + pool.used_blocks == pool.capacity_blocks
    twin = BlockPool.restore(pool.snapshot())
    for _ in range(min(pool.free_blocks, 10)):
        assert twin.alloc_many(1) == pool.alloc_many(1)


def _expand(extents):
    return [b for start, length in extents for b in range(start, start + length)]


_STEP = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 2), st.integers(0, 12)),
    st.tuples(st.just("free"), st.integers(0, 2), st.integers(0, 12)),
    st.tuples(st.just("bad_free"), st.integers(-2, 70), st.integers(0, 6)),
    st.tuples(st.just("snapshot"), st.just(0), st.just(0)),
)


@settings(max_examples=500, deadline=None)
@given(steps=st.lists(_STEP, max_size=60), nblocks=st.integers(1, 64))
def test_run_ring_matches_per_block_fifo_model(steps, nblocks):
    """Oracle: the run ring hands out exactly the blocks, in exactly the
    order, of a per-block FIFO ring. Files take blocks as merged extents;
    frees drop partial tails (truncate) or whole files (unlink)."""
    pool = BlockPool(nblocks * 4096, 4096)
    model_free = deque(range(nblocks))
    files = [Inode(ino=i, ftype=FileType.FILE) for i in range(3)]
    model_files = [[] for _ in files]
    for op, i, n in steps:
        if op == "alloc" and n <= len(model_free):
            extents = pool.alloc_many(n)
            expected = [model_free.popleft() for _ in range(n)]
            assert _expand(extents) == expected
            files[i].append_extents(extents)
            model_files[i].extend(expected)
        elif op == "free":
            keep = n % (len(model_files[i]) + 1)
            pool.free_many(files[i].truncate_extents(keep))
            model_free.extend(model_files[i][keep:])
            del model_files[i][keep:]
        elif op == "bad_free":
            extent = (i, n)
            used = {b for blocks in model_files for b in blocks}
            if n > 0 and set(range(i, i + n)) <= used:
                continue  # a valid free; the other steps cover those
            before = pool.snapshot()
            with pytest.raises(InvalidArgument):
                pool.free_many([extent])
            assert pool.snapshot() == before
        elif op == "snapshot":
            pool = BlockPool.restore(pool.snapshot())
        ring = pool.snapshot()["free"]
        assert _expand(ring) == list(model_free)
        assert all(a + la != b for (a, la), (b, _lb) in zip(ring, ring[1:]))
        assert pool.free_blocks == len(model_free)
        assert pool.used_blocks == nblocks - len(model_free)
        for inode, blocks in zip(files, model_files):
            assert _expand(inode.extents) == blocks
            assert inode.nblocks == len(blocks)
            ext = inode.extents
            assert all(a + la != b for (a, la), (b, _lb) in zip(ext, ext[1:]))
    assert _expand(pool.alloc_many(len(model_free))) == list(model_free)
