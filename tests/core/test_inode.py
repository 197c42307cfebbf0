"""Tests for inodes and directory entries."""

import pytest

from repro.core.microfs.inode import DirEntry, FileType, Inode
from repro.errors import IsADirectory, NotADirectory


def test_file_inode_defaults():
    inode = Inode(ino=2, ftype=FileType.FILE)
    assert inode.entries is None
    assert inode.extents == []
    assert inode.nblocks == 0
    inode.require_file()
    with pytest.raises(NotADirectory):
        inode.require_dir()


def test_directory_inode_gets_entry_table():
    inode = Inode(ino=3, ftype=FileType.DIRECTORY)
    assert inode.entries == {}
    inode.require_dir()
    with pytest.raises(IsADirectory):
        inode.require_file()


def test_directory_entry_lifecycle():
    directory = Inode(ino=1, ftype=FileType.DIRECTORY)
    directory.add_entry(DirEntry("b", 5, FileType.FILE))
    directory.add_entry(DirEntry("a", 4, FileType.DIRECTORY))
    assert directory.entry_names() == ["a", "b"]
    assert directory.lookup("a").ino == 4
    assert directory.lookup("missing") is None
    removed = directory.remove_entry("b")
    assert removed.ino == 5
    assert directory.entry_names() == ["a"]


def test_dir_file_bytes_grows_with_entries():
    directory = Inode(ino=1, ftype=FileType.DIRECTORY)
    empty = directory.dir_file_bytes()
    for i in range(10):
        directory.add_entry(DirEntry(f"f{i}", 10 + i, FileType.FILE))
    assert directory.dir_file_bytes() == empty + 10 * 64


def test_dir_ops_on_file_rejected():
    inode = Inode(ino=2, ftype=FileType.FILE)
    with pytest.raises(NotADirectory):
        inode.add_entry(DirEntry("x", 3, FileType.FILE))
    with pytest.raises(NotADirectory):
        inode.entry_names()


def test_snapshot_restore_file():
    inode = Inode(ino=7, ftype=FileType.FILE, mode=0o600, uid=3,
                  size=12345, extents=[(1, 2), (9, 1)])
    restored = Inode.restore(inode.snapshot())
    assert restored.ino == 7
    assert restored.mode == 0o600
    assert restored.uid == 3
    assert restored.size == 12345
    assert restored.extents == [(1, 2), (9, 1)]
    assert restored.nblocks == 3
    assert restored.ftype is FileType.FILE


def test_snapshot_restore_directory_with_entries():
    directory = Inode(ino=1, ftype=FileType.DIRECTORY)
    directory.add_entry(DirEntry("child", 8, FileType.FILE))
    directory.add_entry(DirEntry("sub", 9, FileType.DIRECTORY))
    restored = Inode.restore(directory.snapshot())
    assert restored.entry_names() == ["child", "sub"]
    assert restored.lookup("sub").ftype is FileType.DIRECTORY
