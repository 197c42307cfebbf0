"""Inodes and directory entries (§III-E, "POSIX Semantics").

"We borrow several conventional filesystem concepts and techniques, such
as inodes to store file metadata and directory files to store directory
entries."

An inode records type, size, permissions, and the file's blocks as an
ordered list of maximal extents: ``(start, length)`` runs of hugeblocks,
where a run that continues the previous one on the device is always
merged into it. A sequentially written file is one extent, so the
per-file block map costs O(extents), not O(blocks). Directory inodes
carry their entries in DRAM; each entry mutation is durably captured by
the operation log (and the directory *file* blocks on the SSD are
rewritten by the fs layer, which is where Figure 8(b)'s create traffic
comes from).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.microfs.blockpool import Extent
from repro.errors import IsADirectory, NotADirectory

__all__ = ["FileType", "Inode", "DirEntry"]


class FileType(enum.Enum):
    FILE = "file"
    DIRECTORY = "dir"


@dataclass(frozen=True)
class DirEntry:
    """One name -> inode mapping inside a directory."""

    name: str
    ino: int
    ftype: FileType


@dataclass
class Inode:  # reproflow: ignore[FLOW103] (writes serialized by MicroFS op order)
    """File or directory metadata. DRAM-resident; journaled via the oplog."""

    ino: int
    ftype: FileType
    mode: int = 0o644
    uid: int = 0
    size: int = 0
    nlink: int = 1
    ctime: float = 0.0
    mtime: float = 0.0
    extents: List[Extent] = field(default_factory=list)
    entries: Optional[Dict[str, DirEntry]] = None  # directories only

    def __post_init__(self) -> None:
        if self.ftype is FileType.DIRECTORY and self.entries is None:
            self.entries = {}

    # -- type guards ---------------------------------------------------------------

    def require_file(self) -> None:
        if self.ftype is not FileType.FILE:
            raise IsADirectory(f"inode {self.ino} is a directory")

    def require_dir(self) -> None:
        if self.ftype is not FileType.DIRECTORY:
            raise NotADirectory(f"inode {self.ino} is not a directory")

    # -- block map -------------------------------------------------------------------

    @property
    def nblocks(self) -> int:
        """Blocks backing the file."""
        return sum(length for _start, length in self.extents)

    def append_extents(self, extents: List[Extent]) -> None:
        """Append newly allocated extents, merging where contiguous."""
        for start, length in extents:
            if self.extents:
                last_start, last_length = self.extents[-1]
                if last_start + last_length == start:
                    self.extents[-1] = (last_start, last_length + length)
                    continue
            self.extents.append((start, length))

    def truncate_extents(self, keep: int) -> List[Extent]:
        """Keep the first ``keep`` blocks; return the dropped tail in file order."""
        covered = 0
        for i, (start, length) in enumerate(self.extents):
            if covered + length > keep:
                cut = keep - covered
                dropped = [(start + cut, length - cut), *self.extents[i + 1:]]
                self.extents[i:] = [(start, cut)] if cut else []
                return dropped
            covered += length
        return []

    # -- directory ops -----------------------------------------------------------------

    def add_entry(self, entry: DirEntry) -> None:
        self.require_dir()
        self.entries[entry.name] = entry

    def remove_entry(self, name: str) -> DirEntry:
        self.require_dir()
        return self.entries.pop(name)

    def lookup(self, name: str) -> Optional[DirEntry]:
        self.require_dir()
        return self.entries.get(name)

    def entry_names(self) -> List[str]:
        self.require_dir()
        return sorted(self.entries)

    # -- accounting ----------------------------------------------------------------------

    def dir_file_bytes(self) -> int:
        """On-SSD size of this directory's *directory file*: 64-byte
        fixed entries (name, ino, type), one header slot."""
        self.require_dir()
        return 64 * (len(self.entries) + 1)

    # -- persistence -----------------------------------------------------------------------

    def snapshot(self) -> dict:
        snap = {
            "ino": self.ino,
            "ftype": self.ftype.value,
            "mode": self.mode,
            "uid": self.uid,
            "size": self.size,
            "nlink": self.nlink,
            "ctime": self.ctime,
            "mtime": self.mtime,
            "extents": list(self.extents),
        }
        if self.ftype is FileType.DIRECTORY:
            snap["entries"] = {
                name: (e.ino, e.ftype.value) for name, e in self.entries.items()
            }
        return snap

    @classmethod
    def restore(cls, snap: dict) -> "Inode":
        ftype = FileType(snap["ftype"])
        inode = cls(
            ino=snap["ino"],
            ftype=ftype,
            mode=snap["mode"],
            uid=snap["uid"],
            size=snap["size"],
            nlink=snap["nlink"],
            ctime=snap["ctime"],
            mtime=snap["mtime"],
            extents=list(snap["extents"]),
        )
        if ftype is FileType.DIRECTORY:
            for name, (ino, etype) in snap["entries"].items():
                inode.add_entry(DirEntry(name, ino, FileType(etype)))
        return inode
