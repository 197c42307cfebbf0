"""Lustre model: the slow-but-reliable second checkpoint tier.

§IV-A: "Lustre is used as the PFS and is configured with 4 separate
storage servers, each using one 12 Gbps RAID controller." Each OSS is a
serial pipe at RAID bandwidth; files stripe across all four. Redundancy
(the property multi-level checkpointing buys) is modelled as the tier
simply *surviving* failures injected into the NVMe tier — its clients
expose ``write_file``/``read_file`` for
:class:`~repro.core.multilevel.MultiLevelCheckpointer`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List

from repro.baselines.common import stripe_totals
from repro.bench import calibration as cal
from repro.nvme.commands import Payload
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.obs.metrics import Counter
from repro.errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    InvalidArgument,
)

__all__ = ["LustreCluster", "LustreClient"]


class LustreCluster:
    """Four OSSes behind RAID controllers + one MDS. Durable by design."""

    def __init__(self, env: Environment, servers: int = cal.LUSTRE_SERVERS):
        self.env = env
        self.servers = [Resource(env, capacity=1) for _ in range(servers)]
        self.mds = Resource(env, capacity=1)
        self.files: Dict[str, int] = {}
        self.dirs: set = set()
        self.counters = Counter()

    def client(self, name: str) -> "LustreClient":
        """An intercepted-POSIX client over the striped file path."""
        return LustreClient(self, name)

    # -- MultiLevelCheckpointer client surface -----------------------------------------

    def write_file(self, path: str, nbytes: int) -> Generator[Event, Any, None]:
        """Striped write: RAID bandwidth is the bottleneck per OSS."""
        yield from self.mds.serve(cal.LUSTRE_PER_REQUEST_COST)  # open+layout
        yield from self._striped(nbytes)
        self.files[path] = nbytes
        self.counters.add("bytes_written", nbytes)

    def _striped(self, nbytes: int) -> Generator[Event, Any, None]:
        """A whole file through the OSSes, striped from OSS 0."""
        loads, _stripes = stripe_totals(len(self.servers), cal.LUSTRE_STRIPE_SIZE, 0, nbytes)
        events = [self.env.process(self._oss_write(server, load))
                  for server, load in zip(self.servers, loads) if load > 0]
        if events:
            yield self.env.all_of(events)

    def _oss_write(self, server: Resource, nbytes: int):
        # The RAID controller is a serial pipe: hold the OSS for the
        # transfer duration (this is what makes Lustre the slow tier).
        yield from server.serve(
            nbytes / cal.LUSTRE_SERVER_BANDWIDTH + cal.LUSTRE_PER_REQUEST_COST
        )

    def read_file(self, path: str) -> Generator[Event, Any, int]:
        nbytes = self.files.get(path)
        if nbytes is None:
            raise FileNotFound(path)
        yield from self.mds.serve(cal.LUSTRE_PER_REQUEST_COST)
        yield from self._striped(nbytes)
        self.counters.add("bytes_read", nbytes)
        return nbytes

    def aggregate_bandwidth(self) -> float:
        return len(self.servers) * cal.LUSTRE_SERVER_BANDWIDTH


@dataclass
class _LustreFD:
    fd: int
    path: str
    mode: str
    size: int  # bytes this handle will have on flush
    dirty: bool = False
    open_: bool = True


class LustreClient:
    """POSIX-flavoured adapter so shim-driven workloads (campaigns,
    :func:`sysmatrix`, the resilience experiment) can run against the
    PFS tier directly.

    Lustre clients buffer dirty pages; the striped RPCs happen at
    ``fsync``/``close`` via :meth:`LustreCluster.write_file`, which is
    where the RAID-bound OSS cost lands — matching how the multi-level
    checkpointer already drives this tier.
    """

    def __init__(self, cluster: LustreCluster, name: str):
        self.cluster = cluster
        self.env = cluster.env
        self.name = name
        self.counters = Counter()
        self._fds: Dict[int, _LustreFD] = {}
        self._fd_counter = itertools.count(3)

    # -- shim surface -------------------------------------------------------

    def open(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        if mode not in ("r", "w", "a", "x"):
            raise InvalidArgument(f"unsupported mode {mode!r}")
        existing = self.cluster.files.get(path)
        if mode == "r" and existing is None:
            raise FileNotFound(path)
        if mode == "x" and existing is not None:
            raise FileExists(path)
        yield from self.cluster.mds.serve(cal.LUSTRE_PER_REQUEST_COST)
        size = existing or 0
        if mode == "w":
            size = 0
        entry = _LustreFD(next(self._fd_counter), path, mode, size)
        self._fds[entry.fd] = entry
        self.counters.add("opens")
        return entry.fd

    def _fd(self, fd: int) -> _LustreFD:
        entry = self._fds.get(fd)
        if entry is None or not entry.open_:
            raise BadFileDescriptor(f"fd {fd}")
        return entry

    def write(self, fd: int, data) -> Generator[Event, Any, int]:
        entry = self._fd(fd)
        if entry.mode == "r":
            raise InvalidArgument(f"fd {fd} opened read-only")
        nbytes = data.nbytes if isinstance(data, Payload) else (
            len(data) if isinstance(data, bytes) else int(data)
        )
        entry.size += nbytes
        entry.dirty = True
        self.counters.add("app_bytes_written", nbytes)
        yield self.env.timeout(0)  # buffered in the client page cache
        return nbytes

    def fsync(self, fd: int) -> Generator[Event, Any, None]:
        entry = self._fd(fd)
        if entry.dirty:
            yield from self.cluster.write_file(entry.path, entry.size)
            entry.dirty = False
        else:
            yield self.env.timeout(0)

    def close(self, fd: int) -> Generator[Event, Any, None]:
        entry = self._fd(fd)
        if entry.dirty:  # close flushes what fsync did not
            yield from self.cluster.write_file(entry.path, entry.size)
            entry.dirty = False
        else:
            yield self.env.timeout(0)
        entry.open_ = False
        del self._fds[fd]

    def read(self, fd: int, nbytes: int) -> Generator[Event, Any, List[Payload]]:
        entry = self._fd(fd)
        total = yield from self.cluster.read_file(entry.path)
        got = min(nbytes, total)
        self.counters.add("app_bytes_read", got)
        return [Payload.synthetic(f"{entry.path}@0", got)] if got else []

    def mkdir(self, path: str, mode: int = 0o755) -> Generator[Event, Any, None]:
        if path in self.cluster.dirs:
            raise FileExists(path)
        yield from self.cluster.mds.serve(cal.LUSTRE_PER_REQUEST_COST)
        self.cluster.dirs.add(path)

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        if path not in self.cluster.files:
            raise FileNotFound(path)
        yield from self.cluster.mds.serve(cal.LUSTRE_PER_REQUEST_COST)
        del self.cluster.files[path]

    def stat(self, path: str) -> int:
        nbytes = self.cluster.files.get(path)
        if nbytes is None:
            raise FileNotFound(path)
        return nbytes
