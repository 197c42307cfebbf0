"""Shared machinery for distributed baseline filesystems.

A baseline *cluster* owns one :class:`StorageServer` per storage node —
a namespace on that node's SSD, a bump allocator over it, and an IO
service resource modelling the server's software stack throughput
ceiling ("these storage systems overlay multiple software layers over
POSIX filesystems which decrease the peak attainable bandwidth", §I-A).

A baseline *client* (one per rank) implements the same duck-typed
intercepted-POSIX surface as :class:`~repro.core.interception.PosixShim`
so workloads are system-agnostic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import BadFileDescriptor, FileExists, FileNotFound, InvalidArgument, OutOfSpace
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.nvme.device import SSD
from repro.nvme.namespace import Namespace
from repro.bench import calibration as cal
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.obs.metrics import Counter

__all__ = ["StorageServer", "BaselineFile", "BaselineClient", "stripe_totals"]


def stripe_totals(nservers: int, stripe: int, offset: int, nbytes: int,
                  first_server: int = 0) -> Tuple[List[int], List[int]]:
    """Per-server ``(bytes, stripes)`` of request ``[offset, offset+nbytes)``
    when file stripe ``k`` lives on server ``(first_server + k) % nservers``.

    Exact integer arithmetic in O(servers): the request's stripes split
    evenly, one more each for the servers from the first stripe's on, and
    the partial first and last stripes are trimmed from their servers.
    """
    if nbytes <= 0:
        return [0] * nservers, [0] * nservers
    end = offset + nbytes
    first, last = offset // stripe, (end - 1) // stripe
    full, extra = divmod(last - first + 1, nservers)
    lead = (first_server + first) % nservers  # server of the first stripe
    stripes = [full + ((s - lead) % nservers < extra) for s in range(nservers)]
    totals = [n * stripe for n in stripes]
    totals[lead] -= offset - first * stripe
    totals[(first_server + last) % nservers] -= (last + 1) * stripe - end
    return totals, stripes


class StorageServer:  # reproflow: ignore[FLOW103] (one server coroutine per instance)
    """One storage node of a distributed baseline filesystem."""

    def __init__(
        self,
        env: Environment,
        node_name: str,
        ssd: SSD,
        namespace: Namespace,
        io_service_time: float,
        io_chunk_bytes: int,
        io_parallelism: int = 1,
    ):
        self.env = env
        self.node_name = node_name
        self.ssd = ssd
        self.namespace = namespace
        self.io_service_time = io_service_time
        self.io_chunk_bytes = io_chunk_bytes
        self.io_resource = Resource(env, capacity=io_parallelism)
        self._cursor = 0
        self.counters = Counter()

    def _allocate(self, nbytes: int) -> int:
        aligned = -(-nbytes // 4096) * 4096
        if self._cursor + aligned > self.namespace.nbytes:
            raise OutOfSpace(f"{self.node_name}: baseline namespace full")
        offset = self._cursor
        self._cursor += aligned
        return offset

    def write_chunk(
        self,
        payload: Payload,
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """Serve one chunk through the server stack, then hit the device.

        The service resource is held for the software time only; device
        transfers from different requests overlap (the device itself is
        the shared fair-share resource). Returns the device offset.
        Baselines speak the envelope's traffic classes too, so the qos
        experiment's per-class accounting covers every system.
        """
        n_chunks = max(1, -(-payload.nbytes // self.io_chunk_bytes))
        yield from self.io_resource.serve(n_chunks * self.io_service_time)
        offset = self._allocate(payload.nbytes)
        yield self.ssd.write(
            self.namespace.nsid, offset, payload,
            command_size or self.io_chunk_bytes, qos=qos,
        )
        self.counters.add("bytes", payload.nbytes)
        return offset

    def read_chunk(
        self,
        offset: int,
        nbytes: int,
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.BEST_EFFORT,
    ) -> Generator[Event, Any, None]:
        n_chunks = max(1, -(-nbytes // self.io_chunk_bytes))
        yield from self.io_resource.serve(n_chunks * self.io_service_time)
        yield self.ssd.read(
            self.namespace.nsid, offset, nbytes,
            command_size or self.io_chunk_bytes, qos=qos,
        )


@dataclass
class BaselineFile:
    """Server-side file record of a baseline filesystem."""

    path: str
    size: int = 0
    # (server_index, device_offset, nbytes) pieces in file order.
    placement: List[tuple] = field(default_factory=list)
    # Lazily-created per-file write lock (shared-namespace POSIX
    # semantics: concurrent writers serialise — the N-1 pattern tax).
    lock: Optional[Resource] = None
    writers: set = field(default_factory=set)


@dataclass
class _FD:
    fd: int
    file: BaselineFile
    pos: int = 0
    open_: bool = True


class BaselineClient:
    """Common fd-table plumbing; subclasses implement the data/metadata
    paths via ``_do_create``, ``_do_write``, ``_do_read``, ``_do_fsync``,
    ``_do_unlink``, ``_do_mkdir``."""

    def __init__(self, env: Environment, name: str, files: Dict[str, BaselineFile],
                 dirs: set, counters: Optional[Counter] = None):
        self.env = env
        self.name = name
        self.files = files  # shared, global namespace!
        self.dirs = dirs
        self.counters = counters if counters is not None else Counter()
        self._fds: Dict[int, _FD] = {}
        self._fd_counter = itertools.count(3)

    # -- shim surface ---------------------------------------------------------------

    def open(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        if mode not in ("r", "w", "a", "x"):
            raise InvalidArgument(f"unsupported mode {mode!r}")
        file = self.files.get(path)
        if mode == "r":
            if file is None:
                raise FileNotFound(path)
        elif mode == "x" and file is not None:
            raise FileExists(path)
        elif file is None:
            # Reserve the name *before* the create's simulated time
            # elapses: O_CREAT is atomic, so concurrent creators of the
            # same path must converge on one file object.
            file = BaselineFile(path=path)
            self.files[path] = file
            yield from self._do_create(path)
            self.counters.add("creates")
        elif mode == "w":
            file.size = 0  # truncate; no create cost
        fd = _FD(next(self._fd_counter), file)
        if mode == "a":
            fd.pos = file.size
        self._fds[fd.fd] = fd
        self.counters.add("opens")
        return fd.fd

    def _fd(self, fd: int) -> _FD:
        entry = self._fds.get(fd)
        if entry is None or not entry.open_:
            raise BadFileDescriptor(f"fd {fd}")
        return entry

    def _file_lock(self, file: BaselineFile, nbytes: int) -> Generator[Event, Any, None]:
        """POSIX shared-file range locking (see SHARED_FILE_LOCK_SERVICE).

        Only files with more than one writer pay: the first writer of a
        fresh file proceeds lock-free (N-N is unaffected); once a second
        writer appears, every 1 MiB lock unit serialises on the file's
        lock — the N-1 collapse."""
        file.writers.add(self.name)
        if len(file.writers) < 2:
            return
        if file.lock is None:
            file.lock = Resource(self.env, capacity=1)
        units = max(1, -(-nbytes // cal.SHARED_FILE_LOCK_UNIT))
        yield from file.lock.serve(units * cal.SHARED_FILE_LOCK_SERVICE)

    def write(self, fd: int, data) -> Generator[Event, Any, int]:
        entry = self._fd(fd)
        payload = self._payload(data, entry)
        yield from self._file_lock(entry.file, payload.nbytes)
        written = yield from self._do_write(entry.file, entry.pos, payload)
        entry.pos += written
        entry.file.size = max(entry.file.size, entry.pos)
        self.counters.add("app_bytes_written", written)
        return written

    def pwrite(self, fd: int, data, offset: int) -> Generator[Event, Any, int]:
        entry = self._fd(fd)
        payload = self._payload(data, entry)
        yield from self._file_lock(entry.file, payload.nbytes)
        written = yield from self._do_write(entry.file, offset, payload)
        entry.file.size = max(entry.file.size, offset + written)
        self.counters.add("app_bytes_written", written)
        return written

    def read(self, fd: int, nbytes: int) -> Generator[Event, Any, List[Payload]]:
        entry = self._fd(fd)
        nbytes = max(0, min(nbytes, entry.file.size - entry.pos))
        if nbytes:
            yield from self._do_read(entry.file, entry.pos, nbytes)
        entry.pos += nbytes
        self.counters.add("app_bytes_read", nbytes)
        return [Payload.synthetic(f"{entry.file.path}@{entry.pos}", nbytes)] if nbytes else []

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator[Event, Any, List[Payload]]:
        entry = self._fd(fd)
        nbytes = max(0, min(nbytes, entry.file.size - offset))
        if nbytes:
            yield from self._do_read(entry.file, offset, nbytes)
        return [Payload.synthetic(f"{entry.file.path}@{offset}", nbytes)] if nbytes else []

    def fsync(self, fd: int) -> Generator[Event, Any, None]:
        entry = self._fd(fd)
        yield from self._do_fsync(entry.file)

    def close(self, fd: int) -> Generator[Event, Any, None]:
        entry = self._fd(fd)
        entry.open_ = False
        del self._fds[fd]
        yield self.env.timeout(0)

    def mkdir(self, path: str, mode: int = 0o755) -> Generator[Event, Any, None]:
        if path in self.dirs:
            raise FileExists(path)
        yield from self._do_mkdir(path)
        self.dirs.add(path)

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        file = self.files.get(path)
        if file is None:
            raise FileNotFound(path)
        yield from self._do_unlink(file)
        del self.files[path]

    def stat(self, path: str) -> BaselineFile:
        file = self.files.get(path)
        if file is None:
            raise FileNotFound(path)
        return file

    def listdir(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        return sorted(
            p[len(prefix):] for p in self.files if p.startswith(prefix) and "/" not in p[len(prefix):]
        )

    # -- helpers -------------------------------------------------------------------------

    def _payload(self, data, entry: _FD) -> Payload:
        if isinstance(data, Payload):
            return data
        if isinstance(data, bytes):
            return Payload.of_bytes(data)
        if isinstance(data, int):
            return Payload.synthetic(f"{self.name}:{entry.file.path}:{entry.pos}", data)
        raise InvalidArgument(f"unsupported write data {type(data)!r}")

    # -- subclass hooks --------------------------------------------------------------------

    def _do_create(self, path: str) -> Generator[Event, Any, None]:
        """Charge the system-specific create cost (the file object is
        already reserved by ``open``; any return value is ignored)."""
        raise NotImplementedError

    def _do_write(self, file: BaselineFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        raise NotImplementedError

    def _do_read(self, file: BaselineFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def _do_fsync(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield self.env.timeout(0)

    def _do_mkdir(self, path: str) -> Generator[Event, Any, None]:
        yield self.env.timeout(0)

    def _do_unlink(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield self.env.timeout(0)
