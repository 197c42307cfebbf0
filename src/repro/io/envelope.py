"""The typed I/O envelope: one request shape for every layer.

:class:`IORequest` describes a logical I/O — op, namespace, extent
list, QoS class, deadline, retry budget — plus the exact accounting the
data plane's cost model needs (command count, span attributes, counter
names). :class:`IOCompletion` is the uniform answer: status, a latency
breakdown by pipeline stage, and the retries spent.

The chunking helpers here are *the* single implementation of payload
splitting; :meth:`IORequest.chunks` replaces the copies that used to
live in ``DataPlane.write_runs``, ``DataPlane.read_runs``, and
``DataPlane._chunk``. The pinned-seed tests in ``tests/io`` prove the
unification preserves the exact event sequence of the pre-refactor
code.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidArgument
from repro.io.qos import QoSClass
from repro.nvme.commands import Opcode, Payload

__all__ = [
    "IORequest",
    "IOCompletion",
    "iter_write_chunks",
    "iter_read_chunks",
    "merge_adjacent_extents",
]


def iter_write_chunks(
    offset: int, payload: Payload, limit: Optional[int]
) -> Iterator[Tuple[int, Payload]]:
    """Split a write payload into at-most-``limit``-byte (offset, payload)
    pieces. ``limit=None`` means no splitting. A zero-byte payload still
    yields itself (matching the historical ``DataPlane._chunk``)."""
    if limit is None or payload.nbytes <= limit:
        yield offset, payload
        return
    at = 0
    while at < payload.nbytes:
        size = min(limit, payload.nbytes - at)
        yield offset + at, payload.slice(at, size)
        at += size


def iter_read_chunks(
    offset: int, nbytes: int, limit: Optional[int]
) -> Iterator[Tuple[int, int]]:
    """Split a read into at-most-``limit``-byte (offset, nbytes) pieces.

    A zero-byte read yields nothing (matching the historical
    ``DataPlane.read_runs`` loop, which never issued empty commands).
    """
    if nbytes <= 0:
        return
    if limit is None or nbytes <= limit:
        yield offset, nbytes
        return
    at = offset
    remaining = nbytes
    while remaining > 0:
        size = min(remaining, limit)
        yield at, size
        at += size
        remaining -= size


def merge_adjacent_extents(
    chunks: List[Tuple[int, Payload]]
) -> List[Tuple[int, Payload]]:
    """Coalesce device-adjacent real-data chunks into single extents.

    Only consecutive entries whose device ranges abut are merged, and
    only when both carry real bytes — synthetic (fingerprinted) payloads
    keep their identity tags so read-back verification still holds; they
    share the batch's single fabric round trip without being fused. A
    zero tail is materialised only when real bytes follow it; the last
    chunk's tail stays size-only.
    """
    merged: List[Tuple[int, Payload]] = []
    for offset, payload in chunks:
        if merged:
            prev_off, prev = merged[-1]
            if (
                prev_off + prev.nbytes == offset
                and not prev.is_synthetic
                and not payload.is_synthetic
            ):
                gap = bytes(prev.nbytes - len(prev.data))
                merged[-1] = (
                    prev_off,
                    Payload.padded(
                        prev.data + gap + payload.data, prev.nbytes + payload.nbytes
                    ),
                )
                continue
        merged.append((offset, payload))
    return merged


class IORequest:
    """Typed envelope for one logical I/O through the unified pipeline.

    ``extents`` are ``(offset, Payload)`` pairs for writes and
    ``(offset, nbytes)`` pairs for reads. ``chunk_bytes`` bounds the
    per-command submission size (``None`` submits extents whole), and
    ``n_cmds`` overrides the derived command count where a caller's cost
    model differs from the generic ceil-division (the state-checkpoint
    path charges floor division, a historical calibration choice the
    pinned baselines depend on).

    A ``__slots__`` class (not a dataclass): one envelope is allocated
    per logical I/O on the hot path, and ``@dataclass(slots=True)``
    needs Python >= 3.10 while this tree supports 3.9.
    """

    __slots__ = (
        "op",
        "nsid",
        "extents",
        "command_size",
        "qos",
        "chunk_bytes",
        "n_cmds",
        "flush_after",
        "charge_software",
        "syscalls",
        "deadline",
        "retry_budget",
        "retry_backoff",
        "batchable",
        "tier",
        "span_name",
        "span_attrs",
        "counters",
    )

    def __init__(
        self,
        op: Opcode,
        nsid: int,
        extents: List[tuple],
        command_size: int,
        qos: QoSClass = QoSClass.BEST_EFFORT,
        chunk_bytes: Optional[int] = None,
        n_cmds: Optional[int] = None,
        flush_after: bool = False,
        charge_software: bool = True,
        syscalls: int = 1,
        deadline: Optional[float] = None,
        retry_budget: int = 0,
        retry_backoff: float = 50e-6,
        batchable: bool = False,
        tier: Optional[str] = None,
        span_name: str = "dataplane.io",
        span_attrs: Optional[Dict[str, Any]] = None,
        counters: Optional[List[Tuple[str, float]]] = None,
    ):
        if op not in (Opcode.READ, Opcode.WRITE):
            raise InvalidArgument(f"IORequest op must be READ or WRITE, got {op}")
        if command_size <= 0:
            raise InvalidArgument(f"command_size must be positive, got {command_size}")
        if retry_budget < 0:
            raise InvalidArgument(f"retry_budget must be >= 0, got {retry_budget}")
        if retry_backoff < 0:
            raise InvalidArgument("retry_backoff must be >= 0")
        if not isinstance(qos, QoSClass):
            raise InvalidArgument(f"qos must be a QoSClass, got {qos!r}")
        self.op = op
        self.nsid = nsid
        self.extents = extents
        self.command_size = command_size
        self.qos = qos
        self.chunk_bytes = chunk_bytes
        self.n_cmds = n_cmds
        self.flush_after = flush_after
        self.charge_software = charge_software
        self.syscalls = syscalls
        #: Absolute simulated-time deadline; a retry never starts past it.
        self.deadline = deadline
        #: Transport (fabric) failures tolerated before the error propagates.
        self.retry_budget = retry_budget
        #: First retry back-off, doubled per attempt.
        self.retry_backoff = retry_backoff
        #: Eligible for doorbell batching when the config enables it.
        self.batchable = batchable
        #: Target storage tier (a :class:`repro.tiers.base.TierKind`
        #: value string); ``None`` means the submitting data plane's
        #: default tier. Accounting identity only — routing stays with
        #: the transport the plane was built over.
        self.tier = tier
        self.span_name = span_name
        self.span_attrs: Dict[str, Any] = {} if span_attrs is None else span_attrs
        #: (name, delta) counter bumps applied on success.
        self.counters: List[Tuple[str, float]] = (
            [] if counters is None else counters
        )

    def __repr__(self) -> str:
        return (
            f"IORequest(op={self.op.name}, nsid={self.nsid}, "
            f"extents={len(self.extents)}, qos={self.qos.value}, "
            f"bytes={self.total_bytes})"
        )

    # -- derived accounting -------------------------------------------------

    @property
    def is_write(self) -> bool:
        return self.op is Opcode.WRITE

    @property
    def total_bytes(self) -> int:
        if self.is_write:
            return sum(p.nbytes for _off, p in self.extents)
        return sum(n for _off, n in self.extents)

    def derived_cmds(self) -> int:
        """Command count: the explicit override, else ceil per extent."""
        if self.n_cmds is not None:
            return self.n_cmds
        if self.is_write:
            return sum(
                max(1, math.ceil(p.nbytes / self.command_size))
                for _off, p in self.extents
            )
        return sum(
            max(1, math.ceil(n / self.command_size)) for _off, n in self.extents
        )

    def chunks(self) -> Iterator[tuple]:
        """The unified chunk stream: every extent split at ``chunk_bytes``."""
        if self.is_write:
            for offset, payload in self.extents:
                yield from iter_write_chunks(offset, payload, self.chunk_bytes)
        else:
            for offset, nbytes in self.extents:
                yield from iter_read_chunks(offset, nbytes, self.chunk_bytes)

    # -- factories (one per historical DataPlane entry point) ---------------

    @classmethod
    def write_runs(
        cls,
        nsid: int,
        runs: List[Tuple[int, Payload]],
        command_size: int,
        chunk_bytes: Optional[int],
        qos: QoSClass = QoSClass.CKPT_DATA,
        **overrides: Any,
    ) -> "IORequest":
        total = sum(p.nbytes for _off, p in runs)
        req = cls(
            op=Opcode.WRITE, nsid=nsid, extents=list(runs),
            command_size=command_size, qos=qos, chunk_bytes=chunk_bytes,
            batchable=True, span_name="dataplane.write", **overrides,
        )
        n_cmds = req.derived_cmds()
        req.span_attrs = {"bytes": total, "cmds": n_cmds}
        req.counters = [("data_bytes_written", total), ("data_commands", n_cmds)]
        return req

    @classmethod
    def read_runs(
        cls,
        nsid: int,
        runs: List[Tuple[int, int]],
        command_size: int,
        chunk_bytes: Optional[int],
        qos: QoSClass = QoSClass.RECOVERY,
        **overrides: Any,
    ) -> "IORequest":
        total = sum(n for _off, n in runs)
        req = cls(
            op=Opcode.READ, nsid=nsid, extents=list(runs),
            command_size=command_size, qos=qos, chunk_bytes=chunk_bytes,
            span_name="dataplane.read", **overrides,
        )
        req.span_attrs = {"bytes": total, "cmds": req.derived_cmds()}
        req.counters = [("data_bytes_read", total)]
        return req

    @classmethod
    def log_page(
        cls,
        nsid: int,
        region_offset: int,
        page: bytes,
        wire_bytes: int,
        qos: QoSClass = QoSClass.JOURNAL,
        **overrides: Any,
    ) -> "IORequest":
        # The page is real; the physical-logging padding up to the wire
        # size is a size-only zero tail.
        payload = Payload.padded(page, wire_bytes)
        req = cls(
            op=Opcode.WRITE, nsid=nsid, extents=[(region_offset, payload)],
            command_size=max(4096, wire_bytes), qos=qos,
            n_cmds=1, flush_after=True, span_name="dataplane.log_page",
            **overrides,
        )
        req.span_attrs = {"bytes": wire_bytes}
        req.counters = [("log_bytes_written", wire_bytes), ("log_flushes", 1)]
        return req

    @classmethod
    def state_blob(
        cls,
        nsid: int,
        region_offset: int,
        data: bytes,
        command_size: int,
        qos: QoSClass = QoSClass.CKPT_DATA,
        **overrides: Any,
    ) -> "IORequest":
        nbytes = -(-len(data) // 4096) * 4096
        req = cls(
            op=Opcode.WRITE, nsid=nsid,
            extents=[(region_offset, Payload.padded(data, nbytes))],
            command_size=command_size, qos=qos,
            # Historical cost model: floor division, not ceil.
            n_cmds=max(1, nbytes // command_size),
            flush_after=True, span_name="dataplane.state", **overrides,
        )
        req.span_attrs = {"bytes": nbytes}
        req.counters = [("state_bytes_written", nbytes)]
        return req

    @classmethod
    def recovery_read(
        cls,
        nsid: int,
        region_offset: int,
        nbytes: int,
        command_size: int,
        qos: QoSClass = QoSClass.RECOVERY,
        **overrides: Any,
    ) -> "IORequest":
        req = cls(
            op=Opcode.READ, nsid=nsid, extents=[(region_offset, nbytes)],
            command_size=command_size, qos=qos, charge_software=False,
            span_name="dataplane.read", **overrides,
        )
        req.span_attrs = {"bytes": nbytes, "recovery": True}
        return req


class IOCompletion:
    """Uniform completion record for one IORequest."""

    __slots__ = (
        "status",
        "qos",
        "nbytes",
        "n_cmds",
        "latency_s",
        "software_s",
        "admission_s",
        "transfer_s",
        "flush_s",
        "retries_used",
        "value",
    )

    def __init__(
        self,
        status: str,
        qos: QoSClass,
        nbytes: int,
        n_cmds: int,
        latency_s: float,
        software_s: float = 0.0,
        admission_s: float = 0.0,
        transfer_s: float = 0.0,
        flush_s: float = 0.0,
        retries_used: int = 0,
        value: Any = None,
    ):
        self.status = status
        self.qos = qos
        self.nbytes = nbytes
        self.n_cmds = n_cmds
        self.latency_s = latency_s
        self.software_s = software_s
        self.admission_s = admission_s
        self.transfer_s = transfer_s
        self.flush_s = flush_s
        self.retries_used = retries_used
        #: Bytes written (writes) or the stored extents (reads).
        self.value = value

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __repr__(self) -> str:
        return (
            f"IOCompletion(status={self.status!r}, qos={self.qos.value}, "
            f"nbytes={self.nbytes}, latency_s={self.latency_s:.6g}, "
            f"retries={self.retries_used})"
        )
