"""Outside-in instruments: patch public entry points, time cells and layers.

Nothing here edits the simulator.  Every probe is an attribute swap made
by :class:`Patcher` and undone when its ``with`` block ends, so one
process can run untraced and traced passes back to back.

* :class:`CellRecorder` times each *cell* (one ``build_system`` call and
  the one simulated job that follows it) and tallies the bytes the
  workload wrote and read through its shim.  It is the only probe active
  in untraced passes.
* :class:`HostProfile` and :func:`timed` give host self time per layer in
  traced passes.  Layer methods are generators that return before their
  body runs, so a generator result is wrapped in :class:`_TimedGen`, which
  times every resumption (``send``/``throw``) and keeps a stack so nested
  layers are subtracted from their callers.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Patcher:
    """Attribute swaps that are undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        old = vars(owner).get(name)

        def undo() -> None:
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

        setattr(owner, name, value)
        self._undo.append(undo)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# host time per layer (traced passes only)


class HostProfile:
    """Host self time and call counts per layer, from a frame stack."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []

    def count(self, name: str, n: int = 1) -> None:
        self.calls[name] = self.calls.get(name, 0) + n

    def push(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def pop(self) -> None:
        layer, started, child = self._stack.pop()
        elapsed = perf_counter() - started
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if not any(frame[0] == layer for frame in self._stack):
            # Outermost frame of this layer: inclusive time, no double
            # counting when a layer re-enters itself (write -> pwrite).
            self.total_s[layer] = self.total_s.get(layer, 0.0) + elapsed


class _TimedGen:
    """Transparent generator proxy: times each resumption as ``layer``."""

    __slots__ = ("_gen", "_layer", "_prof")

    def __init__(self, gen: Any, layer: str, prof: HostProfile) -> None:
        self._gen = gen
        self._layer = layer
        self._prof = prof

    def __iter__(self) -> "_TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        self._prof.push(self._layer)
        try:
            return self._gen.send(value)
        finally:
            self._prof.pop()

    def throw(self, *exc: Any) -> Any:
        self._prof.push(self._layer)
        try:
            return self._gen.throw(*exc)
        finally:
            self._prof.pop()

    def close(self) -> None:
        self._gen.close()


def timed(fn: Callable, layer: str, prof: HostProfile,
          count: Optional[str] = None) -> Callable:
    """Wrap ``fn`` so its host time (and, for generators, every later
    resumption) is charged to ``layer``; ``count`` names a call counter."""
    is_gen = inspect.isgeneratorfunction(fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if count is not None:
            prof.count(count)
        if is_gen:
            return _TimedGen(fn(*args, **kwargs), layer, prof)
        prof.push(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            prof.pop()

    return wrapper


def counted(fn: Callable, name: str, prof: HostProfile) -> Callable:
    """Wrap ``fn`` to count calls only (no timing)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        prof.count(name)
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# cells


@dataclass
class CellTiming:
    """Host timing and observed I/O of one cell, in build order."""

    start: float  # end of the previous cell, or the start of the call
    build_end: float
    handle: Any
    run_end: Optional[float] = None
    runs: int = 0  # simulated jobs driven on this handle (must be 1)
    written: int = 0  # bytes the workload wrote through its shim
    read: int = 0  # bytes the shim returned to the workload
    lustre_written: int = 0  # bytes sent to the Lustre second tier
    events: int = 0  # engine events scheduled by the cell's environment
    write_bw: Optional[float] = None  # aggregate device bandwidth, B/s
    read_bw: Optional[float] = None

    @property
    def setup_s(self) -> float:
        return self.build_end - self.start

    @property
    def run_s(self) -> float:
        return (self.run_end if self.run_end is not None else self.build_end) \
            - self.build_end


class ShimProbe:
    """Forwards every shim call; tallies bytes written and read back."""

    __slots__ = ("_inner", "_cell")

    def __init__(self, inner: Any, cell: CellTiming) -> None:
        self._inner = inner
        self._cell = cell

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def write(self, fd: int, data: Any, *args: Any, **kwargs: Any):
        n = yield from self._inner.write(fd, data, *args, **kwargs)
        self._cell.written += n
        return n

    def pwrite(self, fd: int, data: Any, *args: Any, **kwargs: Any):
        n = yield from self._inner.pwrite(fd, data, *args, **kwargs)
        self._cell.written += n
        return n

    def read(self, fd: int, nbytes: int, *args: Any, **kwargs: Any):
        pieces = yield from self._inner.read(fd, nbytes, *args, **kwargs)
        self._cell.read += sum(p.nbytes for p in pieces)
        return pieces

    def pread(self, fd: int, nbytes: int, *args: Any, **kwargs: Any):
        pieces = yield from self._inner.pread(fd, nbytes, *args, **kwargs)
        self._cell.read += sum(p.nbytes for p in pieces)
        return pieces


class CellRecorder:
    """Times cells by wrapping the names the experiments look up.

    ``repro.bench.experiments`` binds ``build as build_system`` at import,
    so wrapping ``repro.systems.build`` would time nothing: the probe
    replaces ``repro.bench.experiments.build_system`` itself.  A cell's
    set-up runs from the end of the previous cell (or the start of the
    call, see :meth:`mark`) to the end of ``build_system``, so a testbed
    the experiment builds before calling it (``Deployment``) counts as
    set-up too.  Its run is the ``SystemHandle.run_ranks``/``makespan``
    call on the handle that build returned, up to the cell's result: the
    last cell of an experiment call runs until the call returns
    (:meth:`end_call`).

    With a :class:`HostProfile`, build and run also open the
    ``systems.build`` and ``sim.engine`` frames and the workload body
    becomes the ``apps`` layer; ``on_cell_end(cell, handle)`` then sees
    each cell while its system is still live.
    """

    def __init__(self, profile: Optional[HostProfile] = None,
                 on_cell_end: Optional[Callable[[CellTiming, Any], None]] = None):
        self.cells: List[CellTiming] = []
        self.errors: List[str] = []
        self.profile = profile
        self.on_cell_end = on_cell_end
        self._boundary: Optional[float] = None
        # The cell whose job ended last, until the next build or call.
        self._ended: Optional[CellTiming] = None

    def mark(self) -> None:
        """A call into an experiment starts: its first cell starts here."""
        self._boundary = perf_counter()
        self._ended = None

    def end_call(self) -> None:
        """The experiment call returned.  The time since its last job
        ended (assembling that cell's result, freeing its system) is the
        rest of that cell's run: the cell ends with its result."""
        cell, self._ended = self._ended, None
        if cell is not None:
            cell.run_end += perf_counter() - self._boundary

    def install(self, patcher: Patcher) -> None:
        import repro.bench.experiments as experiments
        from repro.baselines.lustre import LustreCluster
        from repro.systems.registry import SystemHandle

        prof = self.profile
        build = experiments.build_system

        def build_system(*args: Any, **kwargs: Any) -> Any:
            if prof is not None:
                prof.push("systems.build")
            started = perf_counter()
            try:
                handle = build(*args, **kwargs)
            finally:
                ended = perf_counter()
                if prof is not None:
                    prof.pop()
            start = started if self._boundary is None else self._boundary
            self._ended = None
            self.cells.append(CellTiming(start, ended, handle))
            return handle

        patcher.set(experiments, "build_system", build_system)

        def driver(method: Callable, shim_arg: int) -> Callable:
            def drive(handle: Any, body: Callable) -> Any:
                cell = self._cell_of(handle)
                probed = self._probe_body(body, cell, shim_arg)
                if prof is not None:
                    prof.push("sim.engine")
                try:
                    return method(handle, probed)
                finally:
                    if prof is not None:
                        prof.pop()
                    if cell is not None:
                        cell.run_end = perf_counter()
                        self._end_cell(cell, handle)
                        self._boundary = perf_counter()
                        self._ended = cell

            return functools.wraps(method)(drive)

        patcher.set(SystemHandle, "run_ranks", driver(SystemHandle.run_ranks, 0))
        patcher.set(SystemHandle, "makespan", driver(SystemHandle.makespan, 1))

        write_file = LustreCluster.write_file

        def lustre_write_file(cluster: Any, path: str, nbytes: int):
            result = yield from write_file(cluster, path, nbytes)
            if self.cells:
                self.cells[-1].lustre_written += nbytes
            return result

        patcher.set(LustreCluster, "write_file",
                    functools.wraps(write_file)(lustre_write_file))

    def _end_cell(self, cell: CellTiming, handle: Any) -> None:
        """Read what the checks need, then drop the handle so the recorder
        never keeps a finished system alive (peak RSS stays the
        workload's own)."""
        from repro.errors import UnknownSystem

        cell.runs += 1
        cell.events = handle.env.events_scheduled
        try:
            cell.write_bw = handle.aggregate_write_bandwidth()
            cell.read_bw = handle.aggregate_read_bandwidth()
        except UnknownSystem:
            pass  # no device inventory: the efficiency check reports it
        if self.on_cell_end is not None:
            self.on_cell_end(cell, handle)
        cell.handle = None

    def _cell_of(self, handle: Any) -> Optional[CellTiming]:
        for cell in reversed(self.cells):
            if cell.handle is handle:
                return cell
        self.errors.append("simulated job on a handle no build_system returned")
        return None

    def _probe_body(self, body: Callable, cell: Optional[CellTiming],
                    shim_arg: int) -> Callable:
        """The workload body with its shim probed: argument ``shim_arg`` is
        the shim (0 in ``rank_main(shim, comm)``, 1 in ``work(i, client)``)."""
        if cell is None:
            return body
        prof = self.profile

        def probed(*args: Any) -> Any:
            args = list(args)
            args[shim_arg] = ShimProbe(args[shim_arg], cell)
            gen = body(*args)
            return gen if prof is None else _TimedGen(gen, "apps", prof)

        return probed
