"""The traced pass: host self time, work counts and sim-time per layer.

Layer entry points are wrapped from here, never edited in the program.
Host time is charged at layer boundaries (public methods and the
coroutine bodies they spawn), not in per-block helpers, so the probes
cost the same per operation at every hugeblock size.  Work counts come
from engine telemetry, from call counts at those boundaries, and from
each layer's own counters read once per cell.  Simulated time per layer
comes from the program's spans through ``repro.obs.profile``.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Dict, List, Tuple

from probes import CellTiming, HostProfile, Patcher, counted, timed

_CLIENT = ("open", "write", "pwrite", "read", "pread", "fsync", "close",
           "mkdir", "unlink")

#: Host-time layers: name -> [(module, class, methods)].
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "core.runtime": [
        ("repro.core.runtime", "NVMeCRRuntime", ("init", "finalize")),
        ("repro.core.interception", "PosixShim",
         ("open", "creat", "write", "pwrite", "read", "pread", "fsync",
          "close", "mkdir", "unlink", "rename", "truncate")),
    ],
    "core.microfs": [
        ("repro.core.microfs.fs", "MicroFS",
         ("mkdir", "open", "write", "pwrite", "read", "pread", "fsync",
          "close", "unlink", "truncate", "rename", "checkpoint_state")),
    ],
    "core.data_plane": [("repro.core.data_plane", "DataPlane", ("submit",))],
    "fabric": [
        ("repro.fabric.nvmf", "NVMfSession",
         ("write", "read", "write_batch", "flush", "_io", "_io_batch", "_flush")),
        ("repro.fabric.transport", "LocalPCIeTransport",
         ("write", "write_batch", "read", "flush")),
        ("repro.fabric.transport", "FabricTransport",
         ("write", "write_batch", "read", "flush")),
    ],
    "nvme": [
        ("repro.nvme.device", "SSD",
         ("write", "read", "flush", "_do_write", "_do_read", "_do_flush")),
    ],
    "sim.fairshare": [
        ("repro.sim.fairshare", "FairShareServer", ("transfer", "_on_wake")),
    ],
    "mpi": [("repro.mpi.comm", "Communicator",
             ("barrier", "allgather", "gather", "bcast"))],
    "baselines.orangefs": [("repro.baselines.orangefs", "OrangeFSClient", _CLIENT)],
    "baselines.glusterfs": [("repro.baselines.glusterfs", "GlusterFSClient", _CLIENT)],
    "baselines.lustre": [
        ("repro.baselines.lustre", "LustreCluster", ("write_file", "read_file")),
        ("repro.baselines.lustre", "LustreClient",
         ("open", "write", "read", "fsync", "close", "mkdir", "unlink")),
    ],
}

#: Call counters at layer boundaries: counter -> (module, class, methods).
CALL_COUNTS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "mpi.collectives": ("repro.mpi.comm", "Communicator",
                        ("barrier", "allgather", "gather", "bcast")),
    "fabric.nvmf.rtts": ("repro.fabric.nvmf", "NVMfSession",
                         ("_io", "_io_batch", "_flush")),
    "core.data_plane.requests": ("repro.core.data_plane", "DataPlane", ("submit",)),
}

#: Critical-path layer (span category taxonomy) -> benchmark layer name.
SIM_LAYERS: Dict[str, str] = {
    "app": "apps",
    "mpi": "mpi",
    "runtime": "core.runtime",
    "fs": "core.microfs",
    "dataplane": "core.data_plane",
    "nvmf": "fabric",
    "device": "nvme",
    "idle": "sim.idle",
}

#: Every host-time layer, reported as ``<layer>.self_s``: the entry points
#: above plus the frames ``probes.CellRecorder`` opens around
#: ``build_system``, the simulated job and the rank bodies.
HOST_LAYERS: Tuple[str, ...] = ("systems.build", "sim.engine",
                                *LAYER_ENTRY_POINTS, "apps")

#: Every simulated-time layer, reported as ``<layer>.sim_self_s``; span
#: categories outside ``SIM_LAYERS`` fall to ``other``.
SIM_LAYER_NAMES: Tuple[str, ...] = (*SIM_LAYERS.values(), "other")

#: Classes whose instances are read once per cell for their counters.
_TRACKED = {
    "pools": ("repro.core.microfs.blockpool", "BlockPool"),
    "oplogs": ("repro.core.microfs.oplog", "OperationLog"),
    "ssds": ("repro.nvme.device", "SSD"),
    "planes": ("repro.core.data_plane", "DataPlane"),
}


def _cls(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


class LayerProbe:
    """Wraps layer entry points and folds per-cell counters.

    ``install`` must run after the :class:`probes.CellRecorder`, and
    ``end_cell`` is the recorder's ``on_cell_end`` hook.
    """

    def __init__(self, profile: HostProfile) -> None:
        self.profile = profile
        self.totals: Dict[str, float] = {}
        self.sim_self_s: Dict[str, float] = {}
        self._live: Dict[str, List[Any]] = {key: [] for key in _TRACKED}

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    # -- wrapping --------------------------------------------------------------

    def install(self, patcher: Patcher) -> None:
        prof = self.profile
        counters: Dict[Tuple[type, str], str] = {}
        for counter, (module, cls_name, methods) in CALL_COUNTS.items():
            for method in methods:
                counters[(_cls(module, cls_name), method)] = counter
        for layer, entries in LAYER_ENTRY_POINTS.items():
            for module, cls_name, methods in entries:
                cls = _cls(module, cls_name)
                for method in methods:
                    fn = getattr(cls, method)
                    patcher.set(cls, method, timed(
                        fn, layer, prof, count=counters.get((cls, method))))

        from repro.core.microfs.blockpool import BlockPool
        from repro.io.envelope import IORequest

        patcher.set(BlockPool, "__init__", timed(
            BlockPool.__init__, "core.microfs.pool_build", prof))
        free_many = BlockPool.free_many

        def free_many_counted(pool: Any, blocks: List[int]) -> None:
            prof.count("core.microfs.blocks_freed", len(blocks))
            return free_many(pool, blocks)

        patcher.set(BlockPool, "free_many",
                    functools.wraps(free_many)(free_many_counted))
        log_page = vars(IORequest)["log_page"].__func__
        patcher.set(IORequest, "log_page", classmethod(
            counted(log_page, "io.envelope.log_pages", prof)))

        for key, (module, cls_name) in _TRACKED.items():
            cls = _cls(module, cls_name)
            patcher.set(cls, "__init__", self._tracking(cls.__init__, key))

    def _tracking(self, init: Any, key: str) -> Any:
        live = self._live[key]

        @functools.wraps(init)
        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            live.append(obj)

        return wrapper

    # -- per cell ----------------------------------------------------------------

    def end_cell(self, cell: CellTiming, handle: Any) -> None:
        """Fold one finished cell: telemetry, layer counters, critical path."""
        from repro.obs.profile import critical_path, spans_of

        tel = handle.env.telemetry
        if tel is not None:
            self.add("sim.engine.events", tel.heap_pops)
            self.add("sim.engine.resumes", tel.resumes)
            self.add("sim.engine.conditions",
                     tel.dispatch.get("AllOf", 0) + tel.dispatch.get("AnyOf", 0))
            self.add("sim.fairshare.recomputes", tel.fairshare_recomputes)
            self.add("sim.fairshare.flows_touched", tel.fairshare_flows)
        live = self._live
        self.add("core.microfs.blocks_in_use",
                 sum(pool.used_blocks for pool in live["pools"]))
        appends = sum(log.total_appends for log in live["oplogs"])
        coalesced = sum(log.total_coalesced for log in live["oplogs"])
        self.add("core.microfs.oplog.appends", appends)
        self.add("core.microfs.oplog.coalesced", coalesced)
        self.add("core.microfs.oplog.records", appends - coalesced)
        held = real = 0
        for ssd in live["ssds"]:
            c = ssd.counters
            self.add("nvme.commands", c.get("write_commands")
                     + c.get("read_commands") + c.get("flushes"))
            for ns in ssd.namespaces():
                held += ns.store.bytes_stored()
                # Extents whose payload holds real bytes, not a size tag.
                real += sum(e.length for e in ns.store._extents
                            if not e.payload.is_synthetic)
        self.add("nvme.extent_bytes_held", held)
        self.add("io.materialised_bytes", real)
        self.add("core.data_plane.retries",
                 sum(dp.counters.get("io_retries") for dp in live["planes"]))
        for key in live:
            del live[key][:]
        cp = critical_path(spans_of([handle.obs]))
        for attribution in cp.ordered_layers():
            layer = SIM_LAYERS.get(attribution.layer, "other")
            self.sim_self_s[layer] = (self.sim_self_s.get(layer, 0.0)
                                      + attribution.self_s)
