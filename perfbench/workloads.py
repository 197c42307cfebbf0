"""The benchmark's workloads: which experiment cells run, and their checks.

A *cell* is one ``build_system`` call plus the one simulated job that
follows it; a *pass* is one full set of a workload's cells.  Each
workload drives the public experiment functions (or their ``SimUnit``s)
in ``repro.bench.experiments`` with its seed, so the program only ever
sees the generated inputs.

Simulated outputs of a cell are the experiment's own result values plus
the bytes the workload wrote and read back; they are compared exactly
against the recorded reference, and against the first pass of the run.
Per-cell invariants hold for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from probes import CellRecorder, CellTiming

KiB = 1024
MiB = 1024 * KiB

#: Input parameters per workload (also printed as provenance).
PARAMS: Dict[str, Dict[str, Any]] = {
    "hugeblock": {
        "experiment": "fig7a_plan",
        "nprocs": 28,
        "file_bytes": 512 * MiB,
        "block_sizes": [4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
                        128 * KiB, 512 * KiB, 2 * MiB],
    },
    "multilevel": {
        "experiment": "tab2_multilevel",
        "nprocs": 448,
        "atoms_per_rank": 8_000,
        "checkpoints": 2,
        "pfs_interval": 2,
        "systems": ["orangefs", "glusterfs", "nvmecr"],
    },
    "drilldown": {
        "experiment": "fig7d_drilldown",
        "nprocs": 28,
        "atoms_per_rank": 16_000,
        "write_chunk": 4 * MiB,
        "stages": ["base", "+userspace", "+provenance", "+hugeblocks"],
    },
}

@dataclass
class Call:
    """One call into an experiment; it yields ``len(labels)`` cells."""

    labels: List[str]
    run: Callable[[], List[Dict[str, Any]]]  # per-cell simulated outputs


@dataclass
class CellResult:
    label: str
    outputs: Dict[str, Any] = field(default_factory=dict)
    setup_s: float = 0.0
    run_s: float = 0.0
    events: int = 0
    failures: List[str] = field(default_factory=list)
    timing: Optional[CellTiming] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def sim_s(self) -> float:
        o = self.outputs
        if "time_s" in o:
            return o["time_s"]
        if "checkpoint_s" in o:
            return o["checkpoint_s"] + o["recovery_s"]
        return o.get("stage_s", 0.0)


@dataclass
class PassResult:
    cells: List[CellResult]
    wall_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return sum(c.setup_s for c in self.cells)

    @property
    def run_s(self) -> float:
        return sum(c.run_s for c in self.cells)

    @property
    def slowest_cell_s(self) -> float:
        return max((c.setup_s + c.run_s for c in self.cells), default=0.0)

    @property
    def sim_s(self) -> float:
        return sum(c.sim_s for c in self.cells)

    @property
    def events(self) -> int:
        return sum(c.events for c in self.cells)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    def outputs(self) -> Dict[str, Dict[str, Any]]:
        return {c.label: c.outputs for c in self.cells}


# ---------------------------------------------------------------------------
# calls per workload


def _comd_bytes(atoms_per_rank: int) -> int:
    from repro.bench import calibration as cal

    return atoms_per_rank * cal.COMD_BYTES_PER_ATOM


def _hugeblock_calls(seed: int, p: Dict[str, Any]) -> List[Call]:
    from repro.bench.experiments import fig7a_plan
    from repro.exec import run_unit

    plan = fig7a_plan(tuple(p["block_sizes"]), nprocs=p["nprocs"],
                      file_bytes=p["file_bytes"], seed=seed)

    def one(unit) -> List[Dict[str, Any]]:
        payload = run_unit(unit).payload
        return [{"time_s": payload["time_s"],
                 "pool_bytes": payload["pool_bytes"]}]

    return [Call([unit.label], lambda unit=unit: one(unit))
            for unit in plan.units]


def _multilevel_calls(seed: int, p: Dict[str, Any]) -> List[Call]:
    from repro.bench.experiments import tab2_multilevel

    def one(system: str) -> List[Dict[str, Any]]:
        table = tab2_multilevel(
            nprocs=p["nprocs"], atoms_per_rank=p["atoms_per_rank"],
            checkpoints=p["checkpoints"], pfs_interval=p["pfs_interval"],
            seed=seed, systems=(system,))
        (_title, ckpt, rec, progress), = table.rows
        return [{"checkpoint_s": ckpt, "recovery_s": rec,
                 "progress_rate": progress}]

    return [Call([f"tab2/{system}"], lambda system=system: one(system))
            for system in p["systems"]]


def _drilldown_calls(seed: int, p: Dict[str, Any]) -> List[Call]:
    from repro.bench.experiments import fig7d_drilldown

    labels = [f"fig7d/{stage}" for stage in p["stages"]]

    def run() -> List[Dict[str, Any]]:
        table = fig7d_drilldown(
            procs=(p["nprocs"],), atoms_per_rank=p["atoms_per_rank"],
            write_chunk=p["write_chunk"], seed=seed)
        (row,) = table.rows
        stages = row[1:]
        if len(stages) != len(labels):
            raise ValueError(f"fig7d returned {len(stages)} stages, "
                             f"expected {len(labels)}")
        return [{"stage_s": t} for t in stages]

    return [Call(labels, run)]


CALLS: Dict[str, Callable[[int, Dict[str, Any]], List[Call]]] = {
    "hugeblock": _hugeblock_calls,
    "multilevel": _multilevel_calls,
    "drilldown": _drilldown_calls,
}

NAMES: Tuple[str, ...] = tuple(PARAMS)


# ---------------------------------------------------------------------------
# invariants


def _expected_io(name: str, p: Dict[str, Any]) -> Tuple[int, int]:
    """(bytes written in all tiers, bytes read back) per cell."""
    if name == "hugeblock":
        return p["nprocs"] * p["file_bytes"], 0
    per_rank = _comd_bytes(p["atoms_per_rank"])
    if name == "multilevel":
        # Recovery reads the newest fast-tier checkpoint back.
        return p["nprocs"] * per_rank * p["checkpoints"], p["nprocs"] * per_rank
    return p["nprocs"] * per_rank, 0


def invariant_failures(name: str, cell: CellResult) -> List[str]:
    """Per-cell checks that hold for every seed."""
    p = PARAMS[name]
    t = cell.timing
    o = cell.outputs
    out: List[str] = []
    want_written, want_read = _expected_io(name, p)
    written = o["written_bytes"] + o.get("lustre_bytes", 0)
    if written != want_written:
        out.append(f"wrote {written} bytes, expected {want_written}")
    if o["read_bytes"] != want_read:
        out.append(f"read back {o['read_bytes']} bytes, expected {want_read}")
    sim = o.get("time_s", o.get("stage_s", o.get("checkpoint_s")))
    if not (isinstance(sim, float) and sim > 0.0):
        out.append(f"simulated time {sim!r} is not positive")
        return out
    if name == "multilevel":
        if o.get("lustre_bytes", 0) <= 0:
            out.append("no checkpoint reached the Lustre tier")
        if not 0.0 < o["progress_rate"] <= 1.0:
            out.append(f"progress rate {o['progress_rate']} outside (0, 1]")
        bw = t.read_bw if t is not None else None
        if bw and o["read_bytes"] / (o["recovery_s"] * bw) > 1.0:
            out.append("recovery read faster than the devices allow")
    else:
        bw = t.write_bw if t is not None else None
        if not bw:
            out.append("no device bandwidth to bound efficiency")
        elif o["written_bytes"] / (sim * bw) > 1.0:
            out.append(f"write efficiency {o['written_bytes'] / (sim * bw):.3f} > 1")
    return out


def compare(label: str, got: Dict[str, Any], want: Dict[str, Any],
            against: str) -> List[str]:
    """Exact comparison of simulated outputs."""
    if got == want:
        return []
    diffs = [f"{k}: {got.get(k)!r} != {want.get(k)!r}"
             for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]
    return [f"{label} differs from {against}: " + "; ".join(diffs)]


# ---------------------------------------------------------------------------
# one pass


def run_pass(name: str, seed: int, recorder: CellRecorder) -> PassResult:
    """Run every cell of ``name`` once; timings come from ``recorder``."""
    from time import perf_counter

    p = PARAMS[name]
    result = PassResult(cells=[])
    started = perf_counter()
    for call in CALLS[name](seed, p):
        first, known_errors = len(recorder.cells), len(recorder.errors)
        recorder.mark()
        try:
            outputs = call.run()
            recorder.end_call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failing cell is a result
            outputs, error = None, f"{type(exc).__name__}: {exc}"
        timings = recorder.cells[first:]
        if error is None and len(recorder.errors) > known_errors:
            error = "; ".join(recorder.errors[known_errors:])
        if error is None and len(timings) != len(call.labels):
            error = (f"{len(timings)} systems built for "
                     f"{len(call.labels)} cells")
        for i, label in enumerate(call.labels):
            cell = CellResult(label)
            result.cells.append(cell)
            if error is not None:
                cell.failures.append(error)
                continue
            t = timings[i]
            cell.timing = t
            cell.setup_s, cell.run_s, cell.events = t.setup_s, t.run_s, t.events
            if t.runs != 1:
                cell.failures.append(f"{t.runs} simulated jobs on one system")
            cell.outputs = dict(outputs[i])
            cell.outputs["written_bytes"] = t.written
            cell.outputs["read_bytes"] = t.read
            if name == "multilevel":
                cell.outputs["lustre_bytes"] = t.lustre_written
            cell.failures.extend(invariant_failures(name, cell))
    result.wall_s = perf_counter() - started
    del recorder.cells[:]
    del recorder.errors[:]
    return result
