"""Benchmark driver: host time, memory and checked simulated results.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload hugeblock --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics from untraced passes: the
first pass warms imports and lazy set-up and is left out, then passes
repeat until ``--seconds`` have gone by (at least three), and each host
metric is the median over those steady passes.  ``--trace 1`` runs the
same untraced passes and then one traced pass, and reports the per-layer
metrics.  Every pass is checked (see ``workloads.py``); a cell that
raises or whose simulated outputs are wrong counts as failed.  The last
line of standard output is the JSON result.

``--record-reference`` records the reference outputs of the current
source for ``REFERENCE_SEEDS`` into ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from layers import HOST_LAYERS, SIM_LAYER_NAMES

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MIN_STEADY = 3
#: ``setup_s + run_s`` must cover at least this share of a steady pass's
#: wall time (median over the passes), or the run is not correct: only
#: the benchmark's own work between experiment calls may fall outside.
MIN_ACCOUNTED = 0.97
#: Seeds whose outputs ``--record-reference`` records.
REFERENCE_SEEDS = range(32)

#: End-to-end metrics (untraced): name -> unit.
END_TO_END = {"setup_s": "s", "run_s": "s", "slowest_cell_s": "s",
              "peak_rss_MB": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {"systems.build_s": "s", "core.microfs.pool_build_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in HOST_LAYERS
                  if layer != "systems.build"})
    units.update({
        "sim.engine.events": "count", "sim.engine.resumes": "count",
        "sim.engine.conditions": "count", "sim.engine.host_us_per_event": "us",
        "sim.fairshare.recomputes": "count",
        "sim.fairshare.flows_touched": "count",
        "mpi.collectives": "count", "fabric.nvmf.rtts": "count",
        "core.data_plane.requests": "count", "core.data_plane.retries": "count",
        "core.microfs.blocks_allocated": "count",
        "core.microfs.oplog.records": "count",
        "core.microfs.oplog.coalesced_frac": "ratio",
        "io.envelope.log_pages": "count", "nvme.commands": "count",
        "nvme.extent_bytes_held": "B", "io.materialised_frac": "ratio",
    })
    units.update({f"{layer}.sim_self_s": "sim_s" for layer in SIM_LAYER_NAMES})
    units.update({"sim_s": "sim_s", "trace.overhead": "ratio",
                  "bench.accounted_frac": "ratio"})
    return units


# ---------------------------------------------------------------------------
# provenance


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over every ``src/repro`` Python file (path and bytes)."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    from workloads import PARAMS

    return {
        "workload": workload, "seed": seed, "params": PARAMS[workload],
        "commit": _commit(root), "source_sha256": source_digest(root),
        "host": platform.node(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# passes


def load_reference() -> Dict[str, Any]:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {"seeds": {}}


def check_pass(result, workload: str, seed: int, reference: Dict[str, Any],
               first) -> None:
    """Add reference, pass-to-pass and event-count mismatches to cells."""
    from workloads import compare

    ref = reference.get("seeds", {}).get(workload, {}).get(str(seed))
    base = None if first is None else {c.label: c for c in first.cells}
    for cell in result.cells:
        if not cell.ok:
            continue
        if ref is not None:
            want = ref.get(cell.label)
            if want is None:
                cell.failures.append(f"{cell.label} missing from reference")
            else:
                cell.failures.extend(
                    compare(cell.label, cell.outputs, want, "reference"))
        if base is not None and cell.label in base and base[cell.label].ok:
            other = base[cell.label]
            cell.failures.extend(
                compare(cell.label, cell.outputs, other.outputs, "first pass"))
            if cell.events != other.events:
                cell.failures.append(
                    f"{cell.label}: {cell.events} events, first pass "
                    f"{other.events}")


def run_one(workload: str, seed: int, reference: Dict[str, Any], first):
    """One untraced, checked pass."""
    from probes import CellRecorder, Patcher
    from workloads import run_pass

    gc.collect()
    recorder = CellRecorder()
    with Patcher() as patcher:
        recorder.install(patcher)
        result = run_pass(workload, seed, recorder)
    check_pass(result, workload, seed, reference, first)
    return result


def untraced(workload: str, seed: int, seconds: float,
             reference: Dict[str, Any]) -> Tuple[Any, List[Any]]:
    """Warm-up pass plus steady passes for ``seconds`` (at least three)."""
    warm = run_one(workload, seed, reference, None)
    steady: List[Any] = []
    started = perf_counter()
    while len(steady) < MIN_STEADY or perf_counter() - started < seconds:
        steady.append(run_one(workload, seed, reference, warm))
    return warm, steady


def traced(workload: str, seed: int, reference: Dict[str, Any], first):
    """One traced pass: layer wrappers, spans and engine telemetry on."""
    from layers import LayerProbe
    from probes import CellRecorder, HostProfile, Patcher
    from repro.obs import capture
    from workloads import run_pass

    gc.collect()
    profile = HostProfile()
    probe = LayerProbe(profile)
    recorder = CellRecorder(profile=profile, on_cell_end=probe.end_cell)
    with Patcher() as patcher, capture(trace=True, telemetry=True):
        recorder.install(patcher)
        probe.install(patcher)
        result = run_pass(workload, seed, recorder)
    check_pass(result, workload, seed, reference, first)
    return result, profile, probe


# ---------------------------------------------------------------------------
# metrics


def _spread(values: List[float]) -> Tuple[float, float, float, float]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return q1, q3, min(values), max(values)


def end_to_end(steady: List[Any]) -> Dict[str, Tuple[float, List[float]]]:
    """Metric -> (median, samples) over the steady passes."""
    samples = {
        "setup_s": [p.setup_s for p in steady],
        "run_s": [p.run_s for p in steady],
        "slowest_cell_s": [p.slowest_cell_s for p in steady],
    }
    out = {name: (statistics.median(vals), vals)
           for name, vals in samples.items()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_MB"] = (rss_mb, [rss_mb])
    return out


def accounted(passes: List[Any]) -> float:
    """Median share of pass wall time that ``setup_s + run_s`` cover."""
    return statistics.median([(p.setup_s + p.run_s) / p.wall_s for p in passes])


def per_layer(steady: List[Any], result, profile, probe) -> Dict[str, float]:
    t = probe.totals
    calls = profile.calls
    run_untraced = statistics.median([p.run_s for p in steady])
    events = t.get("sim.engine.events", 0.0)
    appends = t.get("core.microfs.oplog.appends", 0.0)
    written = sum(c.outputs.get("written_bytes", 0) for c in result.cells)
    m: Dict[str, float] = {
        "systems.build_s": profile.total_s.get("systems.build", 0.0),
        "core.microfs.pool_build_s":
            profile.total_s.get("core.microfs.pool_build", 0.0),
    }
    for layer in HOST_LAYERS:
        if layer != "systems.build":
            m[f"{layer}.self_s"] = profile.self_s.get(layer, 0.0)
    m.update({
        "sim.engine.events": events,
        "sim.engine.resumes": t.get("sim.engine.resumes", 0.0),
        "sim.engine.conditions": t.get("sim.engine.conditions", 0.0),
        "sim.engine.host_us_per_event":
            run_untraced / events * 1e6 if events else 0.0,
        "sim.fairshare.recomputes": t.get("sim.fairshare.recomputes", 0.0),
        "sim.fairshare.flows_touched": t.get("sim.fairshare.flows_touched", 0.0),
        "mpi.collectives": calls.get("mpi.collectives", 0),
        "fabric.nvmf.rtts": calls.get("fabric.nvmf.rtts", 0),
        "core.data_plane.requests": calls.get("core.data_plane.requests", 0),
        "core.data_plane.retries": t.get("core.data_plane.retries", 0.0),
        "core.microfs.blocks_allocated":
            t.get("core.microfs.blocks_in_use", 0.0)
            + calls.get("core.microfs.blocks_freed", 0),
        "core.microfs.oplog.records": t.get("core.microfs.oplog.records", 0.0),
        "core.microfs.oplog.coalesced_frac":
            t.get("core.microfs.oplog.coalesced", 0.0) / appends if appends else 0.0,
        "io.envelope.log_pages": calls.get("io.envelope.log_pages", 0),
        "nvme.commands": t.get("nvme.commands", 0.0),
        "nvme.extent_bytes_held": t.get("nvme.extent_bytes_held", 0.0),
        "io.materialised_frac":
            t.get("io.materialised_bytes", 0.0) / written if written else 0.0,
    })
    for layer in SIM_LAYER_NAMES:
        m[f"{layer}.sim_self_s"] = probe.sim_self_s.get(layer, 0.0)
    m["sim_s"] = result.sim_s
    m["trace.overhead"] = result.run_s / run_untraced if run_untraced else 0.0
    m["bench.accounted_frac"] = accounted(steady)
    return m


# ---------------------------------------------------------------------------
# reporting


def _report_failures(passes: List[Any]) -> None:
    shown = 0
    for number, p in enumerate(passes):
        for cell in p.cells:
            for failure in cell.failures:
                if shown < 20:
                    print(f"perfbench: pass {number} {cell.label}: {failure}",
                          file=sys.stderr)
                shown += 1
    if shown > 20:
        print(f"perfbench: ... {shown - 20} more failures", file=sys.stderr)


def _print_table(rows: List[Tuple[str, float, str, str]]) -> None:
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import NAMES

    if args.record_reference:
        return record(root, [args.workload] if args.workload else list(NAMES))
    if args.workload not in NAMES:
        parser.error(f"--workload must be one of {', '.join(NAMES)}")
    return measure(root, args.workload, args.seed, args.seconds,
                   bool(args.trace))


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> int:
    reference = load_reference()
    print("perfbench provenance " + json.dumps(provenance(root, workload, seed)))
    if str(seed) not in reference.get("seeds", {}).get(workload, {}):
        print(f"perfbench: no recorded reference for seed {seed}; checking "
              "pass-to-pass identity and per-cell invariants only")
    warm, steady = untraced(workload, seed, seconds, reference)
    passes = [warm] + steady
    if trace:
        result, profile, probe = traced(workload, seed, reference, warm)
        passes.append(result)
        metrics = per_layer(steady, result, profile, probe)
        units = per_layer_units()
        rows = [(name, metrics[name], units[name], "") for name in units
                if name != "sim_s"]
    else:
        e2e = end_to_end(steady)
        metrics = {name: value for name, (value, _) in e2e.items()}
        units = dict(END_TO_END)
        rows = []
        for name, (value, samples) in e2e.items():
            q1, q3, lo, hi = _spread(samples)
            rows.append((name, value, units[name],
                         f"median of n={len(samples)}  q1={q1:.6g} q3={q3:.6g} "
                         f"min={lo:.6g} max={hi:.6g}"))
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(p.failed for p in passes)
    sims = sorted({p.sim_s for p in passes})
    rows.append(("sim_s", steady[0].sim_s, "sim_s",
                 "identical in every pass" if len(sims) == 1
                 else f"DIFFERS across passes: {sims}"))
    rows.append(("cells_failed", failed / attempted, "share",
                 f"{failed} of {attempted} cells"))
    share = accounted(steady)
    if not trace:
        rows.append(("bench.accounted_frac", share, "ratio",
                     "(setup_s + run_s) / pass wall time"))
    print(f"perfbench {workload} seed={seed}: 1 warm-up + {len(steady)} steady "
          f"passes{' + 1 traced' if trace else ''}, "
          f"{len(passes[0].cells)} cells per pass")
    _print_table(rows)
    _report_failures(passes)
    if share < MIN_ACCOUNTED:
        print(f"perfbench: setup_s + run_s cover {share:.1%} of pass wall "
              f"time, below {MIN_ACCOUNTED:.0%}; time is lost between cells",
              file=sys.stderr)
    out = {
        "correct": failed == 0 and share >= MIN_ACCOUNTED,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(out))
    return 0


def record(root: Path, names: List[str]) -> int:
    """Record reference outputs for ``REFERENCE_SEEDS`` (failing cells abort)."""
    reference = load_reference()
    reference["format"] = 1
    reference["source_sha256"] = source_digest(root)
    reference["commit"] = _commit(root)
    table = reference.setdefault("seeds", {})
    empty: Dict[str, Any] = {}
    for name in names:
        for seed in REFERENCE_SEEDS:
            result = run_one(name, seed, empty, None)
            bad = [(c.label, c.failures) for c in result.cells if not c.ok]
            if bad:
                print(f"perfbench: {name} seed {seed} failed: {bad}",
                      file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = result.outputs()
            print(f"recorded {name} seed {seed}: sim_s={result.sim_s!r}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
