"""Self-test of the benchmark's own checks, at small scale (a few seconds).

Run from the repository root::

    python3 perfbench/selftest.py

It shows that the checks catch what they exist to catch:

* a planted wrong reference (one output one ulp off, or a missing cell)
  is counted as a failed cell, not silently passed;
* an experiment call that raises counts every cell it owned as failed;
* set-up is timed through the name the experiments look up (a wrapper
  on ``repro.systems.build`` would see no call), and ``setup_s + run_s``
  covers at least ``run.MIN_ACCOUNTED`` of the pass's wall time, and
  time lost outside the cells falls below it;
* the traced pass gives bit-identical simulated outputs and event counts
  to the untraced pass, and its layer self times add up to its host time.

Exit status 0 means every check held.
"""

from __future__ import annotations

import copy
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path.cwd()

#: Small inputs with the same shape as the full workloads.
SMALL: Dict[str, Dict[str, Any]] = {
    "hugeblock": {"nprocs": 2, "file_bytes": 32 << 20,
                  "block_sizes": [4 << 10, 2 << 20]},
    "multilevel": {"nprocs": 8, "atoms_per_rank": 4000},
    "drilldown": {"nprocs": 4, "atoms_per_rank": 4000},
}


class Checks:
    def __init__(self) -> None:
        self.failed: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            self.failed.append(what)


def _reference_from(name: str, seed: int, result) -> Dict[str, Any]:
    return {"seeds": {name: {str(seed): copy.deepcopy(result.outputs())}}}


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    for name, small in SMALL.items():
        workloads.PARAMS[name].update(small)
    checks = Checks()
    seed = 7
    none: Dict[str, Any] = {"seeds": {}}

    for name in workloads.NAMES:
        first = run.run_one(name, seed, none, None)
        checks.expect(first.failed == 0 and len(first.cells) > 0,
                      f"{name}: every cell passes its invariants")
        checks.expect(all(c.setup_s > 0 and c.run_s > 0 for c in first.cells),
                      f"{name}: each cell has set-up and run time "
                      "(build_system is wrapped where experiments look it up)")
        good = _reference_from(name, seed, first)
        again = run.run_one(name, seed, good, first)
        checks.expect(again.failed == 0,
                      f"{name}: a matching reference and pass-to-pass "
                      "identity pass")
        passes = [again] + [run.run_one(name, seed, good, first)
                            for _ in range(2)]
        share = run.accounted(passes)
        checks.expect(share >= run.MIN_ACCOUNTED,
                      f"{name}: setup_s + run_s cover {share:.1%} of a warm "
                      f"pass's wall time (at least {run.MIN_ACCOUNTED:.0%})")

        wrong = copy.deepcopy(good)
        cells = wrong["seeds"][name][str(seed)]
        label = sorted(cells)[0]
        key = next(k for k, v in sorted(cells[label].items())
                   if isinstance(v, float))
        cells[label][key] = math.nextafter(cells[label][key], math.inf)
        planted = run.run_one(name, seed, wrong, None)
        bad = [c.label for c in planted.cells if not c.ok]
        checks.expect(bad == [label],
                      f"{name}: one-ulp wrong reference for {label}.{key} "
                      f"fails exactly that cell (failed: {bad})")

        missing = copy.deepcopy(good)
        del missing["seeds"][name][str(seed)][label]
        planted = run.run_one(name, seed, missing, None)
        checks.expect(planted.failed == 1,
                      f"{name}: a cell missing from the reference fails")

        result, profile, probe = run.traced(name, seed, good, first)
        checks.expect(result.failed == 0,
                      f"{name}: traced pass matches untraced outputs and "
                      "event counts")
        checks.expect(probe.totals.get("sim.engine.events", 0) > 0,
                      f"{name}: traced pass collects engine telemetry")
        attributed = sum(profile.self_s.values())
        host = result.setup_s + result.run_s
        checks.expect(0.9 <= attributed / host <= 1.0 + 1e-9,
                      f"{name}: layer self times cover "
                      f"{attributed / host:.1%} of traced host time")

    import repro.systems as systems

    seen: List[str] = []
    build = systems.build

    def counting_build(name: str, **kwargs: Any) -> Any:
        seen.append(name)
        return build(name, **kwargs)

    systems.build = counting_build
    try:
        trap = run.run_one("drilldown", seed, none, None)
    finally:
        systems.build = build
    checks.expect(not seen and trap.failed == 0 and len(trap.cells) == 4,
                  "drilldown: a wrapper on repro.systems.build sees "
                  f"{len(seen)} of {len(trap.cells)} builds, so the probe "
                  "wraps the experiments' own name")

    original: Callable = workloads.CALLS["drilldown"]

    def raising(seed: int, p: Dict[str, Any]):
        calls = original(seed, p)

        def boom() -> List[Dict[str, Any]]:
            raise RuntimeError("planted failure")

        calls[0].run = boom
        return calls

    workloads.CALLS["drilldown"] = raising
    try:
        crashed = run.run_one("drilldown", seed, none, None)
    finally:
        workloads.CALLS["drilldown"] = original
    checks.expect(crashed.failed == len(crashed.cells) == 4,
                  "drilldown: a raising experiment call fails all its cells")

    def losing(seed: int, p: Dict[str, Any]):
        time.sleep(0.05)  # host time outside every cell
        return original(seed, p)

    workloads.CALLS["drilldown"] = losing
    try:
        lost = [run.run_one("drilldown", seed, none, None) for _ in range(3)]
    finally:
        workloads.CALLS["drilldown"] = original
    share = run.accounted(lost)
    checks.expect(share < run.MIN_ACCOUNTED,
                  f"drilldown: 50 ms lost between cells leaves setup_s + "
                  f"run_s at {share:.1%}, which fails the run")

    print(f"selftest: {len(checks.failed)} failed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
