"""Opt-in wall-clock sampling profiler for the *host* Python process.

Where :mod:`repro.obs.profile` attributes **simulated** makespan,
this module answers the other profiling question the ROADMAP's
"make the event loop scream" item needs: where does the *simulator
itself* burn host CPU?  It samples the interpreter's call stacks on a
background thread and emits collapsed-stack lines compatible with
``flamegraph.pl`` and speedscope — same format as the simulated-time
flamegraphs, different clock.

Determinism contract: this is, by construction, wall-clock territory —
the one home for host-time profiling (DetLint's DET001 allowlist names
it, next to the capture session's wall-time report and the worker
boundary).  Nothing here may feed simulation state:
the profiler only *observes* frames via ``sys._current_frames`` and
never touches the engine, so a sampled run's simulated results are
bit-identical to an unsampled one.  It is off unless explicitly
started (``repro profile --sample`` or the :func:`sample` context
manager).

The sampler is a daemon thread waking every ``interval_s`` (default
5 ms).  Each wake captures the traceback of the target threads and
increments one collapsed-stack bucket, so memory is bounded by the
number of distinct stacks, not the run length.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Iterable, List, Optional

__all__ = ["SamplingProfiler", "sample"]

#: Module prefixes dropped from the leaf side of a stack: sampling
#: machinery observing itself is noise, not signal.
_SELF_MODULES = ("repro/obs/sampling",)


def _frame_label(frame) -> str:
    """``module:function`` with the module path repo-relative-ish."""
    code = frame.f_code
    filename = code.co_filename.replace("\\", "/")
    # Trim to the interesting tail: site-packages or src-rooted path.
    for marker in ("/src/", "/site-packages/", "/lib/python"):
        pos = filename.rfind(marker)
        if pos != -1:
            filename = filename[pos + len(marker):]
            break
    if filename.endswith(".py"):
        filename = filename[:-3]
    return f"{filename}:{code.co_name}"


def _stack_of(frame) -> List[str]:
    """Root-to-leaf frame labels for one thread's current frame."""
    rev: List[str] = []
    while frame is not None:
        rev.append(_frame_label(frame))
        frame = frame.f_back
    rev.reverse()
    return rev


class SamplingProfiler:
    """Collapsed-stack wall-clock sampler (start/stop or ``with``)."""

    def __init__(self, interval_s: float = 0.005,
                 all_threads: bool = False):
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.interval_s = interval_s
        self.all_threads = all_threads
        self.samples = 0
        self.started_at: Optional[float] = None
        self.wall_s = 0.0
        self._counts: Dict[str, int] = {}
        self._target_ident: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target_ident = threading.get_ident()
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self.started_at is not None:
            self.wall_s += time.perf_counter() - self.started_at
            self.started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- the sampling thread ---------------------------------------------

    def _run(self) -> None:
        my_ident = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            frames = sys._current_frames()
            for ident, frame in sorted(frames.items()):
                if ident == my_ident:
                    continue
                if not self.all_threads and ident != self._target_ident:
                    continue
                stack = _stack_of(frame)
                if stack and any(
                        m in stack[-1] for m in _SELF_MODULES):
                    continue
                key = ";".join(stack) if stack else "(idle)"
                self._counts[key] = self._counts.get(key, 0) + 1
                self.samples += 1

    # -- output ----------------------------------------------------------

    def collapsed(self) -> List[str]:
        """``stack count`` lines, sorted — flamegraph.pl input."""
        return [f"{stack} {count}"
                for stack, count in sorted(self._counts.items())]

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            for line in self.collapsed():
                fh.write(line + "\n")
        return path

    def top(self, n: int = 10) -> List[str]:
        """Heaviest leaf frames, for the CLI summary line."""
        leaves: Dict[str, int] = {}
        for stack, count in self._counts.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        total = max(1, self.samples)
        return [f"{100.0 * count / total:5.1f}%  {leaf}"
                for leaf, count in ranked]


def sample(interval_s: float = 0.005,
           all_threads: bool = False) -> SamplingProfiler:
    """``with sample() as prof: ...`` — start a sampler for the block."""
    return SamplingProfiler(interval_s=interval_s, all_threads=all_threads)
