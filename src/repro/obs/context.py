"""Per-run observability context and the CLI capture session.

One :class:`ObsContext` per :class:`~repro.sim.engine.Environment`,
stored on ``env.obs`` and on the system registry's ``SystemHandle`` so
every backend built through :mod:`repro.systems` is observable with no
experiment changes.

:func:`capture` opens a process-wide session: every context attached
while it is active inherits the session's tracing/telemetry switches and
registers itself, so a CLI run that builds several environments (e.g.
fig8a builds three fleets) exports them all into one trace file, one
Perfetto process row per environment.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["ObsContext", "Capture", "attach", "capture", "current_session",
           "tracer_of"]


class ObsContext:
    """Tracer + metrics registry for one environment."""

    def __init__(self, env, label: str = "run", tracing: bool = False,
                 telemetry: bool = False):
        self.env = env
        self.label = label
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(env) if tracing else NULL_TRACER
        if telemetry:
            self.enable_telemetry()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self) -> Tracer:
        if not self.tracer.enabled:
            self.tracer = Tracer(self.env)
        return self.tracer

    def enable_telemetry(self):
        """Attach deterministic engine self-telemetry (idempotent)."""
        if self.env.telemetry is None:
            from repro.sim.engine import EngineTelemetry

            self.env.telemetry = EngineTelemetry()
        return self.env.telemetry

    def publish_telemetry(self) -> None:
        """Fold engine counters into the registry (idempotent, no-op
        when telemetry was never attached)."""
        telemetry = getattr(self.env, "telemetry", None)
        if telemetry is not None:
            telemetry.publish(self.metrics, self.env)

    def flat_extra(self) -> Dict[str, float]:
        """Flat metric summaries for ``RunResult.extra``."""
        self.publish_telemetry()
        return self.metrics.flat()


# ---------------------------------------------------------------------------
# module-level session

_SESSION: Optional["Capture"] = None


class Capture:
    """Collects every ObsContext attached while the session is active."""

    def __init__(self, trace: bool = False, telemetry: bool = False):
        self.trace = trace
        self.telemetry = telemetry
        self.contexts: List[ObsContext] = []
        self.started_wall = _time.perf_counter()

    def register(self, ctx: ObsContext) -> None:
        self.contexts.append(ctx)

    # Export helpers delegate to repro.obs.export (imported lazily to
    # keep context -> export -> context import cycles out).
    def write_chrome(self, path: str) -> str:
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(self.contexts, path)

    def write_jsonl(self, path: str) -> str:
        from repro.obs.export import write_jsonl

        return write_jsonl(self.contexts, path)

    def report(self) -> str:
        from repro.obs.export import summary_text

        return summary_text(self.contexts,
                            wall_s=_time.perf_counter() - self.started_wall)

    def n_spans(self) -> int:
        return sum(len(c.tracer.spans) + len(c.tracer.instants)
                   for c in self.contexts)


@contextmanager
def capture(trace: bool = False, telemetry: bool = False):
    """Session scope: contexts attached inside inherit these switches."""
    global _SESSION
    prev = _SESSION
    session = Capture(trace=trace, telemetry=telemetry)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = prev
        for ctx in session.contexts:
            if ctx.tracer.enabled:
                ctx.tracer.close_open_spans()
            ctx.publish_telemetry()


def current_session() -> Optional["Capture"]:
    """The active :func:`capture` session, if any.

    The execution layer (:mod:`repro.exec`) opens a nested capture per
    unit to harvest that unit's contexts, then re-registers them here so
    a CLI-level ``--trace``/``--metrics`` session still sees every
    environment the plan built.
    """
    return _SESSION


def attach(env, label: str = "run", tracing: Optional[bool] = None,
           telemetry: Optional[bool] = None) -> ObsContext:
    """Get or create the ObsContext for ``env`` (idempotent).

    Inside a :func:`capture` session the session's switches apply and
    the context is registered for export; explicit keyword arguments
    win over the session defaults.
    """
    ctx = getattr(env, "obs", None)
    if ctx is None:
        session = _SESSION
        want_trace = tracing if tracing is not None else (
            session.trace if session is not None else False)
        want_telemetry = telemetry if telemetry is not None else (
            session.telemetry if session is not None else False)
        ctx = ObsContext(env, label=label, tracing=want_trace,
                         telemetry=want_telemetry)
        env.obs = ctx
        if session is not None:
            session.register(ctx)
    else:
        if tracing:
            ctx.enable_tracing()
        if telemetry:
            ctx.enable_telemetry()
    return ctx


def tracer_of(env) -> Optional[Tracer]:
    """The enabled tracer for ``env``, or None — the hot-path guard.

    Cost when observability is off: one attribute read and one None
    test.  Callers must guard with ``if tr is not None`` before creating
    spans, so the disabled path allocates nothing.
    """
    ctx = getattr(env, "obs", None)
    if ctx is None:
        return None
    tr = ctx.tracer
    return tr if tr.enabled else None
