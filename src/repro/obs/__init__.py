"""repro.obs — end-to-end observability for the simulated stack.

Three pieces, usable separately or together:

* :mod:`repro.obs.tracer` — span tracing stamped with *simulated* time.
  Spans carry parent/child links so one checkpoint write can be followed
  app -> MicroFS -> data plane -> NVMf -> RDMA -> NVMe queue -> media.
* :mod:`repro.obs.metrics` — a typed instrument registry (monotonic
  counters, gauges, fixed-bucket latency histograms) that subsumed the
  old ad-hoc ``Counter``/``TraceRecorder`` pair, with snapshot/merge
  support so per-shard registries fold into one deterministic summary.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``), a flat JSONL span log, and a text
  summary.

An :class:`ObsContext` bundles one simulation environment's tracer +
registry and hangs off ``Environment.obs``; the system registry attaches
one to every built backend, so ``repro run fig8a --trace out.json``
traces any system with no experiment changes.

Determinism rules: span *ordering* and timestamps use only simulated
time and creation sequence — never the wall clock. Host-time
profiling of the simulator itself is the job of the sampler in
:mod:`repro.obs.sampling` (``repro profile --sample``), which only
observes stacks and never enters spans.

Tracing is near-zero-cost when disabled: ``tracer_of(env)`` returns
``None`` (one attribute read + one truth test), and the no-op
:data:`NULL_TRACER` singleton returns shared immutable objects — no
per-event allocation on the disabled path.
"""

from repro.obs.context import (
    Capture,
    ObsContext,
    attach,
    capture,
    current_session,
    tracer_of,
)
from repro.obs.export import (
    chrome_trace,
    span_count,
    span_sequence,
    summary_text,
    total_duration,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    InstrumentMeta,
    MetricsRegistry,
    TraceRecorder,
)
from repro.obs.profile import (
    CriticalPath,
    collapsed_stacks,
    critical_path,
    layer_table,
    spans_of,
    write_collapsed,
    write_critical_path_jsonl,
)
from repro.obs.sampling import SamplingProfiler, sample
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Capture",
    "Counter",
    "CriticalPath",
    "InstrumentMeta",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsContext",
    "SamplingProfiler",
    "Span",
    "TraceRecorder",
    "Tracer",
    "attach",
    "capture",
    "chrome_trace",
    "collapsed_stacks",
    "critical_path",
    "current_session",
    "layer_table",
    "sample",
    "span_count",
    "span_sequence",
    "spans_of",
    "summary_text",
    "total_duration",
    "tracer_of",
    "write_chrome_trace",
    "write_collapsed",
    "write_critical_path_jsonl",
    "write_jsonl",
]
