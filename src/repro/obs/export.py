"""Trace and metrics exporters.

* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the format Perfetto and ``chrome://tracing`` load).
  Each :class:`~repro.obs.context.ObsContext` becomes one *process*
  row (``pid``); each span track becomes one or more *threads*
  (``tid``).  Concurrent spans on one track (e.g. overlapping NVMe
  commands on one device) are spilled onto extra lanes — ``ssd00``,
  ``ssd00#1``, … — so every lane holds a properly nested family of
  intervals and every ``B`` has a matching ``E`` with non-negative
  duration.  Timestamps are simulated time in microseconds.
* :func:`write_jsonl` — one JSON object per span, flat, for ad-hoc
  analysis with ``jq``/pandas.
* :func:`summary_text` — human-readable report: span counts by
  category and metric instruments.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "summary_text",
    "span_count",
    "span_sequence",
    "total_duration",
]


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds (µs, 3 decimals = ns)."""
    return round(t * 1e6, 3)


def _effective_intervals(spans: Sequence[Span], now: float) -> Dict[int, Tuple[float, float]]:
    """Closed, non-negative [begin, end] per span id.

    Open spans are clamped to ``now``; a parent whose children outlive
    it is stretched to cover them so the viewer never shows a child
    poking out of its parent.
    """
    ival: Dict[int, Tuple[float, float]] = {}
    for s in spans:
        end = s.end if s.end is not None else now
        if end < s.begin:
            end = s.begin
        ival[s.id] = (s.begin, end)
    # Children are created after their parents, so walking ids in
    # reverse order propagates child extents upward in one pass.
    for s in sorted(spans, key=lambda s: -s.id):
        if s.parent is not None and s.parent in ival:
            pb, pe = ival[s.parent]
            b, e = ival[s.id]
            if e > pe:
                ival[s.parent] = (pb, e)
    return ival


def _lanes_for_track(spans: Sequence[Span],
                     ival: Dict[int, Tuple[float, float]]) -> Tuple[Dict[int, int], int]:
    """Assign each span of ONE track to a lane (0, 1, ...).

    Spans are processed outermost-first; each lane keeps a stack of
    open intervals and accepts a span only if it nests properly, so
    every lane is a laminar family => matched, well-nested B/E pairs
    even when commands overlap in time on the same device.
    """
    order = sorted(spans, key=lambda s: (ival[s.id][0], -ival[s.id][1], s.id))
    lanes: List[List[Tuple[float, float]]] = []
    assignment: Dict[int, int] = {}
    for s in order:
        b, e = ival[s.id]
        for li in range(len(lanes) + 1):
            if li == len(lanes):
                lanes.append([])
            stack = lanes[li]
            while stack and stack[-1][1] <= b:
                stack.pop()
            if not stack or e <= stack[-1][1]:
                stack.append((b, e))
                assignment[s.id] = li
                break
    return assignment, len(lanes)


def chrome_trace(contexts: Iterable) -> Dict[str, object]:
    """Build a Chrome trace-event dict from one or more ObsContexts."""
    events: List[Dict[str, object]] = []
    for pid, ctx in enumerate(contexts, start=1):
        tr = ctx.tracer
        spans = list(tr.spans)
        instants = list(tr.instants)
        if not spans and not instants:
            continue
        now = max([ctx.env.now]
                  + [s.end for s in spans if s.end is not None]
                  + [s.begin for s in spans])
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": ctx.label}})

        by_track: Dict[str, List[Span]] = defaultdict(list)
        for s in spans:
            by_track[s.track].append(s)
        instant_tracks: Dict[str, List[Span]] = defaultdict(list)
        for s in instants:
            instant_tracks[s.track].append(s)

        # Track order: by first span id => deterministic, creation order.
        first_id: Dict[str, int] = {}
        for s in spans:
            first_id.setdefault(s.track, s.id)
        for s in instants:
            first_id.setdefault(s.track, s.id)
        tracks = sorted(first_id, key=first_id.get)

        ival = _effective_intervals(spans, now)
        next_tid = 1
        for track in tracks:
            tspans = by_track.get(track, [])
            assignment, n_lanes = _lanes_for_track(tspans, ival)
            n_lanes = max(n_lanes, 1)
            lane_tid = {}
            for lane in range(n_lanes):
                tid = next_tid
                next_tid += 1
                lane_tid[lane] = tid
                tname = track if lane == 0 else f"{track}#{lane}"
                events.append({"name": "thread_name", "ph": "M", "pid": pid,
                               "tid": tid, "args": {"name": tname}})
            # Emit B/E per lane in nesting order so same-ts ties keep
            # outer-B-first / inner-E-first ordering in the array.
            order = sorted(tspans,
                           key=lambda s: (ival[s.id][0], -ival[s.id][1], s.id))
            open_stacks: Dict[int, List[Tuple[float, Span]]] = \
                {lane: [] for lane in range(n_lanes)}
            for s in order:
                lane = assignment[s.id]
                tid = lane_tid[lane]
                b, e = ival[s.id]
                stack = open_stacks[lane]
                while stack and stack[-1][0] <= b:
                    pe, ps = stack.pop()
                    events.append({"ph": "E", "pid": pid,
                                   "tid": tid, "ts": _us(pe)})
                args = {"id": s.id}
                if s.parent is not None:
                    args["parent"] = s.parent
                if s.attrs:
                    args.update(s.attrs)
                events.append({"name": s.name, "cat": s.cat, "ph": "B",
                               "pid": pid, "tid": tid, "ts": _us(b),
                               "args": args})
                stack.append((e, s))
            for lane in range(n_lanes):
                tid = lane_tid[lane]
                while open_stacks[lane]:
                    pe, ps = open_stacks[lane].pop()
                    events.append({"ph": "E", "pid": pid,
                                   "tid": tid, "ts": _us(pe)})
            for s in sorted(instant_tracks.get(track, []), key=lambda s: s.id):
                args = dict(s.attrs) if s.attrs else {}
                events.append({"name": s.name, "cat": s.cat, "ph": "i",
                               "s": "t", "pid": pid, "tid": lane_tid[0],
                               "ts": _us(s.begin), "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated", "generator": "repro.obs"}}


def write_chrome_trace(contexts: Iterable, path: str) -> str:
    doc = chrome_trace(contexts)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"), default=str)
    return path


def write_jsonl(contexts: Iterable, path: str) -> str:
    """Flat span log: one JSON object per line, spans then instants."""
    with open(path, "w") as fh:
        for ctx in contexts:
            tr = ctx.tracer
            now = ctx.env.now
            for s in tr.spans:
                end = s.end if s.end is not None else now
                rec = {"ctx": ctx.label, "id": s.id, "parent": s.parent,
                       "name": s.name, "cat": s.cat, "track": s.track,
                       "t0": s.begin, "t1": end, "dur": max(0.0, end - s.begin)}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec, default=str) + "\n")
            for s in tr.instants:
                rec = {"ctx": ctx.label, "id": s.id, "name": s.name,
                       "cat": s.cat, "track": s.track, "t": s.begin,
                       "instant": True}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec, default=str) + "\n")
    return path


def span_sequence(ctx_or_tracer) -> Tuple[Tuple, ...]:
    """Deterministic fingerprint of a run's spans (for equality tests)."""
    tr = getattr(ctx_or_tracer, "tracer", ctx_or_tracer)
    seq = [(s.id, s.name, s.cat, s.track, s.parent, s.begin, s.end)
           for s in tr.spans]
    seq += [(s.id, s.name, s.cat, s.track, None, s.begin, s.begin)
            for s in tr.instants]
    seq.sort()
    return tuple(seq)


def total_duration(ctx_or_tracer, name: Optional[str] = None,
                   cat: Optional[str] = None,
                   track: Optional[str] = None) -> float:
    """Sum of durations of spans matching the given filters (seconds)."""
    tr = getattr(ctx_or_tracer, "tracer", ctx_or_tracer)
    total = 0.0
    for s in tr.spans:
        if name is not None and s.name != name:
            continue
        if cat is not None and s.cat != cat:
            continue
        if track is not None and s.track != track:
            continue
        end = s.end if s.end is not None else s.begin
        total += end - s.begin
    return total


def span_count(ctx_or_tracer, name: Optional[str] = None,
               cat: Optional[str] = None,
               track: Optional[str] = None) -> int:
    """Number of spans matching the given filters.

    The batching experiment asserts fabric round trips from
    ``span_count(ctx, name="nvmf.rtt")``: doorbell batching must lower
    it at equal payload bytes.
    """
    tr = getattr(ctx_or_tracer, "tracer", ctx_or_tracer)
    n = 0
    for s in tr.spans:
        if name is not None and s.name != name:
            continue
        if cat is not None and s.cat != cat:
            continue
        if track is not None and s.track != track:
            continue
        n += 1
    return n


def summary_text(contexts: Iterable, wall_s: Optional[float] = None) -> str:
    """Human-readable report over one or more contexts."""
    lines: List[str] = ["== repro.obs report =="]
    for ctx in contexts:
        tr = ctx.tracer
        lines.append(f"-- {ctx.label} --")
        if tr.enabled or tr.spans:
            by_cat: Dict[str, Tuple[int, float]] = {}
            tracks = set()
            for s in tr.spans:
                tracks.add(s.track)
                n, d = by_cat.get(s.cat, (0, 0.0))
                end = s.end if s.end is not None else s.begin
                by_cat[s.cat] = (n + 1, d + (end - s.begin))
            lines.append(f"  spans: {len(tr.spans)} "
                         f"(+{len(tr.instants)} instants) "
                         f"on {len(tracks)} tracks")
            for cat in sorted(by_cat):
                n, d = by_cat[cat]
                lines.append(f"    {cat:<10} {n:>7} spans  {d * 1e3:10.3f} ms")
        flat = ctx.metrics.flat()
        if flat:
            lines.append("  metrics:")
            for meta in ctx.metrics.names():
                inst = ctx.metrics.get(meta.name)
                if meta.kind == "counter":
                    lines.append(f"    {meta.name:<34} "
                                 f"{inst.value:>14g} {meta.unit}")
                elif meta.kind == "gauge":
                    if inst.updates:
                        lines.append(f"    {meta.name:<34} "
                                     f"{inst.value:>14g} {meta.unit} "
                                     f"(max {inst.max:g})")
                else:
                    if inst.count:
                        lines.append(
                            f"    {meta.name:<34} n={inst.count:<8} "
                            f"mean={inst.mean:.3e} p50={inst.percentile(.5):.3e} "
                            f"p99={inst.percentile(.99):.3e} "
                            f"max={inst.max:.3e} {meta.unit}")
    if wall_s is not None:
        lines.append(f"[capture wall time {wall_s:.2f}s]")
    return "\n".join(lines)
