"""Bit-exact oracle for the engine's one dispatch loop.

``_ReferenceEnvironment`` below carries the four run paths that the one
stop-rule loop replaced — ``step``, ``run``, ``run_window`` and
``run_until_complete`` — kept verbatim as a test-only model.  Only the
observer branches are left out: they fed the sanitizer monitor, the
engine telemetry and a wall-clock profiler, none of which the programs
here attach (``test_engine.py`` covers the observers).  Both engines run
the same Hypothesis process programs under the same sequence of stop
rules and must agree with ``==`` on every process log, every return
value or raised exception, the number of scheduled events and the final
clock.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, Interrupt


# -- reference model (verbatim copy of the replaced run paths) ----------------


class _ReferenceEnvironment(Environment):
    """The engine with the run paths that the one dispatch loop replaced."""

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        time, _seq, event = heapq.heappop(self._queue)
        if time < self._now - 1e-12:
            raise SimulationError("time went backwards (scheduler bug)")
        self._now = max(self._now, time)
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Raises the exception of any process that failed with nobody
        waiting on it — silent process death would corrupt results.
        Returns the final simulation time.
        """
        # Hot loop: the pop/dispatch below is step() inlined (identical
        # ordering), with the orphan check guarded so the common case
        # costs one truth test instead of a call per event.
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                self._now = until
                break
            if time < self._now - 1e-12:
                raise SimulationError("time went backwards (scheduler bug)")
            event = pop(queue)[2]
            if time > self._now:
                self._now = time
            event._run_callbacks()
            if self._failures:
                self._raise_orphans()
        if self._failures:
            self._raise_orphans()
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_window(self, horizon: float) -> float:
        """Process every event strictly before ``horizon``; leave the rest."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time = queue[0][0]
            if time >= horizon:
                break
            if time < self._now - 1e-12:
                raise SimulationError("time went backwards (scheduler bug)")
            event = pop(queue)[2]
            if time > self._now:
                self._now = time
            event._run_callbacks()
            if self._failures:
                self._raise_orphans()
        if self._failures:
            self._raise_orphans()
        return self._now

    def run_until_complete(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` triggers; convenience for tests and drivers."""
        queue = self._queue
        while not event.triggered:
            if not queue:
                raise SimulationError("event can never trigger: queue empty")
            if queue[0][0] > limit:
                raise SimulationError(f"event did not trigger before t={limit}")
            self.step()
            if self._failures:
                self._raise_orphans()
        # Drain same-time callbacks so the event is fully processed.
        while queue and queue[0][0] <= self._now:
            self.step()
            if self._failures:
                self._raise_orphans()
        return event.value


# -- programs -----------------------------------------------------------------


def _play(env_cls, program):
    """Run ``program`` on a fresh ``env_cls``; return everything observable.

    A program is ``(nevents, processes, calls)``: ``nevents`` shared
    manual events, one step list per process, and the stop-rule calls
    made on the environment in order.  Offsets in the calls are relative
    to the clock at call time.  The first call that raises ends the run.
    """
    nevents, processes, calls = program
    env = env_cls()
    log = []
    events = [env.event() for _ in range(nevents)]
    procs = []

    def body(pid, steps):
        for i, op in enumerate(steps):
            kind = op[0]
            if kind == "raise":
                raise RuntimeError(f"boom {pid}.{i}")
            try:
                if kind == "timeout":
                    value = yield env.timeout(op[1], value=(pid, i))
                elif kind in ("succeed", "fail"):
                    event = events[op[1]]
                    if event.triggered:
                        value = "skip"
                    elif kind == "succeed":
                        value = event.succeed((pid, i)).triggered
                    else:
                        value = event.fail(ValueError(f"fail {pid}.{i}")).triggered
                elif kind == "wait":
                    value = yield events[op[1]]
                elif kind in ("all_of", "any_of"):
                    children = [events[k] for k in op[1]]
                    children.append(env.timeout(op[2], value=i))
                    combine = env.all_of if kind == "all_of" else env.any_of
                    value = yield combine(children)
                elif kind == "interrupt":
                    target = procs[op[1]]
                    if op[1] == pid or not target.is_alive:
                        value = "skip"
                    else:
                        target.interrupt((pid, i))
                        value = "sent"
                else:  # join
                    value = "skip" if op[1] == pid else (yield procs[op[1]])
            except (Interrupt, ValueError, RuntimeError) as exc:
                value = (type(exc).__name__, str(exc))
            log.append((env.now, pid, i, kind, value))
        return (pid, len(steps))

    for pid, steps in enumerate(processes):
        procs.append(env.process(body(pid, steps)))

    results = []
    for call in calls:
        try:
            if call[0] == "run":
                value = env.run() if call[1] is None else env.run(until=env.now + call[1])
            elif call[0] == "window":
                value = env.run_window(env.now + call[1])
            else:
                kind, arg = call[1]
                if kind == "proc":
                    target = procs[arg]
                elif kind == "event":
                    target = events[arg]
                else:
                    target = env.timeout(arg, value="target")
                value = env.run_until_complete(target, limit=env.now + call[2])
            results.append(("ok", value))
        except Exception as exc:  # noqa: BLE001 - the exception is compared
            results.append(("raised", type(exc).__name__, str(exc)))
            break
    return log, results, env.events_scheduled, env.now


def _assert_matches_reference(program):
    new = _play(Environment, program)
    ref = _play(_ReferenceEnvironment, program)
    # Floats compare with ==: every logged clock reading, the final clock
    # and the event count must be bit-identical.
    assert new == ref


# Delays repeat a few values so that events tie, at zero delay and later.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]),
    st.floats(0.0, 3.0, allow_nan=False),
)
_offsets = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                     st.floats(0.0, 4.0, allow_nan=False))


@st.composite
def _programs(draw):
    nevents = draw(st.integers(0, 3))
    nprocs = draw(st.integers(1, 5))
    pids = st.integers(0, nprocs - 1)
    ops = [
        st.tuples(st.just("timeout"), _delays),
        st.tuples(st.just("timeout"), _delays),
        st.tuples(st.just("interrupt"), pids),
        st.tuples(st.just("join"), pids),
    ]
    if nevents:
        keys = st.integers(0, nevents - 1)
        ops += [
            st.tuples(st.sampled_from(["succeed", "fail", "succeed", "wait"]), keys),
            st.tuples(st.sampled_from(["all_of", "any_of"]),
                      st.lists(keys, max_size=3), _delays),
        ]
    processes = []
    for _ in range(nprocs):
        steps = draw(st.lists(st.one_of(ops), max_size=5))
        # A few processes die with nobody waiting: the orphan check.
        if draw(st.sampled_from([False, False, False, True])):
            steps.insert(draw(st.integers(0, len(steps))), ("raise",))
        processes.append(steps)

    targets = [st.tuples(st.just("proc"), pids), st.tuples(st.just("timeout"), _delays)]
    if nevents:
        targets.append(st.tuples(st.just("event"), st.integers(0, nevents - 1)))
    calls = st.one_of(
        st.tuples(st.just("run"), st.one_of(st.none(), _offsets)),
        st.tuples(st.just("window"), st.one_of(st.sampled_from([-0.5]), _offsets)),
        st.tuples(st.just("complete"), st.one_of(targets),
                  st.one_of(st.sampled_from([-1.0, math.inf]), _offsets)),
    )
    return nevents, processes, draw(st.lists(calls, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(program=_programs())
def test_matches_reference(program):
    _assert_matches_reference(program)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(program=_programs())
def test_matches_reference_long(program):
    _assert_matches_reference(program)


def test_matches_reference_queue_empty():
    """A target nobody triggers: the queue drains, then the call raises."""
    program = (1, [[("timeout", 1.0)]], [("complete", ("event", 0), math.inf)])
    _assert_matches_reference(program)
    _log, results, _n, now = _play(Environment, program)
    assert results == [("raised", "SimulationError",
                         "event can never trigger: queue empty")]
    assert now == 1.0


def test_matches_reference_limit():
    """A target that triggers after ``limit``: events past it stay queued."""
    program = (0, [[("timeout", 1.0), ("timeout", 2.0)]],
               [("complete", ("proc", 0), 2.0), ("run", None)])
    _assert_matches_reference(program)
    log, results, _n, now = _play(Environment, program)
    assert results == [("raised", "SimulationError",
                        "event did not trigger before t=2.0")]
    assert [entry[0] for entry in log] == [1.0]


def test_matches_reference_target_already_processed():
    """A processed target returns its value without running anything."""
    program = (0, [[("timeout", 1.0)], [("timeout", 1.0), ("timeout", 2.0)]],
               [("run", 1.0), ("complete", ("proc", 0), 0.0)])
    _assert_matches_reference(program)
    log, results, _n, now = _play(Environment, program)
    assert results == [("ok", 1.0), ("ok", (0, 1))]
    assert [entry[:3] for entry in log] == [(1.0, 0, 0), (1.0, 1, 0)]
    assert now == 1.0


def test_matches_reference_triggered_target_past_limit():
    """A timeout is triggered when created, so the call returns its value
    at once, after finishing the current instant even though ``limit``
    lies before the clock; the timeout itself stays queued."""
    program = (0, [[("timeout", 0.0), ("timeout", 1.0)]],
               [("complete", ("timeout", 5.0), -1.0), ("run", None)])
    _assert_matches_reference(program)
    log, results, _n, now = _play(Environment, program)
    assert results == [("ok", "target"), ("ok", 5.0)]
    assert [entry[:3] for entry in log] == [(0.0, 0, 0), (1.0, 0, 1)]
