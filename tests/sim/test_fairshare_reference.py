"""Bit-exact oracle for :class:`repro.sim.FairShareServer`.

``_ReferenceFairShareServer`` below is the sort-per-event implementation
that the one-pass server replaced, kept verbatim as a test-only model.
Both are driven with the same Hypothesis schedules and must agree with
``==`` on every completion time, the completion order, the number of
scheduled events and the number of re-rates.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import EngineTelemetry, Environment, Event
from repro.sim.fairshare import FairShareServer

_EPSILON_BYTES = 1e-6  # below this a flow is complete (fp dust)


# -- reference model (verbatim copy of the replaced implementation) ----------


class _ReferenceFlow:
    """One in-flight transfer on a :class:`FairShareServer`."""

    __slots__ = ("flow_id", "remaining", "cap", "rate", "event", "started_at")

    def __init__(
        self,
        flow_id: int,
        nbytes: float,
        cap: Optional[float],
        event: Event,
        started_at: float,
    ):
        self.flow_id = flow_id
        self.remaining = float(nbytes)
        self.cap = cap
        self.rate = 0.0
        self.event = event
        self.started_at = started_at


class _ReferenceFairShareServer:
    """A shared pipe serving concurrent flows at max-min fair rates."""

    #: Accounting updates commute at equal timestamps — rates are
    #: recomputed from the full flow set, never from arrival order.
    _san_tiebreak = "commutative"

    def __init__(self, env: Environment, capacity: float, name: str = "pipe") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._flows: Dict[int, _ReferenceFlow] = {}
        self._ids = itertools.count()
        self._last_update = env.now
        self._wake_generation = 0
        # Accounting.
        self.bytes_served = 0.0
        self._busy_time = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbytes: float, cap: Optional[float] = None) -> Event:
        """Start a flow of ``nbytes``; returns the completion event.

        ``cap`` optionally limits this flow's rate (bytes/s) below its
        fair share.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        if cap is not None and cap <= 0:
            raise SimulationError(f"non-positive rate cap: {cap}")
        event = self.env.event()
        if nbytes == 0:
            event.succeed(0.0)
            return event
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_flows += 1
        self._advance()
        flow = _ReferenceFlow(next(self._ids), nbytes, cap, event, self.env.now)
        self._flows[flow.flow_id] = flow
        self._rerate_and_schedule()
        return event

    def utilisation(self, since: float = 0.0) -> float:
        """Fraction of capacity-time used on [since, now]."""
        self._advance()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / (horizon * self.capacity))

    # -- internals --------------------------------------------------------------

    def _advance(self) -> None:
        """Drain bytes for the elapsed interval at current rates."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows.values():
                moved = flow.rate * dt
                flow.remaining -= moved
                self.bytes_served += moved
                self._busy_time += moved  # busy integral == bytes moved / capacity-normalised later
        self._last_update = now

    def _rerate_and_schedule(self) -> None:
        """Assign max-min fair rates, then schedule the next completion."""
        flows = list(self._flows.values())
        if not flows:
            return
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_recomputes += 1
        # Progressive filling: capped flows that can't use a full fair
        # share free capacity for the rest.
        remaining_capacity = self.capacity
        unassigned = sorted(
            flows, key=lambda f: (f.cap if f.cap is not None else float("inf"))
        )
        count = len(unassigned)
        for index, flow in enumerate(unassigned):
            share = remaining_capacity / (count - index)
            rate = min(share, flow.cap) if flow.cap is not None else share
            flow.rate = rate
            remaining_capacity -= rate
        # Next completion. _advance() can leave an almost-finished flow
        # with remaining ~ -1e-16 (fp dust), which would make the horizon
        # negative and the timeout below illegal — clamp to "fire now".
        horizon = max(0.0, min(
            (f.remaining / f.rate) for f in flows if f.rate > 0
        ))
        self._wake_generation += 1
        generation = self._wake_generation
        wake = self.env.timeout(horizon)
        wake.callbacks.append(lambda _ev: self._on_wake(generation))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a newer re-rate
        self._advance()
        finished = [
            f for f in self._flows.values() if self._is_done(f)
        ]
        if not finished and self._flows:
            # Floating-point guard: when every remaining service time is
            # below the clock's resolution (now + dt == now), time can
            # no longer advance — finish the nearest flow explicitly
            # rather than spinning.
            nearest = min(
                (f for f in self._flows.values() if f.rate > 0),
                key=lambda f: f.remaining / f.rate,
                default=None,
            )
            if nearest is not None and (
                self.env.now + nearest.remaining / nearest.rate == self.env.now
            ):
                finished = [nearest]
        for flow in finished:
            del self._flows[flow.flow_id]
            flow.event.succeed(self.env.now - flow.started_at)
        if self._flows:
            self._rerate_and_schedule()

    @staticmethod
    def _is_done(flow: _ReferenceFlow) -> bool:
        if flow.remaining <= _EPSILON_BYTES:
            return True
        # Remaining service time below a picosecond is numeric dust.
        return flow.rate > 0 and flow.remaining / flow.rate <= 1e-12


# -- harness --------------------------------------------------------------------


def _run(server_cls, capacity, clients):
    """Run ``clients`` (each a list of ``(delay, nbytes, cap)`` steps done
    in sequence) against one server; return everything the oracle compares."""
    env = Environment()
    env.telemetry = EngineTelemetry()
    server = server_cls(env, capacity)
    completions = []

    def client(i, steps):
        for step, (delay, nbytes, cap) in enumerate(steps):
            yield env.timeout(delay)
            elapsed = yield server.transfer(nbytes, cap=cap)
            completions.append((i, step, env.now, elapsed))

    for i, steps in enumerate(clients):
        env.process(client(i, steps))
    env.run()
    return completions, env.events_scheduled, env.telemetry.fairshare_recomputes


def _assert_matches_reference(capacity, clients):
    new = _run(FairShareServer, capacity, clients)
    ref = _run(_ReferenceFairShareServer, capacity, clients)
    # Tuples of floats compare with ==: completion order, times and
    # elapsed values must be bit-identical, as must the event counts.
    assert new == ref


_CAPACITY = 1000.0

_sizes = st.one_of(
    st.sampled_from([1e-7, 1e-6, 1.5e-6, 3e-6, 2.0**-17, 3 * 2.0**-17, 1e-3]),  # fp dust
    st.floats(0.5, 5e4, allow_nan=False),
    st.integers(1, 4096).map(float),
    st.sampled_from([1e9, 1e12, 1e15]),  # huge
)
# Gaps repeat a few values so that arrivals coincide, with each other and
# with completions of chained steps.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 1.0]),
    st.floats(0.0, 20.0, allow_nan=False),
)
# Cap values as fractions of capacity: below and above capacity/n.
_cap_fractions = st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0])


@st.composite
def _schedules(draw):
    nclients = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(["uncapped", "shared", "distinct"]))
    shared = draw(_cap_fractions) * _CAPACITY

    def cap():
        if mode == "uncapped" or draw(st.booleans()):
            return None
        if mode == "shared":
            return shared
        return draw(_cap_fractions) * _CAPACITY

    # A clock far from zero makes dust-sized service times fall below the
    # clock's resolution, which reaches the now + dt == now guard.
    base = draw(st.sampled_from([0.0, 0.0, 1e10]))
    clients = []
    for _ in range(nclients):
        steps = [(draw(_delays), draw(_sizes), cap())
                 for _ in range(draw(st.integers(1, 3)))]
        steps[0] = (base + steps[0][0],) + steps[0][1:]
        clients.append(steps)
    return clients


@settings(max_examples=300, deadline=None)
@given(clients=_schedules())
def test_matches_reference(clients):
    _assert_matches_reference(_CAPACITY, clients)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(clients=_schedules())
def test_matches_reference_long(clients):
    _assert_matches_reference(_CAPACITY, clients)


def test_matches_reference_below_clock_resolution():
    """At t=1e10 the clock's resolution is ~2e-6 s. Two 1e-5 B flows at
    500 B/s each have 2e-8 s left: not dust by either threshold, yet
    ``now + 2e-8 == now``, so only the guard can finish them (elapsed 0),
    the earlier arrival first."""
    clients = [[(1e10, 1e-5, None)], [(1e10, 1e-5, None)]]
    _assert_matches_reference(_CAPACITY, clients)
    completions, _, _ = _run(FairShareServer, _CAPACITY, clients)
    assert [(i, t, elapsed) for i, _s, t, elapsed in completions] == [
        (0, 1e10, 0.0), (1, 1e10, 0.0)]


def test_matches_reference_guard_tie_goes_to_earlier_arrival():
    """Below the clock's resolution, a later capped flow (first in fill
    order) and an earlier uncapped one tie on remaining service time
    (2**-25 s each): the guard finishes the earlier arrival first."""
    clients = [[(1e10, 3 * 2.0**-17, None)], [(1e10, 2.0**-17, 256.0)]]
    _assert_matches_reference(1024.0, clients)
    completions, _, _ = _run(FairShareServer, 1024.0, clients)
    assert [i for i, *_rest in completions] == [0, 1]


def test_matches_reference_out_of_fill_order_completions():
    """Two flows finish at once while the fill order (cap ascending)
    differs from arrival order: completions still fire in arrival order."""
    clients = [[(0.0, 500.0, None)], [(0.0, 100.0, 100.0)], [(0.0, 100.0, 50.0)]]
    _assert_matches_reference(100.0, clients)
