"""Fluid max-min fair-share bandwidth server.

Models a capacity-``C`` pipe (an SSD's aggregate flash bandwidth, a NIC,
a RAID controller) shared by concurrent byte *flows*. Rates follow
max-min fairness with optional per-flow caps (a client NIC slower than
the device, for example): uncapped flows split what capped flows leave
behind (progressive water-filling).

Whenever the flow set changes, all in-flight flows are re-rated — this
mid-flight re-rating is why the kernel is custom rather than SimPy.

The flows live in one list kept in water-filling order: cap ascending,
uncapped flows (an infinite cap) last, arrival order among equal caps.
An arrival is inserted in place (almost always an append), so no
re-rate sorts. Each re-rate is one pass over that list that drains
every flow at its old rate, gives it ``min(share, cap)`` of what is
left, and tracks the nearest completion. A wake is one pass that drains
and finds the finished flows, then one re-rate of the rest.

The arithmetic is progressive filling, not GPS virtual time. Even with
every flow uncapped, ``share = left / (n - index)`` after subtracting
the earlier shares is not always the float ``capacity / n``, so a
virtual-time form would move simulated timestamps in their last bits.

The fluid model is the *fast path* for bulk transfers. Per-command
effects (fixed costs, whole-command granularity) are layered on top by
:mod:`repro.nvme.device`, which charges them explicitly.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event

__all__ = ["FairShareServer", "Flow"]

_EPSILON_BYTES = 1e-6  # below this a flow is complete (fp dust)
_EPSILON_SECONDS = 1e-12  # remaining service time below this is fp dust

_arrival = attrgetter("flow_id")


class Flow:
    """One in-flight transfer on a :class:`FairShareServer`.

    ``cap`` is ``math.inf`` for an uncapped flow, so one
    ``min(share, cap)`` rates every flow.
    """

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
        self.cap = math.inf if cap is None else cap
        self.rate = 0.0
        self.event = event
        self.started_at = started_at


class FairShareServer:
    """A shared pipe serving concurrent flows at max-min fair rates."""

    #: Accounting updates commute at equal timestamps — rates are
    #: recomputed from the full flow set, never from arrival order.
    _san_tiebreak = "commutative"

    def __init__(self, env: Environment, capacity: float, name: str = "pipe") -> None:
        if not 0 < capacity < math.inf:
            raise SimulationError(f"capacity must be positive and finite, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._flows: List[Flow] = []  # water-filling order
        self._ids = itertools.count()
        self._last_update = env.now
        self._wake_generation = 0
        self.bytes_served = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbytes: float, cap: Optional[float] = None) -> Event:
        """Start a flow of ``nbytes``; returns the completion event.

        ``cap`` optionally limits this flow's rate (bytes/s) below its
        fair share.
        """
        if not 0 <= nbytes < math.inf:
            raise SimulationError(f"transfer size must be finite and non-negative: {nbytes}")
        if cap is not None and not cap > 0:
            raise SimulationError(f"rate cap must be positive: {cap}")
        event = self.env.event()
        if nbytes == 0:
            event.succeed(0.0)
            return event
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_flows += 1
        now = self.env.now
        flow = Flow(next(self._ids), nbytes, cap, event, now)
        # Insert in fill order: after every flow with a cap <= this one's.
        flows = self._flows
        index = len(flows)
        while index and flows[index - 1].cap > flow.cap:
            index -= 1
        flows.insert(index, flow)
        dt = now - self._last_update
        self._last_update = now
        self._rerate_and_schedule(dt)
        return event

    def utilisation(self, since: float = 0.0) -> float:
        """Fraction of capacity-time used on [since, now]."""
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        in_flight = sum(flow.rate for flow in self._flows)
        busy = self.bytes_served + in_flight * (self.env.now - self._last_update)
        return min(1.0, busy / (horizon * self.capacity))

    # -- internals --------------------------------------------------------------

    def _rerate_and_schedule(self, dt: float) -> None:
        """Drain ``dt`` at the old rates, assign max-min fair rates and
        schedule the next completion, all in one pass."""
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_recomputes += 1
        # Progressive filling over the fill-ordered flows: a capped flow
        # that can't use a full fair share frees capacity for the rest.
        remaining_capacity = self.capacity
        count = len(self._flows)
        served = self.bytes_served
        horizon = math.inf
        for flow in self._flows:
            moved = flow.rate * dt
            remaining = flow.remaining - moved
            flow.remaining = remaining
            served += moved
            share = remaining_capacity / count
            count -= 1
            cap = flow.cap
            rate = cap if cap < share else share
            flow.rate = rate
            remaining_capacity -= rate
            if rate > 0:
                until_done = remaining / rate
                if until_done < horizon:
                    horizon = until_done
        self.bytes_served = served
        # Draining can leave an almost-finished flow with remaining
        # ~ -1e-16 (fp dust), which would make the horizon negative and
        # the timeout below illegal — clamp to "fire now".
        if not horizon > 0:
            horizon = 0.0
        self._wake_generation += 1
        generation = self._wake_generation
        wake = self.env.timeout(horizon)
        wake.callbacks.append(lambda _ev: self._on_wake(generation))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a newer re-rate
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        flows = self._flows
        served = self.bytes_served
        finished: List[Flow] = []
        for flow in flows:
            rate = flow.rate
            moved = rate * dt
            remaining = flow.remaining - moved
            flow.remaining = remaining
            served += moved
            if remaining <= _EPSILON_BYTES or (
                rate > 0 and remaining / rate <= _EPSILON_SECONDS
            ):
                finished.append(flow)
        self.bytes_served = served
        if not finished:
            # Floating-point guard: when every remaining service time is
            # below the clock's resolution (now + dt == now), time can
            # no longer advance — finish the nearest flow (the earliest
            # arrival among ties) explicitly rather than spinning.
            nearest = min(
                ((f.remaining / f.rate, f.flow_id, f) for f in flows if f.rate > 0),
                default=None,
            )
            if nearest is not None and now + nearest[0] == now:
                finished.append(nearest[2])
        elif len(finished) > 1:
            finished.sort(key=_arrival)  # complete in arrival order
        for flow in finished:
            flows.remove(flow)
            flow.event.succeed(now - flow.started_at)
        if flows:
            self._rerate_and_schedule(0.0)
