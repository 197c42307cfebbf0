"""Unit tests for the fluid fair-share bandwidth server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, FairShareServer


def run_transfers(env, server, specs):
    """specs: list of (start_time, nbytes, cap). Returns completion times."""
    completions = {}

    def client(i, start, nbytes, cap):
        yield env.timeout(start)
        yield server.transfer(nbytes, cap=cap)
        completions[i] = env.now

    for i, (start, nbytes, cap) in enumerate(specs):
        env.process(client(i, start, nbytes, cap))
    env.run()
    return completions


def test_single_flow_full_capacity():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 1000.0, None)])
    assert done[0] == pytest.approx(10.0)


def test_two_equal_flows_share_equally():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 500.0, None), (0.0, 500.0, None)])
    # Each gets 50 B/s -> both finish at t=10.
    assert done[0] == pytest.approx(10.0)
    assert done[1] == pytest.approx(10.0)


def test_short_flow_releases_capacity_to_long_flow():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 1000.0, None), (0.0, 200.0, None)])
    # Phase 1: both at 50 B/s until short flow (200B) ends at t=4.
    assert done[1] == pytest.approx(4.0)
    # Long flow: 200B done by t=4, 800B left at 100 B/s -> t=12.
    assert done[0] == pytest.approx(12.0)


def test_late_arrival_rerates_inflight_flow():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 1000.0, None), (5.0, 250.0, None)])
    # Flow 0 alone until t=5 (500B moved), then 50 B/s each.
    # Flow 1: 250B at 50 B/s -> ends t=10. Flow 0: 250B left at t=10 -> t=12.5.
    assert done[1] == pytest.approx(10.0)
    assert done[0] == pytest.approx(12.5)


def test_rate_cap_limits_flow():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 100.0, 10.0)])
    assert done[0] == pytest.approx(10.0)


def test_capped_flow_leaves_capacity_for_others():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(
        env, server, [(0.0, 100.0, 10.0), (0.0, 900.0, None)]
    )
    # Capped flow: 10 B/s -> t=10. Uncapped gets 90 B/s -> 900B at t=10.
    assert done[0] == pytest.approx(10.0)
    assert done[1] == pytest.approx(10.0)


def test_many_flows_aggregate_to_capacity():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    n = 20
    done = run_transfers(env, server, [(0.0, 100.0, None)] * n)
    # Total 2000B at 100 B/s = 20s; symmetric flows end together.
    for i in range(n):
        assert done[i] == pytest.approx(20.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    event = server.transfer(0)
    assert event.triggered


def test_negative_transfer_rejected():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(-1)


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        FairShareServer(env, capacity=0.0)


def test_nan_transfer_rejected():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(float("nan"))
    assert server.active_flows == 0


def test_infinite_transfer_rejected():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(float("inf"))
    assert server.active_flows == 0


def test_nan_cap_rejected():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(10.0, cap=float("nan"))
    assert server.active_flows == 0


@pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
def test_non_finite_capacity_rejected(capacity):
    env = Environment()
    with pytest.raises(SimulationError):
        FairShareServer(env, capacity=capacity)


def test_bytes_served_accounting():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    run_transfers(env, server, [(0.0, 300.0, None), (1.0, 200.0, None)])
    assert server.bytes_served == pytest.approx(500.0)


def test_utilisation_full_when_saturated():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    run_transfers(env, server, [(0.0, 1000.0, None)])
    assert server.utilisation(since=0.0) == pytest.approx(1.0)


def test_utilisation_partial_with_cap():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    run_transfers(env, server, [(0.0, 100.0, 50.0)])
    # 2s at 50/100 capacity -> 0.5.
    assert server.utilisation(since=0.0) == pytest.approx(0.5)


def test_staggered_flows_water_filling_three_way():
    env = Environment()
    server = FairShareServer(env, capacity=90.0)
    done = run_transfers(
        env,
        server,
        [(0.0, 900.0, None), (0.0, 900.0, None), (0.0, 90.0, 10.0)],
    )
    # Capped flow: 10 B/s the whole time -> ends t=9.
    assert done[2] == pytest.approx(9.0)
    # Others: 40 B/s until t=9 (360B each), then 45 B/s for 540B -> 12s more.
    assert done[0] == pytest.approx(21.0)
    assert done[1] == pytest.approx(21.0)


def test_fp_dust_never_schedules_negative_horizon():
    """Regression: an arrival landing just as another flow finishes could
    leave ``remaining`` at ~-1e-16, so the next-completion horizon went
    negative and ``env.timeout`` raised mid-simulation. Found by
    test_deterministic_replay with ops [2, 0, 2, 1, 2, 1, 2, 2, 0]."""
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    ops = [2, 0, 2, 1, 2, 1, 2, 2, 0]
    done = []

    def client(i, kind):
        yield env.timeout(i * 0.1)
        if kind == 0:
            yield server.transfer(50.0)
        elif kind == 1:
            yield env.timeout(0.05)
        else:
            yield server.transfer(25.0, cap=10.0)
        done.append(i)

    for i, kind in enumerate(ops):
        env.process(client(i, kind))
    env.run()
    assert sorted(done) == list(range(len(ops)))


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=12),
    capacity=st.floats(1.0, 1e6),
)
def test_processor_sharing_closed_form(sizes, capacity):
    """n uncapped flows arriving together are processor sharing: with
    sorted sizes s_1 <= ... <= s_n (s_0 = 0), the k-th finishes at
    T_k = sum_{j<=k} (n - j + 1) (s_j - s_{j-1}) / C."""
    env = Environment()
    server = FairShareServer(env, capacity=capacity)
    done = run_transfers(env, server, [(0.0, float(s), None) for s in sizes])
    n = len(sizes)
    expected = {}
    t, previous = 0.0, 0
    for j, size in enumerate(sorted(sizes), start=1):
        t += (n - j + 1) * (size - previous) / capacity
        expected[size] = t
        previous = size
    for i, size in enumerate(sizes):
        assert done[i] == pytest.approx(expected[size], rel=1e-9)
