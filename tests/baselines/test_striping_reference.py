"""Exact oracle for :func:`repro.baselines.common.stripe_totals`.

The reference functions below are verbatim copies of the per-stripe
planners the closed form replaced: OrangeFS's ``_stripe_plan`` plus the
``_aggregate_plan`` fold, and the loop Lustre's ``write_file`` and
``read_file`` each carried. Only the parameters that came from ``self``
(the stripe size, the server count, the hash start server) are passed
in. Hypothesis drives both sides with the same requests and they must
agree with ``==``.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.common import BaselineFile, stripe_totals
from repro.baselines.orangefs import OrangeFSClient
from repro.bench import calibration as cal
from repro.hashing.jump import jump_hash


# -- reference model (verbatim copies of the replaced loops) -----------------


def _reference_stripe_plan(stripe: int, nservers: int, start: int, offset: int, nbytes: int):
    """(server_index, nbytes) stripes, round-robin from a hash start."""
    plan = []
    at = offset
    end = offset + nbytes
    while at < end:
        take = min(stripe - (at % stripe), end - at)
        server = (start + at // stripe) % nservers
        plan.append((server, take))
        at += take
    return plan


def _reference_aggregate_plan(stripe: int, nservers: int, start: int, offset: int, nbytes: int):
    """Fold the stripe plan into (server_index, total_bytes, stripes)."""
    totals: Dict[int, List[int]] = {}
    for server_index, take in _reference_stripe_plan(stripe, nservers, start, offset, nbytes):
        entry = totals.setdefault(server_index, [0, 0])
        entry[0] += take
        entry[1] += 1
    return [(s, t, n) for s, (t, n) in sorted(totals.items())]


def _reference_lustre_loads(stripe: int, nservers: int, nbytes: int) -> List[int]:
    per_server = [0] * nservers
    at = 0
    while at < nbytes:
        take = min(stripe, nbytes - at)
        per_server[(at // stripe) % nservers] += take
        at += take
    return per_server


# -- comparison ------------------------------------------------------------------


def _plan(stripe: int, nservers: int, start: int, offset: int, nbytes: int):
    totals, stripes = stripe_totals(nservers, stripe, offset, nbytes, first_server=start)
    return [(s, totals[s], stripes[s]) for s in range(nservers) if stripes[s]]


def _assert_matches_reference(stripe: int, nservers: int, start: int, offset: int, nbytes: int):
    totals, stripes = stripe_totals(nservers, stripe, offset, nbytes, first_server=start)
    assert len(totals) == len(stripes) == nservers
    assert sum(totals) == nbytes
    assert _plan(stripe, nservers, start, offset, nbytes) == _reference_aggregate_plan(
        stripe, nservers, start, offset, nbytes)
    # Every server without a stripe has zero bytes, so the Lustre view
    # (every server, in order) is the same totals padded with zeros.
    assert [t for t, n in zip(totals, stripes) if not n] == [0] * stripes.count(0)
    if offset == 0 and start == 0:
        assert totals == _reference_lustre_loads(stripe, nservers, nbytes)


@st.composite
def _requests(draw):
    stripe = draw(st.one_of(st.integers(1, 8), st.integers(1, 1 << 17),
                            st.just(cal.ORANGEFS_STRIPE_SIZE)))
    nservers = draw(st.integers(1, 40))
    start = draw(st.integers(0, nservers - 1))
    offset = draw(st.one_of(st.just(0), st.integers(0, stripe * 1000)))
    nbytes = draw(st.one_of(st.integers(0, 2 * stripe), st.integers(0, stripe * 150)))
    return stripe, nservers, start, offset, nbytes


@settings(max_examples=300, deadline=None)
@given(request=_requests())
def test_matches_reference(request):
    _assert_matches_reference(*request)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(request=_requests())
def test_matches_reference_long(request):
    _assert_matches_reference(*request)


@settings(max_examples=300, deadline=None)
@given(nservers=st.integers(1, 8), nbytes=st.integers(0, 40 * cal.LUSTRE_STRIPE_SIZE))
def test_matches_lustre_reference(nservers, nbytes):
    totals, _stripes = stripe_totals(nservers, cal.LUSTRE_STRIPE_SIZE, 0, nbytes)
    assert totals == _reference_lustre_loads(cal.LUSTRE_STRIPE_SIZE, nservers, nbytes)


# -- edges ------------------------------------------------------------------------


@pytest.mark.parametrize("offset", [0, 5, 64])
def test_zero_bytes_is_all_zeros(offset):
    assert stripe_totals(4, 64, offset, 0, first_server=3) == ([0] * 4, [0] * 4)
    _assert_matches_reference(64, 4, 3, offset, 0)


def test_one_server_takes_everything():
    assert stripe_totals(1, 64, 10, 1000) == ([1000], [16])
    _assert_matches_reference(64, 1, 0, 10, 1000)


def test_offsets_in_the_middle_of_a_stripe():
    # Stripes 1..4 of 64 B: 34 + 64 + 64 + 38 bytes on servers 2, 0, 1, 2.
    assert stripe_totals(3, 64, 94, 200, first_server=1) == ([64, 64, 72], [1, 1, 2])
    for offset in (1, 31, 63, 65, 127):
        _assert_matches_reference(64, 3, 1, offset, 200)


def test_request_inside_one_stripe():
    assert stripe_totals(4, 64, 70, 20, first_server=2) == ([0, 0, 0, 20], [0, 0, 0, 1])
    _assert_matches_reference(64, 4, 2, 70, 20)
    _assert_matches_reference(64, 4, 2, 64, 64)


def test_fewer_stripes_than_servers():
    # Three stripes on servers 6, 7, 0; five servers get nothing.
    assert stripe_totals(8, 64, 32, 128, first_server=6) == (
        [32, 0, 0, 0, 0, 0, 32, 64], [1, 0, 0, 0, 0, 0, 1, 1])
    for nbytes in (1, 64, 65, 300):
        _assert_matches_reference(64, 8, 6, 32, nbytes)


def test_start_server_near_the_last_wraps():
    # Eight stripes on servers 4, 0, 1, 2, 3, 4, 0, 1; the last holds 1 B.
    totals, stripes = stripe_totals(5, 64, 0, 64 * 7 + 1, first_server=4)
    assert stripes == [2, 2, 1, 1, 2]
    assert totals == [128, 65, 64, 64, 128]
    for start in (3, 4):
        for offset in (0, 63, 64 * 9 + 7):
            _assert_matches_reference(64, 5, start, offset, 64 * 11 + 3)


def test_orangefs_aggregate_plan_matches_reference():
    """The client's plan is the reference fold from the path's hash server."""
    for nservers in (1, 3, 8):
        cluster = SimpleNamespace(env=None, files={}, dirs=set(), servers=[None] * nservers)
        client = OrangeFSClient(cluster, "c0")
        for path in ("/a", "/ckpt/rank0007.dat"):
            start = jump_hash(path, nservers)
            for offset, nbytes in ((0, 41_000_000), (12_345, 987_654), (65_536 * 5 - 1, 2)):
                assert client._aggregate_plan(BaselineFile(path=path), offset, nbytes) == (
                    _reference_aggregate_plan(cal.ORANGEFS_STRIPE_SIZE, nservers, start,
                                              offset, nbytes))
