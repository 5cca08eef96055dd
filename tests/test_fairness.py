from itertools import combinations, combinations_with_replacement

import pytest

from fairlab.votes import (
    MedianSummary,
    blocks,
    max_median,
    median_bounds,
    timed_precedes,
)

from conftest import cast, fill_logs, new_store, req
from oracles import enumerate_max_median

RA = req("ra")
RB = req("rb")
RX = req("rx", market="other")


def test_blocks_cleared_by_weak_quorum(cfg4):
    store = new_store(cfg4)
    fill_logs(store, {0: [RA, RB], 1: [RA, RB], 2: [RB]})
    # two parties reported ra before rb: rb cannot be required ahead of ra
    assert not blocks(store, RB.id, RA.id)
    # but only one party reported rb before ra, so ra still blocks rb
    assert blocks(store, RA.id, RB.id)


def test_blocks_true_without_evidence(cfg4):
    store = new_store(cfg4)
    store.requests.update({RA.id: RA, RB.id: RB})
    assert blocks(store, RB.id, RA.id)
    assert blocks(store, RA.id, RB.id)


def test_blocks_false_across_markets(cfg4):
    store = new_store(cfg4)
    store.requests.update({RA.id: RA, RX.id: RX})
    assert not blocks(store, RX.id, RA.id)


def test_blocks_monotone_decreasing(cfg4):
    store = new_store(cfg4)
    store.requests.update({RA.id: RA, RB.id: RB})
    script = [(0, [RA, RB]), (1, [RA, RB]), (2, [RB, RA]), (3, [RA])]
    cleared = False
    for party, order in script:
        for seq, r in enumerate(order):
            cast(store, party, seq, r)
            if cleared:
                assert not blocks(store, RB.id, RA.id)
            cleared = not blocks(store, RB.id, RA.id)
    assert cleared


def test_median_timestamp():
    """A multiset's median is `median_bounds` over all of it, the one q-subset."""
    def median(ts):
        return median_bounds(ts, len(ts))[0]

    assert median([10, 20, 30]) == 20
    assert median([10, 20]) == 10  # even cardinality: lower middle
    assert median([7]) == 7
    assert median([30, 10, 20]) == 20
    with pytest.raises(ValueError):
        median([])


def _timed_store(cfg, ts_by_party):
    store = new_store(cfg, timestamped=True)
    for party, entries in ts_by_party.items():
        for seq, (r, ts) in enumerate(entries):
            cast(store, party, seq, r, ts=ts)
    return store


def test_max_median_enumeration_oracle(cfg4):
    # oracle first: all four 3-subsets of {10,20,30,40} have medians {20,20,30,30}
    assert enumerate_max_median([10, 20, 30, 40], 3) == 30
    store = _timed_store(cfg4, {p: [(RA, ts)] for p, ts in enumerate((10, 20, 30, 40))})
    summary = max_median(store, RA.id)
    assert summary.m_r == 30
    assert sorted(summary.timestamps) == [10, 20, 30, 40]


def test_max_median_exact_quorum(cfg4):
    store = _timed_store(cfg4, {p: [(RA, ts)] for p, ts in enumerate((10, 20, 30))})
    assert max_median(store, RA.id).m_r == 20
    store = _timed_store(cfg4, {p: [(RA, 5)] for p in range(4)})
    # per-party clocks never tie, but the value rule is total anyway
    assert max_median(store, RA.id).m_r == 5


def test_max_median_requires_strong_quorum(cfg4):
    store = _timed_store(cfg4, {0: [(RA, 10)], 1: [(RA, 20)]})
    with pytest.raises(ValueError):
        max_median(store, RA.id)


@pytest.mark.parametrize("n,t,domain,max_size", [(4, 1, 6, 6), (7, 2, 6, 7)])
def test_max_median_shortcut_matches_enumeration(n, t, domain, max_size):
    q = n - t
    for size in range(q, max_size + 1):
        for ts in combinations_with_replacement(range(1, domain + 1), size):
            assert median_bounds(ts, q)[1] == enumerate_max_median(ts, q)


def test_timed_precedes(cfg4):
    pivot = MedianSummary(request=RA.id, timestamps=(10, 20, 30), m_r=20)
    store = _timed_store(cfg4, {0: [(RB, 5)], 1: [(RB, 12)]})
    assert timed_precedes(store, RB.id, pivot)
    store = _timed_store(cfg4, {0: [(RB, 25)], 1: [(RB, 30)], 2: [(RB, 31)]})
    assert not timed_precedes(store, RB.id, pivot)
    store = _timed_store(cfg4, {0: [(RB, 1)]})
    assert not timed_precedes(store, RB.id, pivot)
    # equal timestamps do not count as strictly smaller
    store = _timed_store(cfg4, {0: [(RB, 20)], 1: [(RB, 20)]})
    assert not timed_precedes(store, RB.id, pivot)


def test_pivot_multisets_are_odd_sized():
    # With n = 3t+1 every pivot is a median of n-t = 2t+1 timestamps, so the
    # even-cardinality rule never influences an admission decision: lower and
    # upper medians coincide on odd multisets.
    for n, t in ((4, 1), (7, 2), (10, 3)):
        q = n - t
        assert q % 2 == 1
        for ts in combinations(range(1, 9), q if q <= 8 else 8):
            if len(ts) != q:
                continue
            ordered = sorted(ts)
            lower = ordered[(q - 1) // 2]
            upper = ordered[q // 2]
            assert lower == upper
