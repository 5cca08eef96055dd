"""Pure fairness predicates: the blocking relation and median-timestamp machinery.

`blocks(r2, r)` answers whether current evidence still leaves open that r2 must
be delivered in the same block as r or earlier. It turns false exactly when a
weak quorum reported seeing r before r2 (one of those reporters is honest, so
not every honest party can have seen r2 first), or when the two requests live
in different markets.

`median_bounds` is the one median formula: every pivot, pivot check and
in-block order of a timed block takes one of its two bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import QuorumConfig, RequestId, Timestamp
from .votes import VoteStore


@dataclass(frozen=True)
class MedianSummary:
    """A pivot for timed decisions: one request, vote timestamps for it, and
    m_r, the median of a strong-quorum sized subset of them. The clocked
    engine's pivot is the median of the first strong quorum it accepted; the
    hybrid fallback's is the largest median over any strong-quorum sized
    subset of all the request's timestamps (`max_median`)."""

    request: RequestId
    timestamps: tuple[Timestamp, ...]
    m_r: Timestamp


def blocks(store: VoteStore, cfg: QuorumConfig, r2: RequestId, r: RequestId) -> bool:
    requests = store.requests
    if requests[r2].market != requests[r].market:
        return False
    return store.count_before(r, r2) < cfg.weak_size


def max_median(store: VoteStore, cfg: QuorumConfig, r: RequestId) -> MedianSummary:
    """Largest median over any (n-t)-subset of r's vote timestamps.

    Computed via the shortcut: the median of the n-t largest timestamps.
    Equivalence with full subset enumeration is covered by an exhaustive test.
    """
    ts = tuple(v.ts for v in store.votes_for(r))
    return MedianSummary(request=r, timestamps=ts, m_r=median_bounds(ts, cfg.strong_size)[1])


def median_bounds(timestamps: Iterable[Timestamp], q: int) -> tuple[Timestamp, Timestamp]:
    """Smallest and largest median over the q-subsets of a multiset: sorted,
    with m = (q-1)//2, ts[m] and ts[k-q+m]. A value is the median of some
    q-subset exactly when it is one of the timestamps between the two."""
    ordered = sorted(timestamps)
    if q < 1 or len(ordered) < q:
        raise ValueError("not enough timestamps")
    m = (q - 1) // 2
    return ordered[m], ordered[len(ordered) - q + m]


def timed_request_order(store: VoteStore, requests: Iterable[RequestId]) -> list[RequestId]:
    """In-block order of a timed block: by the median of each request's cited
    vote timestamps, ties broken on id, so a verifier recomputes it from the
    cited votes alone."""

    def cited_median(r: RequestId) -> Timestamp:
        ts = [v.ts for v in store.votes_for(r)]
        return median_bounds(ts, len(ts))[0]

    return sorted(requests, key=lambda r: (cited_median(r), r))


def timed_precedes(store: VoteStore, cfg: QuorumConfig, r2: RequestId, pivot: MedianSummary) -> bool:
    """True iff a weak quorum of votes timestamp r2 strictly below the pivot median."""
    below = sum(1 for v in store.votes_for(r2) if v.ts < pivot.m_r)
    return below >= cfg.weak_size
