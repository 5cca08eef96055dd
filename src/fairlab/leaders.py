"""Leader engines: block-fair, clock-fair, and hybrid block certificates.

Each engine is a deterministic state machine over a VoteStore. The driver
ingests delivered votes and calls step(); a step emits at most one block
certificate, naming the state's proposer, and the broadcast loop replays
undelivered requests into a fresh incarnation after every accepted block.
Certificates cite the full accepted vote logs, so the verifier can apply the
engines' emission rules (`omits_blocker`, `timed_members`) and their
strong-quorum test (`votes.quorate`) with no leader state.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Container, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

from .core import PartyId, QuorumConfig, Request, RequestId
# `blocks` and `timed_precedes` are looked up as this module's names, where
# perfbench/tracing.py and the tests patch them.
from .votes import (
    MedianSummary,
    Vote,
    VoteStore,
    blocks,
    make_vote,
    max_median,
    median_bounds,
    quorate,
    timed_precedes,
    timed_request_order,
)

NEVERENDING = "neverending"
CLOCKED = "clocked"
HYBRID = "hybrid"
TIMESTAMPED_MODES = (CLOCKED, HYBRID)  # their votes carry timestamps

BLOCK_FAIR = "block-fair"
TIMED_FAIR = "timed-fair"


@dataclass(frozen=True)
class BlockCertificate:
    """A leader's block: what it proposes and the evidence for it."""

    instance: str
    block_number: int
    proposer: PartyId
    mode_tag: str
    requests: tuple[RequestId, ...]
    pivot: Optional[MedianSummary]
    # Justification: every accepted vote in the store at emission, per party,
    # in sequence order. Self-contained evidence for the block verifiers.
    votes_by_party: dict[PartyId, tuple[Vote, ...]]
    request_table: dict[RequestId, Request]


def coin_stop(shared_seed: str, block_number: int, event: str,
              stop_probability: float) -> bool:
    """Deterministic pseudo-random stop bit for one event of one block; equal
    inputs give equal bits on every party, so a distributed evaluation cannot
    diverge. The hybrid engine's event is `f"{seed}|{size}"`: growing seed's
    candidate to `size` members, past r_max."""
    if stop_probability >= 1.0:
        return True
    h = hashlib.sha256(f"{shared_seed}|{block_number}|{event}".encode()).digest()
    draw = int.from_bytes(h[:8], "big") / float(1 << 64)
    return draw < stop_probability


@dataclass
class LeaderState:
    mode: str
    store: VoteStore
    proposer: PartyId  # the party whose certificates this engine builds
    r_max: int
    # The shared-randomness stop rule for the hybrid cutoff region (coin_stop).
    coin_seed: str
    coin_stop_p: float
    # Non-empty exactly while the fallback phase runs.
    fallback_snapshot: tuple[RequestId, ...] = ()
    fallback_blocks_emitted: int = 0
    max_candidate_order: int = 0
    cutoff_events: int = 0


def new_leader(cfg: QuorumConfig, mode: str, instance: str, proposer: PartyId,
               requests: Mapping[RequestId, Request], block_number: int = 0, r_max: int = 0,
               coin_seed: str = "coin", coin_stop_p: float = 1.0) -> LeaderState:
    store = VoteStore(cfg, mode in TIMESTAMPED_MODES, instance, block_number, requests)
    return LeaderState(mode=mode, store=store, proposer=proposer, r_max=r_max,
                       coin_seed=coin_seed, coin_stop_p=coin_stop_p)


# -- emission rules, shared with validity.verify_certificate -----------------

def omits_blocker(store: VoteStore, members: Sequence[RequestId],
                  cleared: Mapping[RequestId, int] = {}) -> bool:
    """True iff a request outside `members` still blocks a member; `cleared`
    maps a request to the number of leading members it is known not to block."""
    member_set = set(members)
    return any(
        blocks(store, rid, m)
        for rid in store.by_request if rid not in member_set
        for m in members[cleared.get(rid, 0):]
    )


def timed_members(store: VoteStore, pivot: MedianSummary,
                  pool: Iterable[RequestId]) -> list[RequestId]:
    """The pivot's request, then every request in `pool` that a weak quorum
    timestamps below the pivot median, in pool order."""
    members = [pivot.request]
    for rid in pool:
        if rid != pivot.request and timed_precedes(store, rid, pivot):
            members.append(rid)
    return members


# -- shared helpers ----------------------------------------------------------
#
# The store's weak_at and strong_at maps are filled in completion order, so
# iterating them visits seeds first-completed first. A request is a key
# exactly when its distinct voters reach t+1 (n-t): counts only grow, and
# accept records each threshold as it is crossed.

def _closure(state: LeaderState, seed: RequestId) -> tuple[list[RequestId], bool]:
    """Grow a candidate from seed: admit, round by round, any outside request
    that still blocks a member and holds a quorum (a weak one for the hybrid
    engine, which also draws the cutoff coin past r_max members, a strong one
    otherwise), and record its order in state.max_candidate_order.
    Returns (members, closed): closed means no outside request blocks any
    member. The coin stops growth only on an admission past r_max, so a
    candidate it stopped has more than r_max members.

    No member needs pruning later: each one blocks a member admitted before
    it. The store does not change within a step, so each outside request is
    tested only against the members after those it is known not to block."""
    store = state.store
    hybrid = state.mode == HYBRID
    quorum = store.weak_at if hybrid else store.strong_at
    members: list[RequestId] = [seed]
    member_set = {seed}
    # outside request -> number of leading members it does not block
    tested: dict[RequestId, int] = {}
    changed = True
    while changed:
        changed = False
        for rid in store.by_request:
            if rid in member_set or rid not in quorum:
                continue
            if any(blocks(store, rid, m) for m in members[tested.get(rid, 0):]):
                members.append(rid)
                member_set.add(rid)
                changed = True
                if hybrid and len(members) > state.r_max and coin_stop(
                        state.coin_seed, store.block, f"{seed}|{len(members)}",
                        state.coin_stop_p):
                    changed = False  # the coin stops growth
                    break
            else:
                tested[rid] = len(members)
    closed = not omits_blocker(store, members, tested)
    state.max_candidate_order = max(state.max_candidate_order, len(members))
    return members, closed


def _build_certificate(state: LeaderState, members: list[RequestId],
                       pivot: Optional[MedianSummary]) -> Optional[BlockCertificate]:
    """The block of `members`, block-fair without a pivot and timed-fair in
    cited-median order with one; None while a member lacks a strong quorum."""
    store = state.store
    if not quorate(store, members):
        return None
    if pivot is not None:
        members = timed_request_order(store, members)
    votes_by_party = {p: tuple(log.accepted) for p, log in store.logs.items() if log.accepted}
    # The store indexes exactly the requests the cited votes name.
    table = {rid: store.requests[rid] for rid in store.by_request}
    return BlockCertificate(
        instance=store.instance,
        block_number=store.block,
        proposer=state.proposer,
        mode_tag=BLOCK_FAIR if pivot is None else TIMED_FAIR,
        requests=tuple(members),
        pivot=pivot,
        votes_by_party=votes_by_party,
        request_table=table,
    )


def _low_set(store: VoteStore, seed: RequestId, cutoff: float) -> list[RequestId]:
    """Requests other than seed holding a vote, accepted at or before
    acceptance index `cutoff`, timestamped below the latest such vote for
    seed. A cutoff of math.inf takes every accepted vote."""
    seed_max_ts = max(
        vote.ts for vote, index in store.by_request[seed].values() if index <= cutoff
    )
    low = []
    for rid, slot in store.by_request.items():
        if rid == seed:
            continue
        for vote, index in slot.values():
            if index <= cutoff and vote.ts < seed_max_ts:
                low.append(rid)
                break
    return low


# -- block-fair engine (may never emit, by design) ---------------------------

def neverending_step(state: LeaderState) -> Optional[BlockCertificate]:
    store = state.store
    seed = next(iter(store.strong_at), None)
    if seed is None:
        return None
    members, closed = _closure(state, seed)
    return _build_certificate(state, members, None) if closed else None


# -- clock-fair engine -------------------------------------------------------

def _first_quorum_pivot(state: LeaderState, seed: RequestId) -> MedianSummary:
    """Median of the timestamps in the first strong quorum observed for seed
    (votes_for lists voters in acceptance order). There are exactly n-t of
    them, so `median_bounds`' low and high medians agree."""
    q = state.store.cfg.strong_size
    ts = tuple(v.ts for v in state.store.votes_for(seed)[:q])
    return MedianSummary(request=seed, timestamps=ts, m_r=median_bounds(ts, q)[0])


def clocked_step(state: LeaderState) -> Optional[BlockCertificate]:
    store = state.store
    seed = next(iter(store.strong_at), None)
    if seed is None:
        return None
    pivot = _first_quorum_pivot(state, seed)
    # The low set is frozen at the moment seed completed its strong quorum.
    low_set = _low_set(store, seed, store.strong_at[seed])
    # Wait until one common set of n-t active parties holds valid votes for
    # every request that was already timestamped below the seed when it
    # completed its quorum.
    covering = 0
    for party, log in store.logs.items():
        if not log.invalid and all(party in store.by_request[rid] for rid in low_set):
            covering += 1
    if covering < store.cfg.strong_size:
        return None
    # Admission sweeps everything currently known, not just the frozen set:
    # votes that arrived during the coverage wait are part of the cited
    # evidence and the block verifier holds the block to them.
    return _build_certificate(state, timed_members(store, pivot, store.by_request), pivot)


# -- hybrid engine -----------------------------------------------------------

def _hybrid_block_fair(state: LeaderState) -> Optional[BlockCertificate]:
    """Ship the first closed candidate, in seed quorum order, that the
    builder accepts; with none, enter the fallback if a candidate crossed
    the cutoff. Every seed up to the crossing one is grown, shipped or not:
    growth draws the coin and sets max_candidate_order."""
    store = state.store
    cert = None
    for seed in store.weak_at:
        members, closed = _closure(state, seed)
        if cert is None and closed:
            cert = _build_certificate(state, members, None)
        if len(members) > state.r_max:
            if cert is None:
                state.fallback_snapshot = tuple(store.by_request)
                state.cutoff_events += 1
            break
    return cert


def _hybrid_fallback(state: LeaderState) -> Optional[BlockCertificate]:
    """A timed-fair block for the first snapshot seed, in quorum order, whose
    every request timestamped below it holds a strong quorum. The phase ends
    in replay_undelivered, once the snapshot is delivered."""
    store = state.store
    for seed in store.strong_at:
        if seed not in state.fallback_snapshot:
            continue
        low = _low_set(store, seed, math.inf)
        if not quorate(store, low):
            continue
        # Seed and low set hold strong quorums, so the block ships.
        state.fallback_blocks_emitted += 1
        pivot = max_median(store, seed)
        return _build_certificate(state, timed_members(store, pivot, low), pivot)
    return None


def hybrid_step(state: LeaderState) -> Optional[BlockCertificate]:
    if not state.fallback_snapshot:
        cert = _hybrid_block_fair(state)
        if cert is not None or not state.fallback_snapshot:
            return cert
    return _hybrid_fallback(state)


# The engine of each mode. Scenario and TraceView accept no other mode.
ENGINES = {NEVERENDING: neverending_step, CLOCKED: clocked_step, HYBRID: hybrid_step}
MODES = tuple(ENGINES)


def step(state: LeaderState) -> list[BlockCertificate]:
    """The engine's certificate for this step, as a list of at most one."""
    cert = ENGINES[state.mode](state)
    return [cert] if cert else []


# -- replay ------------------------------------------------------------------

def replay_undelivered(state: LeaderState, next_block: int,
                       delivered: Container[RequestId],
                       signed: Optional[dict[tuple, Vote]] = None) -> LeaderState:
    """Fresh incarnation for the next block: carry, per party in original
    order, every accepted vote for a request that was not delivered, signed
    again for the next block with sequence numbers re-assigned densely from
    zero. Permanent exclusions and the fallback phase carry over, the phase
    until its snapshot is delivered; the vote store itself starts clean.

    The old store admitted these votes in this order, so every `ingest` check
    passes for them again: one block, gap-free seqs, strictly rising
    timestamps, and a party valid until its carried exclusion. They enter
    through `VoteStore.accept`, unhashed, and the store ends as `ingest`
    would leave it. `signed` maps `(party, seq, ts, request)` to the vote
    already signed for `next_block` of this instance; leaders of one hand-off
    share it (`chain.on_deliver`), so equal carried votes are one object."""
    store = state.store
    instance = store.instance
    fresh = VoteStore(store.cfg, store.timestamped, instance, next_block, store.requests)
    if signed is None:
        signed = {}
    accept = fresh.accept
    for party, log in store.logs.items():
        seq = 0
        for v in log.accepted:
            request = v.request
            if request in delivered:
                continue
            key = (party, seq, v.ts, request)
            vote = signed.get(key)
            if vote is None:
                vote = signed[key] = make_vote(party, instance, next_block, seq, v.ts, request)
            accept(vote)
            seq += 1
        # The old store holds every exclusion carried into it; marking one here
        # shifts later acceptance indices but keeps their order.
        if log.invalid:
            fresh.mark_invalid(party)
    snapshot = tuple(r for r in state.fallback_snapshot if r not in delivered)
    return LeaderState(mode=state.mode, store=fresh, proposer=state.proposer,
                       r_max=state.r_max, coin_seed=state.coin_seed,
                       coin_stop_p=state.coin_stop_p, fallback_snapshot=snapshot,
                       fallback_blocks_emitted=state.fallback_blocks_emitted,
                       max_candidate_order=state.max_candidate_order,
                       cutoff_events=state.cutoff_events)
