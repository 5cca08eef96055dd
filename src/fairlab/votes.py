"""Per-party vote streams, the validated vote store and the relations over it.

A vote is a party's signed claim "I saw request r as my i-th request (at local
time ts)". The store admits votes per party strictly gap-free in sequence
number, buffers early arrivals, and permanently excludes parties that
contradict themselves (conflicting sequence numbers, or timestamps that run
backwards relative to sequence numbers in timestamped mode). Accepted votes
from before an exclusion remain usable.

The fairness relations read the store and its quorum configuration: the
strong-quorum test (`quorate`), the blocking relation (`blocks`) and the
median-timestamp rules, whose one median formula is `median_bounds`: each
pivot, pivot check and timed block's in-block order takes one of its bounds.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

from .core import (
    PartyId,
    QuorumConfig,
    Request,
    RequestId,
    Timestamp,
    sign,
    verify,
)


@dataclass(frozen=True, slots=True, init=False)
class Vote:
    instance: str
    block: int
    seq: int
    ts: Optional[Timestamp]
    request: RequestId
    signer: PartyId
    attestation: str  # the signer's signature over `payload`
    # The bytes `attestation` covers, derived once from the fields above: no
    # caller can supply them, so they never disagree with the vote they belong to.
    payload: bytes = field(init=False, compare=False, repr=False)
    # True once `vote_verifies` has found `attestation` good for `payload`. Both
    # are fixed for the object's life, so the check holds for every message copy
    # that carries this object; `dataclasses.replace` and a rebuilt vote are
    # new objects and start unchecked. Signing does not set it.
    verified: bool = field(init=False, compare=False, repr=False)

    def __init__(self, instance: str, block: int, seq: int, ts: Optional[Timestamp],
                 request: RequestId, signer: PartyId, attestation: str) -> None:
        # The one constructor: `make_vote`, `certificate_from_dict`,
        # `dataclasses.replace` and tests all build votes here.
        _set_payload(self, vote_payload(instance, block, seq, ts, request))
        _set_instance(self, instance)
        _set_block(self, block)
        _set_seq(self, seq)
        _set_ts(self, ts)
        _set_request(self, request)
        _set_signer(self, signer)
        _set_attestation(self, attestation)
        _set_verified(self, False)


# Writes to the frozen Vote's slots. The constructor and the two later writes
# (`make_vote`'s signature, `vote_verifies`'s mark) go through them: a slot's
# setter costs about half of object.__setattr__, which looks the name up first,
# and every vote built or checked makes these writes.
_set_instance = Vote.instance.__set__
_set_block = Vote.block.__set__
_set_seq = Vote.seq.__set__
_set_ts = Vote.ts.__set__
_set_request = Vote.request.__set__
_set_signer = Vote.signer.__set__
_set_attestation = Vote.attestation.__set__
_set_payload = Vote.payload.__set__
_set_verified = Vote.verified.__set__

# block, seq, the 0x00 no-timestamp byte, the request id's length
_UNSTAMPED = struct.Struct(">QQxI")
# block, seq, the 0x01 timestamp flag, the timestamp, the request id's length
_STAMPED = struct.Struct(">QQBQI")


@lru_cache(maxsize=64)
def _payload_head(instance: str) -> bytes:
    """`vote|`, the instance id's length and the instance id: the part of a
    payload every vote of one incarnation shares. An instance that does not
    encode raises, and a raise is never cached."""
    inst = instance.encode("utf-8")
    return b"vote|" + struct.pack(">I", len(inst)) + inst


def vote_payload(instance: str, block: int, seq: int, ts: Optional[Timestamp], request: RequestId) -> bytes:
    """Canonical byte encoding covered by a vote's attestation.

    Length-prefixed fields in fixed order so digests are stable across
    implementations; layout documented in docs/FORMATS.md.
    """
    head = _payload_head(instance)
    rid = request.encode("ascii")
    if ts is None:
        return head + _UNSTAMPED.pack(block, seq, len(rid)) + rid
    return head + _STAMPED.pack(block, seq, 1, ts, len(rid)) + rid


def make_vote(signer: PartyId, instance: str, block: int, seq: int,
              ts: Optional[Timestamp], request: RequestId) -> Vote:
    v = Vote(instance, block, seq, ts, request, signer, None)
    # Sign the bytes the vote derived; the one write to a field it was given.
    _set_attestation(v, sign(signer, v.payload))
    return v


def vote_verifies(v: Vote) -> bool:
    """Whether v's attestation covers its payload. A vote object is hashed
    until it passes, and never again after; a failure is not remembered."""
    if v.verified:
        return True
    if not verify(v.signer, v.attestation, v.payload):
        return False
    _set_verified(v, True)
    return True


ACCEPTED = "accepted"
BUFFERED = "buffered"
REJECTED = "rejected"


class IngestOutcome(NamedTuple):
    status: str
    reason: Optional[str] = None
    # Votes that became accepted through this ingest, in acceptance order
    # (the new vote plus any buffered successors it released): one list sliced
    # from the party's accepted log, not copied again. Empty when the ingest
    # accepted nothing.
    accepted: Sequence[Vote] = ()


class PartyVoteLog:
    # A plain slots class: every store makes one per party, and the verifier
    # makes a store per certificate.
    __slots__ = ("accepted", "pending", "invalid")

    def __init__(self) -> None:
        self.accepted: list[Vote] = []
        self.pending: dict[int, Vote] = {}
        self.invalid = False  # permanently-invalid: accepted never grows again


# The two rejections ingest decides before hashing; the commonest outcomes.
_WRONG_BLOCK = IngestOutcome(REJECTED, "wrong-block")
_DUPLICATE = IngestOutcome(REJECTED, "duplicate")


class VoteStore:
    """Single-writer view of all validated votes for one protocol incarnation.

    Readers use `logs`, `by_request`, `requests`, `weak_at`, `strong_at`,
    `version`, `count_before` and `votes_for`. `ingest` is the one way in for
    a vote; `leaders.replay_undelivered` re-enters votes an earlier store
    admitted, in their admitted order, through `accept`, unchecked.
    `version` is the acceptance index: each accepted vote is stored with the
    value it had before the acceptance bumped it, and an exclusion bumps it
    too, so indices rise strictly in acceptance order but may skip values.
    `requests` is the run's request table (a certificate's, in the verifier),
    held by reference and never written."""

    def __init__(self, cfg: QuorumConfig, timestamped: bool, instance: str, block: int,
                 requests: Mapping[RequestId, Request]):
        self.cfg = cfg
        self.timestamped = timestamped
        self.instance = instance
        self.block = block
        self.requests = requests
        self.logs: dict[PartyId, PartyVoteLog] = {p: PartyVoteLog() for p in range(cfg.n)}
        # request -> party -> (its first vote for request, acceptance index),
        # in acceptance order at both levels
        self.by_request: dict[RequestId, dict[PartyId, tuple[Vote, int]]] = {}
        # request -> acceptance index of the vote that completed its quorum
        self.weak_at: dict[RequestId, int] = {}
        self.strong_at: dict[RequestId, int] = {}
        self.version = 0  # bumps on any acceptance or invalidation

    # -- ingestion ---------------------------------------------------------

    def ingest(self, v: Vote) -> IngestOutcome:
        # Copies that cannot change the store are turned away before the
        # attestation is hashed: a vote for another incarnation, and an exact
        # copy of a vote this party has accepted or buffered (verified then).
        if v.instance != self.instance or v.block != self.block:
            return _WRONG_BLOCK
        log = self.logs.get(v.signer)
        prior = None  # this party's accepted or buffered vote at v.seq
        if log is not None and not log.invalid:
            prior = log.accepted[v.seq] if v.seq < len(log.accepted) else log.pending.get(v.seq)
            if prior is not None and prior == v:
                return _DUPLICATE
        if not vote_verifies(v):
            return IngestOutcome(REJECTED, "bad-attestation")
        if log is None:
            return IngestOutcome(REJECTED, "unknown-party")
        if self.timestamped and v.ts is None:
            return IngestOutcome(REJECTED, "missing-timestamp")
        if log.invalid:
            return IngestOutcome(REJECTED, "party-invalid")
        if prior is not None:
            # A different vote for a sequence number the party already used.
            self.mark_invalid(v.signer)
            return IngestOutcome(REJECTED, "equivocation")

        if v.seq > len(log.accepted):
            log.pending[v.seq] = v
            return IngestOutcome(BUFFERED)

        # v is the next expected vote; accept it and cascade buffered successors.
        # What this call accepts is then accepted[v.seq:].
        accepted = log.accepted
        cursor = v
        while cursor is not None:
            if self.timestamped and accepted and cursor.ts <= accepted[-1].ts:
                self.mark_invalid(v.signer)
                if cursor is v:
                    return IngestOutcome(REJECTED, "timestamp-order")
                # v itself was accepted; the cascade hit the mismatch.
                return IngestOutcome(ACCEPTED, "timestamp-order", accepted[v.seq:])
            self.accept(cursor)
            cursor = log.pending.pop(len(accepted), None) if log.pending else None
        return IngestOutcome(ACCEPTED, None, accepted[v.seq:])

    def accept(self, v: Vote) -> None:
        """Append v to its party's log. v passes every `ingest` check: it is
        the party's next sequence number, the party is still valid and, in a
        timestamped store, v is stamped above the party's last vote. `ingest`
        makes the checks; replay carries votes an earlier store admitted in
        this order.

        A party that votes one request twice is one voter for it: its first
        vote is the one counted, ordered and cited as its report."""
        party, request = v.signer, v.request
        self.logs[party].accepted.append(v)
        slot = self.by_request.setdefault(request, {})
        index = self.version
        slot.setdefault(party, (v, index))
        count = len(slot)
        if count == self.cfg.weak_size and request not in self.weak_at:
            self.weak_at[request] = index
        if count == self.cfg.strong_size and request not in self.strong_at:
            self.strong_at[request] = index
        self.version = index + 1

    def mark_invalid(self, party: PartyId) -> None:
        """Exclude a party for good: its accepted votes stay usable, nothing
        more is accepted from it."""
        log = self.logs[party]
        log.invalid = True
        log.pending.clear()
        self.version += 1

    # -- queries -----------------------------------------------------------

    def count_before(self, r: RequestId, r2: RequestId) -> int:
        """Valid parties whose first vote for r comes before any vote for r2.
        The accepted logs are gap-free, so a party holding r without r2
        reported r first."""
        others = self.by_request.get(r2, {})
        count = 0
        for party, (vote, _) in self.by_request.get(r, {}).items():
            if not self.logs[party].invalid and (
                party not in others or vote.seq < others[party][0].seq
            ):
                count += 1
        return count

    def votes_for(self, r: RequestId) -> list[Vote]:
        """Each voter's first accepted vote for r, in acceptance order. Votes a
        now-invalid party cast before its exclusion stay usable as block
        justification."""
        return [vote for vote, _ in self.by_request.get(r, {}).values()]


# -- relations over the votes ------------------------------------------------

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


def quorate(store: VoteStore, requests: Iterable[RequestId]) -> bool:
    """True iff every request holds a strong quorum, as each block member must.
    A map, not a generator, costs the verifier one Python call per certificate."""
    return all(map(store.strong_at.__contains__, requests))


def blocks(store: VoteStore, r2: RequestId, r: RequestId) -> bool:
    """Whether the votes still leave open that r2 must be delivered in the
    same block as r or earlier. False once a weak quorum reported r before r2
    (one of them is honest, so not every honest party saw r2 first), and
    for requests of different markets."""
    requests = store.requests
    if requests[r2].market != requests[r].market:
        return False
    return store.count_before(r, r2) < store.cfg.weak_size


def max_median(store: VoteStore, r: RequestId) -> MedianSummary:
    """Largest median over any (n-t)-subset of r's vote timestamps.

    Computed via the shortcut: the median of the n-t largest timestamps.
    Equivalence with full subset enumeration is covered by an exhaustive test.
    """
    ts = tuple(v.ts for v in store.votes_for(r))
    return MedianSummary(request=r, timestamps=ts, m_r=median_bounds(ts, store.cfg.strong_size)[1])


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


def timed_precedes(store: VoteStore, r2: RequestId, pivot: MedianSummary) -> bool:
    """True iff a weak quorum of votes timestamp r2 strictly below the pivot median."""
    below = sum(1 for v in store.votes_for(r2) if v.ts < pivot.m_r)
    return below >= store.cfg.weak_size
