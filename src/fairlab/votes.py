"""Per-party vote streams and the validated vote store.

A vote is a party's signed claim "I saw request r as my i-th request (at local
time ts)". The store admits votes per party strictly gap-free in sequence
number, buffers early arrivals, and permanently excludes parties that
contradict themselves (conflicting sequence numbers, or timestamps that run
backwards relative to sequence numbers in timestamped mode). Accepted votes
from before an exclusion remain usable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .core import (
    Attestation,
    PartyId,
    QuorumConfig,
    Request,
    RequestId,
    Timestamp,
    sign,
    verify,
)

PLAIN = "plain"
TIMESTAMPED = "timestamped"


@dataclass(frozen=True, slots=True)
class Vote:
    instance: str
    block: int
    seq: int
    ts: Optional[Timestamp]
    request: RequestId
    att: Attestation

    @property
    def party(self) -> PartyId:
        return self.att.signer


def vote_payload(instance: str, block: int, seq: int, ts: Optional[Timestamp], request: RequestId) -> bytes:
    """Canonical byte encoding covered by a vote's attestation.

    Length-prefixed fields in fixed order so digests are stable across
    implementations; layout documented in docs/FORMATS.md.
    """
    inst = instance.encode("utf-8")
    rid = request.encode("ascii")
    stamp = b"\x00" if ts is None else b"\x01" + struct.pack(">Q", ts)
    return b"".join((b"vote|", struct.pack(">I", len(inst)), inst,
                     struct.pack(">QQ", block, seq), stamp, struct.pack(">I", len(rid)), rid))


def make_vote(signer: PartyId, instance: str, block: int, seq: int,
              ts: Optional[Timestamp], request: RequestId) -> Vote:
    att = sign(signer, vote_payload(instance, block, seq, ts, request))
    return Vote(instance=instance, block=block, seq=seq, ts=ts, request=request, att=att)


def vote_verifies(v: Vote) -> bool:
    return verify(v.att, vote_payload(v.instance, v.block, v.seq, v.ts, v.request))


ACCEPTED = "accepted"
BUFFERED = "buffered"
REJECTED = "rejected"


class IngestOutcome(NamedTuple):
    status: str
    reason: Optional[str] = None
    # Votes that became accepted through this ingest, in acceptance order
    # (the new vote plus any buffered successors it released).
    accepted: tuple[Vote, ...] = ()


@dataclass(slots=True)
class PartyVoteLog:
    accepted: list[Vote] = field(default_factory=list)
    pending: dict[int, Vote] = field(default_factory=dict)
    invalid: bool = False  # permanently-invalid: accepted never grows again


# The two rejections ingest decides before hashing; the commonest outcomes.
_WRONG_BLOCK = IngestOutcome(REJECTED, "wrong-block")
_DUPLICATE = IngestOutcome(REJECTED, "duplicate")

# A vote with its global acceptance counter, used for arrival-order tie-breaks.
AcceptedVote = tuple[Vote, int]


class VoteStore:
    """Single-writer view of all validated votes for one protocol incarnation."""

    def __init__(self, cfg: QuorumConfig, mode: str, instance: str, block: int):
        if mode not in (PLAIN, TIMESTAMPED):
            raise ValueError(f"unknown store mode {mode!r}")
        self.cfg = cfg
        self.mode = mode
        self.instance = instance
        self.block = block
        self.logs: dict[PartyId, PartyVoteLog] = {p: PartyVoteLog() for p in range(cfg.n)}
        # request -> party -> AcceptedVote, in acceptance order at both levels
        self.by_request: dict[RequestId, dict[PartyId, AcceptedVote]] = {}
        self.requests: dict[RequestId, Request] = {}
        self._counter = 0
        self.weak_at: dict[RequestId, int] = {}
        self.strong_at: dict[RequestId, int] = {}
        self.version = 0  # bumps on any acceptance or invalidation

    # -- ingestion ---------------------------------------------------------

    def register_request(self, req: Request) -> None:
        self.requests.setdefault(req.id, req)

    def ingest(self, v: Vote, req: Optional[Request] = None) -> IngestOutcome:
        if req is not None:
            self.register_request(req)
        # Copies that cannot change the store are turned away before the
        # attestation is hashed: a vote for another incarnation, and an exact
        # copy of a vote this party has accepted or buffered (verified then).
        if v.instance != self.instance or v.block != self.block:
            return _WRONG_BLOCK
        log = self.logs.get(v.att.signer)  # not the `party` property: once per vote
        prior = None  # this party's accepted or buffered vote at v.seq
        if log is not None and not log.invalid:
            prior = log.accepted[v.seq] if v.seq < len(log.accepted) else log.pending.get(v.seq)
            if prior is not None and prior == v:
                return _DUPLICATE
        if not vote_verifies(v):
            return IngestOutcome(REJECTED, "bad-attestation")
        if log is None:
            return IngestOutcome(REJECTED, "unknown-party")
        if self.mode == TIMESTAMPED and v.ts is None:
            return IngestOutcome(REJECTED, "missing-timestamp")
        if log.invalid:
            return IngestOutcome(REJECTED, "party-invalid")
        if prior is not None:
            # A different vote for a sequence number the party already used.
            self.mark_invalid(v.party)
            return IngestOutcome(REJECTED, "equivocation")

        if v.seq > len(log.accepted):
            log.pending[v.seq] = v
            return IngestOutcome(BUFFERED)

        # v is the next expected vote; accept it and cascade buffered successors.
        # What this call accepts is then accepted[v.seq:].
        accepted = log.accepted
        cursor = v
        while cursor is not None:
            if self.mode == TIMESTAMPED and accepted and cursor.ts <= accepted[-1].ts:
                self.mark_invalid(v.party)
                if cursor is v:
                    return IngestOutcome(REJECTED, "timestamp-order")
                # v itself was accepted; the cascade hit the mismatch.
                return IngestOutcome(ACCEPTED, "timestamp-order", tuple(accepted[v.seq:]))
            self.accept(cursor)
            cursor = log.pending.pop(len(accepted), None) if log.pending else None
        return IngestOutcome(ACCEPTED, None, tuple(accepted[v.seq:]))

    def accept(self, v: Vote) -> None:
        """Append v to its party's log. The caller has checked that v is the
        party's next sequence number and that the party is still valid.

        A party that votes one request twice is one voter for it: its first
        vote is the one counted, ordered and cited as its report."""
        party, request = v.att.signer, v.request
        self.logs[party].accepted.append(v)
        slot = self.by_request.setdefault(request, {})
        slot.setdefault(party, (v, self._counter))
        count = len(slot)
        if count == self.cfg.weak_size and request not in self.weak_at:
            self.weak_at[request] = self._counter
        if count == self.cfg.strong_size and request not in self.strong_at:
            self.strong_at[request] = self._counter
        self._counter += 1
        self.version += 1

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
        return sum(
            1
            for party, (vote, _) in self.by_request.get(r, {}).items()
            if not self.logs[party].invalid
            and (party not in others or vote.seq < others[party][0].seq)
        )

    def votes_for(self, r: RequestId) -> list[Vote]:
        """Each voter's first accepted vote for r, in acceptance order. Votes a
        now-invalid party cast before its exclusion stay usable as block
        justification."""
        slot = self.by_request.get(r, {})
        return [vote for vote, _ in slot.values()]

    def accepted_count(self, r: RequestId) -> int:
        return len(self.by_request.get(r, {}))

    def known_requests(self) -> list[RequestId]:
        """Requests with at least one accepted vote, in first-acceptance order."""
        return list(self.by_request.keys())

    def active_parties(self) -> list[PartyId]:
        return [p for p, log in self.logs.items() if not log.invalid]

    def invalid_parties(self) -> list[PartyId]:
        return [p for p, log in self.logs.items() if log.invalid]

    def market_of(self, r: RequestId) -> str:
        return self.requests[r].market

    def acceptance_records(self, r: RequestId) -> list[AcceptedVote]:
        return list(self.by_request.get(r, {}).values())
