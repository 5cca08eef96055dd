"""Stand-alone block verifiers.

A certificate is self-contained: the proposal, every cited vote grouped per
voter (full histories from sequence number zero), and the request table that
binds every cited request id to its market and payload. Verification uses
only the certificate and the quorum configuration, never leader state.

The trailing fairness clause re-checks the emission condition the engines use:
a block-fair certificate may not omit a cited request that, on the cited
evidence, still blocks a member; a timed certificate may not omit a cited
request that a weak quorum timestamped below the declared pivot median.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

# `verify` is not called here: perfbench/tracing.py patches it by this name.
from .core import (Attestation, PartyId, QuorumConfig, Request, canonical_json, request_id,
                   verify)
from .fairness import MedianSummary, blocks, median_bounds, timed_precedes, timed_request_order
from .leaders import BLOCK_FAIR, TIMED_FAIR, Proposal
from .votes import PLAIN, TIMESTAMPED, Vote, VoteStore

VALID = "valid"
INVALID = "invalid"


@dataclass(frozen=True)
class VerifyOutcome:
    status: str
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == VALID


def _bad(reason: str) -> VerifyOutcome:
    return VerifyOutcome(INVALID, reason)


@dataclass(frozen=True)
class BlockCertificate:
    proposal: Proposal
    proposer: PartyId

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(certificate_to_dict(self)).encode()).hexdigest()


# The certificate reason for each ingest refusal that condemns a certificate.
# `timestamp-order` is not one: it excludes the voter, whose earlier votes
# stay usable and whose later ones are refused as `party-invalid`.
_INGEST_FAULTS = {
    "wrong-block": "bad-attestation",
    "bad-attestation": "bad-attestation",
    "unknown-party": "bad-attestation",
    "duplicate": "missing-history",
    "equivocation": "missing-history",
    "missing-timestamp": "missing-history",
}


def _is_sub_multiset(part, whole) -> bool:
    """True iff no value occurs in `part` more often than in `whole`."""
    pool = list(whole)
    try:
        for value in part:
            pool.remove(value)
    except ValueError:
        return False
    return True


def verify_certificate(cfg: QuorumConfig, cert: BlockCertificate) -> VerifyOutcome:
    """Block validity: non-empty, a strong quorum of fully-historied votes per
    member, and no cited request left out while it still blocks (block-fair)
    or precedes the pivot (timed). The cited votes are admitted, in cited
    order, by `VoteStore.ingest`, the rule the engines' stores apply; the
    first refusal that condemns the certificate names its fault. A
    certificate with timestamped votes or a timed tag gets the timestamped
    vote rules: voters whose timestamps run against their sequence numbers
    lose their votes from the mismatch onward, which can drop a member below
    quorum."""
    prop = cert.proposal
    timestamped = prop.mode_tag == TIMED_FAIR or any(
        v.ts is not None for votes in prop.votes_by_party.values() for v in votes
    )
    if not prop.requests:
        return _bad("empty-block")
    if len(set(prop.requests)) != len(prop.requests):
        return _bad("duplicate-request")
    table = prop.request_table
    store = VoteStore(cfg, TIMESTAMPED if timestamped else PLAIN, prop.instance,
                      prop.block_number)
    for party, votes in prop.votes_by_party.items():
        for v in votes:
            if v.att.signer != party:
                return _bad("bad-attestation")
            fault = _INGEST_FAULTS.get(store.ingest(v).reason)
            if fault is not None:
                return _bad(fault)
            if v.request not in table:
                return _bad("missing-history")
        log = store.logs.get(party)
        if log is None:  # a party key outside [0, n) with no cited votes
            return _bad("bad-attestation")
        if log.pending:  # the cited history skips a sequence number
            return _bad("missing-history")
    for rid, req in table.items():
        if request_id(req.market, req.payload) != rid:
            return _bad("bad-attestation")
        store.register_request(req)
    for rid in prop.requests:
        if store.accepted_count(rid) < cfg.strong_size:
            return _bad("insufficient-votes")
    if store.invalid_parties():
        # Some voter's timestamps ran against its sequence numbers.
        return _bad("timestamp-order")

    member_set = set(prop.requests)
    omitted = [rid for rid in store.known_requests() if rid not in member_set]
    if prop.mode_tag == TIMED_FAIR:
        if prop.pivot is None or prop.pivot.request not in member_set:
            return _bad("invalid-pivot")
        # The declared timestamps are n-t or more of the seed's cited ones and
        # hold the median; the median is one some n-t of them can have.
        seed_ts = [v.ts for v in store.votes_for(prop.pivot.request)]
        declared, m_r = prop.pivot.timestamps, prop.pivot.m_r
        low, high = median_bounds(seed_ts, cfg.strong_size)
        if (len(declared) < cfg.strong_size or m_r not in declared
                or not _is_sub_multiset(declared, seed_ts) or not low <= m_r <= high):
            return _bad("invalid-pivot")
        if any(timed_precedes(store, cfg, rid, prop.pivot) for rid in omitted):
            return _bad("omitted-blocked-request")
        if list(prop.requests) != timed_request_order(store, prop.requests):
            return _bad("timestamp-order")
    elif any(blocks(store, cfg, rid, member) for rid in omitted for member in prop.requests):
        return _bad("omitted-blocked-request")
    return VerifyOutcome(VALID)


# -- canonical serialization -------------------------------------------------

def certificate_to_dict(cert: BlockCertificate) -> dict:
    prop = cert.proposal
    return {
        "instance": prop.instance,
        "block": prop.block_number,
        "mode": prop.mode_tag,
        "proposer": cert.proposer,
        "requests": list(prop.requests),
        "pivot": (
            None
            if prop.pivot is None
            else {
                "request": prop.pivot.request,
                "timestamps": list(prop.pivot.timestamps),
                "median": prop.pivot.m_r,
            }
        ),
        "votes": {
            str(party): [[v.seq, v.ts, v.request, v.att.digest] for v in votes]
            for party, votes in prop.votes_by_party.items()
        },
        "requests_table": {
            rid: {"market": req.market, "payload": req.payload.hex()}
            for rid, req in prop.request_table.items()
        },
    }


def _typed(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise ValueError(f"certificate field {field!r} must be a {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def _is_uint64(value) -> bool:
    return type(value) is int and 0 <= value < 2**64  # bool is an int


def uint64(value, field: str) -> int:
    """`value` if it is an integer in [0, 2**64); ValueError naming `field` if not."""
    if not _is_uint64(value):
        raise ValueError(f"field {field!r} must be an integer in [0, 2**64), not {value!r}")
    return value


def _vote_row(row) -> list:
    """One cited vote, [seq, ts, request-id, attestation-digest]; one call per
    row, as certificates cite every vote in the store."""
    if not (isinstance(row, list) and len(row) == 4 and _is_uint64(row[0])
            and (row[1] is None or _is_uint64(row[1]))
            and isinstance(row[2], str) and isinstance(row[3], str)):
        raise ValueError(f"certificate vote row must be [seq, ts, request, attestation] "
                         f"with seq and ts in [0, 2**64), not {row!r}")
    return row


def certificate_from_dict(data: dict) -> BlockCertificate:
    """Rebuild a certificate from its canonical dict. Shapes and integer
    ranges are checked here, so hostile input raises ValueError instead of
    failing deep inside verification."""
    _typed(data, dict, "certificate")
    instance = _typed(data["instance"], str, "instance")
    block = uint64(data["block"], "block")
    pivot = None
    if data["pivot"] is not None:
        raw = _typed(data["pivot"], dict, "pivot")
        pivot = MedianSummary(
            request=_typed(raw["request"], str, "pivot.request"),
            timestamps=tuple(uint64(ts, "pivot.timestamps")
                             for ts in _typed(raw["timestamps"], list, "pivot.timestamps")),
            m_r=uint64(raw["median"], "pivot.median"),
        )
    votes_by_party = {}
    for party_s, rows in _typed(data["votes"], dict, "votes").items():
        party = int(party_s)
        # Positional construction: certificates cite every vote in the store,
        # and keyword calls cost a third more per vote.
        votes_by_party[party] = tuple(
            Vote(instance, block, seq, ts, rid, Attestation(party, att))
            for seq, ts, rid, att in map(_vote_row, _typed(rows, list, "votes"))
        )
    table = {}
    for rid, entry in _typed(data["requests_table"], dict, "requests_table").items():
        _typed(entry, dict, "requests_table entry")
        table[rid] = Request(
            id=rid,
            market=_typed(entry["market"], str, "requests_table market"),
            payload=bytes.fromhex(_typed(entry["payload"], str, "requests_table payload")),
        )
    if data["mode"] not in (BLOCK_FAIR, TIMED_FAIR):
        raise ValueError(f"certificate field 'mode' must be {BLOCK_FAIR!r} or {TIMED_FAIR!r}, "
                         f"not {data['mode']!r}")
    prop = Proposal(
        instance=instance,
        block_number=block,
        mode_tag=data["mode"],
        requests=tuple(_typed(rid, str, "requests")
                       for rid in _typed(data["requests"], list, "requests")),
        pivot=pivot,
        votes_by_party=votes_by_party,
        request_table=table,
    )
    return BlockCertificate(proposal=prop, proposer=uint64(data["proposer"], "proposer"))
