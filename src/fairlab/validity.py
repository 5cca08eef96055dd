"""Stand-alone block verifiers.

A certificate (`leaders.BlockCertificate`) is self-contained: the proposed
block and its proposer, every cited vote grouped per voter (full histories
from sequence number zero), and the request table that binds every cited
request id to its market and payload. Verification uses only the certificate
and the quorum configuration, never leader state.

The trailing fairness clause applies the engines' own emission rules from
`leaders.py` to the cited evidence: a block-fair certificate has no pivot and
omits no request still due with or before a member; a timed certificate holds
exactly its pivot's request and the requests timestamped below its median.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NoReturn, Optional

# `verify` is not called here: perfbench/tracing.py patches it by this name.
from .core import PARTY_IDS, QuorumConfig, Request, party_key, request_id, verify
from .leaders import BLOCK_FAIR, TIMED_FAIR, BlockCertificate, omits_blocker, timed_members
from .votes import MedianSummary, Vote, VoteStore, median_bounds, quorate, timed_request_order


@dataclass(frozen=True)
class VerifyOutcome:
    reason: Optional[str] = None  # None for a valid certificate

    @property
    def ok(self) -> bool:
        return self.reason is None


_VALID = VerifyOutcome()  # every valid certificate's outcome; it is frozen

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


def verify_certificate(cfg: QuorumConfig, cert: BlockCertificate) -> VerifyOutcome:
    """Block validity: a party as proposer, non-empty, a strong quorum of
    fully-historied votes per member (`votes.quorate`), and the members the
    engines' emission rules ask for (`leaders.omits_blocker`,
    `leaders.timed_members`). The cited votes are admitted, in cited order,
    by `VoteStore.ingest`, the rule the engines' stores apply; the first
    refusal that condemns the certificate names its fault. A certificate
    with timestamped votes or a timed tag gets the timestamped vote rules:
    voters whose timestamps run against their sequence numbers lose their
    votes from the mismatch onward, which can drop a member below quorum."""
    if not 0 <= cert.proposer < cfg.n:
        return VerifyOutcome("unknown-proposer")
    timestamped = cert.mode_tag == TIMED_FAIR or any(
        v.ts is not None for votes in cert.votes_by_party.values() for v in votes
    )
    if not cert.requests:
        return VerifyOutcome("empty-block")
    member_set = set(cert.requests)
    if len(member_set) != len(cert.requests):
        return VerifyOutcome("duplicate-request")
    table = cert.request_table
    store = VoteStore(cfg, timestamped, cert.instance, cert.block_number, table)
    for party, votes in cert.votes_by_party.items():
        for v in votes:
            if v.signer != party:
                return VerifyOutcome("bad-attestation")
            fault = _INGEST_FAULTS.get(store.ingest(v).reason)
            if fault is not None:
                return VerifyOutcome(fault)
            if v.request not in table:
                return VerifyOutcome("missing-history")
        log = store.logs.get(party)
        if log is None:  # a party key outside [0, n) with no cited votes
            return VerifyOutcome("bad-attestation")
        if log.pending:  # the cited history skips a sequence number
            return VerifyOutcome("missing-history")
    for rid, req in table.items():
        # A market with the separator in it could relabel a request (request_id).
        if "|" in req.market or request_id(req.market, req.payload) != rid:
            return VerifyOutcome("bad-attestation")
    if not quorate(store, cert.requests):
        return VerifyOutcome("insufficient-votes")
    if any(log.invalid for log in store.logs.values()):
        # Some voter's timestamps ran against its sequence numbers.
        return VerifyOutcome("timestamp-order")

    if cert.mode_tag == TIMED_FAIR:
        if cert.pivot is None or cert.pivot.request not in member_set:
            return VerifyOutcome("invalid-pivot")
        # The declared timestamps are n-t or more of the seed's cited ones and
        # hold the median; the median is one some n-t of them can have.
        seed_ts = [v.ts for v in store.votes_for(cert.pivot.request)]
        declared, m_r = cert.pivot.timestamps, cert.pivot.m_r
        low, high = median_bounds(seed_ts, cfg.strong_size)
        if (len(declared) < cfg.strong_size or m_r not in declared
                or not Counter(declared) <= Counter(seed_ts) or not low <= m_r <= high):
            return VerifyOutcome("invalid-pivot")
        members = timed_members(store, cert.pivot, store.by_request)
        if not member_set.issuperset(members):
            return VerifyOutcome("omitted-blocked-request")
        if len(members) != len(member_set):
            return VerifyOutcome("member-after-pivot")
        if list(cert.requests) != timed_request_order(store, cert.requests):
            return VerifyOutcome("timestamp-order")
    elif cert.pivot is not None:
        return VerifyOutcome("invalid-pivot")
    elif omits_blocker(store, cert.requests):
        return VerifyOutcome("omitted-blocked-request")
    return _VALID


# -- canonical serialization -------------------------------------------------

def certificate_to_dict(cert: BlockCertificate) -> dict:
    return {
        "instance": cert.instance,
        "block": cert.block_number,
        "mode": cert.mode_tag,
        "proposer": cert.proposer,
        "requests": list(cert.requests),
        "pivot": (
            None
            if cert.pivot is None
            else {
                "request": cert.pivot.request,
                "timestamps": list(cert.pivot.timestamps),
                "median": cert.pivot.m_r,
            }
        ),
        "votes": {
            str(party): [[v.seq, v.ts, v.request, v.attestation] for v in votes]
            for party, votes in cert.votes_by_party.items()
        },
        "requests_table": {
            rid: {"market": req.market, "payload": req.payload.hex()}
            for rid, req in cert.request_table.items()
        },
    }


def _typed(value, kind: type, field: str):
    # The exact type, as the inline tests in `certificate_from_dict` check it.
    if type(value) is not kind:
        raise ValueError(f"certificate field {field!r} must be a {kind.__name__}, "
                         f"not {type(value).__name__}")
    return value


def uint64(value, field: str) -> int:
    """`value` if it is an integer in [0, 2**64); ValueError naming `field` if not."""
    if not (type(value) is int and 0 <= value < 2**64):  # bool is an int
        raise ValueError(f"field {field!r} must be an integer in [0, 2**64), not {value!r}")
    return value


def _bad_row(row) -> NoReturn:
    """Raise the error for a cited vote row that is not [seq, ts, request-id,
    attestation] with seq and ts in [0, 2**64). The test for a valid row is
    the one inline in `certificate_from_dict`."""
    raise ValueError(f"certificate vote row must be [seq, ts, request, attestation] "
                     f"with seq and ts in [0, 2**64), not {row!r}")


def certificate_from_dict(data: dict) -> BlockCertificate:
    """Rebuild a certificate from its canonical dict. Shapes and integer
    ranges are checked here, so hostile input raises ValueError instead of
    failing deep inside verification. The checks repeated per party, row and
    table entry are written out inline, and call `party_key`, `_bad_row` or
    `_typed` only to raise their message."""
    _typed(data, dict, "certificate")
    instance = _typed(data["instance"], str, "instance")
    try:
        instance.encode("utf-8")  # as every vote's payload encodes it
    except UnicodeEncodeError:
        raise ValueError(f"certificate field 'instance' must encode as utf-8, "
                         f"not {instance!r}") from None
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
        party = PARTY_IDS.get(party_s)
        if party is None:
            party = party_key(party_s, "certificate field 'votes'")
        if type(rows) is not list:
            _typed(rows, list, "votes")
        cited = []
        try:
            for row in rows:
                # The one test of a valid row; it runs once per cited vote.
                seq, ts, rid, att = row if type(row) is list and len(row) == 4 else _bad_row(row)
                if not (type(seq) is int and 0 <= seq < 2**64
                        and (ts is None or type(ts) is int and 0 <= ts < 2**64)
                        and type(rid) is str and type(att) is str):
                    _bad_row(row)
                cited.append(Vote(instance, block, seq, ts, rid, party, att))
        except UnicodeEncodeError as exc:
            # A vote encodes its request id as ASCII (vote_payload).
            raise ValueError(f"certificate field 'vote row request' must encode as ascii, "
                             f"not {exc.object!r}") from None
        votes_by_party[party] = tuple(cited)
    table = {}
    for rid, entry in _typed(data["requests_table"], dict, "requests_table").items():
        if type(entry) is not dict:
            _typed(entry, dict, "requests_table entry")
        hex_payload = entry["payload"]
        if type(hex_payload) is not str:
            _typed(hex_payload, str, "requests_table payload")
        payload = bytes.fromhex(hex_payload)
        if payload.hex() != hex_payload:  # fromhex also takes capitals and spaces
            raise ValueError(f"certificate field 'requests_table payload' must be lower-case "
                             f"hex without spaces, not {hex_payload!r}")
        market = entry["market"]
        if type(market) is not str:
            _typed(market, str, "requests_table market")
        table[rid] = Request(rid, market, payload)
    if data["mode"] not in (BLOCK_FAIR, TIMED_FAIR):
        raise ValueError(f"certificate field 'mode' must be {BLOCK_FAIR!r} or {TIMED_FAIR!r}, "
                         f"not {data['mode']!r}")
    requests = _typed(data["requests"], list, "requests")
    for rid in requests:
        if type(rid) is not str:
            _typed(rid, str, "requests")
    return BlockCertificate(
        instance=instance,
        block_number=block,
        mode_tag=data["mode"],
        requests=tuple(requests),
        pivot=pivot,
        votes_by_party=votes_by_party,
        request_table=table,
        proposer=uint64(data["proposer"], "proposer"),
    )
