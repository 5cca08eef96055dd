"""Shared protocol vocabulary: parties, quorums, requests, and simulated signatures."""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

PartyId = int
MarketId = str
RequestId = str  # hex digest binding (market, payload)
Timestamp = int

# Desk scale. Every tool keeps state per party id below n, so a file claiming
# n = 10**8 would exhaust memory before any other check could reject it.
MAX_PARTIES = 1024


@dataclass(frozen=True)
class QuorumConfig:
    """Threshold configuration for n parties of which at most t are byzantine."""

    n: int
    t: int

    def __post_init__(self) -> None:
        # Scenario files and chain headers reach here unchecked; bool is an int.
        if type(self.n) is not int or type(self.t) is not int:
            raise ValueError(f"n and t must be integers, got n={self.n!r} t={self.t!r}")
        if self.n < 1 or self.t < 0:
            raise ValueError(f"degenerate configuration n={self.n} t={self.t}")
        if self.n > MAX_PARTIES:
            raise ValueError(f"n={self.n} is above the desk-scale limit of {MAX_PARTIES} parties")
        if self.n < 3 * self.t + 1:
            raise ValueError(f"unsound resilience: n={self.n} < 3t+1={3 * self.t + 1}")

    # Cached: read for every accepted vote and every blocking-relation test.
    @cached_property
    def weak_size(self) -> int:
        """Fewest parties guaranteed to contain an honest one."""
        return self.t + 1

    @cached_property
    def strong_size(self) -> int:
        """Most parties one can wait for without trusting corrupt ones."""
        return self.n - self.t


def validate_config(n: int, t: int) -> QuorumConfig:
    """Sole constructor for quorum configurations; rejects n < 3t+1."""
    return QuorumConfig(n, t)


def party_key(key: str, field: str) -> int:
    """The party id a JSON object key names. Only the canonical decimal form
    str(p) names p, so no two keys name one party: "01", "+1", "-0" and "١"
    raise ValueError naming `field`, as does a key that is no integer."""
    try:
        party = int(key)
    except (TypeError, ValueError):
        party = None
    if party is None or str(party) != key:
        raise ValueError(f"{field} key {key!r} is not a party id in canonical decimal form")
    return party


# Exactly the keys `party_key` accepts below MAX_PARTIES, each with its party
# id: a lookup here stands in for the call on a hot path.
PARTY_IDS = {str(p): p for p in range(MAX_PARTIES)}


def request_id(market: MarketId, payload: bytes) -> RequestId:
    """Market names hold no `|`, so no two (market, payload) pairs hash alike."""
    return hashlib.sha256(b"req|" + market.encode("utf-8") + b"|" + payload).hexdigest()


@dataclass(frozen=True, slots=True, init=False)
class Request:
    """A client transaction; the unit being ordered fairly within one market."""

    id: RequestId
    market: MarketId
    payload: bytes

    def __init__(self, id: RequestId, market: MarketId, payload: bytes) -> None:
        # Writes its slots directly, as `votes.Vote` does; the verifier builds one per table row.
        _set_id(self, id)
        _set_market(self, market)
        _set_payload(self, payload)

    @property
    def name(self) -> str:
        # Payloads are scenario names, checked as UTF-8; traces render them.
        return self.payload.decode("utf-8")


_set_id = Request.id.__set__
_set_market = Request.market.__set__
_set_payload = Request.payload.__set__


def make_request(market: MarketId, payload: bytes) -> Request:
    return Request(id=request_id(market, payload), market=market, payload=payload)


# `json.dumps(obj, sort_keys=True)` without building an encoder per call: the
# encoding of every chain line and of the trace lines no template writes.
canonical_json = json.JSONEncoder(sort_keys=True).encode


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def parse_json(text: str):
    """`json.loads` for files read from outside: a repeated object key, or
    nesting deeper than the parser can recurse, raises ValueError instead of
    the last copy silently winning or a RecursionError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON text nests too deeply to parse") from None


def parse_json_lines(lines: Iterable[str]) -> Iterator[tuple[int, object]]:
    """(line number, value) for each non-blank line of a file of one JSON value
    per line, in `parse_json`'s rules, numbered from 1 with blank lines
    counted. A line that does not parse raises ValueError naming its line,
    and for a syntax error its column."""
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            value = parse_json(line)
        except json.JSONDecodeError as exc:
            # `json` places an error at a cut line's end after its newline.
            column = min(exc.pos, len(line.rstrip("\n"))) + 1
            raise ValueError(f"line {number}: {exc.msg}: column {column}") from None
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        yield number, value


# Attestations are simulation-level stand-ins for signatures. Each party owns a
# derived key; honest and byzantine code paths only ever sign with their own
# identity, so forgery is impossible by construction rather than by hardness.
# One exception: `leaders.replay_undelivered` signs each carried vote again as
# its voter for the next incarnation, once per hand-off for all the leaders
# (ROADMAP item 3 removes it).

@lru_cache(maxsize=1024)  # every sign and verify derives one; parties are few
def _party_key(party: PartyId) -> bytes:
    return hashlib.sha256(b"fairlab-party-key|%d" % party).digest()


def sign(signer: PartyId, content: bytes) -> str:
    """The signer's attestation over content: a hex digest under its key."""
    return hashlib.sha256(_party_key(signer) + content).hexdigest()


def verify(signer: PartyId, attestation: str, content: bytes) -> bool:
    return attestation == hashlib.sha256(_party_key(signer) + content).hexdigest()
