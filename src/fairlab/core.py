"""Shared protocol vocabulary: parties, quorums, requests, and simulated attestations."""

from __future__ import annotations

import hashlib
import json
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


def request_id(market: MarketId, payload: bytes) -> RequestId:
    h = hashlib.sha256()
    h.update(b"req|")
    h.update(market.encode("utf-8"))
    h.update(b"|")
    h.update(payload)
    return h.hexdigest()


@dataclass(frozen=True)
class Request:
    """A client transaction; the unit being ordered fairly within one market."""

    id: RequestId
    market: MarketId
    payload: bytes

    @property
    def name(self) -> str:
        # Generators use printable payloads; traces render them for humans.
        try:
            return self.payload.decode("utf-8")
        except UnicodeDecodeError:
            return self.id[:12]


def make_request(market: MarketId, payload: bytes) -> Request:
    return Request(id=request_id(market, payload), market=market, payload=payload)


def _canonical_encoder(make_encoder=json.encoder.c_make_encoder):
    """The encoder behind `canonical_json`, built once. `make_encoder` is
    CPython's C encoder factory, or None where the interpreter lacks it."""
    fallback = json.JSONEncoder(sort_keys=True)
    if make_encoder is None:
        return fallback.encode
    # The arguments json.dumps passes for its defaults plus sort_keys=True.
    markers: dict = {}
    encode = make_encoder(markers, fallback.default, json.encoder.encode_basestring_ascii,
                          None, ": ", ", ", True, False, True)

    def canonical(obj) -> str:
        try:
            return "".join(encode(obj, 0))
        except BaseException:
            # A failed encode leaves its open containers in the circular-
            # reference markers, where a later object could reuse their ids.
            markers.clear()
            raise

    return canonical


# `json.dumps(obj, sort_keys=True)` without building an encoder per call: the
# encoding of every trace line, chain line and certificate digest.
canonical_json = _canonical_encoder()


# Attestations are simulation-level stand-ins for signatures. Each party owns a
# derived key; honest and byzantine code paths only ever sign with their own
# identity, so forgery is impossible by construction rather than by hardness.

@lru_cache(maxsize=1024)  # every sign and verify derives one; parties are few
def _party_key(party: PartyId) -> bytes:
    return hashlib.sha256(b"fairlab-party-key|%d" % party).digest()


@dataclass(frozen=True, slots=True)
class Attestation:
    signer: PartyId
    digest: str


def sign(signer: PartyId, content: bytes) -> Attestation:
    return Attestation(signer, hashlib.sha256(_party_key(signer) + content).hexdigest())


def verify(att: Attestation, content: bytes) -> bool:
    return att.digest == hashlib.sha256(_party_key(att.signer) + content).hexdigest()
