"""Atomic-broadcast stub.

A trivially-correct sequencer standing in for a real consensus backend: it
totally orders block certificates, enforces external validity through the
block verifiers, tracks the delivered-request set, and flags proposers that
sign two different valid certificates for the same height, compared as
values (for certificates that verify, equal values are equal encodings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import PartyId, QuorumConfig, RequestId, canonical_json
from .leaders import BlockCertificate, LeaderState, replay_undelivered
from .validity import (
    certificate_to_dict,
    verify_certificate,
)

ACCEPTED = "accepted"
REJECTED = "rejected"
EQUIVOCATION = "equivocation-detected"


@dataclass(frozen=True)
class SubmitOutcome:
    status: str
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == ACCEPTED


@dataclass
class Chain:
    cfg: QuorumConfig
    blocks: list[BlockCertificate] = field(default_factory=list)  # block i at index i
    delivered: set[RequestId] = field(default_factory=set)
    # (height, proposer) -> the distinct valid certificates seen, for
    # equivocation detection even after the height is decided.
    _seen: dict[tuple[int, PartyId], list[BlockCertificate]] = field(default_factory=dict)
    equivocators: list[PartyId] = field(default_factory=list)

    @property
    def next_number(self) -> int:
        return len(self.blocks)

    def submit(self, cert: BlockCertificate) -> SubmitOutcome:
        """Order one certificate. A rejection names the first chain rule it
        breaks, or the verifier's own reason for an invalid certificate."""
        fault = verify_certificate(self.cfg, cert).reason
        number = cert.block_number
        # One chain orders one instance's blocks: its first block names it.
        if fault is None and self.blocks and cert.instance != self.blocks[0].instance:
            return SubmitOutcome(REJECTED, "wrong-instance")
        if fault is None:
            prior = self._seen.setdefault((number, cert.proposer), [])
            if cert not in prior:
                prior.append(cert)
                if len(prior) > 1:
                    if cert.proposer not in self.equivocators:
                        self.equivocators.append(cert.proposer)
                    return SubmitOutcome(EQUIVOCATION)
        if number != self.next_number:
            return SubmitOutcome(REJECTED, "wrong-block-number")
        if fault is not None:
            return SubmitOutcome(REJECTED, fault)
        if any(rid in self.delivered for rid in cert.requests):
            return SubmitOutcome(REJECTED, "duplicate-request")
        self.blocks.append(cert)
        self.delivered.update(cert.requests)
        return SubmitOutcome(ACCEPTED)

    def export_lines(self) -> list[str]:
        """One block per line; consumed by the auditor and `verify`."""
        return [
            canonical_json({"number": number, "certificate": certificate_to_dict(cert)})
            for number, cert in enumerate(self.blocks)
        ]


def on_deliver(chain: Chain, leaders: list[LeaderState]) -> list[LeaderState]:
    """Advance every leader into the incarnation for the next block, replaying
    votes whose requests were not delivered. The leaders of one instance share
    the votes signed for the next block, so each distinct carried vote is
    signed once per hand-off."""
    signed: dict[str, dict] = {}  # instance -> replay_undelivered's `signed`
    return [
        replay_undelivered(state, chain.next_number, chain.delivered,
                           signed.setdefault(state.store.instance, {}))
        for state in leaders
    ]
