"""fairlab: an order-fairness pre-protocol laboratory.

Leader engines that build block proposals under three fairness disciplines,
stand-alone block verifiers, an adversary-controlled deterministic network
simulator, and a post-hoc fairness auditor with a brute-force oracle.
"""

from .core import (
    Attestation,
    MarketId,
    PartyId,
    QuorumConfig,
    Request,
    RequestId,
    Timestamp,
    make_request,
    sign,
    validate_config,
    verify,
)
from .votes import Vote, VoteStore, make_vote
from .fairness import MedianSummary, blocks, max_median, median_timestamp, timed_precedes
from .leaders import (
    CandidateBlock,
    CoinConfig,
    LeaderState,
    Proposal,
    clocked_step,
    coin_stop,
    hybrid_step,
    neverending_step,
    new_leader,
    replay_undelivered,
)
from .validity import BlockCertificate, verify_certificate
from .chain import Chain, on_deliver
from .audit import FairnessReport, audit_trace, oracle_constraints

__version__ = "0.1.0"
