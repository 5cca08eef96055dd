"""fairlab: an order-fairness pre-protocol laboratory.

Leader engines that build block certificates under three fairness disciplines,
stand-alone block verifiers, an adversary-controlled deterministic network
simulator, and a post-hoc fairness auditor.
"""

from .core import (
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
    BlockCertificate,
    LeaderState,
    clocked_step,
    coin_stop,
    hybrid_step,
    neverending_step,
    new_leader,
    replay_undelivered,
)
from .validity import verify_certificate
from .chain import Chain, on_deliver
from .audit import FairnessReport, audit_trace

__version__ = "0.1.0"
