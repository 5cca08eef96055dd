"""A bounded-exhaustive model of the stand-alone verifier against the
definitions: at n=4, t=1, with three requests in one market, every multiset
of four party histories (each an ordered subset of the requests, the empty
one uncited) and every ordered block. `verify_certificate` must accept
exactly the certificates `oracles.block_fair_fault` allows, refuse the others
for the reason it names, and the count of each reason is pinned, so that a
scope that shrinks by accident fails. Parties are symmetric, so a multiset of
histories stands for each of its assignments to parties."""

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

from fairlab.core import make_request, validate_config
from fairlab.leaders import BLOCK_FAIR, BlockCertificate
from fairlab.validity import verify_certificate
from fairlab.votes import make_vote

from conftest import INSTANCE
from oracles import block_fair_fault

CFG = validate_config(4, 1)
REQUESTS = [make_request("m", name.encode()) for name in ("a", "b", "c")]
TABLE = {r.id: r for r in REQUESTS}
MARKET = {r.id: r.market for r in REQUESTS}


def _ordered_subsets(ids, smallest):
    return [order for size in range(smallest, len(ids) + 1)
            for subset in combinations(ids, size) for order in permutations(subset)]


def test_block_fair_verifier_matches_the_definitions():
    histories = _ordered_subsets(list(TABLE), 0)
    blocks = _ordered_subsets(list(TABLE), 1)
    assert (len(histories), len(blocks)) == (16, 15)
    # One signed vote per (party, history, seq), reused by every certificate
    # that cites it.
    votes = {(party, history): tuple(make_vote(party, INSTANCE, 0, seq, None, rid)
                                     for seq, rid in enumerate(history))
             for party in range(CFG.n) for history in histories}
    reasons = Counter()
    for multiset in combinations_with_replacement(histories, CFG.n):
        cited = {party: history for party, history in enumerate(multiset) if history}
        votes_by_party = {party: votes[party, history] for party, history in cited.items()}
        for block in blocks:
            cert = BlockCertificate(instance=INSTANCE, block_number=0, proposer=0,
                                    mode_tag=BLOCK_FAIR, requests=block, pivot=None,
                                    votes_by_party=votes_by_party, request_table=TABLE)
            outcome = verify_certificate(CFG, cert)
            expected = block_fair_fault(CFG.n, CFG.t, cited, block, MARKET)
            assert outcome.reason == expected, (cited, block, outcome.reason)
            reasons[outcome.reason] += 1
    assert reasons == {"insufficient-votes": 34_491, "omitted-blocked-request": 6_870,
                       None: 16_779}
