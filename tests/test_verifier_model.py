"""A bounded-exhaustive model of the stand-alone verifier against the
definitions: at n=4, t=1, with three requests a, b and c, all in one market
or c in a second one, every multiset of four party histories (each an
ordered subset of the requests, the empty one uncited) and every ordered
block. `verify_certificate` must accept exactly the certificates
`oracles.block_fair_fault` allows, refuse the others for the reason it
names, and the count of each reason is pinned, so that a scope that shrinks
by accident fails. Parties are symmetric, so a multiset of histories stands
for each of its assignments to parties."""

from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from fairlab.core import make_request, validate_config
from fairlab.leaders import BLOCK_FAIR, BlockCertificate
from fairlab.validity import verify_certificate
from fairlab.votes import make_vote

from conftest import INSTANCE
from oracles import block_fair_fault

CFG = validate_config(4, 1)


def _ordered_subsets(ids, smallest):
    return [order for size in range(smallest, len(ids) + 1)
            for subset in combinations(ids, size) for order in permutations(subset)]


# Blocking never crosses a market: with c in a market of its own, c blocks
# neither a nor b, nor they c, so fewer blocks are refused for omitting a
# blocker.
@pytest.mark.parametrize("markets,expected", [
    (("m", "m", "m"), {"insufficient-votes": 34_491, "omitted-blocked-request": 6_870,
                       None: 16_779}),
    (("m", "m", "x"), {"insufficient-votes": 34_491, "omitted-blocked-request": 2_946,
                       None: 20_703}),
], ids=["one-market", "two-markets"])
def test_block_fair_verifier_matches_the_definitions(markets, expected):
    requests = [make_request(market, name.encode()) for market, name in zip(markets, "abc")]
    table = {r.id: r for r in requests}
    market = {r.id: r.market for r in requests}
    histories = _ordered_subsets(list(table), 0)
    blocks = _ordered_subsets(list(table), 1)
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
                                    votes_by_party=votes_by_party, request_table=table)
            outcome = verify_certificate(CFG, cert)
            fault = block_fair_fault(CFG.n, CFG.t, cited, block, market)
            assert outcome.reason == fault, (cited, block, outcome.reason)
            reasons[outcome.reason] += 1
    assert reasons == expected
