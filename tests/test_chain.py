import dataclasses

from fairlab.chain import ACCEPTED, EQUIVOCATION, REJECTED, Chain, on_deliver
from fairlab.leaders import NEVERENDING, neverending_step, new_leader
from fairlab.validity import certificate_from_dict, certificate_to_dict

import certutil
from conftest import cast, engine, req

RA, RB = req("ra"), req("rb")


def _single_request_state(cfg, request, proposer=0):
    state = engine(cfg, NEVERENDING, proposer)
    for party in range(cfg.n):
        cast(state.store, party, 0, request)
    return state


def test_single_honest_leader_accepted(cfg4):
    state = _single_request_state(cfg4, RA)
    cert = neverending_step(state)
    chain = Chain(cfg4)
    out = chain.submit(cert)
    assert out.status == ACCEPTED
    assert chain.delivered == {RA.id}
    assert chain.next_number == 1


def test_first_valid_certificate_wins(cfg4):
    # two leaders derive different valid blocks for height 0 from different
    # vote arrival orders; the arbitration order decides, the loser retries
    # against a decided height
    a = _single_request_state(cfg4, RA, proposer=0)
    b = _single_request_state(cfg4, RB, proposer=1)
    cert_a, cert_b = neverending_step(a), neverending_step(b)
    chain = Chain(cfg4)
    assert chain.submit(cert_a).status == ACCEPTED
    retry = chain.submit(cert_b)
    assert retry.status == REJECTED and retry.reason == "wrong-block-number"


def test_proposer_equivocation_detected(cfg4):
    a = _single_request_state(cfg4, RA)
    b = _single_request_state(cfg4, RB)
    cert_a, cert_b = neverending_step(a), neverending_step(b)
    chain = Chain(cfg4)
    assert chain.submit(cert_a).status == ACCEPTED
    out = chain.submit(cert_b)
    assert out.status == EQUIVOCATION
    assert chain.equivocators == [0]
    # resubmitting the identical accepted certificate is not equivocation
    out = chain.submit(cert_a)
    assert out.status == REJECTED and out.reason == "wrong-block-number"


def test_equal_certificate_is_no_equivocation(cfg4):
    # A rebuilt copy of the accepted certificate is a different object with
    # the same value: the chain compares certificates as values, so it is a
    # stale resubmission, not a second certificate for the height.
    cert = neverending_step(_single_request_state(cfg4, RA))
    chain = Chain(cfg4)
    assert chain.submit(cert).ok
    copy = certificate_from_dict(certificate_to_dict(cert))
    assert copy is not cert
    out = chain.submit(copy)
    assert out.status == REJECTED and out.reason == "wrong-block-number"
    assert chain.equivocators == []


def test_invalid_certificate_rejected(cfg4):
    state = _single_request_state(cfg4, RA)
    cert = neverending_step(state)
    bad = dataclasses.replace(cert, requests=())
    chain = Chain(cfg4)
    out = chain.submit(bad)
    # The chain reports the verifier's own reason.
    assert out.status == REJECTED and out.reason == "empty-block"


def test_other_instance_rejected(cfg4):
    # A valid certificate of another instance, at the next height and from
    # another proposer: only its instance breaks a rule.
    chain = Chain(cfg4)
    assert chain.submit(neverending_step(_single_request_state(cfg4, RA))).ok
    other = new_leader(cfg4, NEVERENDING, "other-instance", 1, {}, block_number=1)
    for party in range(cfg4.n):
        cast(other.store, party, 0, RB)
    cert = neverending_step(other)
    out = chain.submit(cert)
    assert out.status == REJECTED and out.reason == "wrong-instance"
    assert chain.next_number == 1 and chain.equivocators == []
    # A certificate that fails verification keeps the verifier's reason.
    out = chain.submit(dataclasses.replace(cert, requests=()))
    assert out.status == REJECTED and out.reason == "empty-block"


def test_duplicate_request_rejected(cfg4):
    state = _single_request_state(cfg4, RA)
    cert = neverending_step(state)
    chain = Chain(cfg4)
    assert chain.submit(cert).ok
    # a later block that re-ships ra must be refused
    again = _rebless(cert, 1)
    out = chain.submit(again)
    assert out.status == REJECTED and out.reason == "duplicate-request"


def _rebless(cert, block):
    # re-sign the cited votes for the new height so only the duplication fails
    votes_by_party = {p: tuple(certutil.resign(v, block=block) for v in votes)
                      for p, votes in cert.votes_by_party.items()}
    return dataclasses.replace(cert, block_number=block, votes_by_party=votes_by_party)


def test_on_deliver_replays_undelivered(cfg4):
    state = engine(cfg4, NEVERENDING)
    for party in range(4):
        cast(state.store, party, 0, RA)
        cast(state.store, party, 1, RB)
    cert = neverending_step(state)
    chain = Chain(cfg4)
    # the neverending closure ships both; craft a chain where only ra landed
    if set(cert.requests) == {RA.id, RB.id}:
        solo = _single_request_state(cfg4, RA)
        cert = neverending_step(solo)
    assert chain.submit(cert).ok
    (replayed,) = on_deliver(chain, [state])
    assert replayed.store.block == 1
    assert list(replayed.store.by_request) == [RB.id]
    assert all(v.seq == 0 for log in replayed.store.logs.values() for v in log.accepted)


def test_consecutive_deliveries_equal_union_replay(cfg4):
    state = engine(cfg4, NEVERENDING)
    requests = [req(f"x{i}") for i in range(4)]
    for party in range(4):
        for seq, r in enumerate(requests):
            cast(state.store, party, seq, r)
    from fairlab.leaders import replay_undelivered
    one = replay_undelivered(
        replay_undelivered(state, 1, {requests[0].id}), 2,
        {requests[0].id, requests[2].id},
    )
    direct = replay_undelivered(state, 2, {requests[0].id, requests[2].id})
    assert {
        p: [(v.seq, v.request) for v in log.accepted]
        for p, log in one.store.logs.items()
    } == {
        p: [(v.seq, v.request) for v in log.accepted]
        for p, log in direct.store.logs.items()
    }


def test_chain_invariants(cfg4):
    chain = Chain(cfg4)
    a = _single_request_state(cfg4, RA)
    assert chain.submit(neverending_step(a)).ok
    b = engine(cfg4, NEVERENDING, 1, block_number=1)
    b.store.block = 1
    for party in range(4):
        cast(b.store, party, 0, RB)
    assert chain.submit(neverending_step(b)).ok
    numbers = [cert.block_number for cert in chain.blocks]
    assert numbers == [0, 1]
    seen = set()
    for cert in chain.blocks:
        overlap = seen & set(cert.requests)
        assert not overlap
        seen.update(cert.requests)


def test_external_validity_under_adversarial_submissions(cfg4):
    # the chain never stores a certificate the verifiers reject
    from fairlab.validity import verify_certificate

    state = engine(cfg4, NEVERENDING)
    names = ("ra", "rb")
    for party in range(4):
        for seq, name in enumerate(names):
            cast(state.store, party, seq, req(name))
    honest = neverending_step(state)
    chain = Chain(cfg4)
    hostile = [
        certutil.empty_requests(honest),
        certutil.drop_history_entry(honest),
        certutil.reduce_member_votes(honest, honest.requests[0], 2),
        certutil.omit_member(honest, honest.requests[-1]),
    ]
    for cert in hostile:
        out = chain.submit(cert)
        reason = verify_certificate(cfg4, cert).reason
        assert reason is not None
        assert out.status == REJECTED and out.reason == reason
        assert chain.blocks == []
    assert chain.submit(honest).ok
    for cert in chain.blocks:
        assert verify_certificate(cfg4, cert).ok
