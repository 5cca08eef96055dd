import dataclasses

import pytest

from fairlab.core import Attestation
from fairlab.leaders import CLOCKED, NEVERENDING, clocked_step, neverending_step, new_leader
from fairlab.validity import (
    BlockCertificate,
    certificate_from_dict,
    certificate_to_dict,
    verify_certificate,
)
from fairlab.votes import VoteStore, make_vote

import certutil
from conftest import INSTANCE, req

M = {name: req(name) for name in ("m1", "m2", "m3", "m4")}
RA, RB = req("ra"), req("rb")


def _ingest(state, party, seq, request, ts=None):
    vote = make_vote(party, state.instance, state.block_number, seq, ts, request.id)
    return state.store.ingest(vote, request)


def cycle_cert(cfg):
    state = new_leader(cfg, NEVERENDING, instance=INSTANCE)
    names = ["m1", "m2", "m3", "m4"]
    for party in range(4):
        for seq in range(4):
            _ingest(state, party, seq, M[names[(party + seq) % 4]])
    proposal = neverending_step(state)
    assert proposal is not None
    return BlockCertificate(proposal, proposer=0)


def clocked_cert(cfg):
    state = new_leader(cfg, CLOCKED, instance=INSTANCE)
    _ingest(state, 0, 0, RB, ts=5)
    _ingest(state, 0, 1, RA, ts=10)
    _ingest(state, 1, 0, RB, ts=12)
    _ingest(state, 1, 1, RA, ts=20)
    _ingest(state, 2, 0, RA, ts=30)
    _ingest(state, 3, 0, RB, ts=25)
    proposal = clocked_step(state)
    assert proposal is not None
    return BlockCertificate(proposal, proposer=0)


def test_honest_block_fair_certificate_verifies(cfg4):
    assert verify_certificate(cfg4, cycle_cert(cfg4)).ok


def test_insufficient_votes_detected(cfg4):
    cert = cycle_cert(cfg4)
    member = cert.proposal.requests[0]
    mutated = certutil.reduce_member_votes(cert, member, cfg4.n - cfg4.t - 1)
    out = verify_certificate(cfg4, mutated)
    assert not out.ok and out.reason == "insufficient-votes"


def test_omitted_blocking_request_detected(cfg4):
    cert = cycle_cert(cfg4)
    mutated = certutil.omit_member(cert, cert.proposal.requests[1])
    out = verify_certificate(cfg4, mutated)
    assert not out.ok and out.reason == "omitted-blocked-request"


def test_empty_block_detected(cfg4):
    out = verify_certificate(cfg4, certutil.empty_requests(cycle_cert(cfg4)))
    assert not out.ok and out.reason == "empty-block"


def test_missing_history_detected(cfg4):
    cert = certutil.drop_history_entry(cycle_cert(cfg4))
    out = verify_certificate(cfg4, cert)
    assert not out.ok and out.reason == "missing-history"


def test_tampered_vote_detected(cfg4):
    cert = cycle_cert(cfg4)
    votes_by_party = dict(cert.proposal.votes_by_party)
    party = sorted(votes_by_party)[0]
    votes = list(votes_by_party[party])
    # alter the claimed request without re-signing
    victim = votes[0]
    votes[0] = type(victim)(
        instance=victim.instance, block=victim.block, seq=victim.seq,
        ts=victim.ts, request=M["m4"].id, att=victim.att,
    )
    votes_by_party[party] = tuple(votes)
    mutated = certutil._rebuild(cert, votes_by_party=votes_by_party)
    out = verify_certificate(cfg4, mutated)
    assert not out.ok and out.reason == "bad-attestation"


def test_tampered_request_table_detected(cfg4):
    import dataclasses
    cert = cycle_cert(cfg4)
    table = dict(cert.proposal.request_table)
    rid = cert.proposal.requests[0]
    table[rid] = dataclasses.replace(table[rid], market="other")
    prop = dataclasses.replace(cert.proposal, request_table=table)
    out = verify_certificate(cfg4, BlockCertificate(prop, cert.proposer))
    assert not out.ok and out.reason == "bad-attestation"


def test_honest_clocked_certificate_verifies(cfg4):
    cert = clocked_cert(cfg4)
    assert verify_certificate(cfg4, cert).ok
    assert verify_certificate(cfg4, cert).ok


def test_timestamp_inversion_detected(cfg4):
    cert = clocked_cert(cfg4)
    mutated, party, idx = certutil.invert_timestamps(cert)
    expected = certutil.expected_inversion_reason(mutated, cfg4, party, idx)
    out = verify_certificate(cfg4, mutated)
    assert not out.ok and out.reason == expected


def test_timed_omission_detected(cfg4):
    cert = clocked_cert(cfg4)
    admitted = [r for r in cert.proposal.requests if r != cert.proposal.pivot.request]
    assert admitted
    out = verify_certificate(cfg4, certutil.omit_member(cert, admitted[0]))
    assert not out.ok and out.reason == "omitted-blocked-request"


def test_timed_in_block_order_enforced(cfg4):
    import dataclasses
    cert = clocked_cert(cfg4)
    assert len(cert.proposal.requests) >= 2
    shuffled = tuple(reversed(cert.proposal.requests))
    prop = dataclasses.replace(cert.proposal, requests=shuffled)
    out = verify_certificate(cfg4, BlockCertificate(prop, cert.proposer))
    assert not out.ok and out.reason == "timestamp-order"


def test_serialization_round_trip(cfg4):
    for cert in (cycle_cert(cfg4), clocked_cert(cfg4)):
        data = certificate_to_dict(cert)
        back = certificate_from_dict(data)
        assert back == cert
        assert back.digest() == cert.digest()
        assert verify_certificate(cfg4, back).ok


def test_verifier_uses_only_certificate_and_config(cfg4):
    # verification after a serialization round trip equals direct verification,
    # so no leader-side state can be involved
    cert = clocked_cert(cfg4)
    direct = verify_certificate(cfg4, cert)
    rehydrated = verify_certificate(cfg4, certificate_from_dict(certificate_to_dict(cert)))
    assert direct == rehydrated


def _double_voter_cert(timestamped):
    """Parties 0 and 1 each vote the only member twice, at seq 0 and seq 1:
    four votes from two voters, short of the n-t=3 quorum."""
    from fairlab.fairness import MedianSummary
    from fairlab.leaders import BLOCK_FAIR, TIMED_FAIR, Proposal

    member = M["m1"]
    votes_by_party = {
        party: tuple(
            make_vote(party, INSTANCE, 0, seq, seq + 1 if timestamped else None, member.id)
            for seq in (0, 1)
        )
        for party in (0, 1)
    }
    pivot = MedianSummary(member.id, (1, 1, 2), 1) if timestamped else None
    prop = Proposal(
        instance=INSTANCE, block_number=0,
        mode_tag=TIMED_FAIR if timestamped else BLOCK_FAIR,
        requests=(member.id,), pivot=pivot,
        votes_by_party=votes_by_party, request_table={member.id: member},
    )
    return BlockCertificate(prop, proposer=0)


def test_quorum_counts_voters_not_votes(cfg4):
    plain = verify_certificate(cfg4, _double_voter_cert(timestamped=False))
    assert not plain.ok and plain.reason == "insufficient-votes"
    timed = verify_certificate(cfg4, _double_voter_cert(timestamped=True))
    assert not timed.ok and timed.reason == "insufficient-votes"


# -- one row per certificate fault -------------------------------------------

def _resigned(vote, **fields):
    """`vote` with some signed fields changed, signed again by its voter."""
    v = dataclasses.replace(vote, **fields)
    return make_vote(v.party, v.instance, v.block, v.seq, v.ts, v.request)


def _with_votes(party, edit):
    """A mutation that replaces `party`'s cited history with `edit(history)`."""
    def mutate(prop):
        votes = dict(prop.votes_by_party)
        votes[party] = tuple(edit(list(votes.get(party, ()))))
        return dataclasses.replace(prop, votes_by_party=votes)
    return mutate


def _with_table(edit):
    def mutate(prop):
        table = dict(prop.request_table)
        edit(table, prop)
        return dataclasses.replace(prop, request_table=table)
    return mutate


def _zero_attestation(vote):
    return dataclasses.replace(vote, att=Attestation(vote.party, "0" * 64))


FAULTS = [
    ("signer-not-key", cycle_cert, _with_votes(1, lambda vs: [
        make_vote(0, v.instance, v.block, v.seq, v.ts, v.request) for v in vs]),
     "bad-attestation"),
    ("outsider-with-votes", cycle_cert,
     _with_votes(9, lambda vs: [make_vote(9, INSTANCE, 0, 0, None, M["m1"].id)]),
     "bad-attestation"),
    ("outsider-empty-history", cycle_cert, _with_votes(9, lambda vs: []), "bad-attestation"),
    ("other-block", cycle_cert,
     _with_votes(2, lambda vs: [_resigned(vs[0], block=vs[0].block + 1)] + vs[1:]),
     "bad-attestation"),
    ("other-instance", cycle_cert,
     _with_votes(2, lambda vs: vs[:1] + [_resigned(vs[1], instance="other")] + vs[2:]),
     "bad-attestation"),
    ("zeroed-attestation", cycle_cert,
     _with_votes(3, lambda vs: vs[:2] + [_zero_attestation(vs[2])] + vs[3:]), "bad-attestation"),
    ("no-timestamp", clocked_cert, _with_votes(0, lambda vs: vs[:1] + [_resigned(vs[1], ts=None)]),
     "missing-history"),
    ("vote-cited-twice", cycle_cert, _with_votes(0, lambda vs: vs + vs[:1]), "missing-history"),
    ("two-votes-one-seq", cycle_cert,
     _with_votes(0, lambda vs: vs + [_resigned(vs[0], request=vs[1].request)]),
     "missing-history"),
    ("skipped-seq", cycle_cert, _with_votes(1, lambda vs: vs[:1] + vs[2:]), "missing-history"),
    ("no-seq-zero", cycle_cert, _with_votes(1, lambda vs: vs[1:]), "missing-history"),
    ("request-not-in-table", cycle_cert,
     _with_table(lambda table, prop: table.pop(prop.requests[-1])), "missing-history"),
    ("table-id-not-digest", cycle_cert,
     _with_table(lambda table, prop: table.update({"0" * 64: M["m1"]})), "bad-attestation"),
    ("duplicate-request", cycle_cert,
     lambda prop: dataclasses.replace(prop, requests=prop.requests + prop.requests[:1]),
     "duplicate-request"),
]


@pytest.mark.parametrize("base,mutate,reason", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_certificate_fault_reasons(cfg4, base, mutate, reason):
    cert = base(cfg4)
    assert verify_certificate(cfg4, cert).ok
    out = verify_certificate(cfg4, BlockCertificate(mutate(cert.proposal), cert.proposer))
    assert (out.ok, out.reason) == (False, reason)


def test_verification_ingests_each_cited_vote_once(cfg4, monkeypatch):
    certs = [cycle_cert(cfg4), clocked_cert(cfg4)]
    ingested = []
    original = VoteStore.ingest

    def counting(self, vote, req=None):
        ingested.append(vote)
        return original(self, vote, req)

    monkeypatch.setattr(VoteStore, "ingest", counting)
    for cert in certs:
        ingested.clear()
        assert verify_certificate(cfg4, cert).ok
        cited = [v for votes in cert.proposal.votes_by_party.values() for v in votes]
        assert ingested == cited
