import ast
import dataclasses
from pathlib import Path

import pytest

from fairlab.leaders import CLOCKED, NEVERENDING, clocked_step, neverending_step
from fairlab.validity import certificate_from_dict, certificate_to_dict, verify_certificate
from fairlab.votes import MedianSummary, VoteStore, make_vote

import certutil
from conftest import INSTANCE, cast, engine, req

M = {name: req(name) for name in ("m1", "m2", "m3", "m4")}
RA, RB = req("ra"), req("rb")
SA, SB, SC = req("sa"), req("sb"), req("sc")


def cycle_cert(cfg):
    state = engine(cfg, NEVERENDING)
    names = ["m1", "m2", "m3", "m4"]
    for party in range(4):
        for seq in range(4):
            cast(state.store, party, seq, M[names[(party + seq) % 4]])
    cert = neverending_step(state)
    assert cert is not None
    return cert


def clocked_cert(cfg):
    state = engine(cfg, CLOCKED)
    cast(state.store, 0, 0, RB, ts=5)
    cast(state.store, 0, 1, RA, ts=10)
    cast(state.store, 1, 0, RB, ts=12)
    cast(state.store, 1, 1, RA, ts=20)
    cast(state.store, 2, 0, RA, ts=30)
    cast(state.store, 3, 0, RB, ts=25)
    cert = clocked_step(state)
    assert cert is not None
    return cert


def stamped_cert(cfg):
    """Every party stamps a, b and c at 1, 5 and 9: the clocked engine ships
    [a], and b, stamped before c by everyone, stays out with it."""
    state = engine(cfg, CLOCKED)
    for party in range(cfg.n):
        for seq, (request, ts) in enumerate(((SA, 1), (SB, 5), (SC, 9))):
            cast(state.store, party, seq, request, ts=ts)
    cert = clocked_step(state)
    assert cert is not None and cert.requests == (SA.id,)
    return cert


def test_honest_block_fair_certificate_verifies(cfg4):
    assert verify_certificate(cfg4, cycle_cert(cfg4)).ok


def test_insufficient_votes_detected(cfg4):
    cert = cycle_cert(cfg4)
    member = cert.requests[0]
    mutated = certutil.reduce_member_votes(cert, member, cfg4.n - cfg4.t - 1)
    out = verify_certificate(cfg4, mutated)
    assert not out.ok and out.reason == "insufficient-votes"


def test_omitted_blocking_request_detected(cfg4):
    cert = cycle_cert(cfg4)
    mutated = certutil.omit_member(cert, cert.requests[1])
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
    votes_by_party = dict(cert.votes_by_party)
    party = sorted(votes_by_party)[0]
    votes = list(votes_by_party[party])
    # alter the claimed request without re-signing
    victim = votes[0]
    votes[0] = type(victim)(
        instance=victim.instance, block=victim.block, seq=victim.seq,
        ts=victim.ts, request=M["m4"].id, signer=victim.signer,
        attestation=victim.attestation,
    )
    votes_by_party[party] = tuple(votes)
    mutated = certutil._rebuild(cert, votes_by_party=votes_by_party)
    out = verify_certificate(cfg4, mutated)
    assert not out.ok and out.reason == "bad-attestation"


def test_tampered_request_table_detected(cfg4):
    import dataclasses
    cert = cycle_cert(cfg4)
    table = dict(cert.request_table)
    rid = cert.requests[0]
    table[rid] = dataclasses.replace(table[rid], market="other")
    out = verify_certificate(cfg4, dataclasses.replace(cert, request_table=table))
    assert not out.ok and out.reason == "bad-attestation"


def test_request_table_cannot_move_a_request_across_the_market_separator(cfg4):
    # request_id hashes b"req|" + market + b"|" + payload, so market "m" with
    # payload "x|y" and market "m|x" with payload "y" share one id. Every
    # party votes r2 before r1, so r2 blocks r1 and a block of r1 alone omits
    # it; relabeled into a market of its own, r2 used to block nothing and
    # the block verified.
    r1, r2 = req("r1"), req("x|y")
    state = engine(cfg4, NEVERENDING)
    for party in range(cfg4.n):
        cast(state.store, party, 0, r2)
        cast(state.store, party, 1, r1)
    cert = dataclasses.replace(neverending_step(state), requests=(r1.id,))
    assert verify_certificate(cfg4, cert).reason == "omitted-blocked-request"
    moved = req("y", market="m|x")
    assert moved.id == r2.id
    relabeled = {**cert.request_table, r2.id: moved}
    out = verify_certificate(cfg4, dataclasses.replace(cert, request_table=relabeled))
    assert (out.ok, out.reason) == (False, "bad-attestation")


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
    admitted = [r for r in cert.requests if r != cert.pivot.request]
    assert admitted
    out = verify_certificate(cfg4, certutil.omit_member(cert, admitted[0]))
    assert not out.ok and out.reason == "omitted-blocked-request"


def test_timed_in_block_order_enforced(cfg4):
    import dataclasses
    cert = clocked_cert(cfg4)
    assert len(cert.requests) >= 2
    shuffled = tuple(reversed(cert.requests))
    out = verify_certificate(cfg4, dataclasses.replace(cert, requests=shuffled))
    assert not out.ok and out.reason == "timestamp-order"


def test_serialization_round_trip(cfg4):
    for cert in (cycle_cert(cfg4), clocked_cert(cfg4)):
        data = certificate_to_dict(cert)
        back = certificate_from_dict(data)
        assert back == cert
        assert certificate_to_dict(back) == data
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
    from fairlab.leaders import BLOCK_FAIR, TIMED_FAIR, BlockCertificate

    member = M["m1"]
    votes_by_party = {
        party: tuple(
            make_vote(party, INSTANCE, 0, seq, seq + 1 if timestamped else None, member.id)
            for seq in (0, 1)
        )
        for party in (0, 1)
    }
    pivot = MedianSummary(member.id, (1, 1, 2), 1) if timestamped else None
    return BlockCertificate(
        instance=INSTANCE, block_number=0, proposer=0,
        mode_tag=TIMED_FAIR if timestamped else BLOCK_FAIR,
        requests=(member.id,), pivot=pivot,
        votes_by_party=votes_by_party, request_table={member.id: member},
    )


def test_quorum_counts_voters_not_votes(cfg4):
    plain = verify_certificate(cfg4, _double_voter_cert(timestamped=False))
    assert not plain.ok and plain.reason == "insufficient-votes"
    timed = verify_certificate(cfg4, _double_voter_cert(timestamped=True))
    assert not timed.ok and timed.reason == "insufficient-votes"


# -- one row per certificate fault -------------------------------------------

def _with_votes(party, edit):
    """A mutation that replaces `party`'s cited history with `edit(history)`."""
    def mutate(cert):
        votes = dict(cert.votes_by_party)
        votes[party] = tuple(edit(list(votes.get(party, ()))))
        return dataclasses.replace(cert, votes_by_party=votes)
    return mutate


def _with_table(edit):
    def mutate(cert):
        table = dict(cert.request_table)
        edit(table, cert)
        return dataclasses.replace(cert, request_table=table)
    return mutate


def _zero_attestation(vote):
    return dataclasses.replace(vote, attestation="0" * 64)


FAULTS = [
    ("proposer-not-party", cycle_cert, lambda cert: dataclasses.replace(cert, proposer=4),
     "unknown-proposer"),
    ("signer-not-key", cycle_cert,
     _with_votes(1, lambda vs: [certutil.resign(v, signer=0) for v in vs]), "bad-attestation"),
    ("outsider-with-votes", cycle_cert,
     _with_votes(9, lambda vs: [make_vote(9, INSTANCE, 0, 0, None, M["m1"].id)]),
     "bad-attestation"),
    ("outsider-empty-history", cycle_cert, _with_votes(9, lambda vs: []), "bad-attestation"),
    ("other-block", cycle_cert,
     _with_votes(2, lambda vs: [certutil.resign(vs[0], block=vs[0].block + 1)] + vs[1:]),
     "bad-attestation"),
    ("other-instance", cycle_cert,
     _with_votes(2, lambda vs: vs[:1] + [certutil.resign(vs[1], instance="other")] + vs[2:]),
     "bad-attestation"),
    ("zeroed-attestation", cycle_cert,
     _with_votes(3, lambda vs: vs[:2] + [_zero_attestation(vs[2])] + vs[3:]), "bad-attestation"),
    ("no-timestamp", clocked_cert,
     _with_votes(0, lambda vs: vs[:1] + [certutil.resign(vs[1], ts=None)]), "missing-history"),
    ("vote-cited-twice", cycle_cert, _with_votes(0, lambda vs: vs + vs[:1]), "missing-history"),
    ("two-votes-one-seq", cycle_cert,
     _with_votes(0, lambda vs: vs + [certutil.resign(vs[0], request=vs[1].request)]),
     "missing-history"),
    ("skipped-seq", cycle_cert, _with_votes(1, lambda vs: vs[:1] + vs[2:]), "missing-history"),
    ("no-seq-zero", cycle_cert, _with_votes(1, lambda vs: vs[1:]), "missing-history"),
    ("request-not-in-table", cycle_cert,
     _with_table(lambda table, cert: table.pop(cert.requests[-1])), "missing-history"),
    ("table-id-not-digest", cycle_cert,
     _with_table(lambda table, cert: table.update({"0" * 64: M["m1"]})), "bad-attestation"),
    ("duplicate-request", cycle_cert,
     lambda cert: dataclasses.replace(cert, requests=cert.requests + cert.requests[:1]),
     "duplicate-request"),
    ("padded-member", stamped_cert,
     lambda cert: dataclasses.replace(cert, requests=(SA.id, SC.id)), "member-after-pivot"),
    ("pivot-on-block-fair", cycle_cert,
     lambda cert: dataclasses.replace(cert, pivot=MedianSummary(cert.requests[0], (1, 1, 1), 1)),
     "invalid-pivot"),
]


@pytest.mark.parametrize("base,mutate,reason", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_certificate_fault_reasons(cfg4, base, mutate, reason):
    cert = base(cfg4)
    assert verify_certificate(cfg4, cert).ok
    out = verify_certificate(cfg4, mutate(cert))
    assert (out.ok, out.reason) == (False, reason)


def test_verification_ingests_each_cited_vote_once(cfg4, monkeypatch):
    certs = [cycle_cert(cfg4), clocked_cert(cfg4)]
    ingested = []
    original = VoteStore.ingest

    def counting(self, vote):
        ingested.append(vote)
        return original(self, vote)

    monkeypatch.setattr(VoteStore, "ingest", counting)
    for cert in certs:
        ingested.clear()
        assert verify_certificate(cfg4, cert).ok
        cited = [v for votes in cert.votes_by_party.values() for v in votes]
        assert ingested == cited


def test_verifier_has_no_copy_of_the_emission_rules():
    # The verifier applies leaders.omits_blocker and leaders.timed_members,
    # the engines' own rules; a direct use of the predicates under them
    # would be a second copy that can drift from the engines.
    path = Path(__file__).resolve().parents[1] / "src" / "fairlab" / "validity.py"
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update((node.name, node.asname))
    assert not used & {"blocks", "timed_precedes"}
