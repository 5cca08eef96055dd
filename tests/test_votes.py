import dataclasses
from itertools import permutations
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairlab.votes
from fairlab.core import validate_config
from fairlab.leaders import (
    CLOCKED,
    NEVERENDING,
    clocked_step,
    neverending_step,
    new_leader,
    replay_undelivered,
)
from fairlab.simnet import runner
from fairlab.simnet.generators import benign_schedule
from fairlab.simnet.runner import Simulation
from fairlab.validity import certificate_from_dict, certificate_to_dict, verify_certificate
from fairlab.votes import ACCEPTED, BUFFERED, REJECTED, Vote, make_vote, vote_verifies

from conftest import INSTANCE, cast, fill_logs, new_store, req, wrapped_hybrid_scenario
from oracles import count_before

R = {name: req(name) for name in ("r1", "r2", "r3", "r4", "r5")}


def test_gap_fill_buffers_and_cascades(cfg4):
    store = new_store(cfg4)
    out = cast(store, 2, 1, R["r2"])
    assert out.status == BUFFERED
    out = cast(store, 2, 0, R["r1"])
    assert out.status == ACCEPTED
    assert [v.request for v in out.accepted] == [R["r1"].id, R["r2"].id]
    assert [v.seq for v in store.logs[2].accepted] == [0, 1]


def test_timestamp_regression_invalidates_party(cfg4):
    store = new_store(cfg4, timestamped=True)
    assert cast(store, 3, 0, R["r1"], ts=50).status == ACCEPTED
    out = cast(store, 3, 1, R["r2"], ts=40)
    assert out.status == REJECTED and out.reason == "timestamp-order"
    assert store.logs[3].invalid
    # earlier accepted vote stays usable
    assert len(store.votes_for(R["r1"].id)) == 1
    # and nothing from this party is accepted afterwards
    out = cast(store, 3, 1, R["r3"], ts=60)
    assert out.status == REJECTED and out.reason == "party-invalid"


def test_equal_timestamp_counts_as_regression(cfg4):
    store = new_store(cfg4, timestamped=True)
    cast(store, 1, 0, R["r1"], ts=5)
    out = cast(store, 1, 1, R["r2"], ts=5)
    assert out.status == REJECTED and out.reason == "timestamp-order"


def test_fill_that_releases_a_backward_timestamp_stays_accepted(cfg4):
    store = new_store(cfg4, timestamped=True)
    assert cast(store, 2, 1, R["r2"], ts=9).status == BUFFERED
    assert cast(store, 2, 2, R["r3"], ts=8).status == BUFFERED  # runs backwards
    assert cast(store, 2, 3, R["r4"], ts=20).status == BUFFERED
    out = cast(store, 2, 0, R["r1"], ts=7)
    # The fill and the successor before the regression are accepted; the
    # party is excluded and what it still had buffered is dropped.
    assert (out.status, out.reason) == (ACCEPTED, "timestamp-order")
    assert [v.request for v in out.accepted] == [R["r1"].id, R["r2"].id]
    assert store.logs[2].accepted == list(out.accepted)
    assert store.logs[2].invalid and store.logs[2].pending == {}
    assert len(store.votes_for(R["r1"].id)) == 1 and len(store.votes_for(R["r3"].id)) == 0


def test_equivocation_on_same_seq(cfg4):
    store = new_store(cfg4)
    assert cast(store, 1, 0, R["r1"]).status == ACCEPTED
    out = cast(store, 1, 0, R["r2"])
    assert out.status == REJECTED and out.reason == "equivocation"
    assert store.logs[1].invalid
    # identical duplicate is not equivocation
    store2 = new_store(cfg4)
    cast(store2, 1, 0, R["r1"])
    out = cast(store2, 1, 0, R["r1"])
    assert out.status == REJECTED and out.reason == "duplicate"
    assert not store2.logs[1].invalid


def test_wrong_incarnation_rejected(cfg4):
    store = new_store(cfg4, block=1)
    vote = make_vote(0, store.instance, 0, 0, None, R["r1"].id)
    out = store.ingest(vote)
    assert out.status == REJECTED and out.reason == "wrong-block"


def test_count_before_matches_oracle(cfg4):
    store = new_store(cfg4)
    logs = {
        0: [R["r1"], R["r2"]],
        1: [R["r1"], R["r2"]],
        2: [R["r1"]],
        3: [R["r2"], R["r1"]],
    }
    fill_logs(store, logs)
    raw = {p: [r.id for r in rs] for p, rs in logs.items()}
    expected = count_before(raw, R["r1"].id, R["r2"].id)
    assert expected == 3
    assert store.count_before(R["r1"].id, R["r2"].id) == 3
    assert store.count_before(R["r2"].id, R["r1"].id) == 1
    assert new_store(cfg4).count_before(R["r1"].id, R["r2"].id) == 0


def _random_votes(n, rng):
    """(party, seq, name, ts) for a random timestamped store, in random
    ingest order. Parties may vote a request twice, and may be excluded for
    equivocation or for a timestamp that runs backwards; r5 is held by no
    party."""
    names = ("r1", "r2", "r3", "r4")
    votes = []
    for party in range(n):
        script = [rng.choice(names) for _ in range(rng.randint(0, 5))]
        stamps = [10 * (seq + 1) for seq in range(len(script))]
        if script and rng.random() < 0.25:
            stamps[rng.randrange(len(script))] = 0
        votes += [(party, seq, name, ts) for seq, (name, ts) in enumerate(zip(script, stamps))]
        if script and rng.random() < 0.25:
            seq = rng.randrange(len(script))
            other = rng.choice([name for name in names if name != script[seq]])
            votes.append((party, seq, other, stamps[seq]))
    rng.shuffle(votes)
    return votes


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_count_before_matches_oracle_random(n, t, rng):
    votes = _random_votes(n, rng)
    store = new_store(validate_config(n, t), timestamped=True)
    for party, seq, name, ts in votes:
        cast(store, party, seq, R[name], ts=ts)
    valid = {p: [v.request for v in log.accepted]
             for p, log in store.logs.items() if not log.invalid}
    for r, r2 in permutations(R.values(), 2):
        assert store.count_before(r.id, r2.id) == count_before(valid, r.id, r2.id)
    # The quorum maps hold a request exactly when its distinct voters reach
    # t+1 (n-t); an excluded party's votes from before its exclusion count.
    cfg = store.cfg
    for r in R.values():
        voters = sum(any(v.request == r.id for v in log.accepted) for log in store.logs.values())
        assert (r.id in store.weak_at, r.id in store.strong_at) == (
            voters >= cfg.weak_size, voters >= cfg.strong_size)


def _interleaved_votes(n, rng):
    """(party, seq, name, ts) for a random timestamped store, shuffled. Three
    distinct parties misbehave: one votes its first request again, one
    equivocates at a random seq, and one stamps a later vote with 0, below
    its predecessor."""
    names = ("r1", "r2", "r3", "r4")
    double, equivocator, inverter = rng.sample(range(n), 3)
    votes = []
    for party in range(n):
        script = [rng.choice(names) for _ in range(rng.randint(2, 5))]
        if party == double:
            script.append(script[0])
        stamps = [10 * (seq + 1) for seq in range(len(script))]
        if party == inverter:
            stamps[rng.randrange(1, len(script))] = 0
        votes += [(party, seq, name, ts) for seq, (name, ts) in enumerate(zip(script, stamps))]
        if party == equivocator:
            seq = rng.randrange(len(script))
            other = rng.choice([name for name in names if name != script[seq]])
            votes.append((party, seq, other, stamps[seq]))
    rng.shuffle(votes)
    return votes


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False))
def test_count_before_matches_oracle_after_every_ingest(n, t, rng):
    # The store half of the blocking-state differential test: `count_before`
    # is read between ingests, so an exclusion that an ingest triggers must
    # show in the very next count, not only in the final store.
    store = new_store(validate_config(n, t), timestamped=True)
    for party, seq, name, ts in _interleaved_votes(n, rng):
        cast(store, party, seq, R[name], ts=ts)
        valid = {p: [v.request for v in log.accepted]
                 for p, log in store.logs.items() if not log.invalid}
        for r, r2 in permutations(R.values(), 2):
            assert store.count_before(r.id, r2.id) == count_before(valid, r.id, r2.id)


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_acceptance_index_is_the_version(n, t, rng):
    # Random stores with exclusions between acceptances. `version` is the
    # acceptance index: a call that accepts k votes and excludes e parties
    # raises it by k + e, and its acceptances come first, so the i-th takes
    # the version before the call plus i.
    votes = _random_votes(n, rng)
    store = new_store(validate_config(n, t), timestamped=True)
    order = []  # (vote, index) in acceptance order
    for party, seq, name, ts in votes:
        before = store.version
        excluded = sum(log.invalid for log in store.logs.values())
        out = cast(store, party, seq, R[name], ts=ts)
        excluded = sum(log.invalid for log in store.logs.values()) - excluded
        assert store.version == before + len(out.accepted) + excluded
        order += [(v, before + i) for i, v in enumerate(out.accepted)]
    # by_request holds each voter's first accepted vote with its index; read
    # in acceptance order, the indices rise strictly.
    first = {}
    for vote, index in order:
        first.setdefault((vote.request, vote.signer), (vote, index))
    assert first == {(r, p): record for r, slot in store.by_request.items()
                     for p, record in slot.items()}
    indices = [index for _, index in first.values()]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    # weak_at and strong_at hold the index of the vote that completed each quorum.
    cfg = store.cfg
    voters = {}
    weak, strong = {}, {}
    for vote, index in order:
        seen = voters.setdefault(vote.request, set())
        if vote.signer in seen:
            continue
        seen.add(vote.signer)
        if len(seen) == cfg.weak_size:
            weak[vote.request] = index
        if len(seen) == cfg.strong_size:
            strong[vote.request] = index
    assert store.weak_at == weak and store.strong_at == strong
    assert list(store.weak_at) == sorted(weak, key=weak.get)


def test_invalid_party_excluded_from_counts_but_votes_remain(cfg4):
    store = new_store(cfg4)
    cast(store, 0, 0, R["r1"])
    cast(store, 0, 1, R["r2"])
    # equivocation flips party 0 to permanently-invalid
    cast(store, 0, 1, R["r3"])
    assert store.logs[0].invalid
    assert store.count_before(R["r1"].id, R["r2"].id) == 0
    # but the accepted votes are still returned for justification purposes
    assert len(store.votes_for(R["r1"].id)) == 1
    assert len(store.votes_for(R["r2"].id)) == 1


def test_votes_for(cfg4):
    store = new_store(cfg4)
    for party in range(3):
        cast(store, party, 0, R["r1"])
    assert len(store.votes_for(R["r1"].id)) == 3
    assert store.votes_for(R["r2"].id) == []


def test_gap_freedom_invariant(cfg4):
    store = new_store(cfg4)
    cast(store, 0, 2, R["r3"])
    cast(store, 0, 0, R["r1"])
    log = store.logs[0]
    assert [v.seq for v in log.accepted] == [0]
    cast(store, 0, 1, R["r2"])
    assert [v.seq for v in log.accepted] == [0, 1, 2]


def _final_state(store):
    return {
        p: [(v.seq, v.request) for v in log.accepted]
        for p, log in store.logs.items()
    }


def test_ingestion_order_does_not_matter_exhaustive(cfg4):
    votes = [
        (0, 0, "r1"), (0, 1, "r2"),
        (1, 0, "r2"), (1, 1, "r1"), (2, 0, "r3"),
    ]
    reference = None
    for perm in permutations(votes):
        store = new_store(cfg4)
        for party, seq, name in perm:
            cast(store, party, seq, R[name])
        state = _final_state(store)
        if reference is None:
            reference = state
        assert state == reference


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ingestion_order_does_not_matter_random(rng):
    cfg = __import__("fairlab.core", fromlist=["validate_config"]).validate_config(4, 1)
    votes = []
    for party in range(4):
        names = ["r1", "r2", "r3", "r4"]
        rng.shuffle(names)
        for seq, name in enumerate(names[: rng.randint(1, 4)]):
            votes.append((party, seq, name, (seq + 1) * 10))
    reference = None
    for _ in range(4):
        order = list(votes)
        rng.shuffle(order)
        store = new_store(cfg, timestamped=True)
        for party, seq, name, ts in order:
            cast(store, party, seq, R[name], ts=ts)
        state = _final_state(store)
        if reference is None:
            reference = state
        assert state == reference


def test_count_before_monotone_while_active(cfg4):
    store = new_store(cfg4)
    last = 0
    script = [(0, 0, "r1"), (1, 0, "r1"), (1, 1, "r2"), (2, 0, "r1"), (3, 0, "r2")]
    for party, seq, name in script:
        cast(store, party, seq, R[name])
        now = store.count_before(R["r1"].id, R["r2"].id)
        assert now >= last
        last = now


def test_tampered_attestation_rejected(cfg4):
    store = new_store(cfg4)
    vote = make_vote(0, store.instance, store.block, 0, None, R["r1"].id)
    forged = type(vote)(
        instance=vote.instance, block=vote.block, seq=vote.seq, ts=vote.ts,
        request=R["r2"].id, signer=vote.signer,
        attestation=vote.attestation,  # covers r1, not r2
    )
    out = store.ingest(forged)
    assert out.status == REJECTED and out.reason == "bad-attestation"
    relabeled = type(vote)(
        instance=vote.instance, block=vote.block, seq=vote.seq, ts=vote.ts,
        request=vote.request, signer=1, attestation=vote.attestation,
    )
    out = store.ingest(relabeled)
    assert out.status == REJECTED and out.reason == "bad-attestation"


def _count_verify(monkeypatch):
    """Record attestation checks made through the name ingest calls, each by
    the payload it covered: a vote derives its payload object once, so the
    object names the vote checked."""
    calls = []
    real = fairlab.votes.verify

    def counted(signer, attestation, content):
        calls.append(content)
        return real(signer, attestation, content)

    monkeypatch.setattr(fairlab.votes, "verify", counted)
    return calls


def _checked(calls, votes):
    """Whether the checks recorded in `calls` were of `votes`, in order."""
    return len(calls) == len(votes) and all(p is v.payload for p, v in zip(calls, votes))


def test_stale_and_duplicate_copies_are_not_hashed(cfg4, monkeypatch):
    store = new_store(cfg4, block=1)
    accepted = make_vote(0, store.instance, 1, 0, None, R["r1"].id)
    buffered = make_vote(0, store.instance, 1, 2, None, R["r2"].id)
    assert store.ingest(accepted).status == ACCEPTED
    assert store.ingest(buffered).status == BUFFERED
    copies = [
        (make_vote(1, store.instance, 0, 0, None, R["r1"].id), "wrong-block"),
        (make_vote(1, "other-instance", 1, 0, None, R["r1"].id), "wrong-block"),
        (accepted, "duplicate"),
        (buffered, "duplicate"),
    ]
    calls = _count_verify(monkeypatch)
    for vote, reason in copies:
        out = store.ingest(vote)
        assert (out.status, out.reason) == (REJECTED, reason)
    assert calls == []
    assert [v.seq for v in store.logs[0].accepted] == [0] and list(store.logs[0].pending) == [2]


def test_forged_votes_for_the_current_block_are_still_verified(cfg4, monkeypatch):
    store = new_store(cfg4)
    vote = make_vote(0, store.instance, store.block, 0, None, R["r1"].id)
    assert store.ingest(vote).status == ACCEPTED
    forged = "0" * 64
    # A forged copy of the accepted vote is no duplicate, and a forged next
    # vote is no acceptance: both are hashed and turned away.
    copy = dataclasses.replace(vote, attestation=forged)
    following = dataclasses.replace(
        make_vote(0, store.instance, store.block, 1, None, R["r2"].id), attestation=forged)
    stale = dataclasses.replace(
        make_vote(1, store.instance, store.block + 1, 0, None, R["r1"].id),
        attestation=forged)
    calls = _count_verify(monkeypatch)
    for bad in (copy, following):
        out = store.ingest(bad)
        assert (out.status, out.reason) == (REJECTED, "bad-attestation")
    assert len(calls) == 2
    assert not store.logs[0].invalid and len(store.logs[0].accepted) == 1
    # Forged and stale at once: the stale check comes first.
    assert store.ingest(stale).reason == "wrong-block" and len(calls) == 2


# -- the verified memo ---------------------------------------------------------

def test_a_failed_check_is_not_remembered(cfg4, monkeypatch):
    bad = dataclasses.replace(make_vote(0, INSTANCE, 0, 0, None, R["r1"].id),
                              attestation="0" * 64)
    stores = [new_store(cfg4) for _ in range(3)]
    calls = _count_verify(monkeypatch)
    for _ in range(2):
        for store in stores:
            out = store.ingest(bad)
            assert (out.status, out.reason) == (REJECTED, "bad-attestation")
    assert _checked(calls, [bad] * 6)
    assert not bad.verified
    assert not any(store.logs[0].accepted or store.logs[0].pending for store in stores)


def test_a_checked_vote_vouches_for_no_other_object(cfg4, monkeypatch):
    vote = make_vote(0, INSTANCE, 0, 0, None, R["r1"].id)
    assert not vote.verified  # signing does not mark it
    calls = _count_verify(monkeypatch)
    first, second = new_store(cfg4), new_store(cfg4)
    assert first.ingest(vote).status == ACCEPTED and vote.verified
    assert second.ingest(vote).status == ACCEPTED
    assert _checked(calls, [vote])  # one hash for two stores
    # A replaced attestation makes a new object: hashed, refused, not marked.
    forged = dataclasses.replace(vote, attestation="0" * 64)
    assert not forged.verified
    for store in (first, new_store(cfg4)):
        out = store.ingest(forged)
        assert (out.status, out.reason) == (REJECTED, "bad-attestation")
    assert _checked(calls, [vote, forged, forged]) and not forged.verified
    # An unchanged replacement is hashed once too, and passes.
    same = dataclasses.replace(vote)
    assert not same.verified and new_store(cfg4).ingest(same).status == ACCEPTED
    assert _checked(calls, [vote, forged, forged, same])


def test_rebuilt_certificates_are_hashed_vote_by_vote(cfg4, monkeypatch):
    sim = Simulation(benign_schedule(cfg4, requests=3, seed=1))
    sim.run()
    assert sim.chain.blocks
    calls = _count_verify(monkeypatch)
    for cert in sim.chain.blocks:
        cited = [v for votes in cert.votes_by_party.values() for v in votes]
        assert all(v.verified for v in cited)
        rebuilt = certificate_from_dict(certificate_to_dict(cert))
        fresh = [v for votes in rebuilt.votes_by_party.values() for v in votes]
        assert fresh == cited and not any(v.verified for v in fresh)
        # The stand-alone verifier hashes every cited vote, once.
        del calls[:]
        assert verify_certificate(cfg4, rebuilt).ok
        assert _checked(calls, fresh) and all(v.verified for v in fresh)
        # A second verification hashes none of them again.
        assert verify_certificate(cfg4, rebuilt).ok and _checked(calls, fresh)


def test_the_mark_is_not_part_of_a_votes_value():
    vote = make_vote(2, INSTANCE, 0, 1, 9, R["r1"].id)
    twin = dataclasses.replace(vote)
    assert vote_verifies(vote) and vote.verified and not twin.verified
    assert vote == twin and hash(vote) == hash(twin) and repr(vote) == repr(twin)
    assert "verified" not in repr(vote)
    with pytest.raises(TypeError):
        Vote(INSTANCE, 0, 1, 9, R["r1"].id, vote.signer, vote.attestation, verified=True)


# -- the request table ---------------------------------------------------------

@pytest.mark.parametrize("mode, step", [(NEVERENDING, neverending_step), (CLOCKED, clocked_step)])
def test_a_store_only_reads_its_request_table(cfg4, mode, step):
    # Over a read-only table, an engine's store takes votes, ships a block,
    # replays the undelivered request into the next incarnation and ships
    # it too, and the verifier's store checks both certificates.
    table = MappingProxyType({R["r1"].id: R["r1"], R["r2"].id: R["r2"]})
    state = new_leader(cfg4, mode, INSTANCE, 0, table)
    for party in range(4):
        for seq, name in enumerate(("r1", "r2")):
            ts = 10 * (seq + 1) if mode == CLOCKED else None
            vote = make_vote(party, INSTANCE, 0, seq, ts, R[name].id)
            assert state.store.ingest(vote).status == ACCEPTED
    delivered = set()
    for number in (0, 1):
        cert = step(state)
        assert cert is not None and cert.requests == (R[f"r{number + 1}"].id,)
        read_only = dataclasses.replace(cert, request_table=MappingProxyType(cert.request_table))
        assert verify_certificate(cfg4, read_only).ok
        delivered.update(cert.requests)
        state = replay_undelivered(state, number + 1, delivered)
        assert state.store.requests is table
    assert not state.store.by_request


def test_every_leader_store_reads_the_runs_request_table(monkeypatch):
    sim = Simulation(wrapped_hybrid_scenario())
    stores = [state.store for state in sim.engines.values()]
    real = runner.on_deliver

    def recording(chain, states):
        fresh = real(chain, states)
        stores.extend(state.store for state in fresh)
        return fresh

    monkeypatch.setattr(runner, "on_deliver", recording)
    sim.run()
    assert len(stores) == len(sim.engines) * (len(sim.chain.blocks) + 1)
    assert all(store.requests is sim.by_id for store in stores)
