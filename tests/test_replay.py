"""The incarnation hand-off against the way it was first written.

`replay_undelivered` admits its carried votes through `VoteStore.accept`,
and the leaders of one hand-off share the votes it signs. The reference
below signs each carried vote again and ingests it into a fresh store, as
replay once did; at every hand-off of many runs, each leader's fresh store
must equal the reference field by field, with or without the shared votes."""

import dataclasses

from fairlab.core import validate_config
from fairlab.leaders import MODES, replay_undelivered
from fairlab.simnet import runner
from fairlab.simnet.generators import benign_schedule, fuzz_scenario
from fairlab.simnet.runner import Simulation
from fairlab.votes import ACCEPTED, VoteStore, make_vote

from conftest import wrapped_hybrid_scenario


def replay_by_ingest(store, next_block, delivered):
    """The fresh store replay built by re-signing then ingesting each carried
    vote: party by party, seqs dense from 0, the carried exclusion last."""
    fresh = VoteStore(store.cfg, store.timestamped, store.instance, next_block, store.requests)
    for party, log in store.logs.items():
        seq = 0
        for v in log.accepted:
            if v.request in delivered:
                continue
            vote = make_vote(party, store.instance, next_block, seq, v.ts, v.request)
            assert fresh.ingest(vote) == (ACCEPTED, None, [vote])
            seq += 1
        if log.invalid:
            fresh.mark_invalid(party)
    return fresh


def store_fields(store):
    """Every field of a store, each map as its items in order."""
    return (
        store.cfg, store.timestamped, store.instance, store.block, id(store.requests),
        {p: (log.accepted, log.pending, log.invalid) for p, log in store.logs.items()},
        [(rid, list(slot.items())) for rid, slot in store.by_request.items()],
        list(store.weak_at.items()), list(store.strong_at.items()), store.version,
    )


def _scenarios():
    for n, t in ((4, 1), (7, 2)):
        for mode in MODES:
            for seed in range(40):
                yield fuzz_scenario(seed, n=n, t=t, mode=mode)
    yield wrapped_hybrid_scenario()
    yield dataclasses.replace(
        benign_schedule(validate_config(10, 3), requests=12, seed=0), mode="clocked")


def test_hand_off_equals_replay_by_ingest(monkeypatch):
    real = runner.on_deliver
    seen = {"hand-offs": 0, "invalid": 0, "stamped": 0, "shared": 0}

    def checked(chain, states):
        delivered, next_block = set(chain.delivered), chain.next_number
        expected = [store_fields(replay_by_ingest(s.store, next_block, delivered))
                    for s in states]
        unshared = [replay_undelivered(s, next_block, delivered) for s in states]
        fresh = real(chain, states)
        assert len(fresh) == len(states)
        votes = {}  # (party, seq) -> the first leader's vote at it, and that leader
        for i, (old, new, alone, want) in enumerate(zip(states, fresh, unshared, expected)):
            assert store_fields(new.store) == store_fields(alone.store) == want
            assert not any(log.pending for log in new.store.logs.values())
            assert new.fallback_snapshot == alone.fallback_snapshot == tuple(
                r for r in old.fallback_snapshot if r not in delivered)
            for f in dataclasses.fields(old):
                if f.name not in ("store", "fallback_snapshot"):
                    assert getattr(new, f.name) == getattr(old, f.name), f.name
            seen["invalid"] += any(log.invalid for log in new.store.logs.values())
            seen["stamped"] += new.store.timestamped
            for party, log in new.store.logs.items():
                for v in log.accepted:
                    first, at = votes.setdefault((party, v.seq), (v, i))
                    # Equal carried votes are one object across the leaders.
                    assert first is v or first != v
                    seen["shared"] += first is v and at != i
        seen["hand-offs"] += 1
        return fresh

    monkeypatch.setattr(runner, "on_deliver", checked)
    for scenario in _scenarios():
        Simulation(scenario).run()
    assert all(seen.values()), seen

