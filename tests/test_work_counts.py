"""Work counts. A vote's attested bytes are encoded once, when the vote is
built, and every signature and check reuses them; a vote that passed its
check is not hashed again. The hybrid fallback tests timed precedence only
for a block it ships, and ends only at an incarnation change."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairlab.leaders
import fairlab.votes
from fairlab.core import validate_config
from fairlab.leaders import BLOCK_FAIR
from fairlab.simnet import benign_schedule, runner
from fairlab.simnet.generators import fuzz_scenario
from fairlab.simnet.runner import Simulation
from fairlab.validity import certificate_from_dict
from fairlab.votes import Vote, make_vote, vote_payload, vote_verifies

from conftest import wrapped_hybrid_scenario


def test_one_encoding_per_signed_vote(monkeypatch):
    calls = Counter()
    hashed = []  # the payload of every check, kept alive so ids stay unique
    for name in ("vote_payload", "sign", "verify"):
        real = getattr(fairlab.votes, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            if _name == "verify":
                hashed.append(args[2])
            return _real(*args)

        monkeypatch.setattr(fairlab.votes, name, counted)
    scenario = dataclasses.replace(benign_schedule(validate_config(10, 3), requests=12, seed=0),
                                   mode="clocked")
    Simulation(scenario).run()
    # Leaders and chain verification are handed many copies of each signed
    # vote; each vote object is hashed at its first check and never again.
    assert calls["verify"] == calls["sign"] > 0
    # A vote derives its payload object once, so the object names the vote.
    assert len({id(payload) for payload in hashed}) == len(hashed)
    assert calls["vote_payload"] == calls["sign"]


UINT64 = st.integers(min_value=0, max_value=2**64 - 1)
FIELDS = {
    "instance": st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
    "block": UINT64,
    "seq": UINT64,
    "ts": st.none() | UINT64,
    "request": st.text("0123456789abcdef", max_size=64),
}


def _payload_of(v):
    return vote_payload(v.instance, v.block, v.seq, v.ts, v.request)


def _cited(signer, fields):
    """The vote as `certificate_from_dict` rebuilds it from a chain line."""
    v = make_vote(signer, **fields)
    cert = certificate_from_dict({
        "instance": v.instance, "block": v.block, "mode": BLOCK_FAIR, "proposer": 0,
        "requests": [], "pivot": None, "requests_table": {},
        "votes": {str(signer): [[v.seq, v.ts, v.request, v.attestation]]},
    })
    return cert.votes_by_party[signer][0]


@settings(max_examples=200, deadline=None)
@given(signer=st.integers(0, 15), fields=st.fixed_dictionaries(FIELDS),
       changed=st.sampled_from(sorted(FIELDS)), data=st.data())
def test_attested_bytes_follow_the_fields(signer, fields, changed, data):
    v = make_vote(signer, **fields)
    cited = _cited(signer, fields)
    assert v.payload == cited.payload == _payload_of(v)
    assert v == cited and hash(v) == hash(cited)
    assert vote_verifies(v) and vote_verifies(cited)

    # A replaced field re-derives the bytes, which the old attestation no
    # longer covers.
    other = data.draw(FIELDS[changed].filter(lambda value: value != fields[changed]))
    moved = dataclasses.replace(v, **{changed: other})
    assert moved.payload == _payload_of(moved) != v.payload
    assert not vote_verifies(moved)

    digest = data.draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    forged_signer = data.draw(st.integers(0, 15))
    if (forged_signer, digest) != (signer, v.attestation):
        assert not vote_verifies(dataclasses.replace(v, signer=forged_signer, attestation=digest))


def test_attested_bytes_are_no_argument_and_not_compared():
    v = make_vote(1, "inst", 0, 3, 7, "ab")
    with pytest.raises(TypeError):
        Vote("inst", 0, 3, 7, "ab", v.signer, v.attestation, b"other bytes")
    odd = dataclasses.replace(v)
    object.__setattr__(odd, "payload", b"other bytes")
    assert odd == v and hash(odd) == hash(v)
    assert "other bytes" not in repr(odd)


def test_fallback_tests_timed_precedence_once_per_block(monkeypatch):
    # Only the engine's calls count: the chain's certificate check applies
    # the same rule through the same name.
    calls = Counter()
    real = fairlab.leaders.timed_precedes
    real_step = runner.leader_step
    in_step = []

    def counted(*args):
        calls["timed_precedes"] += bool(in_step)
        return real(*args)

    def stepping(state):
        in_step.append(state)
        certs = real_step(state)
        in_step.pop()
        return certs

    monkeypatch.setattr(fairlab.leaders, "timed_precedes", counted)
    monkeypatch.setattr(runner, "leader_step", stepping)
    summary = Simulation(wrapped_hybrid_scenario()).run().summary
    assert sum(summary["fallback_blocks"].values()) == 4
    # Each fallback block tests its one low-set request; a seed whose low set
    # still lacks a strong quorum is passed over untested.
    assert calls["timed_precedes"] == 4


def test_fallback_ends_only_at_an_incarnation_change(monkeypatch):
    real = Simulation._step_leaders

    def checked(sim):
        real(sim)
        delivered = sim.chain.delivered
        for state in sim.engines.values():
            assert not delivered & set(state.fallback_snapshot)
            assert not delivered & state.store.by_request.keys()

    monkeypatch.setattr(Simulation, "_step_leaders", checked)
    exits = 0
    for n, t in ((4, 1), (7, 2)):
        for seed in range(25):
            for r_max in (0, 2):
                records = Simulation(fuzz_scenario(seed, n=n, t=t, mode="hybrid",
                                                   r_max=r_max)).run().records
                for before, rec in zip(records, records[1:]):
                    if rec.get("event") == "fallback-exit":
                        exits += 1
                        assert before["kind"] == "block" or before.get("event") == "fallback-exit"
    assert exits > 0
