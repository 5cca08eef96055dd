"""Work counts. A vote's attested bytes are encoded once, when the vote is
built, and every signature and check reuses them; a vote that passed its
check is not hashed again. A hand-off signs each distinct carried vote once
for all its leaders, and only the chain's verifier hashes it. The hybrid fallback tests timed precedence only
for a block it ships, and ends only at an incarnation change. The auditor
builds its constraint sets from a bounded number of reads per party and
request, not from every pair against every party. Stand-alone verification
rebuilds and checks a chain with a bounded number of Python-level calls.
The simulator sends a vote with no Python-level call per recipient, and
steps a leader only when its store changed since its last step or a block
shipped."""

import dataclasses
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairlab.chain
import fairlab.leaders
import fairlab.validity
import fairlab.votes
from fairlab.audit import TraceView
from fairlab.core import validate_config
from fairlab.leaders import BLOCK_FAIR
from fairlab.simnet import runner
from fairlab.simnet.generators import benign_schedule, fuzz_scenario
from fairlab.simnet.runner import Simulation
from fairlab.simnet.trace import Trace
from fairlab.validity import certificate_from_dict, verify_certificate
from fairlab.votes import Vote, make_vote, vote_payload, vote_verifies

from conftest import req, wrapped_hybrid_scenario


def _count_vote_work(monkeypatch, hashed):
    """Count the vote module's encodings, signatures and checks, appending
    the payload of every check to `hashed`."""
    calls = Counter()
    for name in ("vote_payload", "sign", "verify"):
        real = getattr(fairlab.votes, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            if _name == "verify":
                hashed.append(args[2])
            return _real(*args)

        monkeypatch.setattr(fairlab.votes, name, counted)
    return calls


WORK_SCENARIOS = {
    "benign-clocked-n10": lambda: dataclasses.replace(
        benign_schedule(validate_config(10, 3), requests=12, seed=0), mode="clocked"),
    "wrapped-hybrid": wrapped_hybrid_scenario,
}


def _record_built_votes(monkeypatch, owner, built):
    """Append every vote that `owner.make_vote` builds to `built`."""
    real = owner.make_vote

    def making(*args):
        vote = real(*args)
        built.append(vote)
        return vote

    monkeypatch.setattr(owner, "make_vote", making)


def test_one_encoding_per_signed_vote(monkeypatch):
    # The runner signs each vote a party sends; each hand-off signs its
    # carried votes (`replay_undelivered`). Each vote is encoded once, when it
    # is built. A sent vote is hashed once, at its first check, by a leader's
    # ingest or the chain's verifier. A replayed vote enters its stores
    # unchecked and is hashed only when the chain's verifier first checks it.
    for label, make_scenario in WORK_SCENARIOS.items():
        with monkeypatch.context() as patch:
            hashed = []  # the payload of every check, kept alive so ids stay unique
            calls = _count_vote_work(patch, hashed)
            sent, replayed = [], []
            _record_built_votes(patch, runner, sent)
            _record_built_votes(patch, fairlab.leaders, replayed)
            first_checks = []  # (payload of a vote at its first check, in the verifier)
            in_verifier = []
            real_check = fairlab.votes.vote_verifies
            real_verify = fairlab.chain.verify_certificate

            def checking(v):
                if not v.verified:
                    first_checks.append((v.payload, bool(in_verifier)))
                return real_check(v)

            def verifying(cfg, cert):
                in_verifier.append(cert)
                try:
                    return real_verify(cfg, cert)
                finally:
                    in_verifier.pop()

            patch.setattr(fairlab.votes, "vote_verifies", checking)
            patch.setattr(fairlab.chain, "verify_certificate", verifying)
            Simulation(make_scenario()).run()

        assert calls["sign"] == len(sent) + len(replayed) and replayed, label
        # A vote derives its payload object once, so the object names the vote.
        assert calls["vote_payload"] == calls["sign"], label
        assert len({id(payload) for payload in hashed}) == len(hashed), label
        # Exactly the first checks hash, each vote's once.
        assert [id(p) for p in hashed] == [id(p) for p, _ in first_checks], label
        sent_ids = {id(v.payload) for v in sent}
        replayed_ids = {id(v.payload) for v in replayed}
        assert {id(p) for p, _ in first_checks} <= sent_ids | replayed_ids, label
        replay_checks = [verifier for p, verifier in first_checks if id(p) in replayed_ids]
        assert replay_checks and all(replay_checks), label
        assert len(replay_checks) < len(first_checks), label


# Carried votes over every leader of every hand-off, and the distinct ones
# signed. The benign run's ten leaders never carry one vote alike; the
# wrapped hybrid run's four share 324 of 768.
CARRIED = {"benign-clocked-n10": (110, 110), "wrapped-hybrid": (768, 444)}


def test_a_hand_off_signs_each_carried_vote_once(monkeypatch):
    # The leaders of one hand-off share the votes signed for the next block:
    # each distinct carried (party, seq, ts, request) is signed exactly once.
    for label, make_scenario in WORK_SCENARIOS.items():
        with monkeypatch.context() as patch:
            signed = []
            _record_built_votes(patch, fairlab.leaders, signed)
            real = runner.on_deliver
            carried = distinct = 0

            def counting(chain, states):
                nonlocal carried, distinct
                keys = []
                for state in states:
                    for party, log in state.store.logs.items():
                        kept = [v for v in log.accepted if v.request not in chain.delivered]
                        keys += [(party, seq, v.ts, v.request) for seq, v in enumerate(kept)]
                signed.clear()
                fresh = real(chain, states)
                made = Counter((v.signer, v.seq, v.ts, v.request) for v in signed)
                assert made == Counter(set(keys)), label
                assert {v.block for v in signed} <= {chain.next_number}, label
                carried += len(keys)
                distinct += len(made)
                return fresh

            patch.setattr(runner, "on_deliver", counting)
            Simulation(make_scenario()).run()
        assert (carried, distinct) == CARRIED[label]


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


# An instance with a character outside ASCII, encoded as UTF-8 in the payload.
NON_ASCII_INSTANCE = st.tuples(
    FIELDS["instance"], st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)),
).map("".join)


@st.composite
def cited_rows(draw):
    """party -> [(seq, ts, request), ...] for several parties: the first
    party's first row has no timestamp and the second party's first row has one."""
    parties = draw(st.lists(st.integers(0, 15), min_size=2, max_size=4, unique=True))
    row = st.tuples(FIELDS["seq"], FIELDS["ts"], FIELDS["request"])
    rows = {party: draw(st.lists(row, min_size=1, max_size=3)) for party in parties}
    seq, _, request = rows[parties[0]][0]
    rows[parties[0]][0] = (seq, None, request)
    seq, _, request = rows[parties[1]][0]
    rows[parties[1]][0] = (seq, draw(UINT64), request)
    return rows


@settings(max_examples=200, deadline=None)
@given(instance=NON_ASCII_INSTANCE, block=UINT64, rows=cited_rows(),
       changed=st.sampled_from(sorted(FIELDS)), data=st.data())
def test_attested_bytes_follow_the_fields(instance, block, rows, changed, data):
    signed = {party: [make_vote(party, instance, block, seq, ts, request)
                      for seq, ts, request in cited]
              for party, cited in rows.items()}
    cert = certificate_from_dict({
        "instance": instance, "block": block, "mode": BLOCK_FAIR, "proposer": 0,
        "requests": [], "pivot": None, "requests_table": {},
        "votes": {str(party): [[v.seq, v.ts, v.request, v.attestation] for v in votes]
                  for party, votes in signed.items()},
    })
    # The signer's vote, the one a chain line rebuilds and one built directly
    # are one value, built on one path: same bytes, unchecked.
    for party, votes in signed.items():
        for v, cited in zip(votes, cert.votes_by_party[party], strict=True):
            built = Vote(v.instance, v.block, v.seq, v.ts, v.request, party, v.attestation)
            for u in (v, cited, built):
                assert u == v and hash(u) == hash(v)
                assert u.payload == _payload_of(u) == v.payload
                assert not u.verified
            assert vote_verifies(v) and vote_verifies(cited) and vote_verifies(built)

    # A replaced field re-derives the bytes, which the old attestation no
    # longer covers; a replaced vote is a new object and starts unchecked.
    v = signed[next(iter(signed))][0]
    assert v.verified
    twin = dataclasses.replace(v)
    assert twin == v and twin.payload == v.payload and not twin.verified
    other = data.draw(FIELDS[changed].filter(lambda value: value != getattr(v, changed)))
    moved = dataclasses.replace(v, **{changed: other})
    assert moved.payload == _payload_of(moved) != v.payload
    assert not moved.verified and not vote_verifies(moved)

    digest = data.draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    forged_signer = data.draw(st.integers(0, 15))
    if (forged_signer, digest) != (v.signer, v.attestation):
        assert not vote_verifies(dataclasses.replace(v, signer=forged_signer, attestation=digest))


def test_attested_bytes_are_no_argument_and_not_compared():
    v = make_vote(1, "inst", 0, 3, 7, "ab")
    with pytest.raises(TypeError):
        Vote("inst", 0, 3, 7, "ab", v.signer, v.attestation, b"other bytes")
    with pytest.raises(TypeError):
        Vote("inst", 0, 3, 7, "ab", v.signer, v.attestation, payload=b"other bytes")
    with pytest.raises(TypeError):
        Vote("inst", 0, 3, 7, "ab", v.signer, v.attestation, verified=True)
    odd = dataclasses.replace(v)
    object.__setattr__(odd, "payload", b"other bytes")
    assert odd == v and hash(odd) == hash(v)
    assert "other bytes" not in repr(odd)


@pytest.fixture(scope="module")
def hybrid_chain():
    """The wrapped hybrid run's configuration and its chain lines' certificates."""
    scenario = wrapped_hybrid_scenario()
    sim = Simulation(scenario)
    sim.run()
    return (validate_config(scenario.n, scenario.t),
            [json.loads(line)["certificate"] for line in sim.chain_lines()])


def test_standalone_verify_checks_each_cited_vote_once(monkeypatch, hybrid_chain):
    # `fairlab verify` rebuilds every chain line's votes and hashes each one
    # once; it signs nothing. It hashes each request table row once and
    # admits each certificate's votes into one store.
    cfg, certs = hybrid_chain
    calls = _count_vote_work(monkeypatch, [])
    for name in ("request_id", "VoteStore"):
        real = getattr(fairlab.validity, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fairlab.validity, name, counted)
    cited = sum(len(rows) for data in certs for rows in data["votes"].values())
    rows = sum(len(data["requests_table"]) for data in certs)
    for data in certs:
        assert verify_certificate(cfg, certificate_from_dict(data)).ok
    assert cited > 0 and rows > 0
    assert calls == Counter(vote_payload=cited, verify=cited, request_id=rows,
                            VoteStore=len(certs))


def test_standalone_verify_makes_few_python_calls(hybrid_chain):
    # Python-level calls, as the profiler sees them, while rebuilding and
    # verifying the chain's 40 certificates (344 cited votes, 155 table
    # rows): 4,261 on Python 3.11.7.
    # Calling a checker per row, party key and field, and a generated
    # dataclass __init__ per request, made 6,721.
    cfg, certs = hybrid_chain
    calls = Counter()

    def profile(frame, event, arg):
        calls[event] += 1

    sys.setprofile(profile)
    try:
        outcomes = [verify_certificate(cfg, certificate_from_dict(data)) for data in certs]
    finally:
        sys.setprofile(None)
    assert all(outcome.ok for outcome in outcomes)
    assert calls["call"] <= 4_700


def _calls_to_send_one_vote(n):
    """Python-level calls while party 0 of an n-party clocked run sends its
    second vote to the n-1 others. Its first vote, sent unprofiled when it
    sights the second request, fills the signing key's cache."""
    cfg = validate_config(n, (n - 1) // 3)
    scenario = dataclasses.replace(benign_schedule(cfg, requests=2, seed=0), mode="clocked")
    sim = Simulation(scenario)
    for name in scenario.requests:
        sim.execute({"a": "see", "party": 0, "request": name})
    calls = Counter()

    def profile(frame, event, arg):
        calls[event] += 1

    sys.setprofile(profile)
    try:
        sim._activate(sim.parties[0])
    finally:
        sys.setprofile(None)
    assert len(sim.pool) == 2 * (n - 1)
    return calls["call"]


def test_sending_a_vote_makes_no_call_per_recipient():
    # A pooled copy is a plain tuple, so 21 recipients cost no more Python
    # calls than 9. An object per copy made one generated __init__ call each.
    assert _calls_to_send_one_vote(22) == _calls_to_send_one_vote(10) > 0


@pytest.mark.parametrize("scenario, steps", [
    (dataclasses.replace(benign_schedule(validate_config(22, 7), requests=12, seed=0),
                         mode="clocked"), 320),
    (wrapped_hybrid_scenario(), 332),
], ids=["benign-clocked-n22", "wrapped-hybrid"])
def test_leaders_step_when_their_store_changed(monkeypatch, scenario, steps):
    # After every action, each engine's last step saw its current store at
    # its current version: no leader misses a change. The pinned step counts
    # show that no leader steps without one.
    seen = {}  # leader -> (store, version) at its last step
    taken = []  # the leader of each step
    real_step = runner.leader_step

    def stepping(state):
        taken.append(state.proposer)
        seen[state.proposer] = (state.store, state.store.version)
        return real_step(state)

    monkeypatch.setattr(runner, "leader_step", stepping)
    sim = Simulation(scenario)

    def check():
        for pid, state in sim.engines.items():
            store, version = seen[pid]
            assert store is state.store and version == store.version, pid

    for event in scenario.events:
        sim.execute(event)
        check()
    sim.drain()
    check()
    assert len(taken) == steps


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


class _CountedReads(dict):
    """A per-party sighting map that counts each key or value it hands out."""

    def __init__(self, data, reads):
        super().__init__(data)
        self.reads = reads

    def __getitem__(self, key):
        self.reads["n"] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads["n"] += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads["n"] += 1
        return super().__contains__(key)

    def __iter__(self):
        for key in super().__iter__():
            self.reads["n"] += 1
            yield key

    def keys(self):
        self.reads["n"] += len(self)
        return super().keys()

    def values(self):
        self.reads["n"] += len(self)
        return super().values()

    def items(self):
        self.reads["n"] += len(self)
        return super().items()


def _nearly_agreeing_trace(n, t, requests, seed):
    """A trace in which every party sights every request, each in the same
    order up to a few swapped neighbours, one step of its clock apart: most
    ordered pairs are constraints of both kinds. Sightings take steps 0, 1,
    2, ... in file order, as a run's records do."""
    rng = random.Random(seed)
    ids = [req(f"r{i}").id for i in range(requests)]
    records = [{"kind": "request", "id": rid, "name": f"r{i}", "market": "m"}
               for i, rid in enumerate(ids)]
    for party in range(n):
        order = list(range(requests))
        for _ in range(requests // 10):
            i = rng.randrange(requests - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        records += [{"kind": "sight", "party": party, "request": ids[i], "ts": 3 * k + party,
                     "step": party * requests + k} for k, i in enumerate(order)]
    header = {"n": n, "t": t, "mode": "neverending", "corrupt": [n - 1]}
    return Trace(header=header, rows=records)


@pytest.mark.parametrize("builder", ["relative_constraints", "timed_constraints"])
def test_constraint_builders_read_each_sighting_a_few_times(builder):
    requests = 200
    view = TraceView(_nearly_agreeing_trace(7, 2, requests, seed=1))
    reads = {"n": 0}
    for sightings in (view.ts, view.sight_step):
        for party in sightings:
            sightings[party] = _CountedReads(sightings[party], reads)
    constraints = getattr(view, builder)
    # Every pair against every honest party would read about 200 times more.
    assert reads["n"] <= 3 * len(view.honest) * requests
    assert len(constraints) > requests * (requests - 1) // 4
