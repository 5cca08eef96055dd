import random

from fairlab.leaders import (
    CLOCKED,
    HYBRID,
    NEVERENDING,
    CoinConfig,
    clocked_step,
    coin_stop,
    hybrid_step,
    neverending_step,
    new_leader,
    replay_undelivered,
    _hybrid_candidates,
)
from fairlab.validity import BlockCertificate, verify_certificate
from fairlab.votes import make_vote

from conftest import INSTANCE, req

M = {name: req(name) for name in ("m1", "m2", "m3", "m4")}
RA, RB = req("ra"), req("rb")
A1, A2, B1 = req("a1", market="A"), req("a2", market="A"), req("b1", market="B")


def engine(cfg, mode, **kw):
    return new_leader(cfg, mode, instance=INSTANCE, **kw)


def ingest(state, party, seq, request, ts=None):
    vote = make_vote(party, state.instance, state.block_number, seq, ts, request.id)
    return state.store.ingest(vote, request)


def test_neverending_single_request(cfg4):
    state = engine(cfg4, NEVERENDING)
    for party in range(4):
        ingest(state, party, 0, RA)
    proposal = neverending_step(state)
    assert proposal is not None
    assert proposal.requests == (RA.id,)
    assert proposal.mode_tag == "block-fair"


def _cycle_rotation(n):
    return {party: [(party + j) % n for j in range(n)] for party in range(n)}


def test_neverending_cycle_emits_one_block_of_all(cfg4):
    state = engine(cfg4, NEVERENDING)
    names = ["m1", "m2", "m3", "m4"]
    for party, order in _cycle_rotation(4).items():
        for seq, idx in enumerate(order):
            ingest(state, party, seq, M[names[idx]])
    proposal = neverending_step(state)
    assert proposal is not None
    assert sorted(M[n].id for n in names) == sorted(proposal.requests)


def test_neverending_waits_on_subquorum_blocker(cfg4):
    state = engine(cfg4, NEVERENDING)
    # ra reaches a strong quorum but only one party reports ra before rb, so
    # rb still blocks ra while holding fewer than n-t votes of its own
    ingest(state, 0, 0, RB)
    ingest(state, 0, 1, RA)
    ingest(state, 1, 0, RB)
    ingest(state, 1, 1, RA)
    ingest(state, 3, 0, RA)
    assert neverending_step(state) is None
    # rb completes a strong quorum: it joins and the block ships as a pair
    ingest(state, 2, 0, RB)
    proposal = neverending_step(state)
    assert proposal is not None
    assert set(proposal.requests) == {RA.id, RB.id}


def test_clocked_single_request(cfg4):
    state = engine(cfg4, CLOCKED)
    for party, ts in ((0, 5), (1, 7), (2, 9)):
        ingest(state, party, 0, RA, ts=ts)
    proposal = clocked_step(state)
    assert proposal is not None
    assert proposal.requests == (RA.id,)
    assert proposal.mode_tag == "timed-fair"
    assert proposal.pivot.m_r == 7


def test_clocked_admits_by_median(cfg4):
    state = engine(cfg4, CLOCKED)
    # ra quorum timestamps {10, 20, 30} -> pivot median 20
    ingest(state, 0, 0, RB, ts=5)
    ingest(state, 0, 1, RA, ts=10)
    ingest(state, 1, 0, RB, ts=12)
    ingest(state, 1, 1, RA, ts=20)
    ingest(state, 2, 0, RA, ts=30)
    assert clocked_step(state) is None  # rb has t+1 votes below 20 but only 2 total
    ingest(state, 3, 0, RB, ts=25)
    proposal = clocked_step(state)
    assert proposal is not None
    # oracle recount: rb has 2 = t+1 votes (5, 12) strictly below 20
    below = [v.ts for v in state.store.votes_for(RB.id) if v.ts < 20]
    assert len(below) == 2
    # in-block order by cited medians: rb at 12, ra at 20
    assert proposal.requests == (RB.id, RA.id)


def test_clocked_leaves_later_request_out(cfg4):
    state = engine(cfg4, CLOCKED)
    ingest(state, 0, 0, RA, ts=10)
    ingest(state, 1, 0, RA, ts=20)
    ingest(state, 2, 0, RA, ts=30)
    ingest(state, 0, 1, RB, ts=21)
    ingest(state, 1, 1, RB, ts=22)
    ingest(state, 3, 0, RB, ts=23)
    proposal = clocked_step(state)
    assert proposal is not None
    assert proposal.requests == (RA.id,)


def test_hybrid_benign_matches_neverending(cfg4):
    state = engine(cfg4, HYBRID, r_max=100)
    for party, ts in ((0, 1), (1, 2), (2, 3), (3, 4)):
        ingest(state, party, 0, RA, ts=ts)
    proposals = hybrid_step(state)
    assert len(proposals) == 1
    assert proposals[0].requests == (RA.id,)
    assert proposals[0].mode_tag == "block-fair"


def test_hybrid_two_markets_ship_separately(cfg4):
    from fairlab.fairness import blocks
    state = engine(cfg4, HYBRID, r_max=100)
    for party in range(4):
        # votes for the two markets interleave in every stream
        order = [(A1, 1 + party), (B1, 5 + party)] if party % 2 else [(B1, 1 + party), (A1, 5 + party)]
        for seq, (r, ts) in enumerate(order):
            ingest(state, party, seq, r, ts=ts)
    # no cross-market blocking exists in either direction
    assert not blocks(state.store, cfg4, A1.id, B1.id)
    assert not blocks(state.store, cfg4, B1.id, A1.id)
    first = hybrid_step(state)
    assert len(first) == 1
    delivered = set(first[0].requests)
    markets = {state.store.requests[r].market for r in delivered}
    assert len(markets) == 1
    state = replay_undelivered(state, 1, delivered)
    second = hybrid_step(state)
    assert len(second) == 1
    assert not (set(second[0].requests) & delivered)
    other_markets = {state.store.requests[r].market for r in second[0].requests}
    assert markets != other_markets


def test_hybrid_candidate_members_block_each_other(cfg4):
    state = engine(cfg4, HYBRID, r_max=100)
    rng = random.Random(5)
    names = [RA, RB, A1, A2]
    for party in range(4):
        order = names[:]
        rng.shuffle(order)
        for seq, r in enumerate(order):
            ingest(state, party, seq, r, ts=(seq + 1) * 10 + party)
    from fairlab.fairness import blocks
    candidates, _ = _hybrid_candidates(state)
    for cand in candidates:
        for member in cand.members:
            if member == cand.seed:
                continue
            assert any(
                blocks(state.store, cfg4, member, other)
                for other in cand.members if other != member
            )


def test_closure_closed_flag_matches_brute_force_without_repeat_tests(cfg4, monkeypatch):
    import fairlab.leaders as leaders
    from fairlab.fairness import blocks

    pairs = []

    def counting_blocks(store, cfg, r2, r):
        pairs.append((r2, r))
        return blocks(store, cfg, r2, r)

    def checked_closure(*args, **kwargs):
        pairs.clear()
        result = real_closure(*args, **kwargs)
        assert len(pairs) == len(set(pairs)), "a pair reached blocks() twice"
        return result

    real_closure = leaders._closure
    monkeypatch.setattr(leaders, "blocks", counting_blocks)
    monkeypatch.setattr(leaders, "_closure", checked_closure)
    seen = set()
    for trial in range(150):
        rng = random.Random(trial)
        pool = [req(f"c{trial}-{i}", market=rng.choice("AB") if trial % 3 == 0 else "m")
                for i in range(rng.randint(4, 6))]
        for r_max in (1, 100):
            state = engine(cfg4, HYBRID, r_max=r_max)
            for party in range(4):
                # some parties miss some requests, leaving them below threshold
                order = rng.sample(pool, rng.randint(len(pool) - 2, len(pool)))
                for seq, r in enumerate(order):
                    ingest(state, party, seq, r, ts=(seq + 1) * 10 + party)
            store = state.store
            candidates, _ = _hybrid_candidates(state)
            for cand in candidates:
                outside = [r for r in store.known_requests() if r not in cand.members]
                brute = not any(
                    blocks(store, cfg4, r, m) for r in outside for m in cand.members
                )
                assert cand.closed == brute, (trial, r_max, cand)
                seen.add((cand.closed, len(cand.members) > r_max))
    # closed and open candidates, within and past the cutoff, all occurred
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_replay_preserves_order_and_reindexes(cfg4):
    state = engine(cfg4, NEVERENDING)
    for seq, r in enumerate((M["m1"], M["m2"], M["m3"])):
        ingest(state, 0, seq, r)
    replayed = replay_undelivered(state, 1, {M["m2"].id})
    log = replayed.store.logs[0]
    assert [(v.seq, v.request) for v in log.accepted] == [
        (0, M["m1"].id), (1, M["m3"].id)
    ]
    assert replayed.block_number == 1
    # everything delivered -> fresh empty state
    empty = replay_undelivered(state, 1, {M["m1"].id, M["m2"].id, M["m3"].id})
    assert empty.store.known_requests() == []


def test_replay_equivalent_to_fresh_store(cfg4):
    # replay + step must match an engine that never saw the delivered requests
    rng = random.Random(31)
    requests = [M["m1"], M["m2"], M["m3"], M["m4"], RA]
    for trial in range(25):
        state = engine(cfg4, NEVERENDING)
        per_party = {}
        for party in range(4):
            order = requests[:]
            rng.shuffle(order)
            per_party[party] = order[: rng.randint(1, len(order))]
            for seq, r in enumerate(per_party[party]):
                ingest(state, party, seq, r)
        delivered = {r.id for r in rng.sample(requests, rng.randint(0, 2))}
        replayed = replay_undelivered(state, 1, delivered)
        fresh = engine(cfg4, NEVERENDING)
        fresh.block_number = 1
        fresh.store.block = 1
        for party, order in per_party.items():
            seq = 0
            for r in order:
                if r.id in delivered:
                    continue
                ingest(fresh, party, seq, r)
                seq += 1
        a = neverending_step(replayed)
        b = neverending_step(fresh)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.requests == b.requests


def test_replay_carries_permanent_exclusions(cfg4):
    state = engine(cfg4, NEVERENDING)
    ingest(state, 1, 0, M["m1"])
    ingest(state, 1, 0, M["m2"])  # equivocation
    assert state.store.logs[1].invalid
    replayed = replay_undelivered(state, 1, set())
    assert replayed.store.logs[1].invalid
    out = ingest(replayed, 1, 1, M["m3"])
    assert out.reason == "party-invalid"


def test_coin_stop_deterministic_and_biased():
    assert coin_stop("s", 3, 7, 0.4) == coin_stop("s", 3, 7, 0.4)
    assert coin_stop("s", 0, 0, 1.0)
    hits = sum(coin_stop("seed", 1, k, 0.25) for k in range(10_000))
    assert abs(hits / 10_000 - 0.25) < 0.02


def test_engine_determinism(cfg4):
    def drive():
        state = engine(cfg4, HYBRID, r_max=2, coin=CoinConfig("c", 1.0))
        emitted = []
        script = []
        rng = random.Random(8)
        for party in range(4):
            order = [M["m1"], M["m2"], M["m3"], M["m4"]]
            rng.shuffle(order)
            for seq, r in enumerate(order):
                script.append((party, seq, r, (seq + 1) * 10 + party))
        for party, seq, r, ts in script:
            ingest(state, party, seq, r, ts=ts)
            for proposal in hybrid_step(state):
                emitted.append((proposal.block_number, proposal.mode_tag, proposal.requests))
                state = replay_undelivered(
                    state, state.block_number + 1,
                    state.delivered | set(proposal.requests),
                )
        return emitted
    assert drive() == drive()


def test_clocked_safety_exhaustive_two_request_enumeration(cfg4):
    # Mirror of the pivot contradiction argument at desk scale: over every
    # per-party sighting order of two requests, two schedule interleavings,
    # and three clock models, an emitted clocked block never orders a pair
    # against a separating local time.
    import itertools
    from fairlab.simnet import Scenario, run
    from fairlab.simnet.scenario import ClockSpec
    from fairlab.audit import check_timed_fairness

    clock_models = [
        {p: ClockSpec(1, 0) for p in range(4)},
        {p: ClockSpec(1, 3 * p) for p in range(4)},
        {p: ClockSpec(2 if p % 2 else 1, p) for p in range(4)},
    ]
    constrained = 0
    for orders in itertools.product((("ra", "rb"), ("rb", "ra")), repeat=4):
        for interleave in ("round", "party"):
            if interleave == "round":
                events = [
                    {"a": "see", "party": p, "request": orders[p][i]}
                    for i in range(2) for p in range(4)
                ]
            else:
                events = [
                    {"a": "see", "party": p, "request": orders[p][i]}
                    for p in range(4) for i in range(2)
                ]
            for clocks in clock_models:
                scenario = Scenario(
                    n=4, t=1, mode="clocked", clocks=dict(clocks),
                    requests={"ra": "m", "rb": "m"}, events=list(events),
                )
                trace = run(scenario)
                verdict = check_timed_fairness(trace)
                assert verdict.holds, (orders, interleave, verdict.violations)
                constrained += verdict.constraint_count
                assert trace.summary["blocks"] >= 1
    assert constrained > 0  # the enumeration includes separated pairs


def test_clocked_waits_for_member_strong_quorum(cfg4):
    state = engine(cfg4, CLOCKED)
    for party, ts in ((0, 10), (1, 20), (2, 30)):
        ingest(state, party, 0, RA, ts=ts)
    ingest(state, 3, 0, RB, ts=1)
    ingest(state, 0, 1, RB, ts=15)
    # Pivot 20: rb is admitted (1 and 15 are below it) but holds 2 of the 3
    # votes a member needs, so the step waits.
    assert clocked_step(state) is None
    ingest(state, 1, 1, RB, ts=25)
    proposal = clocked_step(state)
    assert proposal is not None
    assert proposal.requests == (RB.id, RA.id)
    assert proposal.pivot.m_r == 20
    assert verify_certificate(cfg4, BlockCertificate(proposal, proposer=0)).ok
