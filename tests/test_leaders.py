import dataclasses
import random

from fairlab.leaders import (
    CLOCKED,
    HYBRID,
    NEVERENDING,
    clocked_step,
    coin_stop,
    hybrid_step,
    neverending_step,
    replay_undelivered,
)
from fairlab.validity import verify_certificate

from conftest import cast, engine, req, run

M = {name: req(name) for name in ("m1", "m2", "m3", "m4")}
RA, RB = req("ra"), req("rb")
A1, A2, B1 = req("a1", market="A"), req("a2", market="A"), req("b1", market="B")


def test_neverending_single_request(cfg4):
    state = engine(cfg4, NEVERENDING)
    for party in range(4):
        cast(state.store, party, 0, RA)
    cert = neverending_step(state)
    assert cert is not None
    assert cert.requests == (RA.id,)
    assert cert.mode_tag == "block-fair"


def _cycle_rotation(n):
    return {party: [(party + j) % n for j in range(n)] for party in range(n)}


def test_neverending_cycle_emits_one_block_of_all(cfg4):
    state = engine(cfg4, NEVERENDING)
    names = ["m1", "m2", "m3", "m4"]
    for party, order in _cycle_rotation(4).items():
        for seq, idx in enumerate(order):
            cast(state.store, party, seq, M[names[idx]])
    cert = neverending_step(state)
    assert cert is not None
    assert sorted(M[n].id for n in names) == sorted(cert.requests)


def test_neverending_waits_on_subquorum_blocker(cfg4):
    state = engine(cfg4, NEVERENDING)
    # ra reaches a strong quorum but only one party reports ra before rb, so
    # rb still blocks ra while holding fewer than n-t votes of its own
    cast(state.store, 0, 0, RB)
    cast(state.store, 0, 1, RA)
    cast(state.store, 1, 0, RB)
    cast(state.store, 1, 1, RA)
    cast(state.store, 3, 0, RA)
    assert neverending_step(state) is None
    # rb completes a strong quorum: it joins and the block ships as a pair
    cast(state.store, 2, 0, RB)
    cert = neverending_step(state)
    assert cert is not None
    assert set(cert.requests) == {RA.id, RB.id}


def test_clocked_single_request(cfg4):
    state = engine(cfg4, CLOCKED)
    for party, ts in ((0, 5), (1, 7), (2, 9)):
        cast(state.store, party, 0, RA, ts=ts)
    cert = clocked_step(state)
    assert cert is not None
    assert cert.requests == (RA.id,)
    assert cert.mode_tag == "timed-fair"
    assert cert.pivot.m_r == 7


def test_clocked_admits_by_median(cfg4):
    state = engine(cfg4, CLOCKED)
    # ra quorum timestamps {10, 20, 30} -> pivot median 20
    cast(state.store, 0, 0, RB, ts=5)
    cast(state.store, 0, 1, RA, ts=10)
    cast(state.store, 1, 0, RB, ts=12)
    cast(state.store, 1, 1, RA, ts=20)
    cast(state.store, 2, 0, RA, ts=30)
    assert clocked_step(state) is None  # rb has t+1 votes below 20 but only 2 total
    cast(state.store, 3, 0, RB, ts=25)
    cert = clocked_step(state)
    assert cert is not None
    # oracle recount: rb has 2 = t+1 votes (5, 12) strictly below 20
    below = [v.ts for v in state.store.votes_for(RB.id) if v.ts < 20]
    assert len(below) == 2
    # in-block order by cited medians: rb at 12, ra at 20
    assert cert.requests == (RB.id, RA.id)


def test_clocked_leaves_later_request_out(cfg4):
    state = engine(cfg4, CLOCKED)
    cast(state.store, 0, 0, RA, ts=10)
    cast(state.store, 1, 0, RA, ts=20)
    cast(state.store, 2, 0, RA, ts=30)
    cast(state.store, 0, 1, RB, ts=21)
    cast(state.store, 1, 1, RB, ts=22)
    cast(state.store, 3, 0, RB, ts=23)
    cert = clocked_step(state)
    assert cert is not None
    assert cert.requests == (RA.id,)


def test_hybrid_benign_matches_neverending(cfg4):
    state = engine(cfg4, HYBRID, r_max=100)
    for party, ts in ((0, 1), (1, 2), (2, 3), (3, 4)):
        cast(state.store, party, 0, RA, ts=ts)
    cert = hybrid_step(state)
    assert cert is not None
    assert cert.requests == (RA.id,)
    assert cert.mode_tag == "block-fair"


def test_hybrid_passes_over_a_closed_candidate_without_a_strong_quorum(cfg4, monkeypatch):
    # ra completes its weak quorum first and nothing blocks it, but only two
    # parties vote it: the builder refuses it and the next seed, rb, ships.
    state = engine(cfg4, HYBRID, r_max=100)
    for party in (0, 1):
        cast(state.store, party, 0, RA, ts=1)
        cast(state.store, party, 1, RB, ts=2)
    for party in (2, 3):
        cast(state.store, party, 0, RB, ts=1)
    candidates = _grown_candidates(monkeypatch, state)
    assert candidates[0] == (RA.id, (RA.id,), True)
    cert = hybrid_step(state)
    assert cert.requests == (RB.id,)
    assert not state.fallback_snapshot
    assert verify_certificate(cfg4, cert).ok
    forged = dataclasses.replace(cert, requests=(RA.id,))
    assert verify_certificate(cfg4, forged).reason == "insufficient-votes"


def test_hybrid_two_markets_ship_separately(cfg4):
    from fairlab.votes import blocks
    state = engine(cfg4, HYBRID, r_max=100)
    for party in range(4):
        # votes for the two markets interleave in every stream
        order = [(A1, 1 + party), (B1, 5 + party)] if party % 2 else [(B1, 1 + party), (A1, 5 + party)]
        for seq, (r, ts) in enumerate(order):
            cast(state.store, party, seq, r, ts=ts)
    # no cross-market blocking exists in either direction
    assert not blocks(state.store, A1.id, B1.id)
    assert not blocks(state.store, B1.id, A1.id)
    first = hybrid_step(state)
    assert first is not None
    delivered = set(first.requests)
    markets = {state.store.requests[r].market for r in delivered}
    assert len(markets) == 1
    state = replay_undelivered(state, 1, delivered)
    second = hybrid_step(state)
    assert second is not None
    assert not (set(second.requests) & delivered)
    other_markets = {state.store.requests[r].market for r in second.requests}
    assert markets != other_markets


def _grown_candidates(monkeypatch, state):
    """(seed, members, closed) of every candidate one hybrid step grows."""
    import fairlab.leaders as leaders

    grown = []
    closure = leaders._closure

    def recording_closure(state, seed):
        members, closed = closure(state, seed)
        grown.append((seed, tuple(members), closed))
        return members, closed

    with monkeypatch.context() as patch:
        patch.setattr(leaders, "_closure", recording_closure)
        hybrid_step(state)
    return grown


def test_hybrid_candidate_members_block_each_other(cfg4, monkeypatch):
    state = engine(cfg4, HYBRID, r_max=100)
    rng = random.Random(5)
    names = [RA, RB, A1, A2]
    for party in range(4):
        order = names[:]
        rng.shuffle(order)
        for seq, r in enumerate(order):
            cast(state.store, party, seq, r, ts=(seq + 1) * 10 + party)
    from fairlab.votes import blocks
    candidates = _grown_candidates(monkeypatch, state)
    assert candidates
    for seed, members, _ in candidates:
        for member in members:
            if member == seed:
                continue
            assert any(
                blocks(state.store, member, other)
                for other in members if other != member
            )


def test_closure_closed_flag_matches_brute_force_without_repeat_tests(cfg4, monkeypatch):
    import fairlab.leaders as leaders
    from fairlab.votes import blocks

    pairs = []

    def counting_blocks(store, r2, r):
        pairs.append((r2, r))
        return blocks(store, r2, r)

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
                    cast(state.store, party, seq, r, ts=(seq + 1) * 10 + party)
            store = state.store
            for seed, members, closed in _grown_candidates(monkeypatch, state):
                outside = [r for r in store.by_request if r not in members]
                brute = not any(
                    blocks(store, r, m) for r in outside for m in members
                )
                assert closed == brute, (trial, r_max, seed, members)
                seen.add((closed, len(members) > r_max))
    # closed and open candidates, within and past the cutoff, all occurred
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_replay_preserves_order_and_reindexes(cfg4):
    state = engine(cfg4, NEVERENDING)
    for seq, r in enumerate((M["m1"], M["m2"], M["m3"])):
        cast(state.store, 0, seq, r)
    replayed = replay_undelivered(state, 1, {M["m2"].id})
    log = replayed.store.logs[0]
    assert [(v.seq, v.request) for v in log.accepted] == [
        (0, M["m1"].id), (1, M["m3"].id)
    ]
    assert replayed.store.block == 1
    # everything delivered -> fresh empty state
    empty = replay_undelivered(state, 1, {M["m1"].id, M["m2"].id, M["m3"].id})
    assert not empty.store.by_request


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
                cast(state.store, party, seq, r)
        delivered = {r.id for r in rng.sample(requests, rng.randint(0, 2))}
        replayed = replay_undelivered(state, 1, delivered)
        fresh = engine(cfg4, NEVERENDING, block_number=1)
        for party, order in per_party.items():
            seq = 0
            for r in order:
                if r.id in delivered:
                    continue
                cast(fresh.store, party, seq, r)
                seq += 1
        a = neverending_step(replayed)
        b = neverending_step(fresh)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.requests == b.requests


def test_replay_carries_permanent_exclusions(cfg4):
    state = engine(cfg4, NEVERENDING)
    cast(state.store, 1, 0, M["m1"])
    cast(state.store, 1, 0, M["m2"])  # equivocation
    assert state.store.logs[1].invalid
    replayed = replay_undelivered(state, 1, set())
    assert replayed.store.logs[1].invalid
    out = cast(replayed.store, 1, 1, M["m3"])
    assert out.reason == "party-invalid"


def test_coin_stop_deterministic_and_biased():
    # The event key names a seed and the candidate size it grows to.
    assert coin_stop("s", 3, "r|7", 0.4) == coin_stop("s", 3, "r|7", 0.4)
    assert coin_stop("s", 0, "r|1", 1.0)
    hits = sum(coin_stop("seed", 1, f"r|{k}", 0.25) for k in range(10_000))
    assert abs(hits / 10_000 - 0.25) < 0.02
    # Shared seed, block and event each feed the bit.
    draws = {args: [coin_stop(*args[:2], f"{args[2]}|{k}", 0.5) for k in range(64)]
             for args in (("s", 3, "r"), ("t", 3, "r"), ("s", 4, "r"), ("s", 3, "q"))}
    assert len({tuple(bits) for bits in draws.values()}) == len(draws)


def test_engine_determinism(cfg4):
    def drive():
        state = engine(cfg4, HYBRID, r_max=2, coin_seed="c", coin_stop_p=1.0)
        emitted = []
        delivered = set()
        script = []
        rng = random.Random(8)
        for party in range(4):
            order = [M["m1"], M["m2"], M["m3"], M["m4"]]
            rng.shuffle(order)
            for seq, r in enumerate(order):
                script.append((party, seq, r, (seq + 1) * 10 + party))
        for party, seq, r, ts in script:
            cast(state.store, party, seq, r, ts=ts)
            cert = hybrid_step(state)
            if cert is not None:
                emitted.append((cert.block_number, cert.mode_tag, cert.requests))
                delivered |= set(cert.requests)
                state = replay_undelivered(state, state.store.block + 1, delivered)
        return emitted
    assert drive() == drive()


def test_clocked_safety_exhaustive_two_request_enumeration(cfg4):
    # Mirror of the pivot contradiction argument at desk scale: over every
    # per-party sighting order of two requests, two schedule interleavings,
    # and three clock models, an emitted clocked block never orders a pair
    # against a separating local time.
    import itertools
    from fairlab.simnet.scenario import ClockSpec, Scenario
    from fairlab.audit import TraceView, check_timed_fairness

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
                verdict = check_timed_fairness(TraceView(trace))
                assert verdict.holds, (orders, interleave, verdict.violations)
                constrained += verdict.constraint_count
                assert trace.summary["blocks"] >= 1
    assert constrained > 0  # the enumeration includes separated pairs


def test_clocked_waits_for_member_strong_quorum(cfg4):
    state = engine(cfg4, CLOCKED)
    for party, ts in ((0, 10), (1, 20), (2, 30)):
        cast(state.store, party, 0, RA, ts=ts)
    cast(state.store, 3, 0, RB, ts=1)
    cast(state.store, 0, 1, RB, ts=15)
    # Pivot 20: rb is admitted (1 and 15 are below it) but holds 2 of the 3
    # votes a member needs, so the step waits.
    assert clocked_step(state) is None
    cast(state.store, 1, 1, RB, ts=25)
    cert = clocked_step(state)
    assert cert is not None
    assert cert.requests == (RB.id, RA.id)
    assert cert.pivot.m_r == 20
    assert verify_certificate(cfg4, cert).ok
