import dataclasses
import json

import pytest

import fairlab.leaders
from fairlab.core import validate_config
from fairlab.simnet.generators import (
    benign_schedule,
    cycle_schedule,
    fuzz_scenario,
    probabilistic_adversary,
    segment_schedule,
)
from fairlab.simnet.runner import Simulation
from fairlab.simnet.scenario import Scenario, load_scenario, scenario_text
from fairlab.simnet.trace import Trace

from conftest import records, run


def sight_orders(scenario):
    """Per-party scheduled sighting order, from the event list alone."""
    orders = {p: [] for p in range(scenario.n)}
    for ev in scenario.events:
        if ev["a"] == "see":
            orders[ev["party"]].append(ev["request"])
    return orders


def test_empty_schedule_gives_genesis_only(cfg4):
    trace = run(Scenario(n=4, t=1))
    assert records(trace, "block") == []
    assert trace.summary["blocks"] == 0
    assert trace.summary["delivered"] == 0


def test_cycle_schedule_matches_rotation_tables(cfg4):
    scenario = cycle_schedule(cfg4)
    orders = sight_orders(scenario)
    assert orders[0] == ["m1", "m2", "m3", "m4"]
    assert orders[1] == ["m2", "m3", "m4", "m1"]
    assert orders[2] == ["m3", "m4", "m1", "m2"]
    assert orders[3] == ["m4", "m1", "m2", "m3"]


def test_cycle_rotation_pairwise_property(cfg4):
    # for every j exactly one party sees r_j before r_{j-1}
    orders = sight_orders(cycle_schedule(cfg4))
    for j in range(4):
        prev = f"m{(j - 1) % 4 + 1}"
        cur = f"m{j + 1}"
        ahead = [
            p for p, order in orders.items()
            if order.index(cur) < order.index(prev)
        ]
        assert len(ahead) == 1
        assert ahead[0] == j


def test_cycle_generalizes(cfg7):
    orders = sight_orders(cycle_schedule(cfg7))
    for party, order in orders.items():
        expected = [f"m{(party + j) % 7 + 1}" for j in range(7)]
        assert order == expected


def test_cycle_run_puts_everything_in_one_block(cfg4):
    trace = run(cycle_schedule(cfg4))
    blocks = records(trace, "block")
    assert len(blocks) == 1
    assert sorted(blocks[0]["requests"]) == ["m1", "m2", "m3", "m4"]
    assert trace.summary["max_candidate_order"] == 4


SEGMENT_TABLE_K2 = {
    "A1": {0: ["m1", "m2", "m3"], 1: ["m2", "m3"], 2: ["m3"], 3: []},
    "B1": {3: ["m5", "m6", "m7"], 2: ["m6", "m7"], 1: ["m7"], 0: []},
    "A2": {0: [], 1: ["m4", "m1"], 2: ["m4", "m1", "m2"], 3: ["m4", "m1", "m2", "m3"]},
    "B2": {3: [], 2: ["m8", "m5"], 1: ["m8", "m5", "m6"], 0: ["m8", "m5", "m6", "m7"]},
    "A3": {0: ["m4"], 1: [], 2: [], 3: []},
    "B3": {3: ["m8"], 2: [], 1: [], 0: []},
}


def test_segment_schedule_reproduces_published_tables(cfg4):
    scenario = segment_schedule(cfg4, depth=2)
    per_segment = {}
    for ev in scenario.events:
        if ev["a"] == "see":
            per_segment.setdefault(ev["tag"], {p: [] for p in range(4)})
            per_segment[ev["tag"]][ev["party"]].append(ev["request"])
    assert per_segment == SEGMENT_TABLE_K2
    order = [ev["tag"] for ev in scenario.events if ev["a"] == "see"]
    dedup = [t for i, t in enumerate(order) if i == 0 or order[i - 1] != t]
    assert dedup == ["A1", "B1", "A2", "B2", "A3", "B3"]


def test_segment_schedule_depth_three_interleaving(cfg4):
    scenario = segment_schedule(cfg4, depth=3)
    order = [ev["tag"] for ev in scenario.events if ev["a"] == "see"]
    dedup = [t for i, t in enumerate(order) if i == 0 or order[i - 1] != t]
    assert dedup == ["A1", "B1", "A2", "C1", "B2", "A3", "C2", "B3", "C3"]


def test_segment_cross_family_orderings(cfg4):
    # every party sees m7 before m4 and m3 before m8
    orders = sight_orders(segment_schedule(cfg4, depth=2))
    for party in range(4):
        assert orders[party].index("m7") < orders[party].index("m4")
        assert orders[party].index("m3") < orders[party].index("m8")


def test_segment_schedule_rejects_other_configs(cfg7):
    with pytest.raises(ValueError):
        segment_schedule(cfg7, depth=2)
    with pytest.raises(ValueError):
        segment_schedule(validate_config(4, 1), depth=1)


def test_traces_are_deterministic(cfg4):
    for scenario in (
        cycle_schedule(cfg4),
        dataclasses.replace(segment_schedule(cfg4, depth=2), mode="hybrid", r_max=6),
        probabilistic_adversary(segment_schedule(cfg4, depth=2), 0.3, 5),
        fuzz_scenario(17, mode="clocked"),
    ):
        assert run(scenario).to_text() == run(scenario).to_text()


def test_no_message_is_dropped(cfg4):
    scenario = fuzz_scenario(23, mode="neverending")
    sim = Simulation(scenario)
    for ev in scenario.events:
        sim.execute(ev)
    sim.drain()
    trace = sim.finish()
    assert not sim.pool
    delivered_mids = {r["msg"] for r in records(trace, "deliver")}
    assert delivered_mids == set(range(sim._next_mid))


@pytest.mark.parametrize("mode", ["neverending", "clocked", "hybrid"])
def test_votes_are_cast_for_the_next_block(mode):
    # Every vote names the block after the last accepted one.
    later = 0
    for n, t in ((4, 1), (7, 2)):
        for seed in range(15):
            blocks = 0
            for rec in run(fuzz_scenario(seed, n=n, t=t, mode=mode, r_max=2)).records:
                if rec["kind"] == "block":
                    blocks += 1
                elif rec["kind"] == "vote":
                    assert rec["block"] == blocks, (n, seed, rec)
                    later += blocks > 0
    assert later > 0


@pytest.mark.parametrize("mode", ["neverending", "clocked", "hybrid"])
def test_blocks_keep_the_proposer_the_engine_stamped(mode):
    # Each engine stamps its own party on its certificates, and a replay
    # into the next incarnation keeps the stamp: every block names the
    # leader whose accepted proposal it is.
    replayed = set()  # proposers of blocks after the first
    for n, t in ((4, 1), (7, 2)):
        for seed in range(40):
            proposal = None
            for rec in run(fuzz_scenario(seed, n=n, t=t, mode=mode, r_max=2)).records:
                if rec["kind"] == "proposal":
                    proposal = rec
                elif rec["kind"] == "block":
                    assert proposal["outcome"] == "accepted", (n, seed, rec)
                    assert rec["proposer"] == proposal["leader"], (n, seed, rec)
                    if rec["number"] > 0:
                        replayed.add(rec["proposer"])
    assert replayed - {0}  # a replayed engine other than party 0's shipped a block


def test_local_clocks_monotone(cfg4):
    scenario = dataclasses.replace(
        fuzz_scenario(29, mode="clocked"),
        clocks={0: dataclasses.replace(fuzz_scenario(29).clocks[0], rate=3, offset=7)},
    )
    trace = run(scenario)
    per_party = {}
    for rec in records(trace, "sight"):
        per_party.setdefault(rec["party"], []).append(rec["ts"])
    for ts_list in per_party.values():
        assert all(a < b for a, b in zip(ts_list, ts_list[1:]))


def test_vote_relay_spreads_requests(cfg4):
    # only one party is shown the request; the rest learn it from votes
    scenario = Scenario(
        n=4, t=1, requests={"r1": "m"},
        events=[{"a": "see", "party": 0, "request": "r1"}],
    )
    trace = run(scenario)
    seen_by = {rec["party"] for rec in records(trace, "sight")}
    assert seen_by == {0, 1, 2, 3}
    relayed = [rec for rec in records(trace, "sight") if rec["via"] == "relay"]
    assert len(relayed) == 3
    assert trace.summary["blocks"] == 1


def test_schedule_rejects_unknown_message(cfg4):
    scenario = Scenario(n=4, t=1, requests={"r1": "m"},
                        events=[{"a": "deliver", "msg": 99}])
    with pytest.raises(ValueError):
        run(scenario)


def test_execute_rejects_an_unknown_action():
    # Scenario refuses such an event, so only a direct call reaches this check.
    sim = Simulation(Scenario(n=4, t=1))
    with pytest.raises(ValueError, match="unknown schedule action 'bogus'"):
        sim.execute({"a": "bogus"})


def test_summary_of_a_trace_without_one_raises():
    with pytest.raises(ValueError, match="trace has no summary record"):
        Trace(header={}).summary


def test_schedule_delivers_a_pooled_message(cfg4):
    # Party 0's second activation sends its vote for m1, which pools message
    # 0 (to party 1); the schedule then delivers that copy itself.
    scenario = Scenario(n=4, t=1, requests={"m1": "m"}, events=[
        {"a": "see", "party": 0, "request": "m1"},
        {"a": "see", "party": 0, "request": "m1"},
        {"a": "deliver", "msg": 0},
    ])
    first = records(run(scenario), "deliver")[0]
    assert (first["msg"], first["sender"], first["to"], first["via"]) == (0, 0, 1, "schedule")


def test_probabilistic_sweep_skips_corrupt_traffic(cfg4):
    # Only honest-to-honest copies escape the adversary: at p=1 the sweep
    # delivers each of them, and the schedule's flushes deliver the rest.
    from fairlab.simnet.scenario import BehaviorSpec
    base = dataclasses.replace(benign_schedule(cfg4), corrupt=(3,),
                               behaviors={3: BehaviorSpec(kind="reorder")})
    delivers = records(run(probabilistic_adversary(base, 1.0, 0)), "deliver")
    swept = [d for d in delivers if d["via"] == "sweep"]
    assert swept and all(3 not in (d["sender"], d["to"]) for d in swept)
    corrupt = [d["via"] for d in delivers if 3 in (d["sender"], d["to"])]
    assert corrupt == ["flush"] * 16


def test_steps_strictly_increase(cfg4):
    trace = run(segment_schedule(cfg4, depth=2))
    steps = [rec["step"] for rec in trace.records]
    assert steps == sorted(steps)
    assert len(set(steps)) == len(steps)


def test_probabilistic_wrapper_flushes_at_p1(cfg4):
    scenario = probabilistic_adversary(segment_schedule(cfg4, depth=2), 1.0, 3)
    trace = run(scenario)
    s = trace.summary
    assert s["first_block_action"] is not None
    assert s["first_block_action"] <= s["injection_end_action"]
    assert s["delivered"] == 8


def test_probabilistic_wrapper_rejects_bad_p(cfg4):
    with pytest.raises(ValueError):
        probabilistic_adversary(segment_schedule(cfg4, depth=2), 0.0, 1)


def test_scenario_round_trip(tmp_path, cfg4):
    scenario = fuzz_scenario(41, mode="hybrid", r_max=9)
    path = tmp_path / "scenario.json"
    path.write_text(scenario_text(scenario))
    loaded = load_scenario(str(path))
    assert loaded.digest() == scenario.digest()
    assert run(loaded).to_text() == run(scenario).to_text()


def test_trace_round_trip(tmp_path, cfg4):
    trace = run(cycle_schedule(cfg4))
    path = tmp_path / "trace.jsonl"
    trace.save(str(path))
    loaded = Trace.load(str(path))
    assert loaded.to_text() == trace.to_text()


def test_byzantine_behaviors_stay_contained(cfg4):
    # byzantine votes carry only the byzantine party's own signatures; an
    # accepted vote in any store always verifies against its claimed signer
    from fairlab.votes import vote_verifies
    scenario = fuzz_scenario(4, n=4, t=1, mode="clocked")
    assert scenario.corrupt  # seed chosen to include a corrupt party
    sim = Simulation(scenario)
    for ev in scenario.events:
        sim.execute(ev)
    sim.drain()
    sim.finish()
    for engine in sim.engines.values():
        for party, log in engine.store.logs.items():
            for vote in log.accepted:
                assert vote_verifies(vote)
                assert vote.signer == party


def test_round_robin_stalls_on_byzantine_scheduled_leader(cfg4):
    from fairlab.simnet.scenario import BehaviorSpec
    base = benign_schedule(cfg4, requests=2, seed=9)
    rigged = dataclasses.replace(
        base,
        proposer_policy="round-robin",
        leaders=(0, 1),
        corrupt=(0,),
        behaviors={0: BehaviorSpec(kind="silent")},
    )
    stalled = run(rigged)
    # height 0 is owned by the silent corrupt leader: nothing ever ships
    assert stalled.summary["blocks"] == 0
    assert stalled.summary["pending"] > 0
    # the default race among honest leaders delivers everything
    raced = run(dataclasses.replace(rigged, proposer_policy="race"))
    assert raced.summary["blocks"] >= 1
    assert raced.summary["pending"] == 0


def test_randomized_coin_cutoff_end_to_end(cfg4):
    # shared-coin stop rule below probability one: the cutoff point becomes
    # unpredictable but stays identical across parties and reruns
    scenario = dataclasses.replace(
        segment_schedule(cfg4, depth=3), mode="hybrid", r_max=4,
        coin_stop_p=0.4, coin_seed="shared", leaders=(0,),
    )
    a, b = run(scenario), run(scenario)
    assert a.to_text() == b.to_text()
    summary = a.summary
    assert summary["fallback_activations"] == {"0": 1}
    assert summary["delivered"] == 12
    from fairlab.audit import audit_trace
    assert audit_trace(a).violations_confined_post_cutoff


def test_hybrid_leaders_draw_one_coin_bit_per_event(cfg4, monkeypatch):
    # Four hybrid leaders grow candidates as often as their own steps come,
    # yet each event, a seed's candidate growing past r_max to one size in
    # one block, gets one bit, whichever leader draws it and however often.
    real_closure, real_coin = fairlab.leaders._closure, fairlab.leaders.coin_stop
    growing = []  # [state, seed, draws so far] of each closure being grown
    bits, drawers = {}, {}  # (block, seed, size) -> bits drawn, leaders drawing

    def closure(state, seed):
        growing.append([state, seed, 0])
        try:
            return real_closure(state, seed)
        finally:
            growing.pop()

    def coin(*args):
        bit = real_coin(*args)
        frame = growing[-1]
        state, seed, draws = frame
        frame[2] += 1
        # A closure draws once per admission past r_max, one member at a time.
        key = (state.store.block, seed, state.r_max + 1 + draws)
        bits.setdefault(key, set()).add(bit)
        drawers.setdefault(key, set()).add(state.proposer)
        return bit

    monkeypatch.setattr(fairlab.leaders, "_closure", closure)
    monkeypatch.setattr(fairlab.leaders, "coin_stop", coin)
    for depth in range(4, 11):
        run(dataclasses.replace(segment_schedule(cfg4, depth), mode="hybrid", r_max=4,
                                coin_stop_p=0.5))
    assert sum(len(leaders) > 1 for leaders in drawers.values()) >= 5
    assert {key: drawn for key, drawn in bits.items() if len(drawn) > 1} == {}


def test_trace_and_chain_lines_build_no_encoder(monkeypatch):
    sim = Simulation(dataclasses.replace(benign_schedule(validate_config(4, 1), requests=4,
                                                         seed=4), mode="clocked"))
    trace = sim.run()
    calls = []
    real_dumps, real_init = json.dumps, json.JSONEncoder.__init__

    def dumps(*args, **kwargs):
        calls.append("dumps")
        return real_dumps(*args, **kwargs)

    def init(self, *args, **kwargs):
        calls.append("JSONEncoder")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    monkeypatch.setattr(json.JSONEncoder, "__init__", init)
    text, lines = trace.to_text(), sim.chain_lines()
    assert calls == []
    assert text.count("\n") == len(trace.records) + 1 and len(lines) == len(sim.chain.blocks) > 0
