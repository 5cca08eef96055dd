import dataclasses
import json

import pytest

from fairlab.audit import (
    TraceView,
    audit_trace,
    check_block_fairness,
    check_relative_block_fairness,
    check_timed_fairness,
)
from fairlab.simnet.generators import (benign_schedule, cycle_schedule, fuzz_scenario,
                                       segment_schedule)
from fairlab.simnet.runner import Simulation
from fairlab.simnet.scenario import Scenario
from fairlab.simnet.trace import Trace

from conftest import records, req, run, wrapped_hybrid_scenario
from oracles import header_constraints, oracle_constraints, recount_block_fairness


def test_benign_sequential_schedule_holds(cfg4):
    trace = run(benign_schedule(cfg4, requests=4, seed=1))
    verdict = check_relative_block_fairness(TraceView(trace))
    assert verdict.holds
    assert verdict.constraint_count > 0


def test_cycle_has_no_relative_constraints(cfg4):
    # no two requests are seen in the same order by all four parties
    trace = run(cycle_schedule(cfg4))
    verdict = check_relative_block_fairness(TraceView(trace))
    assert verdict.constraint_count == 0
    assert verdict.holds


CYCLE_GOLDEN = {
    (): set(),
    (0,): {("m4", "m1")},
    (1,): {("m1", "m2")},
    (2,): {("m2", "m3")},
    (3,): {("m3", "m4")},
}


def test_cycle_oracle_constraint_structure(cfg4):
    trace = run(cycle_schedule(cfg4))
    oracle = oracle_constraints(trace)
    assert {h: set(pairs) for h, pairs in oracle.relative.items()} == CYCLE_GOLDEN
    union = oracle.relative_union()
    # the union chains every request behind its predecessor, closing a cycle
    assert union == {("m1", "m2"), ("m2", "m3"), ("m3", "m4"), ("m4", "m1")}


def test_oracle_rejects_oversized_traces(cfg4):
    trace = run(benign_schedule(cfg4, requests=13, seed=0))
    with pytest.raises(ValueError):
        oracle_constraints(trace)


def test_timed_constraints_track_disjoint_intervals(cfg4):
    trace = run(dataclasses.replace(benign_schedule(cfg4, requests=3, seed=2),
                                    mode="clocked"))
    verdict = check_timed_fairness(TraceView(trace))
    assert verdict.holds
    assert verdict.constraint_count > 0
    # the cycle interleaves sighting intervals, so no pair is separated
    cyc = run(dataclasses.replace(cycle_schedule(cfg4), mode="clocked"))
    assert check_timed_fairness(TraceView(cyc)).constraint_count == 0


def _tamper_block_order(trace: Trace) -> Trace:
    lines = trace.lines()
    swapped = []
    for line in lines:
        rec = json.loads(line)
        if rec.get("kind") == "block" and len(rec["requests"]) >= 2:
            rec["requests"] = rec["requests"][::-1]
        swapped.append(json.dumps(rec, sort_keys=True))
    return Trace.from_lines(swapped)


def test_auditor_flags_hand_corrupted_trace(cfg4):
    trace = run(dataclasses.replace(benign_schedule(cfg4, requests=3, seed=2),
                                    mode="clocked"))
    assert check_timed_fairness(TraceView(trace)).holds
    corrupted = _tamper_block_order(trace)
    tampered_any = any(
        json.loads(a) != json.loads(b) for a, b in zip(trace.lines(), corrupted.lines())
    )
    if tampered_any:
        verdict = check_timed_fairness(TraceView(corrupted))
        # blocks here are single-request, so tamper the delivery order instead
        if all(len(b["requests"]) < 2 for b in records(trace, "block")):
            pytest.skip("no multi-request block to tamper")
        assert not verdict.holds


def test_auditor_flags_reordered_blocks(cfg4):
    trace = run(benign_schedule(cfg4, requests=3, seed=4))
    lines = [json.loads(l) for l in trace.lines()]
    blocks = [r for r in lines if r.get("kind") == "block"]
    assert len(blocks) >= 2
    blocks[0]["requests"], blocks[-1]["requests"] = blocks[-1]["requests"], blocks[0]["requests"]
    corrupted = Trace.from_lines([json.dumps(r, sort_keys=True) for r in lines])
    verdict = check_relative_block_fairness(TraceView(corrupted))
    assert not verdict.holds
    # every violation names a pair and the offending blocks
    for v in verdict.violations:
        assert {"r1", "r2", "block_r1", "block_r2"} <= set(v)


def test_block_fairness_on_benign_run(cfg4):
    trace = run(benign_schedule(cfg4, requests=3, seed=5))
    verdict = check_block_fairness(TraceView(trace))
    assert verdict.holds


def test_block_fairness_flags_unseen_member(cfg4):
    trace = run(benign_schedule(cfg4, requests=2, seed=6))
    lines = [json.loads(l) for l in trace.lines()]
    for rec in lines:
        if rec.get("kind") == "request":
            ghost_base = rec
            break
    ghost = {**ghost_base, "id": req("ghost", ghost_base["market"]).id, "name": "ghost"}
    blocks = [r for r in lines if r.get("kind") == "block"]
    blocks[0]["requests"] = blocks[0]["requests"] + ["ghost"]
    lines.insert(1, ghost)
    corrupted = Trace.from_lines([json.dumps(r, sort_keys=True) for r in lines])
    verdict = check_block_fairness(TraceView(corrupted))
    assert not verdict.holds
    assert any(v["request"] == "ghost" for v in verdict.violations)


def _cut_and_complete(scenario, stops):
    """One run's trace as it stood after each count of events in `stops`,
    then its complete trace."""
    sim = Simulation(scenario)
    done = 0
    for stop in stops:
        for event in scenario.events[done:stop]:
            sim.execute(event)
        done = stop
        yield Trace(header=sim.trace.header, rows=list(sim.trace.rows))
    for event in scenario.events[done:]:
        sim.execute(event)
    sim.drain()
    yield sim.finish()


def test_checker_and_oracle_agree_on_fuzz_traces(cfg4):
    # A complete run's relays leave every honest party with the same
    # sightings, so each scenario is also cut short before its drain: there
    # an honest party may never have sighted a request that others did.
    partial = 0
    for seed in range(12):
        scenario = fuzz_scenario(seed, n=4, t=1, mode="neverending")
        for trace in _cut_and_complete(scenario, [len(scenario.events) // 2]):
            view = TraceView(trace)
            oracle = oracle_constraints(trace)
            actual = tuple(sorted(view.corrupt))
            assert view.relative_constraints == oracle.relative[actual]
            assert view.timed_constraints == oracle.timed[actual]
            assert header_constraints(trace) == (oracle.relative[actual], oracle.timed[actual])
            partial += len({frozenset(view.sight_step[p]) for p in view.honest}) > 1
    assert partial


def test_builders_match_the_header_oracle_past_64_requests(cfg4, cfg7):
    # Masks wider than a machine word, two markets, and (cut short, in the
    # middle of a request's sightings) honest parties that never sighted a
    # request others did. Parties 2 and 5 are declared corrupt but send like
    # honest ones.
    benign = benign_schedule(cfg7, requests=100, seed=3, markets=2)  # 8 events a request
    scenarios = [
        (segment_schedule(cfg4, depth=20), (300, 360)),
        (benign, (563, 723)),
        (dataclasses.replace(benign, corrupt=(2, 5)), (645,)),
    ]
    partial = 0
    for scenario, stops in scenarios:
        for trace in _cut_and_complete(scenario, stops):
            view = TraceView(trace)
            assert len(view.market) > 64
            relative, timed = header_constraints(trace)
            assert view.relative_constraints == relative
            assert view.timed_constraints == timed
            partial += len({frozenset(view.sight_step[p]) for p in view.honest}) > 1
    assert partial == 5


def test_violations_come_in_the_documented_order(cfg4):
    # The first and last of twelve one-request blocks swap their requests.
    trace = run(benign_schedule(cfg4, requests=12, seed=1))
    blocks = records(trace, "block")
    blocks[0]["requests"], blocks[-1]["requests"] = blocks[-1]["requests"], blocks[0]["requests"]
    report = audit_trace(trace)
    for key in ("relative_block_fairness", "timed_relative_fairness", "strict_relative_fairness"):
        pairs = [(v["r1"], v["r2"]) for v in report.verdicts[key].violations]
        assert len(pairs) > 10 and pairs == sorted(pairs), key
    numbers = [v["block"] for v in report.verdicts["block_fairness"].violations]
    assert numbers and numbers == sorted(numbers)


def test_full_report_shape(cfg4):
    trace = run(dataclasses.replace(benign_schedule(cfg4, requests=3, seed=7),
                                    mode="clocked"))
    report = audit_trace(trace)
    data = report.to_dict()
    assert data["gate_ok"] is True
    assert set(data) >= {
        "block_fairness", "relative_block_fairness", "timed_relative_fairness",
        "absolute_fairness", "strict_relative_fairness",
    }
    text = report.render_text()
    assert "relative block fairness" in text


def test_block_fairness_boundary_strong_quorum_sighting(cfg4):
    # r2 is sighted by exactly n-t honest parties before the second
    # incarnation begins, so block fairness requires it in that block
    scenario = Scenario(
        n=4, t=1, requests={"r1": "m", "r2": "m"},
        events=[
            {"a": "see", "party": 0, "request": "r1"},
            {"a": "see", "party": 1, "request": "r1"},
            {"a": "see", "party": 2, "request": "r1"},
            {"a": "see", "party": 3, "request": "r1"},
            {"a": "see", "party": 0, "request": "r2"},
            {"a": "see", "party": 1, "request": "r2"},
            {"a": "see", "party": 2, "request": "r2"},
            {"a": "flush", "tags": None, "seen_only": False},
        ],
    )
    trace = run(scenario)
    view = TraceView(trace)
    assert len(records(trace, "block")) == 2
    start = view.incarnation_start[1]
    seen_before = sum(
        1 for p in view.honest if view.sight_step[p].get("r2", 10**18) < start
    )
    assert seen_before == 3  # the boundary the definition names
    assert view.final_pos["r2"][0] == 1
    assert check_block_fairness(view).holds


def test_oracle_union_forces_segments_into_one_block(cfg4):
    trace = run(segment_schedule(cfg4, depth=2))
    union = oracle_constraints(trace).relative_union()
    requests = {f"m{i + 1}" for i in range(8)}
    # same-or-earlier constraints chain every request to every other in both
    # directions, which is exactly the all-in-one-block requirement
    reach = {r: {r} for r in requests}
    changed = True
    while changed:
        changed = False
        for a, b in union:
            for src in requests:
                if a in reach[src] and b not in reach[src]:
                    reach[src].add(b)
                    changed = True
    assert all(reach[r] == requests for r in requests)


def test_oracle_on_empty_trace(cfg4):
    trace = run(Scenario(n=4, t=1))
    oracle = oracle_constraints(trace)
    assert oracle.relative_union() == set()
    assert all(not pairs for pairs in oracle.timed.values())


def test_absolute_fairness_across_modes(cfg4):
    for seed in range(10):
        for mode, rmax in (("neverending", 0), ("clocked", 0), ("hybrid", 4)):
            trace = run(fuzz_scenario(500 + seed, n=4, t=1, mode=mode, r_max=rmax))
            from fairlab.audit import check_absolute_fairness
            verdict = check_absolute_fairness(TraceView(trace))
            assert verdict.holds, (mode, seed, verdict.violations)


@pytest.mark.parametrize("mode", ["neverending", "clocked", "hybrid"])
def test_pair_checkers_skip_an_undelivered_r2(mode):
    # Every party sees m1; only the silent corrupt party 3 sees m2, so no
    # vote for m2 exists. (m1, m2) is a relative constraint whose r2 is never
    # delivered, which violates nothing.
    from fairlab.simnet.scenario import BehaviorSpec
    sees = [{"a": "see", "party": p, "request": "m1"} for p in range(4)]
    scenario = Scenario(n=4, t=1, requests={"m1": "m", "m2": "m"}, mode=mode,
                        corrupt=(3,), behaviors={3: BehaviorSpec(kind="silent")},
                        events=sees + [{"a": "see", "party": 3, "request": "m2"}])
    trace = run(scenario)
    assert set(TraceView(trace).final_pos) == {"m1"}
    report = audit_trace(trace)
    for key in ("relative_block_fairness", "strict_relative_fairness"):
        verdict = report.verdicts[key]
        assert verdict.constraint_count == 1 and verdict.holds, key
    assert report.verdicts["timed_relative_fairness"].holds
    assert report.gate_ok()


def test_hybrid_cutoff_sacrifice_is_real_and_confined(cfg4):
    # A run in which the cutoff genuinely costs block-relative fairness for
    # specific pairs: the violations exist, sit only in post-cutoff blocks,
    # and the fallback's own timed guarantee still holds.
    trace = run(fuzz_scenario(2244, n=4, t=1, mode="hybrid", r_max=3))
    assert any(v > 0 for v in trace.summary["fallback_activations"].values())
    report = audit_trace(trace)
    assert report.verdicts["relative_block_fairness"].violations  # the designed sacrifice
    assert report.violations_confined_post_cutoff
    assert report.verdicts["timed_relative_fairness"].holds
    assert report.gate_ok()


def test_gates_hold_where_honest_sightings_differ():
    # A complete run's relays leave every honest party with the same
    # sightings. Cut short at half its events and finished without a drain,
    # a run may leave an honest party without a request that others sighted,
    # and every mode's gate must still hold there.
    runs = differ = 0
    for mode, r_max in (("neverending", 0), ("clocked", 0), ("hybrid", 2)):
        for n, t in ((4, 1), (7, 2)):
            for seed in range(12):
                scenario = fuzz_scenario(seed, n=n, t=t, mode=mode, r_max=r_max)
                sim = Simulation(scenario)
                for event in scenario.events[:len(scenario.events) // 2]:
                    sim.execute(event)
                trace = sim.finish()
                assert audit_trace(trace).gate_ok(), (mode, n, seed)
                view = TraceView(trace)
                differ += len({frozenset(view.sight_step[p]) for p in view.honest}) > 1
                runs += 1
    assert runs == 72 and differ >= 40


@pytest.fixture(scope="module")
def fuzz_traces():
    """Fuzz runs in every mode at n=4 and n=7, and the wrapped hybrid run."""
    traces = [run(wrapped_hybrid_scenario())]
    for mode, r_max in (("neverending", 0), ("clocked", 0), ("hybrid", 2)):
        for n, t in ((4, 1), (7, 2)):
            for seed in range(12):
                traces.append(run(fuzz_scenario(700 + seed, n=n, t=t, mode=mode, r_max=r_max)))
    return traces


def test_block_fairness_matches_the_per_block_recount(fuzz_traces):
    # The checker ranks each request's honest sightings once; the first
    # formula counts them again for every (block, request) pair.
    flagged = 0
    for trace in fuzz_traces:
        view = TraceView(trace)
        verdict = check_block_fairness(view)
        assert verdict == recount_block_fairness(view)
        flagged += bool(verdict.violations)
    assert flagged  # the two agree on violations, not only on empty lists


def test_loaded_trace_audits_like_the_run(fuzz_traces):
    for trace in fuzz_traces:
        loaded = Trace.from_lines(trace.lines())
        assert audit_trace(loaded).to_dict() == audit_trace(trace).to_dict()
