"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is deterministic and desk-scale (a few minutes end to end).
"""

import dataclasses
import json
import statistics
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from fairlab.audit import (
    TraceView,
    audit_trace,
    check_relative_block_fairness,
    check_timed_fairness,
)
from fairlab.core import validate_config
from fairlab.simnet.generators import (
    benign_schedule,
    cycle_schedule,
    fuzz_scenario,
    probabilistic_adversary,
    segment_schedule,
)
from fairlab.simnet.runner import Simulation
from fairlab.validity import certificate_from_dict, verify_certificate
from fairlab.votes import MedianSummary, median_bounds

import certutil
from conftest import records, run
from oracles import count_before, enumerate_max_median, oracle_constraints

GOLDEN_DIR = Path(__file__).parent / "golden"
CFG4 = validate_config(4, 1)
CFG7 = validate_config(7, 2)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1: impossibility reproduction -------------------------------------------

def test_criterion_1_impossibility_reproduction():
    runtimes = {}
    for depth in (2, 3, 5, 10):
        scenario = segment_schedule(CFG4, depth=depth)
        started = time.perf_counter()
        trace = run(scenario)
        runtimes[depth] = time.perf_counter() - started
        summary = trace.summary
        blocks = records(trace, "block")
        expected = {f"m{i + 1}" for i in range(4 * depth)}
        assert summary["blocks"] == 1, f"depth {depth}: {summary['blocks']} blocks"
        assert summary["max_candidate_order"] == 4 * depth
        assert set(blocks[0]["requests"]) == expected
        # nothing is emitted while injection continues
        assert blocks[0]["step"] > summary["injection_end_step"]
    assert runtimes[10] < 5.0, f"k=10 took {runtimes[10]:.2f}s"
    _verdict(1, True,
             f"one terminal block of 4k for k in (2,3,5,10); k=10 in {runtimes[10]:.2f}s")


# -- 2: cycle-schedule constraint structure -----------------------------------

CYCLE_GOLDEN = {
    (): frozenset(),
    (0,): frozenset({("m4", "m1")}),
    (1,): frozenset({("m1", "m2")}),
    (2,): frozenset({("m2", "m3")}),
    (3,): frozenset({("m3", "m4")}),
}
CYCLE_UNION = {("m1", "m2"), ("m2", "m3"), ("m3", "m4"), ("m4", "m1")}


def test_criterion_2_cycle_constraint_structure():
    trace = run(cycle_schedule(CFG4))
    oracle = oracle_constraints(trace)
    assert dict(oracle.relative) == CYCLE_GOLDEN
    assert oracle.relative_union() == CYCLE_UNION
    blocks = records(trace, "block")
    assert len(blocks) == 1
    assert set(blocks[0]["requests"]) == {"m1", "m2", "m3", "m4"}
    _verdict(2, True, "per-hypothesis chains match exactly and close a cycle; "
                      "all four requests ship together")


# -- 3 and 4: safety and liveness fuzz ----------------------------------------

def _fuzz_cells(mode: str, r_max: int, per_cell: int, base: int):
    for n, t in ((4, 1), (7, 2)):
        for i in range(per_cell):
            yield fuzz_scenario(base + i * 13 + n, n=n, t=t, mode=mode, r_max=r_max)


def _proposals_all_accepted(trace) -> int:
    """Assert that the chain took every proposal an honest engine made, with
    no reason; returns their count. An invalid certificate from an honest
    engine would put the verifier's reason in the trace."""
    proposals = records(trace, "proposal")
    refused = [r for r in proposals if (r["outcome"], r["reason"]) != ("accepted", None)]
    assert not refused, f"{trace.header['label']}: {refused[:2]}"
    return len(proposals)


def test_criterion_3_block_fair_safety_fuzz():
    checked = proposals = 0
    for mode, r_max, base in (("neverending", 0, 10_000), ("hybrid", 10**6, 20_000)):
        for scenario in _fuzz_cells(mode, r_max, per_cell=250, base=base):
            trace = run(scenario)
            view = TraceView(trace)
            if mode == "hybrid":
                activations = trace.summary["fallback_activations"].values()
                assert all(a == 0 for a in activations), "cutoff fired pre-cutoff"
            verdict = check_relative_block_fairness(view)
            assert verdict.holds, (
                f"{scenario.label} ({mode}): {verdict.violations[:2]}"
            )
            proposals += _proposals_all_accepted(trace)
            oracle = oracle_constraints(trace)
            actual = tuple(sorted(view.corrupt))
            assert view.relative_constraints == oracle.relative[actual], (
                f"{scenario.label}: checker and oracle disagree"
            )
            checked += 1
    assert checked == 1000 and proposals > 0
    _verdict(3, True, f"{checked} adversarial scenarios, zero relative-block-fairness "
                      "violations, checker and oracle agree on every trace, all "
                      f"{proposals} proposals accepted")


def test_criterion_4_clocked_safety_and_liveness():
    # the same scenario matrix as criterion 3, re-run under the clocked engine
    checked = proposals = 0
    for base in (10_000, 20_000):
        for scenario in _fuzz_cells("clocked", 0, per_cell=250, base=base):
            trace = run(scenario)
            view = TraceView(trace)
            verdict = check_timed_fairness(view)
            assert verdict.holds, f"{scenario.label}: {verdict.violations[:2]}"
            proposals += _proposals_all_accepted(trace)
            if any(view.sight_step[p] for p in view.honest):
                assert trace.summary["blocks"] >= 1, f"{scenario.label}: no block emitted"
            oracle = oracle_constraints(trace)
            actual = tuple(sorted(view.corrupt))
            assert view.timed_constraints == oracle.timed[actual], (
                f"{scenario.label}: checker and oracle disagree"
            )
            checked += 1
    assert checked == 1000 and proposals > 0
    _verdict(4, True, f"{checked} clocked scenarios, zero timed-fairness violations, "
                      "every run with an honest-seen request emitted a block, "
                      f"checker and oracle agree on every trace, all {proposals} "
                      "proposals accepted")


# -- 5: hybrid cutoff golden ---------------------------------------------------

def _hybrid_cutoff_scenario():
    return dataclasses.replace(
        segment_schedule(CFG4, depth=4), mode="hybrid", r_max=6, leaders=(0,)
    )


def test_criterion_5_hybrid_cutoff_behavior():
    trace = run(_hybrid_cutoff_scenario())
    golden = (GOLDEN_DIR / "hybrid_segments_k4_rmax6.jsonl").read_text()
    assert trace.to_text() == golden, "trace deviates from the golden run"
    summary = trace.summary
    assert summary["fallback_activations"] == {"0": 1}
    assert summary["fallback_blocks"]["0"] >= 1
    timed_blocks = [b for b in records(trace, "block") if b["tag"] == "timed-fair"]
    assert timed_blocks, "fallback emitted no timed block"
    report = audit_trace(trace)
    assert report.violations_confined_post_cutoff
    assert all(b["post_cutoff"] for b in timed_blocks)
    _verdict(5, True, "fallback activated exactly once, emitted "
                      f"{len(timed_blocks)} timed blocks, violations confined "
                      "to post-cutoff blocks, golden trace matches")


# -- 6: validity mutation suite -------------------------------------------------

def _collect_certificates():
    sources = [
        cycle_schedule(CFG4),
        segment_schedule(CFG4, depth=2),
        dataclasses.replace(segment_schedule(CFG4, depth=3), mode="hybrid",
                            r_max=10**6, leaders=(0,)),
        _hybrid_cutoff_scenario(),
        dataclasses.replace(segment_schedule(CFG4, depth=2), mode="clocked"),
        dataclasses.replace(benign_schedule(CFG4, requests=4, seed=3), mode="clocked"),
        fuzz_scenario(77, n=4, t=1, mode="neverending"),
        fuzz_scenario(78, n=7, t=2, mode="clocked"),
        fuzz_scenario(79, n=4, t=1, mode="hybrid", r_max=10**6),
    ]
    certs = []
    for scenario in sources:
        sim = Simulation(scenario)
        for event in scenario.events:
            sim.execute(event)
        sim.drain()
        sim.finish()
        cfg = validate_config(scenario.n, scenario.t)
        for line in sim.chain_lines():
            entry = json.loads(line)
            certs.append((cfg, certificate_from_dict(entry["certificate"])))
    return certs


def test_criterion_6_validity_mutation_suite():
    certs = _collect_certificates()[:40]
    assert len(certs) >= 20
    honest_ok = 0
    applied = {"dropped-vote": 0, "dropped-history": 0, "omitted-member": 0,
               "timestamp-inversion": 0, "emptied-requests": 0, "padded-member": 0,
               "block-fair-pivot": 0}
    for cfg, cert in certs:
        assert verify_certificate(cfg, cert).ok, "honest certificate rejected"
        honest_ok += 1

        member = cert.requests[0]
        mutated = certutil.reduce_member_votes(cert, member, cfg.n - cfg.t - 1)
        out = verify_certificate(cfg, mutated)
        assert (not out.ok) and out.reason == "insufficient-votes", out
        applied["dropped-vote"] += 1

        if any(len(v) >= 2 for v in cert.votes_by_party.values()):
            out = verify_certificate(cfg, certutil.drop_history_entry(cert))
            assert (not out.ok) and out.reason == "missing-history", out
            applied["dropped-history"] += 1

        removable = _removable_member(cfg, cert)
        if removable is not None:
            out = verify_certificate(cfg, certutil.omit_member(cert, removable))
            assert (not out.ok) and out.reason == "omitted-blocked-request", out
            applied["omitted-member"] += 1

        timestamped = any(
            v.ts is not None for vs in cert.votes_by_party.values() for v in vs
        )
        if timestamped and any(len(v) >= 2 for v in cert.votes_by_party.values()):
            try:
                mutated, party, idx = certutil.invert_timestamps(cert)
            except ValueError:
                mutated = None
            if mutated is not None:
                expected = certutil.expected_inversion_reason(mutated, cfg, party, idx)
                out = verify_certificate(cfg, mutated)
                assert (not out.ok) and out.reason == expected, (out, expected)
                applied["timestamp-inversion"] += 1

        out = verify_certificate(cfg, certutil.empty_requests(cert))
        assert (not out.ok) and out.reason == "empty-block", out
        applied["emptied-requests"] += 1

        if cert.mode_tag == "timed-fair":
            padded = certutil.pad_member(cert, cfg)
            if padded is not None:
                out = verify_certificate(cfg, padded)
                assert (not out.ok) and out.reason == "member-after-pivot", out
                applied["padded-member"] += 1
        else:
            pivot = MedianSummary(member, (0,) * (cfg.n - cfg.t), 0)
            out = verify_certificate(cfg, dataclasses.replace(cert, pivot=pivot))
            assert (not out.ok) and out.reason == "invalid-pivot", out
            applied["block-fair-pivot"] += 1

    assert honest_ok == len(certs)
    assert all(count >= 5 for count in applied.values()), applied
    _verdict(6, True, f"{honest_ok} honest certificates verify; "
                      f"mutations rejected with matching reasons: {applied}")


def _removable_member(cfg, cert):
    """A member whose omission the matching verifier must flag."""
    if len(cert.requests) < 2:
        return None
    if cert.mode_tag == "timed-fair":
        for member in cert.requests:
            if member == cert.pivot.request:
                continue
            below = sum(
                1
                for votes in cert.votes_by_party.values()
                for v in votes
                if v.request == member and v.ts < cert.pivot.m_r
            )
            if below >= cfg.t + 1:
                return member
        return None
    # block-fair: any member still blocking another member once omitted
    table = cert.request_table
    # Each party's cited votes are its accepted log, in seq order.
    logs = {party: [v.request for v in votes] for party, votes in cert.votes_by_party.items()}
    for member in cert.requests:
        for other in cert.requests:
            if other == member or table[member].market != table[other].market:
                continue
            if count_before(logs, other, member) < cfg.t + 1:
                return member
    return None


# -- 7: probabilistic adversary --------------------------------------------------

def test_criterion_7_probabilistic_adversary():
    base = segment_schedule(CFG4, depth=10)
    first_block = {}
    terminated_during_injection = 0
    for seed in range(200):
        summary = run(probabilistic_adversary(base, 0.05, 9_000 + seed)).summary
        first_block[(0.05, seed)] = summary["first_block_action"]
        if summary["first_block_action"] <= summary["injection_end_action"]:
            terminated_during_injection += 1
    assert terminated_during_injection >= 1
    trend_seeds = range(60)
    means = []
    for p in (0.05, 0.2, 0.5, 1.0):
        values = []
        for seed in trend_seeds:
            key = (p, seed)
            if key not in first_block:
                summary = run(probabilistic_adversary(base, p, 9_000 + seed)).summary
                first_block[key] = summary["first_block_action"]
            values.append(first_block[key])
        means.append(statistics.mean(values))
    assert all(a > b for a, b in zip(means, means[1:])), means
    _verdict(7, True, f"{terminated_during_injection}/200 runs terminated during "
                      f"injection at p=0.05; mean time-to-first-block "
                      f"{[round(m, 1) for m in means]} strictly decreasing over p")


# -- 8: max-median oracle equivalence ---------------------------------------------

def test_criterion_8_max_median_oracle_equivalence():
    checked = 0
    for cfg in (CFG4, CFG7):
        q = cfg.strong_size
        for size in range(q, 9):
            for ts in combinations_with_replacement(range(1, 9), size):
                assert median_bounds(ts, q)[1] == enumerate_max_median(ts, q)
                checked += 1
    _verdict(8, True, f"shortcut equals subset enumeration on {checked} "
                      "timestamp multisets, zero mismatches")


# -- 9: determinism ----------------------------------------------------------------

def _golden_suite():
    return [
        cycle_schedule(CFG4),
        segment_schedule(CFG4, depth=2),
        _hybrid_cutoff_scenario(),
        dataclasses.replace(benign_schedule(CFG4, requests=4, seed=4), mode="clocked"),
        probabilistic_adversary(segment_schedule(CFG4, depth=2), 0.2, 11),
        fuzz_scenario(17, n=7, t=2, mode="clocked"),
    ]


def test_criterion_9_determinism():
    for scenario in _golden_suite():
        texts = {run(scenario).to_text() for _ in range(3)}
        assert len(texts) == 1, f"{scenario.label} produced diverging traces"
    _verdict(9, True, "every golden-suite scenario reruns to byte-identical "
                      "traces across 3 repetitions")
