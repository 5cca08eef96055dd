"""Brute-force and first-formula references the tests check the fast code
against. None of them is called at run time."""

from itertools import combinations

from fairlab.audit import TraceView, Verdict
from fairlab.fairness import median_timestamp


def enumerate_max_median(timestamps, q):
    """Brute-force reference for max_median_of; ValueError below q timestamps."""
    return max(median_timestamp(sub) for sub in combinations(sorted(timestamps), q))


def recount_block_fairness(view: TraceView) -> Verdict:
    """Block fairness by its first formula: for every (block, request) pair,
    count again the honest parties that sighted the request in time."""
    quorum = view.n - view.t
    violations = []
    checked = 0
    for block in view.blocks:
        number = block["number"]
        start = view.incarnation_start.get(number, 0)
        for name in view.requests():
            seen_before_start = sum(
                1 for p in view.honest if view.sight_step[p].get(name, 10**18) < start
            )
            checked += 1
            if seen_before_start >= quorum:
                delivered_at = view.final_pos.get(name, (None,))[0]
                if delivered_at is None or delivered_at > number:
                    violations.append({
                        "request": name, "block": number,
                        "reason": "seen by a strong quorum of honest parties "
                                  "before the incarnation began but not included",
                    })
        for name in set(block["requests"]):
            honest_saw = any(
                view.sight_step[p].get(name, 10**18) < block["step"] for p in view.honest
            )
            if not honest_saw:
                violations.append({
                    "request": name, "block": number,
                    "reason": "included without any honest sighting",
                })
    return Verdict(violations=violations, constraint_count=checked)
