"""Brute-force and first-formula references the tests check the fast code
against. None of them is called at run time."""

from dataclasses import dataclass
from itertools import combinations

from fairlab.audit import TraceView, Verdict
from fairlab.simnet.trace import Trace

ORACLE_LIMIT = 12


def lower_median(timestamps):
    """Median of a non-empty multiset by definition: sorted, the middle
    element, the lower of the two middles at even size."""
    ordered = sorted(timestamps)
    return ordered[(len(ordered) - 1) // 2]


def enumerate_max_median(timestamps, q):
    """Brute-force largest median over the q-subsets of timestamps, the
    reference for `median_bounds(timestamps, q)[1]`; ValueError below q
    timestamps."""
    return max(lower_median(sub) for sub in combinations(sorted(timestamps), q))


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


@dataclass
class OracleConstraints:
    relative: dict[tuple[int, ...], frozenset]
    timed: dict[tuple[int, ...], frozenset]

    def relative_union(self) -> set[tuple[str, str]]:
        out: set[tuple[str, str]] = set()
        for pairs in self.relative.values():
            out.update(pairs)
        return out


def oracle_constraints(trace: Trace) -> OracleConstraints:
    """Exhaustive re-derivation from the raw header, request and sight
    records only: for every corruption hypothesis of size at most t, the
    constraint sets the chain would have to satisfy if exactly those parties
    were corrupt. It reads no TraceView and calls no auditor code, so the
    auditor's builders are checked against the definitions, not themselves."""
    n, t = trace.header["n"], trace.header["t"]
    names: dict[str, str] = {}  # request id -> name
    market: dict[str, str] = {}  # request name -> market
    order: dict[int, list[str]] = {p: [] for p in range(n)}  # names in sighting order
    clock: dict[int, dict[str, int]] = {p: {} for p in range(n)}  # name -> local time
    for rec in trace.records:
        if rec["kind"] == "request":
            names[rec["id"]] = rec["name"]
            market[rec["name"]] = rec["market"]
        elif rec["kind"] == "sight":
            name = names[rec["request"]]
            order[rec["party"]].append(name)
            clock[rec["party"]].setdefault(name, rec["ts"])
    if len(market) > ORACLE_LIMIT:
        raise ValueError(f"oracle is desk-scale only ({len(market)} requests > {ORACLE_LIMIT})")
    pairs = frozenset((r1, r2) for r1 in market for r2 in market
                      if r1 != r2 and market[r1] == market[r2])
    # Each party's verdict on each pair is computed once: the pairs it
    # received first, and for each ordered pair of parties (p, q) the pairs
    # whose r1 p sighted earlier, on p's clock, than q sighted r2 on q's. A
    # hypothesis's sets intersect these over its honest parties.
    first = {p: {(r1, r2) for r1, r2 in pairs if _received_first(order[p], r1, r2)}
             for p in range(n)}
    earlier = {(p, q): {(r1, r2) for r1, r2 in pairs
                        if r1 in clock[p] and r2 in clock[q] and clock[p][r1] < clock[q][r2]}
               for p in range(n) for q in range(n)}
    relative: dict[tuple[int, ...], frozenset] = {}
    timed: dict[tuple[int, ...], frozenset] = {}
    for size in range(t + 1):
        for combo in combinations(range(n), size):
            honest = [p for p in range(n) if p not in combo]
            relative[combo] = pairs.intersection(*(first[p] for p in honest))
            # Over every honest (p, q): every honest party sighted both, and
            # each honest r1 sighting is earlier than each honest r2 sighting,
            # so a time tau lies between them.
            timed[combo] = pairs.intersection(*(earlier[p, q] for p in honest for q in honest))
    return OracleConstraints(relative=relative, timed=timed)


def _received_first(order: list[str], r1: str, r2: str) -> bool:
    """The party sighted r1, and r2 is not among its sightings before r1."""
    return r1 in order and r2 not in order[:order.index(r1)]
