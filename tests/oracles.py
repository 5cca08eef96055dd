"""Brute-force and first-formula references the tests check the fast code
against. None of them is called at run time."""

from dataclasses import dataclass
from itertools import combinations
from math import inf

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


def count_before(logs, r, r2):
    """The parties whose first vote for r comes before any vote for r2,
    recounted from raw per-party logs: {party: [request id, in seq order]}."""
    count = 0
    for entries in logs.values():
        if r not in entries:
            continue
        if r2 not in entries or entries.index(r) < entries.index(r2):
            count += 1
    return count


def block_fair_fault(n, t, histories, block, market):
    """Why a block-fair certificate may not ship `block`, by the definitions,
    or None when it may: `histories` maps each cited party to the request ids
    it voted for, in sequence order, every vote well-formed; `market` maps
    each request id to its market. The block needs every member voted for by
    n-t parties ("insufficient-votes"). Then, for every member m and every
    cited request r2 outside the block in m's market, t+1 parties, one of
    them honest, must hold m without r2 or before it, or r2 may have to come
    no later than m ("omitted-blocked-request"). It calls no protocol code:
    `count_before` above recounts the raw histories."""
    if any(sum(m in h for h in histories.values()) < n - t for m in block):
        return "insufficient-votes"
    cited = {r for h in histories.values() for r in h}
    for m in block:
        for r2 in cited:
            if (r2 not in block and market[r2] == market[m]
                    and count_before(histories, m, r2) < t + 1):
                return "omitted-blocked-request"
    return None


def recount_block_fairness(view: TraceView) -> Verdict:
    """Block fairness by its first formula: for every (block, request) pair,
    count again the honest parties that sighted the request in time."""
    quorum = view.cfg.n - view.cfg.t
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
        for name in dict.fromkeys(block["requests"]):
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
    market, position, clock = _sightings(trace)
    if len(market) > ORACLE_LIMIT:
        raise ValueError(f"oracle is desk-scale only ({len(market)} requests > {ORACLE_LIMIT})")
    pairs = _pairs(market)
    # Each party's verdict on each pair is computed once: the pairs it
    # received first, and for each ordered pair of parties (p, q) the pairs
    # whose r1 p sighted earlier, on p's clock, than q sighted r2 on q's. A
    # hypothesis's sets intersect these over its honest parties.
    first = {p: _received_first(pairs, position[p]) for p in range(n)}
    earlier = {(p, q): _earlier(pairs, clock[p], clock[q]) for p in range(n) for q in range(n)}
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


def header_constraints(trace: Trace) -> tuple[frozenset, frozenset]:
    """The relative and timed constraint sets of the one hypothesis the
    header's `corrupt` list names, by the same per-party definitions as
    `oracle_constraints` and without its request limit: each honest party,
    and each ordered pair of them, keeps only the pairs it agrees with."""
    n, corrupt = trace.header["n"], trace.header["corrupt"]
    market, position, clock = _sightings(trace)
    honest = [p for p in range(n) if p not in corrupt]
    relative = timed = _pairs(market)
    for p in honest:
        relative = _received_first(relative, position[p])
        for q in honest:
            timed = _earlier(timed, clock[p], clock[q])
    return relative, timed


def _sightings(trace: Trace):
    """From the raw request and sight records: each request name's market,
    and per party each name's place among its sightings and its local time,
    both from the party's first sighting of it."""
    n = trace.header["n"]
    names: dict[str, str] = {}  # request id -> name
    market: dict[str, str] = {}  # request name -> market
    position: dict[int, dict[str, int]] = {p: {} for p in range(n)}  # name -> sighting index
    clock: dict[int, dict[str, int]] = {p: {} for p in range(n)}  # name -> local time
    for rec in trace.records:
        if rec["kind"] == "request":
            names[rec["id"]] = rec["name"]
            market[rec["name"]] = rec["market"]
        elif rec["kind"] == "sight":
            name = names[rec["request"]]
            position[rec["party"]].setdefault(name, len(position[rec["party"]]))
            clock[rec["party"]].setdefault(name, rec["ts"])
    return market, position, clock


def _pairs(market: dict[str, str]) -> frozenset:
    """Every ordered pair of distinct requests in one market."""
    return frozenset((r1, r2) for r1 in market for r2 in market
                     if r1 != r2 and market[r1] == market[r2])


def _received_first(pairs, position: dict[str, int]) -> frozenset:
    """The pairs (r1, r2) whose r1 the party sighted, and r2 not before r1."""
    return frozenset((r1, r2) for r1, r2 in pairs
                     if r1 in position and position.get(r2, inf) > position[r1])


def _earlier(pairs, clock_p: dict[str, int], clock_q: dict[str, int]) -> frozenset:
    """The pairs (r1, r2) whose r1 party p sighted, on its clock, earlier
    than party q sighted r2 on q's."""
    return frozenset((r1, r2) for r1, r2 in pairs
                     if r1 in clock_p and r2 in clock_q and clock_p[r1] < clock_q[r2])
