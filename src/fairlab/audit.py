"""Post-hoc fairness auditor.

The auditor reconstructs ground truth from the trace's sighting records (not
from protocol state) and checks each fairness definition against the chain
that was produced. Its constraint sets are those of the trace's actual
corruption set; the test suite checks them against an exhaustive
re-derivation over every corruption hypothesis from the raw records alone.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from typing import Callable

from .core import request_id, validate_config
from .leaders import CLOCKED, HYBRID, MODES, NEVERENDING
from .simnet.trace import Trace

# Record fields the auditor reads, with their JSON types (true is no int).
AUDITED_FIELDS = {
    "request": {"id": str, "name": str, "market": str},
    "sight": {"party": int, "request": str, "ts": int, "step": int},
    "block": {"number": int, "requests": list, "step": int, "post_cutoff": bool},
    "incarnation": {"block": int, "step": int},
}


class TraceView:
    """The one reader of a trace's records. One walk checks the fields the
    checkers read and the trace rules in docs/FORMATS.md, with a ValueError
    that quotes the record, and indexes the run by request name."""

    def __init__(self, trace: Trace):
        header = trace.header
        cfg = self.cfg = validate_config(header.get("n"), header.get("t"))
        n = cfg.n
        self.mode = header.get("mode")
        if self.mode not in MODES:
            raise ValueError(f"trace header has unknown mode {self.mode!r}")
        corrupt = header.get("corrupt")
        if not isinstance(corrupt, list) or not all(type(p) is int and 0 <= p < n for p in corrupt):
            raise ValueError(f"trace header 'corrupt' must list party ids in [0, {n}), "
                             f"not {corrupt!r}")
        if len(set(corrupt)) < len(corrupt) or len(corrupt) > cfg.t:
            raise ValueError(f"trace header 'corrupt' must list at most t={cfg.t} distinct "
                             f"party ids, not {corrupt!r}")
        self.corrupt = set(corrupt)
        self.honest = [p for p in range(n) if p not in self.corrupt]
        names: dict[str, str] = {}  # request id -> name
        self.market: dict[str, str] = {}
        self.ts: dict[int, dict[str, int]] = {p: {} for p in range(n)}
        self.sight_step: dict[int, dict[str, int]] = {p: {} for p in range(n)}
        clock = [-inf] * n  # each party's last sighting ts, rising strictly
        self.blocks: list[dict] = []
        self.final_pos: dict[str, tuple[int, int]] = {}
        self.incarnation_start: dict[int, int] = {0: 0}
        fallback = False  # an engine entered the fallback earlier in the file
        last_step = -1  # the steps below rise strictly in file order
        for rec in trace.rows:
            if type(rec) is tuple:  # a runner's deliver, ingest or vote: none is audited
                continue
            kind = rec["kind"]
            fields = AUDITED_FIELDS.get(kind)
            if fields is None:
                if kind == "engine" and rec.get("event") == "fallback-enter":
                    fallback = True
                continue
            ok = all(type(rec.get(key)) is typ for key, typ in fields.items())
            if ok and kind == "block":
                ok = all(isinstance(name, str) for name in rec["requests"])
            if not ok:
                raise ValueError(f"malformed {kind!r} trace record: {rec!r}")
            if "step" in fields:  # the records the auditor reads a step from
                if rec["step"] <= last_step:
                    raise ValueError(f"{kind!r} trace record's step must be above {last_step}, "
                                     f"an earlier 'sight', 'block' or 'incarnation' record's: "
                                     f"{rec!r}")
                last_step = rec["step"]
            if kind == "request":
                # The runner declares each request once; a second declaration
                # would give its name a second market and id.
                if rec["id"] in names or rec["name"] in self.market:
                    raise ValueError(f"'request' trace record re-declares the id or name of "
                                     f"an earlier one: {rec!r}")
                # As the verifier checks a request table: a relabeled market
                # would move the request out of its market's constraints.
                try:
                    ok = "|" not in rec["market"] and rec["id"] == request_id(
                        rec["market"], rec["name"].encode("utf-8"))
                except UnicodeEncodeError:  # a lone surrogate
                    ok = False
                if not ok:
                    raise ValueError(f"'request' trace record's market holds '|' or its id is "
                                     f"not the digest of its market and name: {rec!r}")
                names[rec["id"]] = rec["name"]
                self.market[rec["name"]] = rec["market"]
            elif kind == "sight":
                party = rec["party"]
                if not (0 <= party < n and rec["request"] in names):
                    raise ValueError(f"'sight' trace record names a party outside [0, {n}) or "
                                     f"a request no earlier 'request' record declares: {rec!r}")
                name = names[rec["request"]]
                # The auditor keeps one sighting per party and request.
                if name in self.sight_step[party]:
                    raise ValueError(f"'sight' trace record repeats an earlier sighting of "
                                     f"its request by its party: {rec!r}")
                # The runner gives each party a strictly rising clock.
                if rec["ts"] <= clock[party]:
                    raise ValueError(f"'sight' trace record's ts must be above {clock[party]}, "
                                     f"its party's previous sighting's: {rec!r}")
                clock[party] = self.ts[party][name] = rec["ts"]
                self.sight_step[party][name] = rec["step"]
            elif kind == "block":
                number = len(self.blocks)
                if rec["number"] != number:
                    raise ValueError(f"'block' trace record is not numbered {number}, "
                                     f"its place in the file: {rec!r}")
                # The runner flags a block once any engine crossed the cutoff.
                if rec["post_cutoff"] is not fallback:
                    raise ValueError(f"'block' trace record's post_cutoff must be {fallback}, as "
                                     f"{'an' if fallback else 'no'} 'engine' fallback-enter "
                                     f"record comes before it: {rec!r}")
                self.blocks.append(rec)
                for idx, name in enumerate(rec["requests"]):
                    # A request delivered again would move its position.
                    if name in self.final_pos:
                        raise ValueError(f"'block' trace record names a request that an earlier "
                                         f"'block' record, or itself, already named: {rec!r}")
                    self.final_pos[name] = (number, idx)
            else:  # incarnation
                # The runner starts each incarnation right after its block.
                if rec["block"] != len(self.blocks):
                    raise ValueError(f"'incarnation' trace record's block must be "
                                     f"{len(self.blocks)}, the number of 'block' records "
                                     f"before it: {rec!r}")
                self.incarnation_start[rec["block"]] = rec["step"]
        # A block may name a request declared further down: a trace whose
        # blocks swapped their requests is well formed, and its audit fails.
        for rec in self.blocks:
            if not all(name in self.market for name in rec["requests"]):
                raise ValueError(f"'block' trace record names a request no 'request' record "
                                 f"declares: {rec!r}")

    def requests(self) -> list[str]:
        return sorted(self.market)

    # Shared by the relative and the strict checker.
    @cached_property
    def relative_constraints(self) -> set[tuple[str, str]]:
        """Ordered same-market pairs (r1, r2) such that every honest party
        received r1, and r2 only later or not at all."""
        requests = self.requests()
        bit = {name: 1 << i for i, name in enumerate(requests)}
        # Each request's set of possible r2s, as a bitmask over `requests`:
        # first the requests of its market other than itself, then only
        # those each honest party saw later or never (none if it never saw r1).
        in_market: dict[str, int] = {}
        for name in requests:
            in_market[self.market[name]] = in_market.get(self.market[name], 0) | bit[name]
        later = {name: in_market[self.market[name]] ^ bit[name] for name in requests}
        for p in self.honest:
            unseen = (1 << len(requests)) - 1
            after: dict[str, int] = {}  # what p had not seen when it saw the name
            for name in self.sight_step[p]:  # in sighting order
                unseen ^= bit[name]
                after[name] = unseen
            later = {name: mask & after.get(name, 0) for name, mask in later.items() if mask}
        constraints = set()
        for r1, mask in later.items():
            while mask:
                low = mask & -mask
                constraints.add((r1, requests[low.bit_length() - 1]))
                mask ^= low
        return constraints

    @cached_property
    def timed_constraints(self) -> set[tuple[str, str]]:
        """Pairs separated by a time tau on the honest local clocks: every
        honest party saw both, and r1's last honest sighting time is below
        r2's first."""
        clocks = [self.ts[p] for p in self.honest]
        # Per market, the requests every honest party saw, as (first, last,
        # name) sorted by first honest sighting time.
        spans: dict[str, list[tuple[int, int, str]]] = {}
        for name in set(clocks[0]).intersection(*clocks[1:]):
            ts = [clock[name] for clock in clocks]
            spans.setdefault(self.market[name], []).append((min(ts), max(ts), name))
        constraints = set()
        for market_spans in spans.values():
            market_spans.sort()
            firsts = [first for first, _, _ in market_spans]
            for _, last1, r1 in market_spans:
                # Every r2 whose first sighting is after r1's last; r1's own
                # first is at most its last, so r1 is never among them.
                for _, _, r2 in market_spans[bisect_right(firsts, last1):]:
                    constraints.add((r1, r2))
        return constraints


@dataclass
class Verdict:
    violations: list[dict] = field(default_factory=list)
    constraint_count: int = 0

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "constraints": self.constraint_count,
            "violations": self.violations,
        }


def _pair_verdict(view: TraceView, constraints: set, late: Callable, record: Callable) -> Verdict:
    """The pair rule every relative definition shares: a constraint (r1, r2)
    whose r2 was delivered is violated when r1 was not, or when r1's
    `final_pos` entry is `late` against r2's. Each violation holds r1, r2 and
    `record` of the two entries (r1's is None when undelivered); they come
    sorted by (r1, r2)."""
    pos = view.final_pos
    violated = sorted((r1, r2) for r1, r2 in constraints
                      if r2 in pos and (r1 not in pos or late(pos[r1], pos[r2])))
    violations = [{"r1": r1, "r2": r2, **record(pos.get(r1), pos[r2])} for r1, r2 in violated]
    return Verdict(violations=violations, constraint_count=len(constraints))


def check_relative_block_fairness(view: TraceView) -> Verdict:
    """If every honest party received r1 before r2, r1 must land in the same
    block as r2 or earlier."""
    return _pair_verdict(
        view, view.relative_constraints, lambda p1, p2: p1[0] > p2[0],
        lambda p1, p2: {"block_r1": None if p1 is None else p1[0], "block_r2": p2[0],
                        "evidence": "all honest parties saw r1 first"})


def check_timed_fairness(view: TraceView) -> Verdict:
    """If a time tau separates every honest sighting of r1 (before) from every
    honest sighting of r2 (after), r1 must be scheduled before r2."""
    return _pair_verdict(
        view, view.timed_constraints, operator.gt,
        lambda p1, p2: {"pos_r1": p1, "pos_r2": p2,
                        "evidence": "honest sighting intervals are disjoint"})


def check_strict_relative_fairness(view: TraceView) -> Verdict:
    """The contradictory first-attempt definition (strictly earlier delivery,
    not same-block). Report-mode only; never gates acceptance."""
    return _pair_verdict(view, view.relative_constraints, operator.ge, lambda p1, p2: {})


def check_block_fairness(view: TraceView) -> Verdict:
    """Per block boundary: a request seen by n-t honest parties before the
    incarnation began belongs in that block (or an earlier one); a request no
    honest party had seen at proposal time must not appear."""
    quorum = view.cfg.strong_size
    # Each request's honest sighting steps, ascending and padded with inf:
    # [0] is its first honest sighting and [n-t-1] its (n-t)-th.
    steps = {name: sorted([view.sight_step[p].get(name, inf) for p in view.honest] + [inf] * quorum)
             for name in view.market}
    requests = view.requests()
    # Per request, in name order: the step of its (n-t)-th honest sighting
    # and the number of the block that delivered it.
    due = [(name, steps[name][quorum - 1], view.final_pos.get(name, (inf,))[0])
           for name in requests]
    violations = []
    for block in view.blocks:
        number = block["number"]
        start = view.incarnation_start.get(number, 0)
        for name, quorum_step, delivered in due:
            if quorum_step < start and delivered > number:
                violations.append({
                    "request": name, "block": number,
                    "reason": "seen by a strong quorum of honest parties "
                              "before the incarnation began but not included",
                })
        # In the block's order, so the report does not hang on the hash seed.
        for name in block["requests"]:
            if steps[name][0] >= block["step"]:
                violations.append({
                    "request": name, "block": number,
                    "reason": "included without any honest sighting",
                })
    return Verdict(violations=violations, constraint_count=len(view.blocks) * len(requests))


def check_absolute_fairness(view: TraceView) -> Verdict:
    """Once injection stops, every request any honest party ever saw must end
    up on-chain."""
    honest_seen = set().union(*(view.sight_step[p] for p in view.honest))
    missing = sorted(honest_seen.difference(view.final_pos))
    return Verdict(
        violations=[{"request": name, "reason": "honest-seen but never delivered"}
                    for name in missing],
        constraint_count=len(honest_seen),
    )


# Report key, text label and checker of each verdict, in report order.
CHECKS = (
    ("block_fairness", "block fairness", check_block_fairness),
    ("relative_block_fairness", "relative block fairness", check_relative_block_fairness),
    ("timed_relative_fairness", "timed relative fairness", check_timed_fairness),
    ("absolute_fairness", "absolute fairness", check_absolute_fairness),
    ("strict_relative_fairness", "strict relative (info)", check_strict_relative_fairness),
)
# The report key of the verdict that gates each mode: block-fair engines owe
# relative block fairness, the clocked engine timed fairness, and the hybrid
# engine (None) confinement of relative violations to post-cutoff blocks.
GATES = {NEVERENDING: "relative_block_fairness", CLOCKED: "timed_relative_fairness", HYBRID: None}


@dataclass
class FairnessReport:
    mode: str
    verdicts: dict[str, Verdict]  # by report key, in CHECKS order
    violations_confined_post_cutoff: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            **{key: verdict.to_dict() for key, verdict in self.verdicts.items()},
            "violations_confined_post_cutoff": self.violations_confined_post_cutoff,
            "gate_ok": self.gate_ok(),
        }

    def gate_ok(self) -> bool:
        """The mode's gating verdict holds."""
        gate = GATES[self.mode]
        return self.violations_confined_post_cutoff if gate is None else self.verdicts[gate].holds

    def render_text(self) -> str:
        rows = [f"fairness report (mode={self.mode})"]
        for key, label, _ in CHECKS:
            verdict = self.verdicts[key]
            status = "holds" if verdict.holds else f"VIOLATED ({len(verdict.violations)})"
            rows.append(f"  {label:<28} {status:<16} [{verdict.constraint_count} constraints]")
        rows += [
            f"  violations confined post-cutoff: {self.violations_confined_post_cutoff}",
            f"  gate: {'ok' if self.gate_ok() else 'FAIL'}",
        ]
        return "\n".join(rows)


def audit_trace(trace: Trace) -> FairnessReport:
    view = TraceView(trace)
    verdicts = {key: checker(view) for key, _, checker in CHECKS}
    # TraceView has held each block's post_cutoff to the fallback-enter records.
    confined = all(view.blocks[v["block_r2"]]["post_cutoff"]
                   for v in verdicts["relative_block_fairness"].violations)
    return FairnessReport(
        mode=view.mode,
        verdicts=verdicts,
        violations_confined_post_cutoff=confined,
    )
