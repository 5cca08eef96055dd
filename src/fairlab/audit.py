"""Post-hoc fairness auditor and brute-force oracle.

The auditor reconstructs ground truth from the trace's sighting records (not
from protocol state) and checks each fairness definition against the chain
that was produced. The oracle re-derives constraint sets by exhaustive
enumeration over corruption hypotheses and is used to validate the checkers
and the engines at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import inf
from typing import Optional

from .simnet.trace import Trace

ORACLE_LIMIT = 12


class TraceView:
    """Everything the checkers need, extracted once and keyed by request name."""

    def __init__(self, trace: Trace):
        self.n = trace.header["n"]
        self.t = trace.header["t"]
        self.mode = trace.header["mode"]
        self.corrupt = set(trace.header["corrupt"])
        self.honest = [p for p in range(self.n) if p not in self.corrupt]
        self.names: dict[str, str] = {}
        self.market: dict[str, str] = {}
        for rec in trace.of_kind("request"):
            self.names[rec["id"]] = rec["name"]
            self.market[rec["name"]] = rec["market"]
        self.pos: dict[int, dict[str, int]] = {p: {} for p in range(self.n)}
        self.ts: dict[int, dict[str, int]] = {p: {} for p in range(self.n)}
        self.sight_step: dict[int, dict[str, int]] = {p: {} for p in range(self.n)}
        for rec in trace.of_kind("sight"):
            party = rec["party"]
            name = self.names[rec["request"]]
            self.pos[party][name] = len(self.pos[party])
            self.ts[party][name] = rec["ts"]
            self.sight_step[party][name] = rec["step"]
        self.blocks: list[dict] = trace.blocks()
        self.delivered: dict[str, int] = {}
        self.final_pos: dict[str, tuple[int, int]] = {}
        for block in self.blocks:
            for idx, name in enumerate(block["requests"]):
                self.delivered[name] = block["number"]
                self.final_pos[name] = (block["number"], idx)
        self.incarnation_start: dict[int, int] = {0: 0}
        for rec in trace.of_kind("incarnation"):
            self.incarnation_start[rec["block"]] = rec["step"]
        self.block_step: dict[int, int] = {b["number"]: b["step"] for b in self.blocks}
        self.post_cutoff: dict[int, bool] = {
            b["number"]: b.get("post_cutoff", False) for b in self.blocks
        }
        self.honest_seen: set[str] = set()
        for p in self.honest:
            self.honest_seen.update(self.pos[p])

    def requests(self) -> list[str]:
        return sorted(self.market)

    # Shared by the relative and the strict checker.
    @cached_property
    def relative_constraints(self) -> set[tuple[str, str]]:
        return _relative_constraints(self, self.honest)

    def saw_before(self, party: int, r1: str, r2: str) -> bool:
        """Did this party receive r1, and r2 only later or not at all?"""
        pos = self.pos[party]
        return pos.get(r1, inf) < pos.get(r2, inf)


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


def _relative_constraints(view: TraceView, honest: list[int]) -> set[tuple[str, str]]:
    """Ordered same-market pairs (r1, r2) such that every party presumed
    honest received r1 before r2."""
    constraints = set()
    requests = view.requests()
    for r1 in requests:
        for r2 in requests:
            if r1 == r2 or view.market[r1] != view.market[r2]:
                continue
            if all(view.saw_before(p, r1, r2) for p in honest):
                constraints.add((r1, r2))
    return constraints


def _timed_constraints(view: TraceView, honest: list[int]) -> set[tuple[str, str]]:
    """Pairs separated by a time tau on the presumed-honest local clocks."""
    constraints = set()
    spans = {}  # request every presumed-honest party saw -> (first, last) sighting time
    for r in view.requests():
        ts = [view.ts[p][r] for p in honest if r in view.ts[p]]
        if len(ts) == len(honest):
            spans[r] = (min(ts), max(ts))
    for r1, (_, last1) in spans.items():
        for r2, (first2, _) in spans.items():
            if r1 != r2 and view.market[r1] == view.market[r2] and last1 < first2:
                constraints.add((r1, r2))
    return constraints


def check_relative_block_fairness(trace: Trace, view: Optional[TraceView] = None) -> Verdict:
    """If every honest party received r1 before r2, r1 must land in the same
    block as r2 or earlier."""
    view = view or TraceView(trace)
    constraints = view.relative_constraints
    violations = []
    for r1, r2 in sorted(constraints):
        b2 = view.delivered.get(r2)
        if b2 is None:
            continue
        b1 = view.delivered.get(r1)
        if b1 is None or b1 > b2:
            violations.append({"r1": r1, "r2": r2, "block_r1": b1, "block_r2": b2,
                               "evidence": "all honest parties saw r1 first"})
    return Verdict(violations=violations, constraint_count=len(constraints))


def check_timed_fairness(trace: Trace, view: Optional[TraceView] = None) -> Verdict:
    """If a time tau separates every honest sighting of r1 (before) from every
    honest sighting of r2 (after), r1 must be scheduled before r2."""
    view = view or TraceView(trace)
    constraints = _timed_constraints(view, view.honest)
    violations = []
    for r1, r2 in sorted(constraints):
        if r2 not in view.final_pos:
            continue
        if r1 not in view.final_pos or view.final_pos[r1] > view.final_pos[r2]:
            violations.append({
                "r1": r1, "r2": r2,
                "pos_r1": view.final_pos.get(r1), "pos_r2": view.final_pos[r2],
                "evidence": "honest sighting intervals are disjoint",
            })
    return Verdict(violations=violations, constraint_count=len(constraints))


def check_strict_relative_fairness(trace: Trace, view: Optional[TraceView] = None) -> Verdict:
    """The contradictory first-attempt definition (strictly earlier delivery,
    not same-block). Report-mode only; never gates acceptance."""
    view = view or TraceView(trace)
    constraints = view.relative_constraints
    violations = []
    for r1, r2 in sorted(constraints):
        if r2 not in view.final_pos:
            continue
        if r1 not in view.final_pos or view.final_pos[r1] >= view.final_pos[r2]:
            violations.append({"r1": r1, "r2": r2})
    return Verdict(violations=violations, constraint_count=len(constraints))


def check_block_fairness(trace: Trace, view: Optional[TraceView] = None) -> Verdict:
    """Per block boundary: a request seen by n-t honest parties before the
    incarnation began belongs in that block (or an earlier one); a request no
    honest party had seen at proposal time must not appear."""
    view = view or TraceView(trace)
    quorum = view.n - view.t
    violations = []
    checked = 0
    for block in view.blocks:
        number = block["number"]
        start = view.incarnation_start.get(number, 0)
        proposal_step = view.block_step[number]
        members = set(block["requests"])
        for name in view.requests():
            seen_before_start = sum(
                1 for p in view.honest
                if view.sight_step[p].get(name, 10**18) < start
            )
            checked += 1
            if seen_before_start >= quorum:
                delivered_at = view.delivered.get(name)
                if delivered_at is None or delivered_at > number:
                    violations.append({
                        "request": name, "block": number,
                        "reason": "seen by a strong quorum of honest parties "
                                  "before the incarnation began but not included",
                    })
        for name in members:
            honest_saw = any(
                view.sight_step[p].get(name, 10**18) < proposal_step
                for p in view.honest
            )
            if not honest_saw:
                violations.append({
                    "request": name, "block": number,
                    "reason": "included without any honest sighting",
                })
    return Verdict(violations=violations, constraint_count=checked)


def check_absolute_fairness(trace: Trace, view: Optional[TraceView] = None) -> Verdict:
    """Once injection stops, every request any honest party ever saw must end
    up on-chain."""
    view = view or TraceView(trace)
    missing = sorted(view.honest_seen - set(view.delivered))
    return Verdict(
        violations=[{"request": name, "reason": "honest-seen but never delivered"}
                    for name in missing],
        constraint_count=len(view.honest_seen),
    )


@dataclass
class OracleConstraints:
    relative: dict[tuple[int, ...], frozenset]
    timed: dict[tuple[int, ...], frozenset]

    def relative_union(self) -> set[tuple[str, str]]:
        out: set[tuple[str, str]] = set()
        for pairs in self.relative.values():
            out.update(pairs)
        return out


def oracle_constraints(trace: Trace, view: Optional[TraceView] = None) -> OracleConstraints:
    """Exhaustive re-derivation from raw sighting events only: for every
    corruption hypothesis of size at most t, the constraint sets the chain
    would have to satisfy if exactly those parties were corrupt."""
    view = view or TraceView(trace)
    if len(view.requests()) > ORACLE_LIMIT:
        raise ValueError(
            f"oracle is desk-scale only ({len(view.requests())} requests > {ORACLE_LIMIT})"
        )
    relative: dict[tuple[int, ...], frozenset] = {}
    timed: dict[tuple[int, ...], frozenset] = {}
    parties = list(range(view.n))
    for size in range(view.t + 1):
        for combo in combinations(parties, size):
            honest = [p for p in parties if p not in combo]
            relative[combo] = frozenset(_relative_constraints(view, honest))
            timed[combo] = frozenset(_timed_constraints(view, honest))
    return OracleConstraints(relative=relative, timed=timed)


@dataclass
class FairnessReport:
    mode: str
    block_fairness: Verdict
    relative_block_fairness: Verdict
    timed_relative_fairness: Verdict
    absolute_fairness: Verdict
    strict_relative_fairness: Verdict
    violations_confined_post_cutoff: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "block_fairness": self.block_fairness.to_dict(),
            "relative_block_fairness": self.relative_block_fairness.to_dict(),
            "timed_relative_fairness": self.timed_relative_fairness.to_dict(),
            "absolute_fairness": self.absolute_fairness.to_dict(),
            "strict_relative_fairness": self.strict_relative_fairness.to_dict(),
            "violations_confined_post_cutoff": self.violations_confined_post_cutoff,
            "gate_ok": self.gate_ok(),
        }

    def gate_ok(self) -> bool:
        """Which verdict gates which mode: block-fair engines owe relative
        block fairness, the clocked engine owes timed fairness, and the hybrid
        engine owes confinement of violations to post-cutoff blocks."""
        if self.mode == "neverending":
            return self.relative_block_fairness.holds
        if self.mode == "clocked":
            return self.timed_relative_fairness.holds
        if self.mode == "hybrid":
            return self.violations_confined_post_cutoff
        return False

    def render_text(self) -> str:
        def line(label: str, verdict: Verdict) -> str:
            status = "holds" if verdict.holds else f"VIOLATED ({len(verdict.violations)})"
            return f"  {label:<28} {status:<16} [{verdict.constraint_count} constraints]"

        rows = [
            f"fairness report (mode={self.mode})",
            line("block fairness", self.block_fairness),
            line("relative block fairness", self.relative_block_fairness),
            line("timed relative fairness", self.timed_relative_fairness),
            line("absolute fairness", self.absolute_fairness),
            line("strict relative (info)", self.strict_relative_fairness),
            f"  violations confined post-cutoff: {self.violations_confined_post_cutoff}",
            f"  gate: {'ok' if self.gate_ok() else 'FAIL'}",
        ]
        return "\n".join(rows)


def audit_trace(trace: Trace) -> FairnessReport:
    view = TraceView(trace)
    relative = check_relative_block_fairness(trace, view)
    confined = all(
        v["block_r2"] is not None and view.post_cutoff.get(v["block_r2"], False)
        for v in relative.violations
    )
    return FairnessReport(
        mode=view.mode,
        block_fairness=check_block_fairness(trace, view),
        relative_block_fairness=relative,
        timed_relative_fairness=check_timed_fairness(trace, view),
        absolute_fairness=check_absolute_fairness(trace, view),
        strict_relative_fairness=check_strict_relative_fairness(trace, view),
        violations_confined_post_cutoff=confined,
    )
