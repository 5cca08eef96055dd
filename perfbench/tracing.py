"""Span recording for the traced pass.

The tracer wraps fairlab's public entry points at the names the simulator,
engines and chain look them up by, for the duration of one pass, and restores
the originals afterwards. Nothing in the program under test is edited and the
untraced passes run with no wrapper installed.

A span is (id, name, start, end, parent, scenario, value). Spans live in one
flat integer array in memory and are written out only when the run ends.
`value` is a per-call outcome count used for ratios: votes accepted by an
ingest, proposals returned by a leader step, 1 for an accepted submit.
"""

from __future__ import annotations

import gzip
import itertools
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import fairlab.audit
import fairlab.chain
import fairlab.leaders
import fairlab.validity
import fairlab.votes
from fairlab.simnet import runner
from fairlab.simnet.trace import Trace

FIELDS = 7  # id, name, start, end, parent, scenario, value


def _accepted_votes(outcome) -> int:
    return len(outcome.accepted)


def _accepted_submit(outcome) -> int:
    return int(outcome.ok)


# (owner, attribute, span name, value of the call's result)
HOOKS: list[tuple[object, str, str, Optional[Callable[[object], int]]]] = [
    (runner.Simulation, "execute", "simnet.execute", None),
    (runner.Simulation, "drain", "simnet.drain", None),
    (fairlab.votes.VoteStore, "ingest", "votes.ingest", _accepted_votes),
    (runner, "leader_step", "leaders.step", len),
    (fairlab.leaders, "blocks", "fairness.blocks", None),
    (fairlab.leaders, "timed_precedes", "fairness.timed_precedes", None),
    (fairlab.chain.Chain, "submit", "chain.submit", _accepted_submit),
    (fairlab.chain, "verify_certificate", "validity.verify.chain", None),
    (fairlab.chain, "replay_undelivered", "leaders.replay", None),
    (fairlab.validity, "verify_certificate", "validity.verify.standalone", None),
    (fairlab.validity, "certificate_from_dict", "validity.from_dict", None),
    (fairlab.audit, "audit_trace", "audit", None),
    (Trace, "to_text", "simnet.trace.to_text", None),
    (fairlab.votes, "sign", "core.sign", None),
    (fairlab.votes, "verify", "core.verify", None),
    # Certificate verification checks each cited vote's attestation itself.
    (fairlab.validity, "verify", "core.verify", None),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self._ids = itertools.count()
        self._stack = [-1]
        self.scenario = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, value: Optional[Callable[[object], int]] = None):
        name_id = self._name_id(name)
        spans, ids, stack, clock = self.spans, self._ids, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.extend((sid, name_id, start, end, parent, tracer.scenario,
                          value(result) if value is not None else 0))
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself around one phase of a scenario."""
        name_id = self._name_id(name)
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.extend((sid, name_id, start, end, parent, self.scenario, 0))

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, name, value in HOOKS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, value))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds, summed values.
        Self time is a span's duration minus its direct children's durations."""
        spans = self.spans
        count = len(spans) // FIELDS
        children = [0] * (max(spans[0::FIELDS], default=-1) + 1)
        for i in range(0, count * FIELDS, FIELDS):
            parent = spans[i + 4]
            if parent >= 0:
                children[parent] += spans[i + 3] - spans[i + 2]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0, "value": 0} for name in self.names}
        for i in range(0, count * FIELDS, FIELDS):
            row = out[self.names[spans[i + 1]]]
            dur = spans[i + 3] - spans[i + 2]
            row["calls"] += 1
            row["ns"] += dur
            row["self_ns"] += dur - children[spans[i]]
            row["value"] += spans[i + 6]
        return out

    def write(self, path: str, header: str, scenario_labels: list[str]) -> int:
        """Write spans as gzipped CSV sorted by id, times relative to the first
        span's start. Returns the number of spans written."""
        spans = self.spans
        rows = sorted(range(0, len(spans), FIELDS), key=lambda i: spans[i])
        epoch = min(spans[2::FIELDS], default=0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            for idx, label in enumerate(scenario_labels):
                fh.write(f"# scenario {idx} = {label}\n")
            fh.write("id,name,start_ns,end_ns,parent,scenario\n")
            for i in rows:
                fh.write(f"{spans[i]},{self.names[spans[i + 1]]},{spans[i + 2] - epoch},"
                         f"{spans[i + 3] - epoch},{spans[i + 4]},{spans[i + 5]}\n")
        return len(rows)
