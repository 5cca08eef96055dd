"""Deterministic discrete-event runner.

The schedule is the adversary: it decides when each party sights each request
and when each vote copy is delivered. Parties are activated one event at a
time; a party's local clock ticks once per activation and it emits votes for
earlier sightings at its next activation, so the adversary can interleave
sightings and vote traffic freely. Receiving a vote for an unseen request
counts as sighting it (votes carry the request), which is what makes every
honest-seen request eventually known everywhere.

After the last scheduled event the runner drains: unsent votes are sent
and every pending message is delivered, in rounds, until the whole system is
quiescent. Nothing is ever dropped. Equal scenarios produce byte-identical
traces.
"""

from __future__ import annotations

import random
from collections.abc import Container
from typing import Optional

from ..core import PartyId, Request, RequestId, make_request, validate_config
from ..chain import Chain, on_deliver
from ..leaders import TIMESTAMPED_MODES, BlockCertificate, LeaderState, new_leader
from ..leaders import step as leader_step
from ..votes import Vote, make_vote
from .scenario import (EQUIVOCATE, REORDER, SILENT, SKEW, BehaviorSpec, ClockSpec, Scenario,
                       instance_of)
from .trace import Trace


class _Stream:
    """One audience's vote order. `sent` is what went out this incarnation,
    at seqs 0, 1, ...; `unsent` waits for the party's next activation. An
    honest or skewed party keeps one stream for everyone else and appends.
    A byzantine stream is seeded: it inserts each claim at a random place and
    stamps its votes from its own counter, monotone so the stream is not
    self-invalidating; the lie is the order itself."""

    def __init__(self, audience: Optional[str], recipients: list[PartyId],
                 seed: Optional[int] = None):
        self.audience = audience
        self.recipients = recipients
        self.rng = random.Random(seed) if seed is not None else None
        self.sent: list[RequestId] = []
        self.unsent: list[RequestId] = []
        self.ts = 0

    def claim(self, rid: RequestId) -> None:
        if self.rng is None:
            self.unsent.append(rid)
        else:
            self.unsent.insert(self.rng.randrange(len(self.unsent) + 1), rid)

    def next_incarnation(self, delivered: Container[RequestId]) -> None:
        self.unsent = [r for r in self.sent + self.unsent if r not in delivered]
        self.sent = []


class _Party:
    def __init__(self, pid: PartyId, clock: ClockSpec, behavior: Optional[BehaviorSpec],
                 n: int, leader_ids: list[PartyId]):
        self.pid = pid
        self.clock = clock.offset
        self.rate = clock.rate
        kind = behavior.kind if behavior is not None else None
        self.skew = behavior.offset if kind == SKEW else 0
        # request -> (local time, vote message tag) of the party's sighting
        self.seen: dict[RequestId, tuple[int, str]] = {}
        others = [p for p in range(n) if p != pid]
        if kind == SILENT:
            self.streams = []
        elif kind == REORDER:
            self.streams = [_Stream("all", others, behavior.seed)]
        elif kind == EQUIVOCATE:
            rest = [p for p in others if p not in leader_ids]
            self.streams = [_Stream("rest", rest, behavior.seed)] + [
                _Stream(str(("leader", leader)), [leader], behavior.seed + 1 + leader)
                for leader in leader_ids
            ]
        else:
            self.streams = [_Stream(None, others)]

    def sight(self, req: Request, tag: str, scheduled_on_chain: bool) -> int:
        ts = self.clock
        self.seen[req.id] = (ts, tag)
        if not scheduled_on_chain:  # only known-and-unscheduled requests are voted on
            for stream in self.streams:
                stream.claim(req.id)
        return ts

    def has_unsent(self) -> bool:
        return any(s.unsent for s in self.streams)


class Simulation:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.cfg = validate_config(scenario.n, scenario.t)
        digest = scenario.digest()  # encodes and hashes every event: taken once
        self.instance = instance_of(digest)
        self.timestamped = scenario.mode in TIMESTAMPED_MODES
        self.corrupt = set(scenario.corrupt)
        self.requests: dict[str, Request] = {
            name: make_request(market, name.encode()) for name, market in scenario.requests.items()
        }
        self.by_id: dict[RequestId, Request] = {r.id: r for r in self.requests.values()}
        declared = scenario.leaders if scenario.leaders is not None else tuple(range(scenario.n))
        self.declared_leaders = list(declared)
        self.leader_ids = [p for p in declared if p not in self.corrupt]
        self.parties = [
            _Party(
                pid,
                scenario.clocks.get(pid, ClockSpec()),
                scenario.behaviors.get(pid),
                scenario.n,
                self.leader_ids,
            )
            for pid in range(scenario.n)
        ]
        self.engines: dict[PartyId, LeaderState] = {
            pid: new_leader(self.cfg, scenario.mode, self.instance, pid, self.by_id,
                            r_max=scenario.r_max, coin_seed=scenario.coin_seed,
                            coin_stop_p=scenario.coin_stop_p)
            for pid in self.leader_ids
        }
        self.chain = Chain(self.cfg)
        # message id -> (recipient, vote, tag): one pooled copy of a vote, which
        # carries its sender (signer) and request id; the tag is the sender's
        # sighting tag, which `flush` filters on. In id order: ids only grow,
        # none is re-pooled.
        self.pool: dict[int, tuple[PartyId, Vote, str]] = {}
        # The probabilistic wrapper's seeded sweep order over pool messages.
        self.pool_order: list[int] = []
        self._next_mid = 0  # message ids are dense: every id below was sent
        self.rng = random.Random(scenario.wrapper_seed) if scenario.failure_p else None
        self.action_index = 0
        # Leaders whose store changed since their last step; every leader
        # steps first.
        self._changed: set[PartyId] = set(self.engines)
        self._registered: set[RequestId] = set()
        # The steps of each request name's first and last honest sighting.
        self.first_seen: dict[str, int] = {}
        self.last_seen: dict[str, int] = {}
        self.first_block_step: Optional[int] = None
        self.first_block_action: Optional[int] = None
        self.injection_end_step: Optional[int] = None
        self.injection_end_action: Optional[int] = None
        self.trace = Trace(header={
            "digest": digest,
            "instance": self.instance,
            "label": scenario.label,
            "n": scenario.n,
            "t": scenario.t,
            "mode": scenario.mode,
            "r_max": scenario.r_max,
            "corrupt": sorted(self.corrupt),
            "leaders": list(self.leader_ids),
            "failure_p": scenario.failure_p,
        })

    # -- trace helpers -------------------------------------------------------

    def _rec(self, kind: str, **fields) -> None:
        """Record an event as a dict row; an event's step is its row's index.
        `_send`, `_ingest` and `_deliver` append theirs as tuples instead, in
        the key order of trace._KEYS, with no step."""
        rows = self.trace.rows
        rows.append({"kind": kind, "step": len(rows), **fields})

    def _sight(self, party: _Party, req: Request, via: str, tag: Optional[str] = None) -> None:
        """A party's first sighting of a request; its first sighting by
        anyone declares the request. The party's vote messages for it carry
        the schedule's tag, or `via` when there is none; only a scheduled
        sighting's record holds the tag."""
        if req.id not in self._registered:
            self._registered.add(req.id)
            self._rec("request", id=req.id, name=req.name, market=req.market)
        ts = party.sight(req, via if tag is None else tag,
                         scheduled_on_chain=req.id in self.chain.delivered)
        if party.pid not in self.corrupt:
            step = len(self.trace.rows)  # the sight record's
            self.first_seen.setdefault(req.name, step)
            self.last_seen[req.name] = step
        if via == "schedule":
            self._rec("sight", party=party.pid, request=req.id, ts=ts, via=via, tag=tag)
        else:
            self._rec("sight", party=party.pid, request=req.id, ts=ts, via=via)

    # -- activations ---------------------------------------------------------

    def _activate(self, party: _Party) -> None:
        party.clock += party.rate
        for stream in party.streams:
            if stream.unsent:
                self._send(party, stream)

    def _send(self, party: _Party, stream: _Stream) -> None:
        """Send the stream's unsent votes, numbering them after its sent ones."""
        block = self.chain.next_number  # nothing here ships a block
        pool = self.pool
        rows = self.trace.rows
        for rid in stream.unsent:
            seen_ts, tag = party.seen[rid]
            if stream.rng is None:
                ts = seen_ts + party.skew
            else:
                stream.ts += 1 + stream.rng.randrange(3)
                ts = stream.ts
            seq = len(stream.sent)
            stream.sent.append(rid)
            vote = make_vote(party.pid, self.instance, block, seq,
                             ts if self.timestamped else None, rid)
            rows.append(("vote", stream.audience, block, party.pid, rid, seq, vote.ts))
            first = mid = self._next_mid
            for recipient in stream.recipients:
                pool[mid] = (recipient, vote, tag)
                mid += 1
            self._next_mid = mid
            if self.rng is not None:
                order = self.pool_order
                for new in range(first, mid):
                    order.insert(self.rng.randrange(len(order) + 1), new)
            self._ingest(party.pid, vote)  # a leader ingests its own vote directly
        stream.unsent = []

    def _ingest(self, pid: PartyId, vote: Vote) -> None:
        """Hand a vote to the party's store when it leads, and record the outcome."""
        engine = self.engines.get(pid)
        if engine is None:
            return
        store = engine.store
        version = store.version
        outcome = store.ingest(vote)
        if outcome.reason == "duplicate":
            return  # incarnation re-sends produce these in bulk
        if store.version != version:
            self._changed.add(pid)
        self.trace.rows.append(("ingest", pid, vote.signer, outcome.reason, vote.request,
                                vote.seq, outcome.status))

    def _deliver(self, mid: int, via: str) -> None:
        to, vote, _ = self.pool.pop(mid)
        recipient = self.parties[to]
        req = self.by_id[vote.request]
        self._activate(recipient)
        self.trace.rows.append(("deliver", mid, vote.request, vote.signer, to, via))
        if req.id not in recipient.seen:
            self._sight(recipient, req, "relay")
        self._ingest(to, vote)

    # -- schedule execution ---------------------------------------------------

    def execute(self, event: dict) -> None:
        self.action_index += 1
        action = event["a"]
        if action == "see":
            party = self.parties[event["party"]]
            req = self.requests[event["request"]]
            self._activate(party)
            if req.id not in party.seen:
                self._sight(party, req, "schedule", event.get("tag"))
        elif action == "deliver":
            mid = event["msg"]
            if mid in self.pool:
                self._deliver(mid, "schedule")
            elif self.rng is None or mid not in range(self._next_mid):
                # A known message missing from the pool was already delivered
                # by the probabilistic wrapper; anything else is a bad schedule.
                raise ValueError(f"schedule delivers unknown or dropped message {mid}")
        elif action == "flush":
            tags = event.get("tags")
            seen_only = event.get("seen_only", False)
            for mid in list(self.pool):
                to, vote, tag = self.pool[mid]
                if tags is not None and tag not in tags:
                    continue
                if seen_only and vote.request not in self.parties[to].seen:
                    continue
                self._deliver(mid, "flush")
        elif action == "checkpoint":
            self._rec("checkpoint", label=event["label"])
            if event["label"] == "injection-complete":
                self.injection_end_step = len(self.trace.rows)
                self.injection_end_action = self.action_index
        else:
            raise ValueError(f"unknown schedule action {action!r}")
        self._sweep()
        self._step_leaders()

    def _sweep(self) -> None:
        if self.rng is None:
            return
        p = self.sc.failure_p
        pool = self.pool
        # Delivered ids leave the order here, not on delivery: `_send` draws
        # each new id's place from the order's length, delivered ids included.
        self.pool_order = list(filter(pool.__contains__, self.pool_order))
        # A new list: messages the deliveries below send join `pool_order`,
        # not this sweep. Only honest-to-honest traffic escapes the adversary.
        corrupt = self.corrupt
        if corrupt:
            eligible = [mid for mid in self.pool_order
                        if pool[mid][0] not in corrupt and pool[mid][1].signer not in corrupt]
        else:
            eligible = self.pool_order.copy()
        draw = self.rng.random
        for mid in eligible:
            if draw() < p:
                self._deliver(mid, "sweep")

    # -- leader loop -----------------------------------------------------------

    def _proposers(self) -> list[PartyId]:
        """Race by default: every honest leader engine may submit, first valid
        certificate wins. Round-robin restricts each height to its scheduled
        leader; a byzantine scheduled leader then simply stalls the height,
        which is the honest-leader requirement made visible."""
        if self.sc.proposer_policy == "round-robin":
            scheduled = self.declared_leaders[
                self.chain.next_number % len(self.declared_leaders)
            ]
            return [scheduled] if scheduled in self.engines else []
        return self.leader_ids

    def _step_leaders(self) -> None:
        """Step, in proposer order, every proposer whose store changed since
        its last step, and start over after each block, until no proposer
        ships one. A block changes every leader's store, so every leader
        steps after it. An engine's step never changes its own store."""
        changed = self._changed  # _ingest and _on_block fill it in place
        while changed:
            for pid in self._proposers():
                if pid in changed:
                    changed.discard(pid)
                    if self._turn(pid):
                        break
            else:
                return

    def _turn(self, pid: PartyId) -> bool:
        """Step one leader engine and submit its certificate; True when the
        chain accepts it as a block."""
        state = self.engines[pid]
        before_fallback = state.fallback_snapshot
        certs = leader_step(state)
        if state.fallback_snapshot and not before_fallback:
            self._rec("engine", leader=pid, event="fallback-enter",
                      snapshot=[self.by_id[r].name for r in state.fallback_snapshot])
        for cert in certs:
            outcome = self.chain.submit(cert)
            self._rec("proposal", leader=pid, block=cert.block_number,
                      tag=cert.mode_tag,
                      requests=[self.by_id[r].name for r in cert.requests],
                      outcome=outcome.status, reason=outcome.reason)
            if outcome.ok:
                self._on_block(cert)
                return True
        return False

    def _on_block(self, cert: BlockCertificate) -> None:
        post_cutoff = any(e.cutoff_events > 0 for e in self.engines.values())
        if self.first_block_step is None:
            self.first_block_step = len(self.trace.rows)
            self.first_block_action = self.action_index
        self._rec("block", number=cert.block_number, proposer=cert.proposer,
                  tag=cert.mode_tag,
                  requests=[self.by_id[r].name for r in cert.requests],
                  request_ids=list(cert.requests),
                  post_cutoff=post_cutoff)
        old = [self.engines[p] for p in self.leader_ids]
        self.engines = dict(zip(self.leader_ids, on_deliver(self.chain, old)))
        for pid, before in zip(self.leader_ids, old):
            if before.fallback_snapshot and not self.engines[pid].fallback_snapshot:
                self._rec("engine", leader=pid, event="fallback-exit")
        for party in self.parties:
            for stream in party.streams:
                stream.next_incarnation(self.chain.delivered)
        self._changed.update(self.leader_ids)
        self._rec("incarnation", block=self.chain.next_number)

    # -- run loop, drain and summary --------------------------------------------

    def run(self) -> Trace:
        """Execute every scheduled event, drain to quiescence, summarize."""
        for event in self.sc.events:
            self.execute(event)
        self.drain()
        return self.finish()

    def drain(self) -> None:
        self._rec("checkpoint", label="drain")
        while self.pool or any(p.has_unsent() for p in self.parties):
            self.action_index += 1
            for party in self.parties:
                if party.has_unsent():
                    self._activate(party)
            for mid in list(self.pool):
                self._deliver(mid, "drain")
            self._step_leaders()

    def finish(self) -> Trace:
        delivered = self.chain.delivered
        self._rec(
            "summary",
            blocks=len(self.chain.blocks),
            delivered=len(delivered),
            pending=sum(self.requests[name].id not in delivered for name in self.first_seen),
            max_candidate_order=max(
                (e.max_candidate_order for e in self.engines.values()), default=0
            ),
            fallback_activations={
                str(p): e.cutoff_events for p, e in self.engines.items()
            },
            fallback_blocks={
                str(p): e.fallback_blocks_emitted for p, e in self.engines.items()
            },
            equivocators=list(self.chain.equivocators),
            elapsed_steps=len(self.trace.rows),
            first_block_step=self.first_block_step,
            first_block_action=self.first_block_action,
            injection_end_step=self.injection_end_step,
            injection_end_action=self.injection_end_action,
            first_seen_honest=self.first_seen,
            last_seen_honest=self.last_seen,
        )
        return self.trace

    def chain_lines(self) -> list[str]:
        return self.chain.export_lines()
