"""Deterministic discrete-event runner.

The schedule is the adversary: it decides when each party sights each request
and when each vote copy is delivered. Parties are activated one event at a
time; a party's local clock ticks once per activation and it emits votes for
earlier sightings at its next activation, so the adversary can interleave
sightings and vote traffic freely. Receiving a vote for an unseen request
counts as sighting it (votes carry the request), which is what makes every
honest-seen request eventually known everywhere.

After the last scheduled event the runner drains: unsent votes are emitted
and every pending message is delivered, in rounds, until the whole system is
quiescent. Nothing is ever dropped. Equal scenarios produce byte-identical
traces.
"""

from __future__ import annotations

import random
from collections.abc import Container
from dataclasses import dataclass
from typing import Optional

from ..core import PartyId, Request, RequestId, make_request, validate_config
from ..chain import Chain, on_deliver
from ..leaders import CLOCKED, HYBRID, CoinConfig, LeaderState, new_leader
from ..leaders import step as leader_step
from ..validity import BlockCertificate
from ..votes import Vote, make_vote
from .scenario import EQUIVOCATE, REORDER, SKEW, BehaviorSpec, ClockSpec, Scenario
from .trace import Trace


@dataclass(slots=True)
class Msg:
    recipient: PartyId
    vote: Vote  # carries its sender (att.signer) and request id
    tag: str


class _ByzStream:
    """One fabricated vote order a byzantine party maintains for some audience.
    Claims stay monotone in their own timestamps so the stream is not
    self-invalidating; the lie is the order itself."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.buffer: list[RequestId] = []
        self.history: list[RequestId] = []
        self.seq = 0
        self.ts = 0

    def claim(self, rid: RequestId) -> None:
        self.buffer.insert(self.rng.randrange(len(self.buffer) + 1), rid)

    def emit_all(self, timestamped: bool) -> list[tuple[int, Optional[int], RequestId]]:
        out = []
        for rid in self.buffer:
            self.ts += 1 + self.rng.randrange(3)
            out.append((self.seq, self.ts if timestamped else None, rid))
            self.seq += 1
            self.history.append(rid)
        self.buffer = []
        return out

    def next_incarnation(self, delivered: set[RequestId]) -> None:
        survivors = [r for r in self.history if r not in delivered]
        survivors += [r for r in self.buffer if r not in delivered]
        self.buffer = survivors
        self.history = []
        self.seq = 0


class _Party:
    def __init__(self, pid: PartyId, clock: ClockSpec, behavior: Optional[BehaviorSpec],
                 leader_ids: list[PartyId], timestamped: bool):
        self.pid = pid
        self.clock = clock.offset
        self.rate = clock.rate
        self.behavior = behavior
        self.timestamped = timestamped
        self.seen: dict[RequestId, int] = {}
        self.sight_tag: dict[RequestId, str] = {}
        # An honest or skewed party's sighted requests not yet on-chain, in
        # vote order; pending[emitted:] are those it has not voted on yet.
        self.pending: list[RequestId] = []
        self.emitted = 0
        self.streams: dict[object, _ByzStream] = {}
        if behavior is not None and behavior.kind == REORDER:
            self.streams["all"] = _ByzStream(behavior.seed)
        if behavior is not None and behavior.kind == EQUIVOCATE:
            self.streams["rest"] = _ByzStream(behavior.seed)
            for leader in leader_ids:
                self.streams[("leader", leader)] = _ByzStream(behavior.seed + 1 + leader)

    @property
    def kind(self) -> str:
        return self.behavior.kind if self.behavior else "honest"

    def sight(self, req: Request, tag: str, scheduled_on_chain: bool = False) -> int:
        ts = self.clock
        self.seen[req.id] = ts
        self.sight_tag[req.id] = tag
        if scheduled_on_chain:
            return ts  # only known-and-unscheduled requests are voted on
        if self.kind in ("honest", SKEW):
            self.pending.append(req.id)
        else:
            for stream in self.streams.values():
                stream.claim(req.id)
        return ts

    def has_unsent(self) -> bool:
        if self.streams:
            return any(s.buffer for s in self.streams.values())
        return self.emitted < len(self.pending)

    def vote_ts(self, rid: RequestId) -> Optional[int]:
        if not self.timestamped:
            return None
        skew = self.behavior.offset if self.kind == SKEW else 0
        return self.seen[rid] + skew

    def next_incarnation(self, delivered: Container[RequestId]) -> None:
        self.pending = [r for r in self.pending if r not in delivered]
        self.emitted = 0
        for stream in self.streams.values():
            stream.next_incarnation(delivered)


class Simulation:
    def __init__(self, scenario: Scenario):
        if not scenario.events and scenario.generator is not None:
            raise ValueError("generator scenario was saved without materialized events")
        self.sc = scenario
        self.cfg = validate_config(scenario.n, scenario.t)
        self.instance = scenario.instance
        self.timestamped = scenario.mode in (CLOCKED, HYBRID)
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
                scenario.behaviors.get(pid) if pid in self.corrupt else None,
                self.leader_ids,
                self.timestamped,
            )
            for pid in range(scenario.n)
        ]
        coin = CoinConfig(shared_seed=scenario.coin_seed, stop_probability=scenario.coin_stop_p)
        self.engines: dict[PartyId, LeaderState] = {
            pid: new_leader(self.cfg, scenario.mode, self.instance,
                            r_max=scenario.r_max, coin=coin)
            for pid in self.leader_ids
        }
        self.chain = Chain(self.cfg)
        self.pool: dict[int, Msg] = {}
        # The probabilistic wrapper's seeded sweep order over pool messages.
        self.pool_order: list[int] = []
        self._next_mid = 0  # message ids are dense: every id below was sent
        self.rng = random.Random(scenario.wrapper_seed) if scenario.failure_p else None
        self.step_no = 0
        self.action_index = 0
        self._stepped_version: dict[PartyId, int] = {}
        self._registered: set[RequestId] = set()
        self.first_block_step: Optional[int] = None
        self.first_block_action: Optional[int] = None
        self.injection_end_step: Optional[int] = None
        self.injection_end_action: Optional[int] = None
        self.trace = Trace(header={
            "digest": scenario.digest(),
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
        self.trace.records.append({"kind": kind, "step": self.step_no, **fields})
        self.step_no += 1

    def _register(self, req: Request) -> None:
        if req.id not in self._registered:
            self._registered.add(req.id)
            self._rec("request", id=req.id, name=req.name, market=req.market)

    # -- activations ---------------------------------------------------------

    def _activate(self, party: _Party) -> None:
        party.clock += party.rate
        if party.has_unsent():
            self._emit_votes(party)

    def _emit_votes(self, party: _Party) -> None:
        if party.streams:
            for key in party.streams:
                stream = party.streams[key]
                for seq, ts, rid in stream.emit_all(self.timestamped):
                    self._send(party, seq, ts, rid, audience=key)
            return
        for seq in range(party.emitted, len(party.pending)):
            rid = party.pending[seq]
            self._send(party, seq, party.vote_ts(rid), rid, audience=None)
        party.emitted = len(party.pending)

    def _send(self, party: _Party, seq: int, ts: Optional[int], rid: RequestId,
              audience) -> None:
        block = self.chain.next_number
        vote = make_vote(party.pid, self.instance, block, seq, ts, rid)
        tag = party.sight_tag.get(rid, "relay")
        self._rec("vote", party=party.pid, block=block, seq=seq,
                  request=rid, ts=ts, audience=str(audience) if audience else None)
        if audience == "rest":
            recipients = [p for p in range(self.cfg.n)
                          if p != party.pid and p not in self.leader_ids]
        elif isinstance(audience, tuple) and audience[0] == "leader":
            recipients = [audience[1]]
        else:
            recipients = [p for p in range(self.cfg.n) if p != party.pid]
        for recipient in recipients:
            mid = self._next_mid
            self._next_mid += 1
            self.pool[mid] = Msg(recipient, vote, tag)
            if self.rng is not None:
                self.pool_order.insert(self.rng.randrange(len(self.pool_order) + 1), mid)
        # A leader ingests its own vote directly.
        if party.pid in self.engines and audience in (None, "all"):
            outcome = self.engines[party.pid].store.ingest(vote, self.by_id[rid])
            self._rec_ingest(party.pid, vote, outcome)

    def _rec_ingest(self, leader: PartyId, vote: Vote, outcome) -> None:
        if outcome.reason == "duplicate":
            return  # incarnation re-sends produce these in bulk
        # The commonest records are built as literals, without `_rec`'s kwargs.
        self.trace.records.append({
            "kind": "ingest", "step": self.step_no, "leader": leader,
            "party": vote.att.signer, "seq": vote.seq, "request": vote.request,
            "status": outcome.status, "reason": outcome.reason})
        self.step_no += 1

    def _deliver(self, mid: int, via: str) -> None:
        msg = self.pool.pop(mid)
        recipient = self.parties[msg.recipient]
        vote = msg.vote
        req = self.by_id[vote.request]
        self._activate(recipient)
        self.trace.records.append({
            "kind": "deliver", "step": self.step_no, "msg": mid, "to": msg.recipient,
            "sender": vote.att.signer, "request": vote.request, "via": via})
        self.step_no += 1
        if req.id not in recipient.seen:
            self._register(req)
            ts = recipient.sight(req, "relay", scheduled_on_chain=req.id in self.chain.delivered)
            self._rec("sight", party=recipient.pid, request=req.id, ts=ts, via="relay")
        if msg.recipient in self.engines:
            outcome = self.engines[msg.recipient].store.ingest(vote, req)
            self._rec_ingest(msg.recipient, vote, outcome)

    # -- schedule execution ---------------------------------------------------

    def execute(self, event: dict) -> None:
        self.action_index += 1
        action = event["a"]
        if action == "see":
            party = self.parties[event["party"]]
            req = self.requests[event["request"]]
            self._activate(party)
            if req.id not in party.seen:
                self._register(req)
                ts = party.sight(req, event.get("tag", "schedule"),
                                 scheduled_on_chain=req.id in self.chain.delivered)
                self._rec("sight", party=party.pid, request=req.id, ts=ts,
                          via="schedule", tag=event.get("tag"))
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
            for mid in sorted(self.pool):
                msg = self.pool[mid]
                if tags is not None and msg.tag not in tags:
                    continue
                if seen_only and msg.vote.request not in self.parties[msg.recipient].seen:
                    continue
                self._deliver(mid, "flush")
        elif action == "checkpoint":
            self._rec("checkpoint", label=event["label"])
            if event["label"] == "injection-complete":
                self.injection_end_step = self.step_no
                self.injection_end_action = self.action_index
        else:
            raise ValueError(f"unknown schedule action {action!r}")
        self._sweep()
        self._step_leaders()

    def _sweep(self) -> None:
        if self.rng is None:
            return
        p = self.sc.failure_p
        self.pool_order = [mid for mid in self.pool_order if mid in self.pool]
        for mid in list(self.pool_order):
            msg = self.pool[mid]
            if msg.vote.att.signer in self.corrupt or msg.recipient in self.corrupt:
                continue  # only honest-to-honest traffic escapes the adversary
            if self.rng.random() < p:
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
        while True:
            accepted = False
            for pid in self._proposers():
                state = self.engines[pid]
                marker = state.store.version
                if self._stepped_version.get(pid) == marker:
                    continue
                self._stepped_version[pid] = marker
                before_fallback = state.fallback_snapshot
                proposals = leader_step(state)
                if state.fallback_snapshot and not before_fallback:
                    self._rec("engine", leader=pid, event="fallback-enter",
                              snapshot=[self.by_id[r].name for r in state.fallback_snapshot])
                for prop in proposals:
                    cert = BlockCertificate(prop, pid)
                    outcome = self.chain.submit(pid, cert)
                    self._rec("proposal", leader=pid, block=prop.block_number,
                              tag=prop.mode_tag,
                              requests=[self.by_id[r].name for r in prop.requests],
                              outcome=outcome.status, reason=outcome.reason)
                    if outcome.ok:
                        self._on_block(pid, cert)
                        accepted = True
                        break
                if accepted:
                    break
            if not accepted:
                return

    def _on_block(self, proposer: PartyId, cert: BlockCertificate) -> None:
        prop = cert.proposal
        post_cutoff = any(e.cutoff_events > 0 for e in self.engines.values())
        if self.first_block_step is None:
            self.first_block_step = self.step_no
            self.first_block_action = self.action_index
        self._rec("block", number=prop.block_number, proposer=proposer,
                  tag=prop.mode_tag,
                  requests=[self.by_id[r].name for r in prop.requests],
                  request_ids=list(prop.requests),
                  post_cutoff=post_cutoff)
        was_fallback = {p for p in self.leader_ids if self.engines[p].fallback_snapshot}
        states = on_deliver(self.chain, [self.engines[p] for p in self.leader_ids])
        self.engines = dict(zip(self.leader_ids, states))
        for pid in self.leader_ids:
            if pid in was_fallback and not self.engines[pid].fallback_snapshot:
                self._rec("engine", leader=pid, event="fallback-exit")
        for party in self.parties:
            party.next_incarnation(self.chain.delivered)
        self._stepped_version = {}
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
        while True:
            self.action_index += 1
            moved = False
            for party in self.parties:
                if party.has_unsent():
                    self._activate(party)
                    moved = True
            for mid in sorted(self.pool):
                self._deliver(mid, "drain")
                moved = True
            self._step_leaders()
            if not moved and not self.pool and not any(
                p.has_unsent() for p in self.parties
            ):
                return

    def finish(self) -> Trace:
        honest = [p for p in range(self.cfg.n) if p not in self.corrupt]
        honest_seen: set[RequestId] = set()
        for pid in honest:
            honest_seen.update(self.parties[pid].seen)
        delivered = self.chain.delivered
        first_seen: dict[str, int] = {}
        last_seen: dict[str, int] = {}
        for rec in self.trace.of_kind("sight"):
            if rec["party"] in self.corrupt:
                continue
            name = self.by_id[rec["request"]].name
            first_seen.setdefault(name, rec["step"])
            last_seen[name] = rec["step"]
        self._rec(
            "summary",
            blocks=len(self.chain.blocks),
            delivered=len(delivered),
            pending=len(honest_seen.difference(delivered)),
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
            elapsed_steps=self.step_no,
            first_block_step=self.first_block_step,
            first_block_action=self.first_block_action,
            injection_end_step=self.injection_end_step,
            injection_end_action=self.injection_end_action,
            first_seen_honest=first_seen,
            last_seen_honest=last_seen,
        )
        return self.trace

    def chain_lines(self) -> list[str]:
        return self.chain.export_lines()


def run(scenario: Scenario) -> Trace:
    """Execute a scenario to quiescence and return its trace."""
    return Simulation(scenario).run()
