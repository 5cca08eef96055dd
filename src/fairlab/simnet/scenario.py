"""Scenario files: the declarative description of one simulation.

A scenario fixes the quorum configuration, the protocol mode, the corruption
set with per-party byzantine behaviors, per-party clock models, and the
adversary's schedule as an explicit action list. Generator provenance is kept
alongside so a regenerated scenario hashes identically. Actions:

    {"a": "see", "party": 2, "request": "m1", "tag": "A1"}
    {"a": "deliver", "msg": 17}
    {"a": "flush", "tags": ["A1"], "seen_only": true}
    {"a": "checkpoint", "label": "adversary stops injecting"}

`flush` delivers every pending message copy matching the tag filter, in
message-id order; with `seen_only` a copy is held back until its recipient has
already sighted the request, which lets a generator stagger vote arrivals
without perturbing the sighting tables. Requests are declared by symbolic
name; the payload is the name itself and the id is its content digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from ..core import parse_json, party_key, validate_config
from ..leaders import MODES

SILENT = "silent"
REORDER = "reorder"
EQUIVOCATE = "equivocate"
SKEW = "skew"

BEHAVIOR_KINDS = (SILENT, REORDER, EQUIVOCATE, SKEW)
PROPOSER_POLICIES = ("race", "round-robin")

# Votes carry uint64 timestamps; clock rates, offsets and skews stay far below.
CLOCK_LIMIT = 2**32


def _int(value, field: str, low: float, high: float) -> None:
    # bool is an int, but JSON true is no count, id or seed
    if type(value) is not int or not low <= value < high:
        raise ValueError(f"scenario field {field!r} must be an integer in [{low}, {high}), "
                         f"not {value!r}")


def _utf8(field: str, *texts: str) -> None:
    # Request names are payloads, markets and the coin seed are hashed, and
    # `run` prints the label: each is encoded as UTF-8, which a lone
    # surrogate fails.
    for text in texts:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"scenario field {field!r} must encode as UTF-8, "
                             f"not {text!r}") from None


def _parties(value, n: int, field: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        type(p) is int and 0 <= p < n for p in value
    ):
        raise ValueError(f"scenario field {field!r} must list party ids in [0, {n}), "
                         f"not {value!r}")
    if len(set(value)) < len(value):
        # A repeat would give one run two scenario digests, or step a leader twice.
        raise ValueError(f"scenario field {field!r} repeats a party id: {list(value)!r}")
    return tuple(value)


def _check_events(events, n: int, requests: dict) -> None:
    """Reject a schedule action that `Simulation.execute` could not carry out."""
    if not isinstance(events, (list, tuple)):
        raise ValueError(f"scenario field 'events' must be a list, not {events!r}")
    for index, event in enumerate(events):
        action = event.get("a") if isinstance(event, dict) else None
        if action == "see":
            party, request = event.get("party"), event.get("request")
            ok = (type(party) is int and 0 <= party < n and isinstance(request, str)
                  and request in requests and isinstance(event.get("tag", ""), str))
        elif action == "deliver":
            ok = type(event.get("msg")) is int
        elif action == "flush":
            tags = event.get("tags")
            ok = ((tags is None or isinstance(tags, list)
                   and all(isinstance(tag, str) for tag in tags))
                  and type(event.get("seen_only", False)) is bool)
        else:
            ok = action == "checkpoint" and isinstance(event.get("label"), str)
        if not ok:
            raise ValueError(f"scenario event {index} is malformed: {event!r}")


def _specs(kind: type, table, field: str) -> dict:
    """A party-keyed ClockSpec or BehaviorSpec table from its JSON object."""
    if not isinstance(table, dict) or not all(isinstance(s, dict) for s in table.values()):
        raise ValueError(f"scenario field {field!r} must map party ids to objects")
    try:
        return {party_key(p, f"scenario field {field!r}"): kind(**spec)
                for p, spec in table.items()}
    except TypeError as exc:  # a missing or unknown key
        raise ValueError(f"scenario field {field!r}: {exc}") from None


@dataclass(frozen=True)
class ClockSpec:
    rate: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        _int(self.rate, "clocks.rate", 1, CLOCK_LIMIT)  # >= 1 keeps timestamps monotone
        _int(self.offset, "clocks.offset", 0, CLOCK_LIMIT)


@dataclass(frozen=True)
class BehaviorSpec:
    kind: str
    seed: int = 0
    offset: int = 0  # timestamp skew, only read by the skew behavior

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError(f"unknown byzantine behavior {self.kind!r}")
        _int(self.seed, "behaviors.seed", -math.inf, math.inf)
        _int(self.offset, "behaviors.offset", 0, CLOCK_LIMIT)


@dataclass
class Scenario:
    n: int
    t: int
    mode: str = "neverending"
    r_max: int = 0
    corrupt: tuple[int, ...] = ()
    behaviors: dict[int, BehaviorSpec] = field(default_factory=dict)
    clocks: dict[int, ClockSpec] = field(default_factory=dict)
    leaders: Optional[tuple[int, ...]] = None  # None = every honest party
    proposer_policy: str = "race"
    failure_p: Optional[float] = None
    wrapper_seed: int = 0
    coin_stop_p: float = 1.0
    coin_seed: str = "coin"
    requests: dict[str, str] = field(default_factory=dict)  # name -> market
    events: list[dict] = field(default_factory=list)
    generator: Optional[dict] = None
    label: str = ""

    def __post_init__(self) -> None:
        """Check every field's type and range, so a hand-edited file or a
        command-line override fails here with ValueError, not inside the run."""
        validate_config(self.n, self.t)  # first: the checks below compare n and t
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        _int(self.r_max, "r_max", 0, math.inf)
        self.corrupt = _parties(self.corrupt, self.n, "corrupt")
        if len(self.corrupt) > self.t:
            raise ValueError("corruption set larger than the fault budget")
        if self.leaders is not None:
            self.leaders = _parties(self.leaders, self.n, "leaders")
            if not self.leaders:
                raise ValueError("scenario field 'leaders' names no party")
        for name in ("behaviors", "clocks"):
            outside = [p for p in getattr(self, name) if not (type(p) is int and 0 <= p < self.n)]
            if outside:
                raise ValueError(f"scenario field {name!r} must be keyed by party ids in "
                                 f"[0, {self.n}), not {outside[0]!r}")
        honest = [p for p in self.behaviors if p not in self.corrupt]
        if honest:  # the run would give the party no behavior and no sign of it
            raise ValueError(f"scenario field 'behaviors' names party {honest[0]}, "
                             f"which 'corrupt' does not list")
        if self.proposer_policy not in PROPOSER_POLICIES:
            raise ValueError(f"unknown proposer policy {self.proposer_policy!r}, "
                             f"expected one of {PROPOSER_POLICIES}")
        if self.failure_p is not None and not (
            type(self.failure_p) in (int, float) and 0.0 < self.failure_p <= 1.0
        ):
            raise ValueError("delivery probability must be in (0, 1]")
        if not (type(self.coin_stop_p) in (int, float) and 0.0 <= self.coin_stop_p <= 1.0):
            raise ValueError("scenario field 'coin_stop_p' must be a number in [0, 1]")
        _int(self.wrapper_seed, "wrapper_seed", -math.inf, math.inf)
        if not (isinstance(self.coin_seed, str) and isinstance(self.label, str)):
            raise ValueError("scenario fields 'coin_seed' and 'label' must be strings")
        _utf8("coin_seed", self.coin_seed)
        _utf8("label", self.label)
        if not (self.generator is None or isinstance(self.generator, dict)):
            raise ValueError("scenario field 'generator' must be an object or null")
        if not isinstance(self.requests, dict) or not all(
            isinstance(name, str) and isinstance(market, str)
            for name, market in self.requests.items()
        ):
            raise ValueError("scenario field 'requests' must map request names to markets")
        _utf8("requests name", *self.requests)
        _utf8("requests market", *self.requests.values())
        for market in self.requests.values():
            if "|" in market:  # the separator in request_id's hashed bytes
                raise ValueError(f"scenario field 'requests market' must not contain '|', "
                                 f"not {market!r}")
        _check_events(self.events, self.n, self.requests)
        if not self.events and self.generator is not None:
            raise ValueError("generator scenario was saved without materialized events")

    def to_dict(self) -> dict:
        """Every field under its own name; only these five need converting to JSON."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(
            corrupt=list(self.corrupt),
            behaviors={str(p): asdict(b) for p, b in sorted(self.behaviors.items())},
            clocks={str(p): asdict(c) for p, c in sorted(self.clocks.items())},
            leaders=None if self.leaders is None else list(self.leaders),
            requests=dict(sorted(self.requests.items())),
        )
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Unknown keys are ignored; a missing key takes the field default."""
        if not isinstance(data, dict):
            raise ValueError("scenario file is not a JSON object")
        for name in ("n", "t"):
            if name not in data:
                raise ValueError(f"scenario file has no {name!r} field")
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        for name, kind in (("behaviors", BehaviorSpec), ("clocks", ClockSpec)):
            if name in kwargs:
                kwargs[name] = _specs(kind, kwargs[name], name)
        return cls(**kwargs)

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def instance(self) -> str:
        return instance_of(self.digest())


def instance_of(digest: str) -> str:
    """The protocol instance id of the scenario with this digest."""
    return digest[:12]


def scenario_text(scenario: Scenario) -> str:
    """A scenario file's content: indented sorted-key JSON and a final newline."""
    return json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n"


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return Scenario.from_dict(parse_json(fh.read()))
