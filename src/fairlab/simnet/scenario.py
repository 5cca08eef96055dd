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
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..core import validate_config

SILENT = "silent"
REORDER = "reorder"
EQUIVOCATE = "equivocate"
SKEW = "skew"

BEHAVIOR_KINDS = (SILENT, REORDER, EQUIVOCATE, SKEW)


@dataclass(frozen=True)
class ClockSpec:
    rate: int = 1
    offset: int = 0

    def __post_init__(self) -> None:
        if self.rate < 1:
            raise ValueError("clock rate must be >= 1 to keep timestamps monotone")


@dataclass(frozen=True)
class BehaviorSpec:
    kind: str
    seed: int = 0
    offset: int = 0  # timestamp skew, only read by the skew behavior

    def __post_init__(self) -> None:
        if self.kind not in BEHAVIOR_KINDS:
            raise ValueError(f"unknown byzantine behavior {self.kind!r}")


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
        validate_config(self.n, self.t)  # first: the checks below compare n and t
        if len(self.corrupt) > self.t:
            raise ValueError("corruption set larger than the fault budget")
        for p in self.corrupt:
            if not (0 <= p < self.n):
                raise ValueError(f"corrupt party {p} out of range")
        if self.failure_p is not None and not (0.0 < self.failure_p <= 1.0):
            raise ValueError("delivery probability must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "mode": self.mode,
            "r_max": self.r_max,
            "corrupt": list(self.corrupt),
            "behaviors": {str(p): asdict(b) for p, b in sorted(self.behaviors.items())},
            "clocks": {str(p): asdict(c) for p, c in sorted(self.clocks.items())},
            "leaders": None if self.leaders is None else list(self.leaders),
            "proposer_policy": self.proposer_policy,
            "failure_p": self.failure_p,
            "wrapper_seed": self.wrapper_seed,
            "coin_stop_p": self.coin_stop_p,
            "coin_seed": self.coin_seed,
            "requests": dict(sorted(self.requests.items())),
            "events": self.events,
            "generator": self.generator,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        return cls(
            n=data["n"],
            t=data["t"],
            mode=data.get("mode", "neverending"),
            r_max=data.get("r_max", 0),
            corrupt=tuple(data.get("corrupt", [])),
            behaviors={
                int(p): BehaviorSpec(**spec)
                for p, spec in data.get("behaviors", {}).items()
            },
            clocks={
                int(p): ClockSpec(**spec) for p, spec in data.get("clocks", {}).items()
            },
            leaders=None if data.get("leaders") is None else tuple(data["leaders"]),
            proposer_policy=data.get("proposer_policy", "race"),
            failure_p=data.get("failure_p"),
            wrapper_seed=data.get("wrapper_seed", 0),
            coin_stop_p=data.get("coin_stop_p", 1.0),
            coin_seed=data.get("coin_seed", "coin"),
            requests=dict(data.get("requests", {})),
            events=list(data.get("events", [])),
            generator=data.get("generator"),
            label=data.get("label", ""),
        )

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def instance(self) -> str:
        return self.digest()[:12]


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return Scenario.from_dict(json.load(fh))
