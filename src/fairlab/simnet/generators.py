"""Built-in schedule generators.

cycle_schedule reproduces the rotation construction in which no two requests
are seen in the same order by all parties. segment_schedule interleaves
families of four-request rotations split into thirds, the construction that
forces an ever-growing block. Both emit the sighting tables exactly; vote
messages are staggered behind the sightings (segment flushes deliver a copy
only once its recipient has already sighted the request, so relayed votes can
never perturb a party's scheduled sighting order).
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..core import QuorumConfig
from .scenario import BehaviorSpec, ClockSpec, Scenario

MARKET = "m"


def _request_names(count: int) -> list[str]:
    return [f"m{i + 1}" for i in range(count)]


def _markets(names: list[str], markets: int, rng: random.Random) -> dict[str, str]:
    """Each name's market: MARKET, or one of `markets` drawn from rng when there are several."""
    return {name: (MARKET if markets <= 1 else f"m{rng.randrange(markets)}") for name in names}


def cycle_schedule(cfg: QuorumConfig) -> Scenario:
    """Party i sees the n requests in rotation starting at its own index;
    all votes are relayed only after every sighting has happened."""
    names = _request_names(cfg.n)
    events: list[dict] = []
    for round_no in range(cfg.n):
        for party in range(cfg.n):
            events.append(
                {"a": "see", "party": party, "request": names[(party + round_no) % cfg.n]}
            )
    events.append({"a": "checkpoint", "label": "injection-complete"})
    return Scenario(
        n=cfg.n,
        t=cfg.t,
        requests={name: MARKET for name in names},
        events=events,
        generator={"name": "cycle", "n": cfg.n, "t": cfg.t},
        label=f"cycle-n{cfg.n}",
    )


# Rotation thirds for one family, by party role. Role 0 sees the family's
# last request only in the final third; role 3 sees everything in the middle.
_THIRDS = {
    0: ([0, 1, 2], [], [3]),
    1: ([1, 2], [3, 0], []),
    2: ([2], [3, 0, 1], []),
    3: ([], [3, 0, 1, 2], []),
}


def segment_schedule(cfg: QuorumConfig, depth: int, seed: int = 0) -> Scenario:
    """depth interleaved four-request families on four parties. Segment order
    sorts (family + third) ascending with newer families first on ties, which
    reproduces the published interleavings for depths two through four."""
    if cfg.n != 4 or cfg.t != 1:
        raise ValueError("segment construction is defined for n=4, t=1")
    if depth < 2:
        raise ValueError("need at least two families to interleave")
    names = _request_names(4 * depth)
    segments = sorted(
        ((fam, third) for fam in range(depth) for third in range(3)),
        key=lambda s: (s[0] + s[1], -s[0]),
    )

    def seg_label(fam: int, third: int) -> str:
        return f"{chr(ord('A') + fam)}{third + 1}"

    events: list[dict] = []
    labels: list[str] = []
    for idx, (fam, third) in enumerate(segments):
        label = seg_label(fam, third)
        family_requests = names[4 * fam: 4 * fam + 4]
        roles = list(range(4)) if fam % 2 == 0 else list(range(3, -1, -1))
        for role, party in enumerate(roles):
            for req_idx in _THIRDS[role][third]:
                events.append(
                    {"a": "see", "party": party, "request": family_requests[req_idx],
                     "tag": label}
                )
        labels.append(label)
        if idx == len(segments) - 1:
            break  # remaining votes arrive in the post-injection drain
        # Votes lag two segments behind their sightings: releasing a segment's
        # votes earlier lets the youngest family complete its quorums and
        # unblock the candidate while injection is still running.
        if len(labels) >= 3:
            events.append({"a": "flush", "tags": labels[:-2], "seen_only": True})
    events.append({"a": "checkpoint", "label": "injection-complete"})
    return Scenario(
        n=4,
        t=1,
        requests={name: MARKET for name in names},
        events=events,
        generator={"name": "segments", "depth": depth, "seed": seed},
        label=f"segments-k{depth}",
    )


def benign_schedule(cfg: QuorumConfig, requests: int = 4, seed: int = 0,
                    markets: int = 1) -> Scenario:
    """Well-behaved network: every party sees each request before the next one
    is injected and votes flow promptly."""
    names = _request_names(requests)
    rng = random.Random(seed)
    market_of = _markets(names, markets, rng)
    events: list[dict] = []
    for name in names:
        order = list(range(cfg.n))
        rng.shuffle(order)
        for party in order:
            events.append({"a": "see", "party": party, "request": name})
        events.append({"a": "flush", "tags": None, "seen_only": False})
    events.append({"a": "checkpoint", "label": "injection-complete"})
    return Scenario(
        n=cfg.n,
        t=cfg.t,
        requests=market_of,
        events=events,
        generator={"name": "benign", "requests": requests, "seed": seed,
                   "markets": markets},
        label=f"benign-r{requests}",
    )


def probabilistic_adversary(base: Scenario, p: float, seed: int) -> Scenario:
    """Wrap a schedule with probabilistic adversary failures: after every
    adversary action, each pending honest-to-honest message independently
    delivers with probability p, in a seeded random pool order. Scenario
    refuses a p outside (0, 1]."""
    return replace(
        base,
        failure_p=p,
        wrapper_seed=seed,
        generator={"name": "probabilistic", "p": p, "seed": seed,
                   "base": base.generator},
        label=f"{base.label}+p{p}",
    )


_FUZZ_BEHAVIORS = ("reorder", "equivocate", "skew")


def fuzz_scenario(seed: int, n: int = 4, t: int = 1, mode: str = "neverending",
                  r_max: int = 0) -> Scenario:
    """Seeded adversarial scenario: random sighting interleavings, random vote
    release points, and up to t byzantine parties with random behaviors. A
    party may have no scheduled sighting of one request; a complete run still
    shows it that request by relay once a vote for it reaches the party."""
    rng = random.Random(seed)
    count = rng.randint(2, 10)
    names = _request_names(count)
    markets = 1 if rng.random() < 0.7 else 2
    market_of = _markets(names, markets, rng)
    corrupt_count = rng.randint(0, t)
    corrupt = tuple(sorted(rng.sample(range(n), corrupt_count)))
    behaviors = {
        p: BehaviorSpec(kind=rng.choice(_FUZZ_BEHAVIORS), seed=rng.randrange(10**6),
                        offset=rng.randint(1, 7))
        for p in corrupt
    }
    clocks = {
        p: ClockSpec(rate=rng.randint(1, 3), offset=rng.randint(0, 5))
        for p in range(n)
    }
    honest = [p for p in range(n) if p not in corrupt]
    leaders = tuple(honest[:2]) if any(
        b.kind == "equivocate" for b in behaviors.values()
    ) else (honest[0],)

    streams = []
    for party in range(n):
        order = list(names)
        rng.shuffle(order)
        if len(order) > 2 and rng.random() < 0.2:
            order = order[: len(order) - 1]  # no scheduled sighting of one request
        streams.append(order)
    events: list[dict] = []
    cursors = [0] * n
    while any(cursors[p] < len(streams[p]) for p in range(n)):
        party = rng.choice([p for p in range(n) if cursors[p] < len(streams[p])])
        events.append({"a": "see", "party": party, "request": streams[party][cursors[party]]})
        cursors[party] += 1
        if rng.random() < 0.3:
            events.append(
                {"a": "flush", "tags": None, "seen_only": rng.random() < 0.5}
            )
    events.append({"a": "checkpoint", "label": "injection-complete"})
    return Scenario(
        n=n,
        t=t,
        mode=mode,
        r_max=r_max,
        corrupt=corrupt,
        behaviors=behaviors,
        clocks=clocks,
        leaders=leaders,
        requests=market_of,
        events=events,
        generator={"name": "fuzz", "seed": seed, "n": n, "t": t, "mode": mode},
        label=f"fuzz-{seed}",
    )
