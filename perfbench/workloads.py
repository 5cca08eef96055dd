"""The benchmark's workloads: each turns a workload seed into the scenarios of
one pass, using only fairlab's public generators.

The default seed 0 gives the scenarios whose trace and chain digests are pinned
in pinned.json. Any other seed gives disjoint generator seeds, and therefore
different instance digests, vote attestations and (for the probabilistic
wrapper and the benign shuffles) different schedules.
"""

from __future__ import annotations

import dataclasses

from fairlab.core import validate_config
from fairlab.simnet.generators import benign_schedule, probabilistic_adversary, segment_schedule
from fairlab.simnet.scenario import Scenario

DEFAULT_SEED = 0

SEGMENT_DEPTHS = (6, 7, 8, 9, 10)
BENIGN_PARTIES = (10, 13, 16, 19, 22)
BENIGN_REQUESTS = 12
WRAPPER_RUNS = 20


def segments_neverending(seed: int) -> list[Scenario]:
    """The paper's impossibility schedule, depths 6-10, two segment seeds each."""
    cfg = validate_config(4, 1)
    return [
        segment_schedule(cfg, depth, seed=2 * seed + k)
        for depth in SEGMENT_DEPTHS
        for k in (0, 1)
    ]


def benign_wide(seed: int) -> list[Scenario]:
    """Clocked benign runs over a sweep of party counts at t = (n-1)//3."""
    out = []
    for n in BENIGN_PARTIES:
        cfg = validate_config(n, (n - 1) // 3)
        base = benign_schedule(cfg, requests=BENIGN_REQUESTS, seed=seed)
        out.append(dataclasses.replace(base, mode="clocked"))
    return out


def probabilistic_hybrid(seed: int) -> list[Scenario]:
    """Depth-10 segments under the p=0.05 failure wrapper, hybrid with r_max=6."""
    base = segment_schedule(validate_config(4, 1), depth=10, seed=seed)
    return [
        dataclasses.replace(
            probabilistic_adversary(base, 0.05, WRAPPER_RUNS * seed + k),
            mode="hybrid", r_max=6,
        )
        for k in range(WRAPPER_RUNS)
    ]


WORKLOADS = {
    "segments-neverending": segments_neverending,
    "benign-wide": benign_wide,
    "probabilistic-hybrid": probabilistic_hybrid,
}

# Per-layer metrics that are 0 on a workload by construction, with the reason.
# A metric prefix covers every metric that starts with it.
ZERO_REASONS = {
    "segments-neverending": {
        "fairness.timed_precedes.": "only the clocked engine calls timed_precedes",
    },
    "benign-wide": {
        "fairness.blocks.": "the clocked engine never evaluates the blocking relation",
    },
    "probabilistic-hybrid": {
        "fairness.timed_precedes.": (
            "the hybrid fallback counts timestamps below the pivot inline, "
            "without timed_precedes"
        ),
    },
}


def scenarios(workload: str, seed: int) -> list[Scenario]:
    return WORKLOADS[workload](seed)
