"""The benchmark's seed-0 pins: every scenario of every workload in
`perfbench/workloads.py` gives the trace and chain SHA-256 that
`perfbench/pinned.json` holds. The benchmark fails a run whose digests drift
from these pins; this test fails the same drift without running it. Both
files are only read here."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH.parent))

from perfbench import workloads  # noqa: E402

from fairlab.simnet.runner import Simulation  # noqa: E402

from conftest import sha256  # noqa: E402

PINNED = json.loads((PERFBENCH / "pinned.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed0_digests_match_the_bench_pins(workload):
    pins = PINNED[workload]
    assert pins["seed"] == workloads.DEFAULT_SEED
    got = []
    for scenario in workloads.scenarios(workload, workloads.DEFAULT_SEED):
        sim = Simulation(scenario)
        trace = sim.run()
        got.append({"label": scenario.label, "instance": scenario.instance,
                    "trace_sha256": sha256(trace.to_text()),
                    "chain_sha256": sha256("\n".join(sim.chain_lines()))})
    assert got == pins["scenarios"]
