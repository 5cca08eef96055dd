"""The benchmark's tracer patches fairlab names by (owner, attribute). A
renamed or removed name would fail the traced run, or count nothing, so every
hooked name must exist and the traced hybrid path must reach the layers the
per-layer counters report."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import HOOKS, Tracer  # noqa: E402

from fairlab.simnet.runner import Simulation  # noqa: E402

from conftest import wrapped_hybrid_scenario  # noqa: E402


def test_every_hooked_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in HOOKS if attr not in vars(owner)]
    assert not missing


def test_traced_hybrid_run_reaches_every_layer():
    tracer = Tracer()
    with tracer.installed():
        Simulation(wrapped_hybrid_scenario()).run()
    totals = tracer.totals()
    for name in ("leaders.step", "leaders.replay", "fairness.blocks",
                 "fairness.timed_precedes", "chain.submit"):
        assert totals[name]["calls"] > 0, name
