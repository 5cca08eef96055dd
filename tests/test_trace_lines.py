"""Trace line encoding: the runner keeps its `deliver`, `ingest` and `vote`
records as tuple rows, values in sorted-key order, and `Trace.lines` renders
them from per-kind templates, with the quoted strings kept for the length of
one call; every dict row goes through `canonical_json`. A tuple row's line
must be `canonical_json` of its dict form, `Trace.records` must give that
dict form, and a trace read back from its lines must write and audit the
same."""

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlab.audit import audit_trace
from fairlab.core import canonical_json, parse_json, validate_config
from fairlab.leaders import MODES
from fairlab.simnet import trace as trace_module
from fairlab.simnet.generators import benign_schedule, fuzz_scenario
from fairlab.simnet.runner import Simulation
from fairlab.simnet.trace import Trace

from conftest import run, wrapped_hybrid_scenario
from test_acceptance import CFG4
from test_core import ODD_TEXT

# Lone surrogates are legal in a Python str and escaped by the encoder.
_text = st.text() | st.sampled_from(ODD_TEXT + ["\ud800", "x\udfffy", "\U0010ffff"])
_ints = st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-1)

# The fields the runner writes for each kind, with their value types.
FIELDS = {
    "deliver": {"msg": "int", "request": "str", "sender": "int", "step": "int", "to": "int",
                "via": "str"},
    "ingest": {"leader": "int", "party": "int", "reason": "str|null", "request": "str",
               "seq": "int", "status": "str", "step": "int"},
    "vote": {"audience": "str|null", "block": "int", "party": "int", "request": "str",
             "seq": "int", "step": "int", "ts": "int|null"},
}
TEMPLATED = tuple(FIELDS)


def _row(rec):
    """A record's tuple row: its kind, then its other values in sorted-key order."""
    return (rec["kind"], *(rec[key] for key in sorted(rec) if key != "kind"))


@st.composite
def per_copy_record(draw, strings):
    """A well-typed `deliver`, `ingest` or `vote` record, its strings drawn
    from `strings`."""
    values = {"int": _ints, "str": strings,
              "int|null": st.none() | _ints, "str|null": st.none() | strings}
    kind = draw(st.sampled_from(sorted(FIELDS)))
    return {"kind": kind, **{key: draw(values[of]) for key, of in FIELDS[kind].items()}}


@st.composite
def per_copy_traces(draw):
    """1-6 such records whose strings come from one small pool, so one
    `lines()` call meets a string again in the same and in other fields."""
    strings = st.sampled_from(draw(st.lists(_text, min_size=1, max_size=4)))
    return draw(st.lists(per_copy_record(strings), min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(per_copy_traces())
def test_template_lines_equal_canonical_json(records):
    trace = Trace({"n": 4}, [_row(rec) for rec in records])
    assert trace.lines()[1:] == [canonical_json(rec) for rec in records]
    assert list(trace.records) == records


@pytest.mark.parametrize("mode,r_max", [("neverending", 0), ("clocked", 0), ("hybrid", 3)])
@pytest.mark.parametrize("seed,n,t", [(5, 4, 1), (41, 7, 2), (2244, 4, 1)])
def test_fuzz_trace_lines_equal_canonical_json(mode, r_max, seed, n, t):
    trace = run(fuzz_scenario(seed, n=n, t=t, mode=mode, r_max=r_max))
    assert trace.lines()[1:] == [canonical_json(rec) for rec in trace.records]


@pytest.mark.parametrize("scenario", [
    dataclasses.replace(benign_schedule(CFG4, requests=4, seed=4), mode="clocked"),
    wrapped_hybrid_scenario(),
], ids=["clocked-benign", "wrapped-hybrid"])
def test_per_copy_records_take_their_template(scenario, monkeypatch):
    # Every per-copy record is a tuple row, and only the dict rows, the
    # header's included, go through canonical_json.
    trace = run(scenario)
    kinds = [rec["kind"] for rec in trace.records]
    assert [type(row) is tuple for row in trace.rows] == [k in TEMPLATED for k in kinds]
    encoded = []

    def counting(obj):
        encoded.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(trace_module, "canonical_json", counting)
    trace.lines()
    others = [row for row in trace.rows if type(row) is dict]
    assert len(others) < len(trace.rows)
    assert len(encoded) == 1 + len(others)
    assert encoded[1:] == others


def _benign_clocked_22():
    return dataclasses.replace(benign_schedule(validate_config(22, 7), requests=12, seed=0),
                               mode="clocked")


@pytest.mark.parametrize("scenario", [
    *(pytest.param(fuzz_scenario(seed, n=n, t=t, mode=mode, r_max=3 if mode == "hybrid" else 0),
                   id=f"fuzz-{mode}-n{n}-seed{seed}")
      for n, t in ((4, 1), (7, 2)) for mode in MODES for seed in range(3)),
    pytest.param(_benign_clocked_22(), id="benign-clocked-n22"),
    pytest.param(wrapped_hybrid_scenario(), id="wrapped-hybrid"),
])
def test_records_and_reloaded_trace_match_the_runner_trace(scenario):
    trace = run(scenario)
    lines = trace.lines()
    assert list(trace.records) == [parse_json(line) for line in lines[1:]]
    reloaded = Trace.from_lines(lines)
    assert reloaded.lines() == lines
    assert audit_trace(reloaded).to_dict() == audit_trace(trace).to_dict()


def test_wide_run_and_its_text_stay_within_memory_bound():
    # Tuple rows hold a run's records in less than its text takes. The peak
    # covers the rows, the lines and the joined text: 3.33 times the text on
    # Python 3.11, where 7-8-key dict rows took 4.28 times. Strings, tuples
    # and ints are the same size on Python 3.10-3.13, so the bound leaves
    # about 10% for the interpreter's own allocations to differ.
    sim = Simulation(_benign_clocked_22())
    tracemalloc.start()
    try:
        trace = sim.run()
        text = trace.to_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.7 * len(text), (peak, len(text))
