"""Trace line encoding: `Trace.lines` renders `deliver` and `ingest` records
from per-kind templates and every other record through `canonical_json`. The
two must give the same bytes for any record, and every record the runner
writes of those two kinds must take its template."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlab.core import canonical_json
from fairlab.simnet import benign_schedule, fuzz_scenario, run
from fairlab.simnet import trace as trace_module
from fairlab.simnet.trace import Trace

from conftest import wrapped_hybrid_scenario
from test_acceptance import CFG4
from test_core import JSON_VALUES, ODD_TEXT

# Lone surrogates are legal in a Python str and escaped by the encoder.
_text = st.text() | st.sampled_from(ODD_TEXT + ["\ud800", "x\udfffy", "\U0010ffff"])
_ints = st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-1)

# The fields the runner writes for each kind, with the values a template takes.
FIELDS = {
    "deliver": {"msg": _ints, "request": _text, "sender": _ints, "step": _ints, "to": _ints,
                "via": _text},
    "ingest": {"leader": _ints, "party": _ints, "reason": st.none() | _text, "request": _text,
               "seq": _ints, "status": _text, "step": _ints},
}


@st.composite
def per_copy_records(draw):
    """A record shaped like `deliver` or `ingest`, left as is, with one value
    replaced by any JSON value (bools, floats, None, lists, objects), with one
    key dropped or with one key added."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    rec = {"kind": kind, **{key: draw(values) for key, values in FIELDS[kind].items()}}
    change = draw(st.sampled_from(["none", "value", "drop", "add"]))
    if change == "value":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(JSON_VALUES)
    elif change == "drop":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif change == "add":
        rec[draw(_text.filter(lambda key: key not in rec))] = draw(JSON_VALUES)
    return rec


@settings(max_examples=400, deadline=None)
@given(per_copy_records())
def test_template_lines_equal_canonical_json(rec):
    assert Trace({"n": 4}, [rec]).lines()[1] == canonical_json(rec)


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
    # A runner record shape that drifts from the templates would still give
    # the same bytes through canonical_json, only slower: count its calls.
    trace = run(scenario)
    encoded = []

    def counting(obj):
        encoded.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(trace_module, "canonical_json", counting)
    trace.lines()
    others = [rec for rec in trace.records if rec["kind"] not in ("deliver", "ingest")]
    assert len(others) < len(trace.records)
    assert len(encoded) == 1 + len(others)
    assert encoded[1:] == others
