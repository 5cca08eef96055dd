"""Trace line encoding: `Trace.lines` renders `deliver`, `ingest` and `vote`
records from per-kind templates, with the quoted strings kept for the length
of one call, and every other record through `canonical_json`. The two must
give the same bytes for any records, and every record the runner writes of
those three kinds must take its template."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlab.core import canonical_json
from fairlab.simnet import trace as trace_module
from fairlab.simnet.generators import benign_schedule, fuzz_scenario
from fairlab.simnet.trace import Trace

from conftest import run, wrapped_hybrid_scenario
from test_acceptance import CFG4
from test_core import JSON_VALUES, ODD_TEXT

# Lone surrogates are legal in a Python str and escaped by the encoder.
_text = st.text() | st.sampled_from(ODD_TEXT + ["\ud800", "x\udfffy", "\U0010ffff"])
_ints = st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-1)

# The fields the runner writes for each kind, with the value types a template takes.
FIELDS = {
    "deliver": {"msg": "int", "request": "str", "sender": "int", "step": "int", "to": "int",
                "via": "str"},
    "ingest": {"leader": "int", "party": "int", "reason": "str|null", "request": "str",
               "seq": "int", "status": "str", "step": "int"},
    "vote": {"audience": "str|null", "block": "int", "party": "int", "request": "str",
             "seq": "int", "step": "int", "ts": "int|null"},
}
TEMPLATED = tuple(FIELDS)


@st.composite
def per_copy_record(draw, strings):
    """A record shaped like `deliver`, `ingest` or `vote`, its strings drawn
    from `strings`, left as is, with one value replaced by any JSON value
    (bools, floats, None, lists, objects), with one key dropped, with one
    key added or with one key renamed."""
    values = {"int": _ints, "str": strings,
              "int|null": st.none() | _ints, "str|null": st.none() | strings}
    kind = draw(st.sampled_from(sorted(FIELDS)))
    rec = {"kind": kind, **{key: draw(values[of]) for key, of in FIELDS[kind].items()}}
    change = draw(st.sampled_from(["none", "value", "drop", "add", "rename"]))
    if change == "value":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(JSON_VALUES)
    elif change == "drop":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif change == "add":
        rec[draw(_text.filter(lambda key: key not in rec))] = draw(JSON_VALUES)
    elif change == "rename":
        # The runner's key count with a key it lacks: a template's read misses.
        old = draw(st.sampled_from(sorted(rec)))
        rec[draw(_text.filter(lambda key: key not in rec))] = rec.pop(old)
    return rec


@st.composite
def per_copy_traces(draw):
    """1-6 such records whose strings come from one small pool, so one
    `lines()` call meets a string again in the same and in other fields."""
    strings = st.sampled_from(draw(st.lists(_text, min_size=1, max_size=4)))
    return draw(st.lists(per_copy_record(strings), min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(per_copy_traces())
def test_template_lines_equal_canonical_json(records):
    assert Trace({"n": 4}, records).lines()[1:] == [canonical_json(rec) for rec in records]


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
    others = [rec for rec in trace.records if rec["kind"] not in TEMPLATED]
    assert len(others) < len(trace.records)
    assert len(encoded) == 1 + len(others)
    assert encoded[1:] == others
