"""Trace line encoding: the runner keeps its `deliver`, `ingest` and `vote`
records as tuple rows, values in sorted-key order and no step, since a row's
step is its place in the trace, and `Trace.lines` renders them from per-kind
templates, with the quoted strings kept for the length of one call; every
dict row goes through `canonical_json`. A tuple row's line must be
`canonical_json` of its dict form, `Trace.records` must give that dict form,
a trace read back from its lines must write and audit the same, and the
chunked writers, `save` and `to_text`, must write what `lines` gives."""

import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlab.audit import audit_trace
from fairlab.cli import run_command
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

# The fields the runner writes for each kind but `step`, with their value types.
FIELDS = {
    "deliver": {"msg": "int", "request": "str", "sender": "int", "to": "int", "via": "str"},
    "ingest": {"leader": "int", "party": "int", "reason": "str|null", "request": "str",
               "seq": "int", "status": "str"},
    "vote": {"audience": "str|null", "block": "int", "party": "int", "request": "str",
             "seq": "int", "ts": "int|null"},
}
TEMPLATED = tuple(FIELDS)


def _row(rec):
    """A step-free record's tuple row: its kind, then its other values in
    sorted-key order."""
    return (rec["kind"], *(rec[key] for key in sorted(rec) if key != "kind"))


@st.composite
def per_copy_record(draw, strings):
    """A well-typed `deliver`, `ingest` or `vote` record without its step,
    its strings drawn from `strings`."""
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
    # A tuple row holds no step; its record's step is its index.
    trace = Trace({"n": 4}, [_row(rec) for rec in records])
    expected = [{**rec, "step": step} for step, rec in enumerate(records)]
    assert trace.lines()[1:] == [canonical_json(rec) for rec in expected]
    assert list(trace.records) == expected


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
    # The runner gives every record, tuple row or dict, its index as its step.
    trace = run(scenario)
    lines = trace.lines()
    records = list(trace.records)
    assert [rec["step"] for rec in records] == list(range(len(records)))
    assert records == [parse_json(line) for line in lines[1:]]
    reloaded = Trace.from_lines(lines)
    assert reloaded.lines() == lines
    assert audit_trace(reloaded).to_dict() == audit_trace(trace).to_dict()


def test_wide_run_and_its_text_stay_within_memory_bound():
    # Tuple rows hold a run's records in less than its text takes. The peak
    # covers the rows, the chunks and the text joined from them: 2.81-2.82
    # times the text on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0, where a
    # list of every line and step-holding tuples took 3.29-3.33 times (and
    # 7-8-key dict rows 4.28 times on 3.11). The bound leaves about 10%.
    sim = Simulation(_benign_clocked_22())
    tracemalloc.start()
    try:
        trace = sim.run()
        text = trace.to_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * len(text), (peak, len(text))


def test_wide_run_and_its_saved_file_stay_within_memory_bound(tmp_path):
    # `save` writes one chunk at a time and never holds the whole text, so
    # the peak is the run's own, its rows and one chunk: 0.72-0.74 times the
    # file on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0, where writing the
    # whole `to_text()` took 3.15-3.21 times. A writer that held the whole
    # text would add at least the file's size.
    path = tmp_path / "trace.jsonl"
    sim = Simulation(_benign_clocked_22())
    tracemalloc.start()
    try:
        sim.run().save(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak <= 1.25 * size, (peak, size)


def test_loading_a_wide_file_holds_little_beyond_the_trace(tmp_path):
    # `load` parses the file as it reads it, a line at a time, so loading
    # adds little to what the loaded trace holds: peak minus what is held
    # after loading is 0.003-0.004 times the file on Python 3.10.13, 3.11.7,
    # 3.12.1 and 3.13.0, where reading the whole text and splitting it into
    # a list of lines took 1.32-1.37 times. The absolute peak, 4.93-5.91
    # times the file against 6.25-7.27 before, is nearly all the loaded
    # dict rows, which vary too much across versions to bound alike.
    path = tmp_path / "trace.jsonl"
    run(_benign_clocked_22()).save(str(path))
    tracemalloc.start()
    try:
        trace = Trace.load(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert len(trace.rows) > 4 * trace_module.CHUNK_ROWS
    assert peak - held <= 0.5 * size, (peak, held, size)


@pytest.mark.parametrize("name", ["a\u2028b", "c\x85d", "e\u2029f"],
                         ids=["U+2028", "U+0085", "U+2029"])
def test_a_line_separator_inside_a_string_does_not_end_a_trace_line(name, tmp_path, capsys):
    # JSON lets a string hold U+0085, U+2028 and U+2029 unescaped, and
    # `str.splitlines()` splits at each of them; a trace line ends only at a
    # newline. The saved file escapes them, the rewrite does not.
    base = benign_schedule(validate_config(4, 1), requests=2, seed=1)
    scenario = dataclasses.replace(
        base, requests={name if key == "m1" else key: market
                        for key, market in base.requests.items()},
        events=[{**event, "request": name} if event.get("request") == "m1" else event
                for event in base.events])
    trace = run(scenario)
    saved, rewritten = tmp_path / "saved.jsonl", tmp_path / "rewritten.jsonl"
    trace.save(str(saved))
    with open(rewritten, "w") as fh:
        for line in trace.lines():
            fh.write(json.dumps(parse_json(line), sort_keys=True, ensure_ascii=False) + "\n")
    assert name not in saved.read_text() and name in rewritten.read_text()
    outputs = []
    for path in (saved, rewritten):
        assert run_command(["audit", str(path), "--format", "structured"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def wide():
    return run(_benign_clocked_22())


def _chunk_edge_traces(wide):
    """Traces whose rows end at, and one past, a chunk's end; a run of many
    chunks; and that run read back, where every row is a dict."""
    assert len(wide.rows) > 4 * trace_module.CHUNK_ROWS
    yield "header-only", Trace(wide.header)
    yield "one-chunk", Trace(wide.header, wide.rows[:trace_module.CHUNK_ROWS])
    yield "one-chunk-and-a-row", Trace(wide.header, wide.rows[:trace_module.CHUNK_ROWS + 1])
    yield "wide-run", wide
    yield "wide-run-reloaded", Trace.from_lines(wide.lines())


def test_saved_file_and_text_equal_the_lines_at_chunk_edges(wide, tmp_path):
    for name, trace in _chunk_edge_traces(wide):
        path = tmp_path / f"{name}.jsonl"
        trace.save(str(path))
        text = "\n".join(trace.lines()) + "\n"
        assert trace.to_text() == text, name
        assert path.read_bytes() == text.encode(), name


def test_records_give_a_tuple_row_its_index_as_its_step(wide):
    # Dict rows carry their own step: here none equals its index, so only a
    # tuple row's position can give the steps below.
    rows = [("deliver", 5, "r", 1, 2, "flush"), {"kind": "sight", "step": 9},
            ("ingest", 2, 1, None, "r", 0, "accepted"), {"kind": "summary", "step": 0},
            ("vote", None, 0, 1, "r", 0, 3)]
    records = Trace({"n": 4}, rows).records
    steps = [0, 9, 2, 0, 4]
    assert [rec["step"] for rec in records] == steps
    assert [records[i]["step"] for i in range(5)] == steps
    assert [records[i]["step"] for i in range(-5, 0)] == steps
    assert [rec["step"] for rec in reversed(records)] == steps[::-1]
    for index in (slice(1, 4), slice(None, None, -2), slice(-2, None), slice(3, 1)):
        assert [rec["step"] for rec in records[index]] == steps[index]
    with pytest.raises(IndexError):
        records[5]
    records = wide.records
    everything = list(records)
    assert records[-1] == everything[-1] and records[-2] == everything[-2]
    assert records[100:3000:7] == everything[100:3000:7]
    assert list(reversed(records)) == everything[::-1]

