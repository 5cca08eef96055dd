"""Hostile scenario, trace and chain files.

A malformed file must give exit 2 with exactly one `error:` line: never a
traceback, and never exit 1, which means a well-formed run or chain broke a
rule. The matrix replaces one field at a time with each value below. A value
of the wrong JSON type must exit 2; one of the right type may still exit 0,
1 or 2 on its content. The explicit cases after the matrix each crashed or
were accepted before the load boundaries checked them.
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from fairlab.cli import run_command
from fairlab.core import MAX_PARTIES, make_request, validate_config
from fairlab.simnet.generators import benign_schedule
from fairlab.simnet.scenario import Scenario
from fairlab.validity import certificate_from_dict

from conftest import run

SRC = Path(__file__).resolve().parents[1] / "src"
BAD_VALUES = ["x", 1.5, [], {}, None, True]

INT, NUM, STR, LIST, DICT, NULL = (int,), (int, float), (str,), (list,), (dict,), (type(None),)

# The JSON types each field may have; bool is never an int here.
SCENARIO_TYPES = {
    "n": INT, "t": INT, "mode": STR, "r_max": INT, "corrupt": LIST, "behaviors": DICT,
    "clocks": DICT, "leaders": LIST + NULL, "proposer_policy": STR, "failure_p": NUM + NULL,
    "wrapper_seed": INT, "coin_stop_p": NUM, "coin_seed": STR, "requests": DICT,
    "events": LIST, "generator": DICT + NULL, "label": STR,
}
# Only the fields the auditor reads; the others may hold anything.
TRACE_HEADER_TYPES = {"n": INT, "t": INT, "mode": STR, "corrupt": LIST}
CHAIN_TYPES = {
    "header.n": INT, "header.t": INT, "number": INT,
    "certificate.instance": STR, "certificate.block": INT, "certificate.mode": STR,
    "certificate.proposer": INT, "certificate.requests": LIST, "certificate.pivot": DICT + NULL,
    "certificate.votes": DICT, "certificate.requests_table": DICT,
    "certificate.pivot.request": STR, "certificate.pivot.timestamps": LIST,
    "certificate.pivot.median": INT,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A depth-2 segments scenario run in clocked mode, so that its chain has
    timed certificates with a pivot, plus its trace and chain files."""
    root = tmp_path_factory.mktemp("hostile")
    paths = {kind: root / name for kind, name in
             (("scenario", "s.json"), ("trace", "t.jsonl"), ("chain", "c.jsonl"))}
    assert run_command(["gen", "segments", "--depth", "2", "--seed", "7", "--mode", "clocked",
                        "--out", str(paths["scenario"])]) == 0
    assert run_command(["run", str(paths["scenario"]), "--out", str(paths["trace"]),
                        "--chain", str(paths["chain"])]) == 0
    return {kind: path.read_text() for kind, path in paths.items()}


def _exit_code(capsys, argv, case, error=None, quoted=None):
    """Run the CLI; exit 2 must come with exactly one `error:` line. Given an
    `error` message, the run must exit 2 with it; given `quoted`, a (start,
    record) pair, with a message that starts so and ends quoting the record."""
    capsys.readouterr()
    code = run_command(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), case
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    if error is not None:
        assert (code, err) == (2, f"error: {error}\n"), (case, code, err)
    if quoted is not None:
        start, record = quoted
        assert code == 2 and err.startswith(f"error: {start}"), (case, code, err)
        assert err.endswith(f"{dict(sorted(record.items()))!r}\n"), (case, err)
    return code


def _check_matrix_case(capsys, argv, types, field, value):
    code = _exit_code(capsys, argv, (field, value))
    if field in types and type(value) not in types[field]:
        assert code == 2, (field, value, code)


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines()]


def _write_lines(path, records):
    path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")


# -- the matrix -----------------------------------------------------------------

def test_hostile_scenario_fields(files, tmp_path, capsys):
    data = json.loads(files["scenario"])
    path = tmp_path / "s.json"
    assert set(SCENARIO_TYPES) == {f.name for f in dataclasses.fields(Scenario)}
    for field in SCENARIO_TYPES:
        for value in BAD_VALUES:
            path.write_text(json.dumps({**data, field: value}))
            _check_matrix_case(capsys, ["run", str(path)], SCENARIO_TYPES, field, value)


def test_hostile_trace_header_fields(files, tmp_path, capsys):
    header, *records = _json_lines(files["trace"])
    path = tmp_path / "t.jsonl"
    for field in header:
        if field == "kind":
            continue
        for value in BAD_VALUES:
            _write_lines(path, [{**header, field: value}] + records)
            _check_matrix_case(capsys, ["audit", str(path)], TRACE_HEADER_TYPES, field, value)


def _chain_variants(header, entry):
    """(field, value, header, entry) with one chain field replaced by each bad value."""
    cert = entry["certificate"]
    for value in BAD_VALUES:
        for field in ("n", "t"):
            yield f"header.{field}", value, {**header, field: value}, entry
        yield "number", value, header, {**entry, "number": value}
        for field in cert:
            yield (f"certificate.{field}", value, header,
                   {**entry, "certificate": {**cert, field: value}})
        for field in cert["pivot"]:
            pivot = {**cert["pivot"], field: value}
            yield (f"certificate.pivot.{field}", value, header,
                   {**entry, "certificate": {**cert, "pivot": pivot}})


def test_hostile_chain_fields(files, tmp_path, capsys):
    header, entry, *rest = _json_lines(files["chain"])
    assert entry["certificate"]["pivot"] is not None
    path = tmp_path / "c.jsonl"
    for field, value, bad_header, bad_entry in _chain_variants(header, entry):
        assert field in CHAIN_TYPES, field
        _write_lines(path, [bad_header, bad_entry] + rest)
        _check_matrix_case(capsys, ["verify", str(path)], CHAIN_TYPES, field, value)


# -- explicit exit-2 cases ------------------------------------------------------

def _first_request(data):
    return sorted(data["requests"])[0]


# The message of each input check that no other case reaches.
PINNED_ERRORS = {
    "scenario-not-an-object": "scenario file is not a JSON object",
    "corrupt-over-budget": "corruption set larger than the fault budget",
    "behavior-unknown-kind": "unknown byzantine behavior 'bogus'",
    "clocks-key-not-an-integer":
        "scenario field 'clocks' key 'x' is not a party id in canonical decimal form",
    "votes-key-not-an-integer":
        "certificate field 'votes' key 'abc' is not a party id in canonical decimal form",
    "votes-entry-not-a-list": "certificate field 'votes' must be a list, not dict",
    "n-missing": "scenario file has no 'n' field",
    "market-with-separator": "scenario field 'requests market' must not contain '|', not 'a|b'",
    "leaders-repeated": "scenario field 'leaders' repeats a party id: [0, 0]",
    "behavior-for-honest-party":
        "scenario field 'behaviors' names party 0, which 'corrupt' does not list",
    "t-missing": "scenario file has no 't' field",
    "scenario-mode-unknown":
        "unknown mode 'bogus', expected one of ('neverending', 'clocked', 'hybrid')",
    "generator-without-events": "generator scenario was saved without materialized events",
    "trace-first-line-not-header": "trace does not start with a header record",
    # n=4, t=1: the error quotes the impossible set.
    "header-corrupt-repeated":
        "trace header 'corrupt' must list at most t=1 distinct party ids, not [0, 0]",
    "header-corrupt-over-budget":
        "trace header 'corrupt' must list at most t=1 distinct party ids, not [0, 1]",
    "header-corrupt-everyone":
        "trace header 'corrupt' must list at most t=1 distinct party ids, not [0, 1, 2, 3]",
}
# The start of each message that quotes a trace record, and the kind of the
# record it quotes: the first of that kind in the edited file.
QUOTED_ERRORS = {
    "sight-party-out-of-range": ("'sight' trace record names a party outside [0, 4)", "sight"),
    "sight-request-undeclared": ("'sight' trace record names a party outside [0, 4)", "sight"),
    "block-request-undeclared": ("'block' trace record names a request no 'request' record "
                                 "declares", "block"),
    "block-steps-zeroed": ("'block' trace record's step must be above", "block"),
    "incarnation-block-shifted": ("'incarnation' trace record's block must be 1,",
                                  "incarnation"),
    "request-name-lone-surrogate": ("'request' trace record's market holds '|' or its id is "
                                    "not the digest", "request"),
}

# Each mutates the scenario object in place, or returns the file's new content.
SCENARIO_CASES = {
    "scenario-not-an-object": lambda d: [],
    "r_max-string-hybrid": lambda d: d.update(mode="hybrid", r_max="2"),
    "corrupt-string-party": lambda d: d.update(corrupt=["1"]),
    # Within the fault budget, so only the repeat is wrong: it used to run as
    # corrupt=[0] under a second scenario digest.
    "corrupt-repeated": lambda d: d.update(n=7, t=2, corrupt=[0, 0]),
    "corrupt-over-budget": lambda d: d.update(corrupt=[0, 1]),  # n=4, t=1
    "failure_p-string": lambda d: d.update(failure_p="0.5"),
    "events-not-a-list": lambda d: d.update(events=5),
    "clock-rate-string": lambda d: d.update(clocks={"0": {"rate": "1", "offset": 0}}),
    "behavior-unknown-key": lambda d: d.update(
        corrupt=[3], behaviors={"3": {"kind": "silent", "speed": 1}}),
    "behavior-unknown-kind": lambda d: d.update(behaviors={"0": {"kind": "bogus"}}),
    "see-party-out-of-range": lambda d: d.update(
        events=[{"a": "see", "party": 9, "request": _first_request(d)}] + d["events"]),
    "leaders-string": lambda d: d.update(leaders="01"),
    # Party-keyed tables take canonical keys in [0, n): the later of "1" and
    # "01" used to win silently, and a key outside [0, n) was kept unused.
    "clocks-key-not-canonical": lambda d: d.update(
        clocks={"1": {"rate": 1, "offset": 0}, "01": {"rate": 2, "offset": 0}}),
    "clocks-key-out-of-range": lambda d: d.update(clocks={"9": {"rate": 1, "offset": 0}}),
    "clocks-key-not-an-integer": lambda d: d.update(clocks={"x": {"rate": 1, "offset": 0}}),
    "behaviors-key-out-of-range": lambda d: d.update(
        behaviors={**d.get("behaviors", {}), "9": {"kind": "silent"}}),
    "leaders-out-of-range": lambda d: d.update(leaders=[7]),
    # Leader 0 stepped, and replayed its store, twice per block.
    "leaders-repeated": lambda d: d.update(leaders=[0, 0]),
    # An honest party's behavior was dropped without a word: it voted as usual.
    "behavior-for-honest-party": lambda d: d.update(behaviors={"0": {"kind": "silent"}}),
    "proposer_policy-unknown": lambda d: d.update(proposer_policy="bogus"),
    # An unknown mode used to exit 2 as well, with "engine is not in hybrid mode".
    "scenario-mode-unknown": lambda d: d.update(mode="bogus"),
    # `fairlab run` refused this, and `gen probabilistic --base` wrote it out.
    "generator-without-events": lambda d: d.update(events=[]),
    # Both requests hash b"req|a|b|c" (core.request_id), so one id named two
    # requests; a run that ships one failed its own audit with exit 2.
    "market-with-separator": lambda d: d.update(
        requests={**d["requests"], "b|c": "a", "c": "a|b"}),
    # A new object: `d.pop` would return the value, written as the whole file.
    "n-missing": lambda d: {key: value for key, value in d.items() if key != "n"},
    "t-missing": lambda d: {key: value for key, value in d.items() if key != "t"},
}


@pytest.mark.parametrize("case", sorted(SCENARIO_CASES))
def test_malformed_scenario_exits_two(files, tmp_path, capsys, case):
    data = json.loads(files["scenario"])
    replaced = SCENARIO_CASES[case](data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data if replaced is None else replaced))
    assert _exit_code(capsys, ["run", str(path)], case, PINNED_ERRORS.get(case)) == 2


def test_scenario_defaults_and_unknown_keys(files):
    # Keys left out take the dataclass defaults, unknown keys are ignored, and
    # neither changes the digest.
    data = json.loads(files["scenario"])
    full = Scenario.from_dict(data)
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)
                if f.default is not dataclasses.MISSING}
    sparse = {key: value for key, value in data.items()
              if key not in defaults or value != defaults[key]}
    assert len(sparse) < len(data)
    assert Scenario.from_dict({**sparse, "comment": "x"}).digest() == full.digest()


def test_repeated_corrupt_id_is_named_in_the_error(files, tmp_path, capsys):
    # The same file with the id once runs; with it twice the error says why.
    path = tmp_path / "s.json"
    for corrupt, code in (([0], 0), ([0, 0], 2)):
        path.write_text(json.dumps({**json.loads(files["scenario"]), "n": 7, "t": 2,
                                    "corrupt": corrupt}))
        capsys.readouterr()
        assert run_command(["run", str(path)]) == code
    assert "'corrupt' repeats a party id" in capsys.readouterr().err


def test_negative_rmax_override_exits_two(files, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(files["scenario"])
    assert _exit_code(capsys, ["run", str(path), "--mode", "hybrid", "--rmax", "-1"],
                      "rmax") == 2


TRACE_CASES = {
    "trace-first-line-not-header": lambda lines: lines.pop(0),
    "header-n-string": lambda lines: lines[0].update(n="4"),
    "header-corrupt-int": lambda lines: lines[0].update(corrupt=5),
    # n=4, t=1: a repeated id, more than t ids, and every party. The auditor
    # used to give a verdict on the first two against a smaller honest set
    # and fail on the third with `min() arg is an empty sequence`.
    "header-corrupt-repeated": lambda lines: lines[0].update(corrupt=[0, 0]),
    "header-corrupt-over-budget": lambda lines: lines[0].update(corrupt=[0, 1]),
    "header-corrupt-everyone": lambda lines: lines[0].update(corrupt=[0, 1, 2, 3]),
    "header-n-above-limit": lambda lines: lines[0].update(n=MAX_PARTIES + 1),
    "record-not-an-object": lambda lines: lines.insert(1, [1, 2]),
    "sight-ts-string": lambda lines: _first_of_kind(lines, "sight").update(ts="x"),
    "block-requests-int": lambda lines: _first_of_kind(lines, "block").update(requests=5),
    "block-post-cutoff-int": lambda lines: _first_of_kind(lines, "block").update(post_cutoff=0),
    # The auditor used to fail on these two with the bare KeyError text, `error: 9`.
    "sight-party-out-of-range": lambda lines: _first_of_kind(lines, "sight").update(party=9),
    "sight-request-undeclared": lambda lines: _first_of_kind(lines, "sight").update(
        request="0" * 64),
    # The auditor used to take the unknown name as never sighted, exit 0 or 1.
    "block-request-undeclared": lambda lines: _first_of_kind(lines, "block").update(
        requests=["zzz"]),
    # Every block before its requests' sightings: block fairness used to
    # report each delivered request as included without an honest sighting.
    "block-steps-zeroed": lambda lines: [rec.update(step=0) for rec in lines
                                         if rec["kind"] == "block"],
    "sight-step-repeated": lambda lines: _second_sight_at_the_first_step(lines),
    # The auditor used to take any ts, so a party's clock could stand still.
    "sight-ts-repeated": lambda lines: _party_sights_twice_at_one_time(lines),
    # Block fairness reads each incarnation's start by its block number.
    "incarnation-block-shifted": lambda lines: [rec.update(block=rec["block"] + 1000)
                                                for rec in lines if rec["kind"] == "incarnation"],
    # Not the bare codec text: a name that does not encode has no request id.
    "request-name-lone-surrogate": lambda lines: _first_of_kind(lines, "request").update(
        name="\ud800"),
}


def _second_sight_at_the_first_step(lines):
    first, second = [rec for rec in lines if rec["kind"] == "sight"][:2]
    second["step"] = first["step"]


def _party_sights_twice_at_one_time(lines):
    first, *rest = [rec for rec in lines if rec["kind"] == "sight"]
    next(rec for rec in rest if rec["party"] == first["party"])["ts"] = first["ts"]


def _first_of_kind(lines, kind):
    return next(rec for rec in lines if rec["kind"] == kind)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_malformed_trace_exits_two(files, tmp_path, capsys, case):
    lines = _json_lines(files["trace"])
    TRACE_CASES[case](lines)
    path = tmp_path / "t.jsonl"
    _write_lines(path, lines)
    start, kind = QUOTED_ERRORS.get(case, (None, None))
    quoted = None if kind is None else (start, _first_of_kind(lines, kind))
    assert _exit_code(capsys, ["audit", str(path)], case, PINNED_ERRORS.get(case), quoted) == 2


@pytest.mark.parametrize("case", ["sight-party-out-of-range", "sight-request-undeclared"])
def test_bad_sight_record_is_named_in_the_error(files, tmp_path, capsys, case):
    lines = _json_lines(files["trace"])
    TRACE_CASES[case](lines)
    path = tmp_path / "t.jsonl"
    _write_lines(path, lines)
    capsys.readouterr()
    assert run_command(["audit", str(path)]) == 2
    assert "'sight' trace record" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["header-corrupt-repeated", "header-corrupt-over-budget",
                                  "header-corrupt-everyone"])
def test_impossible_corruption_set_is_quoted_in_the_error(files, tmp_path, capsys, case):
    lines = _json_lines(files["trace"])
    assert (lines[0]["n"], lines[0]["t"]) == (4, 1)
    TRACE_CASES[case](lines)
    path = tmp_path / "t.jsonl"
    _write_lines(path, lines)
    capsys.readouterr()
    assert run_command(["audit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"not {lines[0]['corrupt']!r}" in err


def test_block_of_undeclared_requests_is_quoted_in_the_error(files, tmp_path, capsys):
    lines = _json_lines(files["trace"])
    TRACE_CASES["block-request-undeclared"](lines)
    path = tmp_path / "t.jsonl"
    _write_lines(path, lines)
    capsys.readouterr()
    assert run_command(["audit", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'block' trace record" in err and "'zzz'" in err


def test_zeroed_block_step_is_quoted_in_the_error(files, tmp_path, capsys):
    lines = _json_lines(files["trace"])
    TRACE_CASES["block-steps-zeroed"](lines)
    path = tmp_path / "t.jsonl"
    _write_lines(path, lines)
    capsys.readouterr()
    assert run_command(["audit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'block' trace record's step must be above" in err
    assert repr(_first_of_kind(lines, "block")) in err


def _repeat_sightings(records):
    """Add a second copy of every sight record before the summary, in reverse
    order, with steps above the summary's, so that the steps still rise."""
    sights = [rec for rec in records if rec["kind"] == "sight"]
    last = records[-1]["step"]
    again = [{**rec, "step": last + i} for i, rec in enumerate(reversed(sights), 1)]
    records[-1:-1] = again
    return again[0]


def _renumber_blocks(records):
    """Number every block record 0."""
    blocks = [rec for rec in records if rec["kind"] == "block"]
    for rec in blocks:
        rec["number"] = 0
    return blocks[1]


def _flag_blocks_post_cutoff(records):
    """Flag every block post-cutoff, in a run where no engine crossed the cutoff."""
    blocks = [rec for rec in records if rec["kind"] == "block"]
    for rec in blocks:
        rec["post_cutoff"] = True
    return blocks[0]


def _redeclare_requests(records):
    """Declare every request again before the summary, under a fresh id and
    in a market of its own, which leaves no two requests in one market."""
    again = [{**rec, "id": "re-" + rec["id"], "market": rec["name"]}
             for rec in records if rec["kind"] == "request"]
    records[-1:-1] = again
    return again[0]


def _relabel_markets(records):
    """Move every request into a market of its own, under its old id, which
    leaves no two requests in one market."""
    requests = [rec for rec in records if rec["kind"] == "request"]
    for rec in requests:
        rec["market"] = "own-" + rec["name"]
    return requests[0]


def _zero_sighting_clocks(records):
    """Set every sight record's ts to 0, which leaves no two honest sighting
    intervals disjoint."""
    sights = [rec for rec in records if rec["kind"] == "sight"]
    for rec in sights:
        rec["ts"] = 0
    first = sights[0]["party"]
    return next(rec for rec in sights[1:] if rec["party"] == first)


def _redeliver_requests(records):
    """Append every earlier block's requests to the last block, which moves
    each request's last delivery to that block."""
    *earlier, last = [rec for rec in records if rec["kind"] == "block"]
    last["requests"] += [name for rec in earlier for name in rec["requests"]]
    return last


# The hybrid gate passes when every violation sits in a post-cutoff block.
TAMPER_MODE = {_flag_blocks_post_cutoff: {"mode": "hybrid", "r_max": 6},
               # Timed fairness, which reads the clocks, gates a clocked trace.
               _zero_sighting_clocks: {"mode": "clocked"}}
# The rule each tamper breaks, as its error names it.
TAMPER_ERROR = {
    _repeat_sightings: "repeats an earlier sighting",
    _renumber_blocks: "is not numbered",
    _flag_blocks_post_cutoff: "post_cutoff must be",
    _redeclare_requests: "re-declares",
    _redeliver_requests: "already named",
    _relabel_markets: "is not the digest of its market and name",
    _zero_sighting_clocks: "ts must be above",
}


@pytest.mark.parametrize("tamper", list(TAMPER_ERROR))
def test_tampered_trace_cannot_hide_violations(tmp_path, capsys, tamper):
    # Swapping the first and last blocks' requests breaks relative block
    # fairness (exit 1). Each tamper used to make the same trace pass (exit 0):
    # a repeat of every sighting in reverse order, every block numbered 0,
    # every block flagged post-cutoff in hybrid mode, every request declared
    # again in a market of its own, every request delivered again last,
    # every request moved to a market of its own under its old id, or every
    # sighting at time 0 in clocked mode.
    scenario = benign_schedule(validate_config(4, 1), requests=3, seed=4)
    trace = run(dataclasses.replace(scenario, **TAMPER_MODE.get(tamper, {})))
    records = _json_lines("\n".join(trace.lines()))
    blocks = [rec for rec in records if rec["kind"] == "block"]
    blocks[0]["requests"], blocks[-1]["requests"] = blocks[-1]["requests"], blocks[0]["requests"]
    path = tmp_path / "t.jsonl"
    _write_lines(path, records)
    assert _exit_code(capsys, ["audit", str(path)], "swapped") == 1
    offending = tamper(records)
    _write_lines(path, records)
    capsys.readouterr()
    assert run_command(["audit", str(path)]) == 2
    # The error names the tamper's rule and quotes the record as the loader
    # read it, keys in file order.
    err = capsys.readouterr().err
    assert TAMPER_ERROR[tamper] in err
    assert repr(dict(sorted(offending.items()))) in err


CHAIN_CASES = {
    "header-n-above-limit": lambda lines: lines[0].update(n=MAX_PARTIES + 1),
    "number-string": lambda lines: lines[1].update(number="0"),
    "block-true": lambda lines: lines[1]["certificate"].update(block=True),
    "mode-unknown": lambda lines: lines[1]["certificate"].update(mode="x"),
    "proposer-negative": lambda lines: lines[1]["certificate"].update(proposer=-1),
    "proposer-true": lambda lines: lines[1]["certificate"].update(proposer=True),
    "votes-key-not-an-integer": lambda lines: lines[1]["certificate"]["votes"].update(abc=[]),
    "votes-entry-not-a-list": lambda lines: lines[1]["certificate"]["votes"].update({"0": {}}),
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_malformed_chain_exits_two(files, tmp_path, capsys, case):
    lines = _json_lines(files["chain"])
    CHAIN_CASES[case](lines)
    path = tmp_path / "c.jsonl"
    _write_lines(path, lines)
    assert _exit_code(capsys, ["verify", str(path)], case, PINNED_ERRORS.get(case)) == 2


def _rekey(old, new):
    """Cite party `old`'s votes under key `new`, after garbage rows under
    `old`: while both keys named one party, the later key won unchecked."""
    def mutate(cert):
        votes = cert["votes"]
        real = votes.pop(old)
        votes[old] = [[0, None, "zz", "00"]]
        votes[new] = real
    return mutate


def _payload(rewrite):
    def mutate(cert):
        entry = cert["requests_table"][sorted(cert["requests_table"])[0]]
        entry["payload"] = rewrite(entry["payload"])
    return mutate


# Each of these used to print `chain: ok` and exit 0.
NON_CANONICAL_CERTIFICATE_CASES = {
    "votes-key-leading-zero": _rekey("1", "01"),
    "votes-key-plus-sign": _rekey("1", "+1"),
    "votes-key-minus-zero": _rekey("0", "-0"),
    "votes-key-arabic-indic-digit": _rekey("1", "\u0661"),
    "payload-hex-spaced": _payload(lambda h: h[:2] + " " + h[2:]),
    "payload-hex-capitals": _payload(str.upper),
}


@pytest.mark.parametrize("case", sorted(NON_CANONICAL_CERTIFICATE_CASES))
def test_non_canonical_certificate_exits_two(files, tmp_path, capsys, case):
    header, entry, *rest = _json_lines(files["chain"])
    NON_CANONICAL_CERTIFICATE_CASES[case](entry["certificate"])
    path = tmp_path / "c.jsonl"
    # Not sorted: the garbage rows must come before the real ones.
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, entry] + rest))
    assert _exit_code(capsys, ["verify", str(path)], case) == 2


def _repeated_key(obj, key, first):
    """`obj` as JSON text with `key` written twice, `first` and then its real
    value: a parser that keeps the last copy never sees `first`."""
    return "{" + json.dumps(key) + ": " + json.dumps(first) + ", " + json.dumps(obj)[1:]


def _scenario_repeating_mode(files):
    return _repeated_key(json.loads(files["scenario"]), "mode", "hybrid") + "\n"


def _trace_repeating_sight_party(files):
    lines = _json_lines(files["trace"])
    at = lines.index(_first_of_kind(lines, "sight"))
    text = [json.dumps(rec) for rec in lines]
    text[at] = _repeated_key(lines[at], "party", 9)
    return "\n".join(text) + "\n"


def _chain_repeating_votes_key(files):
    # Garbage rows under "1" before the real ones once printed `chain: ok`.
    header, entry, *rest = _json_lines(files["chain"])
    cert = entry["certificate"]
    votes = _repeated_key(cert["votes"], "1", [[0, None, "zz", "00"]])
    cert_text = json.dumps({**cert, "votes": None}).replace('"votes": null', '"votes": ' + votes)
    line = json.dumps({**entry, "certificate": None}).replace(
        '"certificate": null', '"certificate": ' + cert_text)
    return "\n".join([json.dumps(header), line] + [json.dumps(r) for r in rest]) + "\n"


REPEATED_KEY_CASES = {
    "scenario": ("run", _scenario_repeating_mode, "mode"),
    "trace": ("audit", _trace_repeating_sight_party, "party"),
    "chain": ("verify", _chain_repeating_votes_key, "1"),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_KEY_CASES))
def test_repeated_json_key_is_named_in_the_error(files, tmp_path, capsys, kind):
    command, write, key = REPEATED_KEY_CASES[kind]
    path = tmp_path / "file.json"
    path.write_text(write(files))
    capsys.readouterr()
    assert run_command([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"repeats the key {key!r}" in err


# -- errors that name the file line ----------------------------------------------

@pytest.fixture(scope="module")
def benign_files(tmp_path_factory):
    """The trace and chain of `fairlab gen benign --parties 10 --faults 3
    --requests 12` run through `fairlab run`: 4,661 trace lines."""
    root = tmp_path_factory.mktemp("benign")
    scenario, trace, chain = root / "b.json", root / "t.jsonl", root / "c.jsonl"
    assert run_command(["gen", "benign", "--parties", "10", "--faults", "3", "--requests", "12",
                        "--out", str(scenario)]) == 0
    assert run_command(["run", str(scenario), "--out", str(trace), "--chain", str(chain)]) == 0
    return {"trace": trace.read_text(), "chain": chain.read_text()}


def _drop_key(key, within=None):
    """A line's JSON object without `key`, at the top or in the object `within`."""
    def edit(line):
        obj = json.loads(line)
        del (obj if within is None else obj[within])[key]
        return json.dumps(obj)
    return edit


# (command, file, file line, its edit, the error); `{width}` is the line's
# length before the edit. `files` is the depth-2 clocked segments run.
LINE_ERROR_CASES = {
    # Each cut line loses its closing brace.
    "trace-line-cut": ("audit", "benign", "trace", 51, lambda line: line[:-1],
                       "line 51: Expecting ',' delimiter: column {width}"),
    "trace-line-not-an-object": ("audit", "files", "trace", 4, lambda line: "5",
                                 "line 4: trace line is not a JSON object with a string 'kind'"),
    "trace-line-repeats-a-key": ("audit", "files", "trace", 3,
                                 lambda line: line[:-1] + ', "kind": "x"}',
                                 "line 3: JSON object repeats the key 'kind'"),
    "chain-line-cut": ("verify", "benign", "chain", 3, lambda line: line[:-1],
                       "line 3: Expecting ',' delimiter: column {width}"),
    "chain-header-without-n": ("verify", "files", "chain", 1, _drop_key("n"),
                               "line 1 has no 'n' field"),
    # A blank line counts: the entry without a certificate is file line 3.
    "chain-entry-without-certificate": ("verify", "files", "chain", 2,
                                        lambda line: "\n" + _drop_key("certificate")(line),
                                        "line 3 has no 'certificate' field"),
    "certificate-without-requests-table": ("verify", "files", "chain", 3,
                                           _drop_key("requests_table", "certificate"),
                                           "line 3 has no 'requests_table' field"),
    "chain-entry-not-an-object": ("verify", "files", "chain", 2, lambda line: "[]",
                                  "line 2: chain entry is not a JSON object"),
}


@pytest.mark.parametrize("case", sorted(LINE_ERROR_CASES))
def test_malformed_line_is_named_in_the_error(files, benign_files, tmp_path, capsys, case):
    # Each used to name only a place within its line (`line 2 column 1`, the
    # place after its newline) or the bare missing key (`error: 'n'`).
    command, source, kind, number, edit, error = LINE_ERROR_CASES[case]
    lines = (benign_files if source == "benign" else files)[kind].split("\n")
    width = len(lines[number - 1])
    lines[number - 1] = edit(lines[number - 1])
    text = "\n".join(lines)
    path = tmp_path / "file.jsonl"
    path.write_text(text)
    capsys.readouterr()
    assert run_command([command, str(path)]) == 2, case
    captured = capsys.readouterr()
    assert captured.err == f"error: {error.format(width=width)}\n"
    # Nothing is written: no output, and the file as it was.
    assert captured.out == "" and path.read_text() == text


@pytest.mark.parametrize("command", ["run", "audit", "verify"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    # A scenario, trace or chain file of nested arrays used to escape the CLI
    # as a RecursionError traceback with exit 1, which reads as a broken rule.
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000 + "\n")
    assert _exit_code(capsys, [command, str(path)], command) == 2


def _rename_first_request(data, name):
    old = _first_request(data)
    data["requests"][name] = data["requests"].pop(old)
    data["events"] = [{**e, "request": name} if e.get("request") == old else e
                      for e in data["events"]]


UNENCODABLE_SCENARIO_CASES = {
    "requests name": lambda d: _rename_first_request(d, "\ud800"),
    "requests market": lambda d: d["requests"].update({_first_request(d): "\ud800"}),
    # The coin is drawn, and the seed encoded, only mid-run: in hybrid mode
    # when a candidate grows past r_max with coin_stop_p below 1.
    "coin_seed": lambda d: d.update(mode="hybrid", r_max=0, coin_stop_p=0.5,
                                    coin_seed="\ud800"),
}


@pytest.mark.parametrize("field", sorted(UNENCODABLE_SCENARIO_CASES))
def test_unencodable_scenario_string_is_named_in_the_error(files, tmp_path, capsys, field):
    # Each used to exit 2 with the bare codec text, naming no field.
    data = json.loads(files["scenario"])
    UNENCODABLE_SCENARIO_CASES[field](data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_command(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"scenario field {field!r} must encode as UTF-8" in err


def test_unencodable_label_exits_two_before_the_run(files, tmp_path):
    # The label is printed only after the trace is saved, and captured
    # stdout takes a lone surrogate, so this runs the CLI in a fresh
    # interpreter. It used to write the trace, then exit 2 with the bare
    # codec text.
    data = json.loads(files["scenario"])
    data["label"] = "\udc00"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    trace = tmp_path / "t.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "fairlab.cli", "run", str(path),
                           "--out", str(trace)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "scenario field 'label' must encode as UTF-8" in done.stderr
    assert not trace.exists()


@pytest.mark.parametrize("field, value", [("instance", "\ud800"), ("vote row request", "\u00e9")])
def test_unencodable_certificate_string_is_named_in_the_error(files, tmp_path, capsys,
                                                             field, value):
    # Both used to exit 2 with the bare codec text, naming no field.
    header, entry, *rest = _json_lines(files["chain"])
    cert = entry["certificate"]
    if field == "instance":
        cert["instance"] = value
    else:
        cert["votes"]["1"][0][2] = value
    path = tmp_path / "c.jsonl"
    _write_lines(path, [header, entry] + rest)
    capsys.readouterr()
    assert run_command(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"certificate field {field!r}" in err


def _no_votes(cert):
    cert["instance"] = "\ud800"
    cert["votes"] = {}


def _first_row_malformed(cert):
    cert["instance"] = "\ud800"
    cert["votes"]["0"][0] = [0, None, "ab"]


def _second_row_request_unencodable(cert):
    cert["votes"]["0"][1][2] = "é"


def _requests_not_a_list(cert):
    cert["requests"] = 5


def _request_not_a_str_nor_proposer(cert):
    cert["requests"].append(5)
    cert["proposer"] = -1


INSTANCE_UNENCODABLE = "error: certificate field 'instance' must encode as utf-8, not '\\ud800'\n"


@pytest.mark.parametrize("mutate, code, out, err", [
    # The instance is checked where it is read, with no vote built from it.
    (_no_votes, 2, "", INSTANCE_UNENCODABLE),
    # The instance is read before any vote row.
    (_first_row_malformed, 2, "", INSTANCE_UNENCODABLE),
    # The first row builds its vote; the second row's request fails.
    (_second_row_request_unencodable, 2, "",
     "error: certificate field 'vote row request' must encode as ascii, not 'é'\n"),
    (_requests_not_a_list, 2, "", "error: certificate field 'requests' must be a list, not int\n"),
    # The request list is read before the proposer.
    (_request_not_a_str_nor_proposer, 2, "",
     "error: certificate field 'requests' must be a str, not int\n"),
])
def test_certificate_decoding_errors_keep_their_order(files, tmp_path, capsys,
                                                      mutate, code, out, err):
    header, entry, *rest = _json_lines(files["chain"])
    mutate(entry["certificate"])
    path = tmp_path / "c.jsonl"
    _write_lines(path, [header, entry] + rest)
    capsys.readouterr()
    assert run_command(["verify", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(out) and captured.err == err


VOTE_ROW_ERROR = ("error: certificate vote row must be [seq, ts, request, attestation] "
                  "with seq and ts in [0, 2**64), not {!r}\n")


def _malformed_rows(row):
    """A cited vote row [seq, ts, request, attestation] replaced by a number,
    cut short or lengthened, or with one field of a wrong type or range."""
    yield 5
    yield row[:3]
    yield row + [row[3]]
    for at in (0, 1):  # seq, ts
        for value in (True, -1, 2**64, 1.5):
            yield row[:at] + [value] + row[at + 1:]
    for at in (2, 3):  # request, attestation
        for value in (7, None):
            yield row[:at] + [value] + row[at + 1:]


def test_malformed_vote_row_gives_the_row_error(files, tmp_path, capsys):
    header, entry, *rest = _json_lines(files["chain"])
    rows = entry["certificate"]["votes"]["1"]
    assert rows[1][1] is not None  # a timed chain: every row has a timestamp
    path = tmp_path / "c.jsonl"
    cases = list(_malformed_rows(rows[1]))
    assert len(cases) == 15
    errors = []
    for bad in cases:
        rows[1] = bad
        _write_lines(path, [header, entry] + rest)
        capsys.readouterr()
        assert run_command(["verify", str(path)]) == 2, bad
        errors.append(capsys.readouterr().err)
        assert errors[-1] == VOTE_ROW_ERROR.format(bad), bad
    # Two lines in full: the row replaced by a number, and the row cut short.
    assert errors[0] == ("error: certificate vote row must be [seq, ts, request, attestation] "
                         "with seq and ts in [0, 2**64), not 5\n")
    assert errors[1] == (
        "error: certificate vote row must be [seq, ts, request, attestation] with seq and ts "
        "in [0, 2**64), not "
        "[1, 2, 'ede588316822942c6b530f447e45689990e176d532a7d55749daf4cff6795b81']\n")


@pytest.mark.parametrize("field, value, error", [
    ("entry", 5, "'requests_table entry' must be a dict, not int"),
    ("payload", 5, "'requests_table payload' must be a str, not int"),
    ("payload", None, "'requests_table payload' must be a str, not NoneType"),
    ("market", 5, "'requests_table market' must be a str, not int"),
    ("market", None, "'requests_table market' must be a str, not NoneType"),
])
def test_malformed_table_entry_is_named_in_the_error(files, tmp_path, capsys, field, value,
                                                     error):
    header, entry, *rest = _json_lines(files["chain"])
    table = entry["certificate"]["requests_table"]
    rid = sorted(table)[0]
    if field == "entry":
        table[rid] = value
    else:
        table[rid][field] = value
    path = tmp_path / "c.jsonl"
    _write_lines(path, [header, entry] + rest)
    _exit_code(capsys, ["verify", str(path)], (field, value), f"certificate field {error}")


def test_requests_are_one_value_on_every_path(files):
    # The request a run makes, the one a chain line rebuilds and a replaced
    # copy are equal, hash equal and, like votes, keep no instance dict.
    cert = _json_lines(files["chain"])[1]["certificate"]
    rid, entry = sorted(cert["requests_table"].items())[0]
    made = make_request(entry["market"], bytes.fromhex(entry["payload"]))
    rebuilt = certificate_from_dict(cert).request_table[rid]
    for r in (made, rebuilt, dataclasses.replace(made)):
        assert r == made and hash(r) == hash(made) and r.id == rid
        assert not hasattr(r, "__dict__")


# -- well-formed but invalid: exit 1 ---------------------------------------------

@pytest.mark.parametrize("key", ["9", "-1"])
def test_canonical_votes_key_outside_range_is_a_bad_attestation(files, tmp_path, capsys, key):
    header, entry, *rest = _json_lines(files["chain"])
    votes = entry["certificate"]["votes"]
    votes[key] = votes.pop("1")
    path = tmp_path / "c.jsonl"
    _write_lines(path, [header, entry] + rest)
    capsys.readouterr()
    assert run_command(["verify", str(path)]) == 1
    assert "block 0: invalid (bad-attestation)" in capsys.readouterr().out


def _pivot_mutation(case, pivot, cited):
    """The first certificate's declared pivot timestamps with one of the three
    conditions broken: n-t or more of them, all cited, holding the median."""
    declared, median = list(pivot["timestamps"]), pivot["median"]
    other = next(i for i, ts in enumerate(declared) if ts != median)
    if case == "empty":
        return []
    if case == "uncited":
        return declared[:other] + [max(cited) + 1] + declared[other + 1:]
    if case == "short":
        return declared[:other] + declared[other + 1:]
    if case == "overcounted":  # a cited value declared once more than it is cited
        value = next(ts for ts in declared
                     if ts != declared[other] and cited.count(ts) == declared.count(ts))
        return declared[:other] + [value] + declared[other + 1:]
    # median-removed: swap the median for a cited timestamp left undeclared.
    spare = Counter(cited) - Counter(declared)
    assert declared.count(median) == 1 and set(spare) - {median}
    return [min(set(spare) - {median}) if ts == median else ts for ts in declared]


@pytest.mark.parametrize("case", ["empty", "uncited", "overcounted", "short", "median-removed"])
def test_forged_pivot_timestamps_exit_one(files, tmp_path, capsys, case):
    header, entry, *rest = _json_lines(files["chain"])
    cert = entry["certificate"]
    pivot = cert["pivot"]
    assert len(pivot["timestamps"]) == header["n"] - header["t"]
    cited = [row[1] for rows in cert["votes"].values() for row in rows
             if row[2] == pivot["request"]]
    pivot["timestamps"] = _pivot_mutation(case, pivot, cited)
    path = tmp_path / "c.jsonl"
    _write_lines(path, [header, entry] + rest)
    capsys.readouterr()
    assert run_command(["verify", str(path)]) == 1
    assert "block 0: invalid (invalid-pivot)" in capsys.readouterr().out


def test_chain_of_two_instances_exits_one(tmp_path, capsys):
    # One run's header and block 0, then another run's block 1: each block
    # verifies and the numbers run on, so the spliced file used to pass.
    chains = []
    for depth, seed in ((2, 1), (3, 2)):
        scenario, chain = tmp_path / f"s{depth}.json", tmp_path / f"c{depth}.jsonl"
        assert run_command(["gen", "segments", "--depth", str(depth), "--seed", str(seed),
                            "--out", str(scenario)]) == 0
        assert run_command(["run", str(scenario), "--mode", "clocked",
                            "--chain", str(chain)]) == 0
        chains.append(_json_lines(chain.read_text()))
    (header, block0, *_), (_, _, block1, *_) = chains
    assert block0["certificate"]["instance"] != block1["certificate"]["instance"]
    path = tmp_path / "c.jsonl"
    _write_lines(path, [header, block0, block1])
    capsys.readouterr()
    assert run_command(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "block 1: invalid (wrong-instance)" in out and "chain: INVALID" in out
