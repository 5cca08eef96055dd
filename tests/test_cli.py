import json

import pytest

from fairlab.cli import run_command
from fairlab.simnet.generators import fuzz_scenario
from fairlab.simnet.scenario import load_scenario


def test_gen_run_audit_verify_round_trip(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    chain = tmp_path / "c.jsonl"
    assert run_command(["gen", "segments", "--depth", "2", "--seed", "7",
                        "--out", str(scenario)]) == 0
    assert run_command(["run", str(scenario), "--mode", "neverending",
                        "--out", str(trace), "--chain", str(chain)]) == 0
    out = capsys.readouterr().out
    assert "1 blocks" in out and "gate: ok" in out
    assert run_command(["audit", str(trace)]) == 0
    assert run_command(["verify", str(chain)]) == 0
    out = capsys.readouterr().out
    assert "chain: ok" in out


def test_run_is_reproducible(tmp_path):
    scenario = tmp_path / "s.json"
    run_command(["gen", "benign", "--requests", "3", "--seed", "4",
                 "--mode", "clocked", "--out", str(scenario)])
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_command(["run", str(scenario), "--out", str(t1)]) == 0
    assert run_command(["run", str(scenario), "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_gen_output_reparses_identically(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_command(["gen", "cycle", "--out", str(a)])
    run_command(["gen", "cycle", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_structured_output(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    run_command(["gen", "benign", "--requests", "2", "--out", str(scenario)])
    assert run_command(["run", str(scenario), "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["gate_ok"] is True
    assert payload["summary"]["blocks"] >= 1


def test_audit_exit_one_on_violation(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    trace = tmp_path / "t.jsonl"
    run_command(["gen", "benign", "--requests", "3", "--seed", "4", "--out", str(scenario)])
    run_command(["run", str(scenario), "--out", str(trace)])
    capsys.readouterr()
    # corrupt the trace: swap the delivery order of the first and last blocks
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    blocks = [r for r in lines if r.get("kind") == "block"]
    blocks[0]["requests"], blocks[-1]["requests"] = blocks[-1]["requests"], blocks[0]["requests"]
    trace.write_text("\n".join(json.dumps(r, sort_keys=True) for r in lines) + "\n")
    assert run_command(["audit", str(trace)]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run_command(["run", str(tmp_path / "missing.json")]) == 2
    assert run_command(["frobnicate"]) == 2
    assert run_command(["gen", "segments", "--parties", "7", "--faults", "2"]) == 2
    capsys.readouterr()


def test_verify_flags_tampered_chain(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    chain = tmp_path / "c.jsonl"
    run_command(["gen", "benign", "--requests", "2", "--seed", "1", "--out", str(scenario)])
    run_command(["run", str(scenario), "--chain", str(chain)])
    lines = chain.read_text().splitlines()
    entry = json.loads(lines[1])
    entry["certificate"]["requests"] = []
    lines[1] = json.dumps(entry, sort_keys=True)
    chain.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    assert "empty-block" in capsys.readouterr().out


def _chain_with(tmp_path, edit):
    """Run a benign scenario to a chain file, then rewrite its lines with
    `edit(lines)`, where lines[0] is the header and lines[1:] the blocks."""
    scenario = tmp_path / "s.json"
    chain = tmp_path / "c.jsonl"
    run_command(["gen", "benign", "--requests", "2", "--seed", "1", "--out", str(scenario)])
    run_command(["run", str(scenario), "--chain", str(chain)])
    lines = chain.read_text().splitlines()
    edit(lines)
    chain.write_text("\n".join(lines) + "\n")
    return chain


def test_verify_rejects_repeated_block(tmp_path, capsys):
    chain = _chain_with(tmp_path, lambda lines: lines.append(lines[1]))
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    out = capsys.readouterr().out
    assert "wrong-block-number" in out and "chain: INVALID" in out


def _edit_certificate(change):
    def edit(lines):
        entry = json.loads(lines[1])
        change(entry["certificate"])
        lines[1] = json.dumps(entry, sort_keys=True)
    return edit


def _set_first_vote_seq(cert, seq):
    party = sorted(cert["votes"])[0]
    cert["votes"][party][0][0] = seq


def test_verify_non_list_requests_exits_two(tmp_path, capsys):
    chain = _chain_with(tmp_path, _edit_certificate(lambda c: c.update(requests=5)))
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_negative_seq_exits_two(tmp_path, capsys):
    chain = _chain_with(tmp_path, _edit_certificate(lambda c: _set_first_vote_seq(c, -1)))
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["n", "t"])
def test_run_string_quorum_size_exits_two(tmp_path, capsys, field):
    scenario = tmp_path / "s.json"
    run_command(["gen", "benign", "--requests", "2", "--out", str(scenario)])
    data = json.loads(scenario.read_text())
    data[field] = str(data[field])
    scenario.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_command(["run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_string_party_count_in_header_exits_two(tmp_path, capsys):
    chain = tmp_path / "c.jsonl"
    chain.write_text(json.dumps({"kind": "chain-header", "n": "4", "t": 1}) + "\n")
    assert run_command(["verify", str(chain)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_fuzz_and_probabilistic(tmp_path):
    fuzz = tmp_path / "fuzz.json"
    assert run_command(["gen", "fuzz", "--seed", "3", "--out", str(fuzz)]) == 0
    assert load_scenario(str(fuzz)) == fuzz_scenario(3, n=4, t=1)
    base = tmp_path / "base.json"
    wrapped, direct = tmp_path / "wrapped.json", tmp_path / "direct.json"
    run_command(["gen", "segments", "--depth", "2", "--seed", "5", "--out", str(base)])
    # Without --base the wrapper builds the same segments schedule itself.
    assert run_command(["gen", "probabilistic", "--base", str(base), "--p", "0.2",
                        "--seed", "5", "--out", str(wrapped)]) == 0
    assert run_command(["gen", "probabilistic", "--depth", "2", "--p", "0.2",
                        "--seed", "5", "--out", str(direct)]) == 0
    assert wrapped.read_bytes() == direct.read_bytes()
    assert load_scenario(str(direct)).to_dict() != load_scenario(str(base)).to_dict()


def test_gen_writes_stdout_without_out(tmp_path, capsys):
    path = tmp_path / "s.json"
    run_command(["gen", "cycle", "--out", str(path)])
    capsys.readouterr()
    assert run_command(["gen", "cycle"]) == 0
    assert capsys.readouterr().out == path.read_text()


def test_audit_and_verify_structured(tmp_path, capsys):
    scenario, trace, chain = tmp_path / "s.json", tmp_path / "t.jsonl", tmp_path / "c.jsonl"
    run_command(["gen", "benign", "--requests", "2", "--seed", "1", "--out", str(scenario)])
    run_command(["run", str(scenario), "--out", str(trace), "--chain", str(chain)])
    capsys.readouterr()
    assert run_command(["audit", str(trace), "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["gate_ok"] is True
    assert run_command(["verify", str(chain), "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["blocks"]
    assert all(row == {"number": i, "status": "valid", "reason": None}
               for i, row in enumerate(payload["blocks"]))


@pytest.mark.parametrize("edit", [
    lambda lines: lines.pop(0),
    lambda lines: lines.append("5"),
], ids=["no-header", "non-object-entry"])
def test_verify_malformed_chain_exits_two(tmp_path, capsys, edit):
    chain = _chain_with(tmp_path, edit)
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_entry_number_must_match_certificate_block(tmp_path, capsys):
    def renumber(lines):
        entry = json.loads(lines[1])
        entry["number"] = 7
        lines[1] = json.dumps(entry, sort_keys=True)

    chain = _chain_with(tmp_path, renumber)
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    out = capsys.readouterr().out
    assert "block 7: invalid (wrong-block-number)" in out and "chain: INVALID" in out
