import json
import sys

import pytest

import fairlab.validity
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


def test_verify_flags_tampered_chain(tmp_path, capsys):
    chain = _chain_with(tmp_path, _edit_certificate(lambda c: c.update(requests=[])))
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    assert "empty-block" in capsys.readouterr().out


def _set_first_vote_seq(cert, seq):
    party = sorted(cert["votes"])[0]
    cert["votes"][party][0][0] = seq


@pytest.mark.parametrize("proposer", [4, 999])
def test_verify_rejects_a_proposer_that_is_no_party(tmp_path, capsys, proposer):
    chain = _chain_with(tmp_path, _edit_certificate(lambda c: c.update(proposer=proposer)))
    assert len(chain.read_text().splitlines()) == 3  # n = 4, two blocks
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    out = capsys.readouterr().out
    assert "block 0: invalid (unknown-proposer)" in out and "chain: INVALID" in out


def _attach_pivot(cert):
    cert["pivot"] = {"request": cert["requests"][0], "timestamps": [1, 1, 1], "median": 1}


def test_verify_rejects_a_pivot_on_a_block_fair_certificate(tmp_path, capsys):
    chain = _chain_with(tmp_path, _edit_certificate(_attach_pivot))
    assert json.loads(chain.read_text().splitlines()[1])["certificate"]["mode"] == "block-fair"
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    out = capsys.readouterr().out
    assert "block 0: invalid (invalid-pivot)" in out and "chain: INVALID" in out


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


@pytest.mark.parametrize("p", ["0", "1.5"])
def test_gen_probabilistic_refuses_p_outside_the_unit_interval(capsys, p):
    capsys.readouterr()
    assert run_command(["gen", "probabilistic", "--p", p]) == 2
    assert capsys.readouterr().err == "error: delivery probability must be in (0, 1]\n"


def test_gen_probabilistic_refuses_a_base_without_events(tmp_path, capsys):
    # The wrapper used to write such a base out (exit 0) for `run` to refuse.
    base, out = tmp_path / "b.json", tmp_path / "s.json"
    run_command(["gen", "segments", "--out", str(base)])
    base.write_text(json.dumps({**json.loads(base.read_text()), "events": []}))
    capsys.readouterr()
    assert run_command(["gen", "probabilistic", "--base", str(base), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: generator scenario was saved without "
                                       "materialized events\n")
    assert not out.exists()


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


def test_verify_checks_each_entry_once(tmp_path, capsys, monkeypatch):
    # Valid entries, an emptied one the verifier rejects, and a repeated one
    # the chain rejects: each is verified once, and the printed reason is the
    # verifier's own.
    def tamper(lines):
        emptied = json.loads(lines[1])
        emptied["certificate"]["requests"] = []
        lines.insert(1, json.dumps(emptied, sort_keys=True))
        lines.append(lines[-1])

    chain = _chain_with(tmp_path, tamper)
    entries = len(chain.read_text().splitlines()) - 1
    original = fairlab.validity.verify_certificate
    calls = []

    def counted(cfg, cert):
        calls.append(cert.block_number)
        return original(cfg, cert)

    # Every fairlab module that holds the verifier, under any name.
    for module in [m for name, m in sys.modules.items() if name.startswith("fairlab")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    capsys.readouterr()
    assert run_command(["verify", str(chain)]) == 1
    out = capsys.readouterr().out
    assert len(calls) == entries >= 4
    assert "block 0: invalid (empty-block)" in out and "wrong-block-number" in out
