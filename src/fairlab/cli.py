"""Scenario runner and inspection tool.

    fairlab gen segments --depth 2 --seed 7 --out s.json
    fairlab run s.json --mode neverending --out trace.jsonl
    fairlab audit trace.jsonl
    fairlab verify chain.jsonl

Exit codes: 0 when the run completed and every gating audit holds, 1 on a
fairness violation in a gating check or a chain that breaks a chain rule, 2
on usage, IO or malformed-input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from .audit import audit_trace
from .chain import Chain
from .core import canonical_json, parse_json_lines, validate_config
from .leaders import MODES
from .simnet.generators import (
    benign_schedule,
    cycle_schedule,
    fuzz_scenario,
    probabilistic_adversary,
    segment_schedule,
)
from .simnet.runner import Simulation
from .simnet.scenario import Scenario, load_scenario, scenario_text
from .simnet.trace import Trace
from .validity import certificate_from_dict, uint64

USAGE_ERROR = 2
GATE_ERROR = 1
# The status `fairlab verify` prints for each block.
VALID = "valid"
INVALID = "invalid"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairlab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a scenario file from a generator")
    gen.add_argument("generator", choices=["cycle", "segments", "benign", "probabilistic", "fuzz"])
    gen.add_argument("--parties", type=int, default=4)
    gen.add_argument("--faults", type=int, default=1)
    gen.add_argument("--depth", type=int, default=2)
    gen.add_argument("--requests", type=int, default=4)
    gen.add_argument("--markets", type=int, default=1)
    gen.add_argument("--p", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--base", help="scenario file to wrap (probabilistic)")
    gen.add_argument("--mode", choices=MODES)
    gen.add_argument("--rmax", type=int)
    gen.add_argument("--out", help="output path (default stdout)")

    run = sub.add_parser("run", help="execute a scenario, audit it, write the trace")
    run.add_argument("scenario")
    run.add_argument("--mode", choices=MODES)
    run.add_argument("--rmax", type=int)
    run.add_argument("--seed", type=int, help="override the wrapper/coin seed")
    run.add_argument("--out", help="trace output path")
    run.add_argument("--chain", help="chain (certificate) output path")
    run.add_argument("--format", choices=["text", "structured"], default="text")

    audit = sub.add_parser("audit", help="re-audit an existing trace file")
    audit.add_argument("trace")
    audit.add_argument("--format", choices=["text", "structured"], default="text")

    verify = sub.add_parser("verify", help="re-verify every certificate in a chain file")
    verify.add_argument("chain")
    verify.add_argument("--format", choices=["text", "structured"], default="text")
    return parser


def _generate(args: argparse.Namespace) -> Scenario:
    cfg = validate_config(args.parties, args.faults)
    if args.generator == "cycle":
        scenario = cycle_schedule(cfg)
    elif args.generator == "segments":
        scenario = segment_schedule(cfg, depth=args.depth, seed=args.seed)
    elif args.generator == "benign":
        scenario = benign_schedule(cfg, requests=args.requests, seed=args.seed,
                                   markets=args.markets)
    elif args.generator == "fuzz":
        scenario = fuzz_scenario(args.seed, n=args.parties, t=args.faults)
    else:
        if args.base:
            base = load_scenario(args.base)
        else:
            base = segment_schedule(cfg, depth=args.depth, seed=args.seed)
        scenario = probabilistic_adversary(base, args.p, args.seed)
    return _override(scenario, mode=args.mode, r_max=args.rmax)


def _override(scenario: Scenario, **fields) -> Scenario:
    """Replace the scenario fields given on the command line (not None)."""
    given = {name: value for name, value in fields.items() if value is not None}
    return dataclasses.replace(scenario, **given) if given else scenario


def _run(args: argparse.Namespace) -> int:
    seed = args.seed
    scenario = _override(load_scenario(args.scenario), mode=args.mode, r_max=args.rmax,
                         wrapper_seed=seed, coin_seed=None if seed is None else str(seed))
    sim = Simulation(scenario)
    trace = sim.run()
    report = audit_trace(trace)
    if args.out:
        trace.save(args.out)
    if args.chain:
        with open(args.chain, "w") as fh:
            header = canonical_json({"kind": "chain-header", "n": scenario.n, "t": scenario.t})
            fh.write("\n".join([header] + sim.chain_lines()) + "\n")
    summary = trace.summary
    return _report(args, report.gate_ok(), {"summary": summary, "report": report.to_dict()},
                   f"run {scenario.label or args.scenario}: "
                   f"{summary['blocks']} blocks, {summary['delivered']} delivered, "
                   f"{summary['pending']} pending, max candidate order "
                   f"{summary['max_candidate_order']}, steps {summary['elapsed_steps']}\n"
                   + report.render_text())


def _audit(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    report = audit_trace(trace)
    return _report(args, report.gate_ok(), report.to_dict(), report.render_text())


def _verify(args: argparse.Namespace) -> int:
    with open(args.chain) as fh:
        lines = list(parse_json_lines(fh))
    if not lines or not isinstance(lines[0][1], dict) or lines[0][1].get("kind") != "chain-header":
        raise ValueError("chain file does not start with a chain-header line")
    (at, header), *entries = lines
    try:
        cfg = validate_config(header["n"], header["t"])
    except KeyError as exc:
        raise _missing_key(at, exc) from None
    # Replaying through Chain.submit applies a run's chain-level rules too:
    # consecutive numbers, no re-delivery, no proposer equivocation.
    chain = Chain(cfg)
    results = []
    for at, entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"line {at}: chain entry is not a JSON object")
        try:
            number = uint64(entry["number"], "number")
            cert = certificate_from_dict(entry["certificate"])
        except KeyError as exc:
            raise _missing_key(at, exc) from None
        if number != cert.block_number:
            reason = "wrong-block-number"
        else:
            outcome = chain.submit(cert)
            # An equivocation is rejected with no reason: its status names it.
            reason = None if outcome.ok else outcome.reason or outcome.status
        results.append({"number": number, "status": INVALID if reason else VALID,
                        "reason": reason})
    all_ok = all(row["status"] == VALID for row in results)
    rows = [f"block {row['number']}: {row['status']}"
            + ("" if row["reason"] is None else f" ({row['reason']})") for row in results]
    return _report(args, all_ok, {"blocks": results, "ok": all_ok},
                   "\n".join(rows + [f"chain: {'ok' if all_ok else 'INVALID'}"]))


def _missing_key(at: int, exc: KeyError) -> ValueError:
    """The error for file line `at`, which lacks the key `exc` names."""
    return ValueError(f"line {at} has no {exc.args[0]!r} field")


def _report(args: argparse.Namespace, ok: bool, payload: dict, text: str) -> int:
    """Print a command's result as `payload` in JSON or as `text`; exit 0 when ok."""
    print(json.dumps(payload, sort_keys=True) if args.format == "structured" else text)
    return 0 if ok else GATE_ERROR


def run_command(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "gen":
            text = scenario_text(_generate(args))
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        if args.command == "run":
            return _run(args)
        if args.command == "audit":
            return _audit(args)
        return _verify(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
