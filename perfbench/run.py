"""fairlab benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload segments-neverending --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; fairlab is imported from its `src/`.

With `--trace 0` the run measures set-up in separate processes, then repeats
untraced passes over the workload's scenarios until `--seconds` have passed
(at least three), and reports the medians of the end-to-end metrics, with
every time scaled to a reference host speed (see speed.py). With
`--trace 1` it makes one untraced pass and two traced passes, reports the
per-layer metrics, checks that every count-type metric repeats exactly across
the two traced passes, and writes the last traced pass's spans to
perfbench/results/. Every pass checks every scenario's outputs. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
PINNED = BENCH_DIR / "pinned.json"
WORKLOAD_NAMES = ("segments-neverending", "benign-wide", "probabilistic-hybrid")
SETUP_REPEATS = 7
SETUP_CALIBRATIONS = 5
MIN_PASSES = 3  # with >= 1025 actions a pass, >= 15 samples lie beyond p99.5
TAIL_PCT = 99.5
TRACED_PASSES = 2
HASH_SEED = "0"


def use_checkout_source() -> None:
    """Import fairlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "fairlab" / "__init__.py").is_file():
        sys.exit(f"error: no fairlab package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fairlab

    if Path(fairlab.__file__).resolve().parent != (SRC / "fairlab").resolve():
        sys.exit(f"error: fairlab was imported from {fairlab.__file__}, not {SRC}")


def _percentile(samples: list, pct: float):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fairlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": nproc,
    }


# -- set-up -------------------------------------------------------------------

def _probe_setup(workload: str, seed: int) -> None:
    """Child process: import fairlab, generate the scenarios and construct
    every Simulation; print the seconds that took and the median calibration
    time around it."""
    cals = [speed.calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    use_checkout_source()
    import workloads
    from fairlab.simnet.runner import Simulation

    sims = [Simulation(sc) for sc in workloads.scenarios(workload, seed)]
    elapsed = time.perf_counter() - start
    cals += [speed.calibration_s() for _ in range(SETUP_CALIBRATIONS)]
    print(f"{len(sims)} {elapsed!r} {statistics.median(cals)!r}")


def _measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and reference-speed set-up seconds, one pair per fresh process."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, cal = map(float, proc.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * speed.REF_CAL_S / cal)
    return raw, scaled


# -- per-layer metrics --------------------------------------------------------

def _unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".records") or name == "simnet.messages":
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "s"


def _is_count(name: str) -> bool:
    return _unit(name) != "s"


def _layer_metrics(totals: dict, result) -> dict:
    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def secs(name: str, key: str = "ns") -> float:
        return totals.get(name, {}).get(key, 0) / 1e9

    def ratio(name: str) -> float:
        return totals[name]["value"] / calls(name) if calls(name) else 0.0

    outs = result.outputs
    return {
        "core.sign.calls": calls("core.sign"),
        "core.verify.calls": calls("core.verify"),
        "votes.ingest.calls": calls("votes.ingest"),
        "votes.ingest.self_s": secs("votes.ingest", "self_ns"),
        "votes.ingest.accepted_ratio": ratio("votes.ingest"),
        "fairness.blocks.calls": calls("fairness.blocks"),
        "fairness.blocks.s": secs("fairness.blocks"),
        "fairness.timed_precedes.calls": calls("fairness.timed_precedes"),
        "leaders.step.calls": calls("leaders.step"),
        "leaders.step.self_s": secs("leaders.step", "self_ns"),
        "leaders.step.proposal_ratio": ratio("leaders.step"),
        "leaders.replay.calls": calls("leaders.replay"),
        "leaders.replay.self_s": secs("leaders.replay", "self_ns"),
        "validity.verify.calls": calls("validity.verify.chain") + calls("validity.verify.standalone"),
        "validity.verify.chain_s": secs("validity.verify.chain"),
        "validity.verify.standalone_s": secs("validity.verify.standalone"),
        "validity.from_dict.s": secs("validity.from_dict"),
        "chain.submit.calls": calls("chain.submit"),
        "chain.submit.self_s": secs("chain.submit", "self_ns"),
        "chain.submit.accepted_ratio": ratio("chain.submit"),
        "simnet.execute.self_s": secs("simnet.execute", "self_ns"),
        "simnet.drain.s": secs("simnet.drain"),
        "simnet.messages": sum(o.messages for o in outs),
        "simnet.trace.records": sum(o.records for o in outs),
        "simnet.trace.bytes": sum(o.trace_bytes for o in outs),
        "simnet.trace.serialize_s": secs("simnet.trace.to_text"),
        "simnet.chain.bytes": sum(o.chain_bytes for o in outs),
        "audit.s": secs("audit"),
    }


# -- runs ---------------------------------------------------------------------

def _load_pins(workload: str, seed: int, default_seed: int):
    if seed != default_seed:
        return None
    with open(PINNED) as fh:
        return json.load(fh)[workload]["scenarios"]


def _scenario_medians(per_pass: list[list[float]]) -> float:
    """Each scenario's median over the passes, summed over the scenarios."""
    return sum(statistics.median(times) for times in zip(*per_pass))


def _untraced(workload: str, seed: int, seconds: int, scenarios, pins, report: dict) -> dict:
    import passes

    setup_raw, setup = _measure_setup(workload, seed)
    passes.run_pass(scenarios[:1])  # warm-up, untimed
    results, meters = [], []
    start = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - start < seconds:
        meters.append(speed.Meter())
        results.append(passes.run_pass(scenarios, meter=meters[-1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    actions = [s for m in meters for s in m.actions]
    raw_actions = [ns for r in results for ns in r.action_ns]
    calibrations = [c for m in meters for c in m.calibrations]

    def scaled(kind: str) -> list[list[float]]:
        return [[m.totals[kind, idx] for idx in range(len(scenarios))] for m in meters]

    report["failures"] = [f"pass {i}: {line}" for i, r in enumerate(results)
                          for line in passes.failures(r, pins, results[0])]
    report["attempted"] = sum(len(r.outputs) for r in results)
    report["passes"] = [
        {"run_s": sum(run), "verify_s": sum(verify),
         "raw_run_s": r.run_s, "raw_verify_s": sum(r.verify_times)}
        for r, run, verify in zip(results, scaled("run"), scaled("verify"))
    ]
    report["action_samples"] = len(actions)
    # Printed, not gated: on benign-wide p99 sits at the lower edge of the
    # n=22 certificate checks (11 of 1025 actions a pass), so it jumps
    # between two clusters from seed to seed.
    report["action_p99_us"] = _percentile(actions, 99) * 1e6
    report["setup_s_samples"] = setup
    report["scenarios"] = [vars(o) for o in results[0].outputs]
    report["calibration"] = {
        "ref_s": speed.REF_CAL_S,
        "count": len(calibrations),
        "median_s": statistics.median(calibrations),
        "min_s": min(calibrations),
        "max_s": max(calibrations),
    }
    report["raw_wall"] = {
        "setup_s": statistics.median(setup_raw),
        "run_s": _scenario_medians([r.run_times for r in results]),
        "verify_s": _scenario_medians([r.verify_times for r in results]),
        "action_p50_us": _percentile(raw_actions, 50) / 1e3,
        "action_p995_us": _percentile(raw_actions, TAIL_PCT) / 1e3,
    }
    return {
        "setup_s": statistics.median(setup),
        "run_s": _scenario_medians(scaled("run")),
        "verify_s": _scenario_medians(scaled("verify")),
        "action_p50_us": _percentile(actions, 50) * 1e6,
        "action_p995_us": _percentile(actions, TAIL_PCT) * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def _traced(workload: str, seed: int, scenarios, pins, report: dict) -> dict:
    import passes
    import tracing

    passes.run_pass(scenarios[:1])  # warm-up, untimed
    untraced = passes.run_pass(scenarios)
    results, layers = [untraced], []
    for _ in range(TRACED_PASSES):
        tracer = tracing.Tracer()
        with tracer.installed():
            result = passes.run_pass(scenarios, tracer)
        results.append(result)
        layers.append(_layer_metrics(tracer.totals(), result))

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{workload}.csv.gz"
    labels = [f"{sc.label} instance {sc.instance}" for sc in scenarios]
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["spans"] = tracer.write(str(spans_path), f"workload {workload} seed {seed}", labels)
    del tracer

    report["failures"] = [f"pass {i}: {line}" for i, r in enumerate(results)
                          for line in passes.failures(r, pins, results[0])]
    report["attempted"] = sum(len(r.outputs) for r in results)
    report["repeat_mismatches"] = [
        f"{name}: {layers[0][name]} then {layers[1][name]}"
        for name in layers[0] if _is_count(name) and layers[0][name] != layers[1][name]
    ]
    metrics = {
        name: layers[-1][name] if _is_count(name)
        else statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    metrics["tracing.overhead_s"] = (
        statistics.median(r.run_s for r in results[1:]) - untraced.run_s
    )
    report["traced_run_s"] = [r.run_s for r in results[1:]]
    report["untraced_run_s"] = untraced.run_s
    return metrics


def _run_workload(args: argparse.Namespace) -> int:
    use_checkout_source()
    import workloads

    started = time.perf_counter()
    scenarios = workloads.scenarios(args.workload, args.seed)
    pins = _load_pins(args.workload, args.seed, workloads.DEFAULT_SEED)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "digests_pinned": pins is not None,
        **_provenance(),
    }
    if args.trace:
        metrics = _traced(args.workload, args.seed, scenarios, pins, report)
    else:
        metrics = _untraced(args.workload, args.seed, args.seconds, scenarios, pins, report)
    failed = len(report["failures"])
    attempted = report["attempted"]
    correct = failed == 0 and not report.get("repeat_mismatches")
    report["error_rate"] = failed / attempted
    report["wall_s"] = time.perf_counter() - started
    units = {"setup_s": "s", "run_s": "s", "verify_s": "s", "action_p50_us": "us",
             "action_p995_us": "us", "peak_rss_mb": "MiB"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or _unit(name)}
                    for name, value in metrics.items()},
    }
    report["result"] = result
    if args.trace:
        reasons = workloads.ZERO_REASONS.get(args.workload, {})
        report["zero_metrics"] = {
            name: next((why for prefix, why in reasons.items() if name.startswith(prefix)),
                       "unexpected")
            for name, value in metrics.items() if value == 0
        }

    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_report(report, metrics, result, out_path)
    print(json.dumps(result, sort_keys=True))
    return 0


def _print_report(report: dict, metrics: dict, result: dict, out_path: Path) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"commit {report['git_commit'] or 'unknown'}  "
          f"source {report['source_sha256'][:12]}  python {report['python']}  "
          f"nproc {report['nproc']}")
    if "passes" in report:
        actions = report["action_samples"]
        print(f"{len(report['passes'])} passes of {len(report['scenarios'])} scenarios; "
              f"{actions} action samples ({actions - math.ceil(TAIL_PCT / 100 * actions)} "
              f"beyond p99.5; p99 {report['action_p99_us']:.6g} us); "
              f"set-up repeated {len(report['setup_s_samples'])} times")
        cal = report["calibration"]
        print(f"times at reference speed: {cal['count']} calibrations, median "
              f"{cal['median_s'] * 1e3:.3f} ms (range {cal['min_s'] * 1e3:.3f}-"
              f"{cal['max_s'] * 1e3:.3f} ms), reference {cal['ref_s'] * 1e3:.3f} ms")
    for name, value in metrics.items():
        unit = result["metrics"][name]["unit"]
        note = ""
        if name in report.get("zero_metrics", {}):
            note = f"  ({report['zero_metrics'][name]})"
        if name in report.get("raw_wall", {}):
            note = f"  (raw wall {report['raw_wall'][name]:.6g})"
        print(f"  {name:32s} {value:>16.6g} {unit}{note}")
    print(f"  {'error_rate':32s} {report['error_rate']:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} scenario runs failed; "
          f"digests {'pinned' if report['digests_pinned'] else 'not pinned for this seed'})")
    for line in report["failures"]:
        print(f"FAILED {line}")
    for line in report.get("repeat_mismatches", []):
        print(f"COUNTER NOT REPEATED {line}")
    if "spans_file" in report:
        print(f"{report['spans']} spans written to {report['spans_file']}")
    print(f"full result in {out_path.relative_to(ROOT)}")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Engines iterate sets of request ids, so how many blocks() calls a
        # run makes depends on string hashing. A fixed hash seed makes every
        # count repeat exactly across runs; exec keeps this one process.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.setup_probe:
        _probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            sys.stdout.flush()
            status = max(status, subprocess.run(cmd).returncode)
        return status
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
