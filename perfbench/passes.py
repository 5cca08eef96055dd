"""One pass of a workload and the checks on its outputs.

A pass drives every scenario through the `fairlab run` path (execute every
event, drain, finish, serialize the trace, export the chain, audit) and then
through the `fairlab verify` path (parse every exported chain line, rebuild
the certificate, verify it stand-alone), timing both. No file IO is timed.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import fairlab.audit
import fairlab.validity
from fairlab.core import validate_config
from fairlab.simnet.runner import Simulation
from fairlab.simnet.scenario import Scenario


@dataclass
class ScenarioOutput:
    label: str
    instance: str
    error: Optional[str] = None
    trace_sha256: str = ""
    chain_sha256: str = ""
    gate_ok: bool = False
    verify_ok: bool = False
    blocks: int = 0
    records: int = 0
    trace_bytes: int = 0
    chain_bytes: int = 0
    messages: int = 0


@dataclass
class PassResult:
    run_times: list[float]     # seconds on the run path, per scenario
    verify_times: list[float]  # seconds on the verify path, per scenario
    action_ns: list[int]       # one sample per Simulation.execute call
    outputs: list[ScenarioOutput]

    @property
    def run_s(self) -> float:
        return sum(self.run_times)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(scenarios: list[Scenario], tracer=None, meter=None) -> PassResult:
    """Run every scenario once. With a tracer, each scenario's two phases are
    recorded as root spans `run` and `verify` tagged with its index. With a
    speed meter (untraced passes only), every action, every step after the
    last action and every chain line's check is also handed to the meter,
    which may calibrate between them; the raw times exclude its calibrations."""
    sims = [Simulation(sc) for sc in scenarios]
    run_times = [0.0] * len(scenarios)
    verify_times = [0.0] * len(scenarios)
    action_ns: list[int] = []
    outputs = []
    clock = time.perf_counter_ns

    def step(kind: str, idx: int, times: list[float], fn, *args):
        began = clock()
        result = fn(*args)
        elapsed = (clock() - began) / 1e9
        times[idx] += elapsed
        if meter is not None:
            meter.add(kind, idx, elapsed)
            meter.tick()
        return result

    for idx, sc in enumerate(scenarios):
        sim, sims[idx] = sims[idx], None
        out = ScenarioOutput(label=sc.label, instance=sc.instance)
        outputs.append(out)
        if tracer is not None:
            tracer.scenario = idx
        try:
            with tracer.span("run") if tracer is not None else nullcontext():
                for event in sc.events:
                    began = clock()
                    sim.execute(event)
                    elapsed = clock() - began
                    action_ns.append(elapsed)
                    run_times[idx] += elapsed / 1e9
                    if meter is not None:
                        meter.add("action", idx, elapsed / 1e9)
                        meter.tick()
                step("run", idx, run_times, sim.drain)
                trace = step("run", idx, run_times, sim.finish)
                text = step("run", idx, run_times, trace.to_text)
                lines = step("run", idx, run_times, sim.chain_lines)
                report = step("run", idx, run_times, fairlab.audit.audit_trace, trace)
            with tracer.span("verify") if tracer is not None else nullcontext():
                cfg = step("verify", idx, verify_times, validate_config, sc.n, sc.t)
                verify_ok = all([step("verify", idx, verify_times, _verify_line, cfg, line)
                                 for line in lines])
        except Exception as exc:  # a failing scenario is counted, not fatal
            out.error = f"{type(exc).__name__}: {exc}"
            continue
        out.trace_sha256 = _sha256(text)
        out.chain_sha256 = _sha256("\n".join(lines))
        out.gate_ok = report.gate_ok()
        out.verify_ok = verify_ok
        out.blocks = len(lines)
        out.records = len(trace.records) + 1  # the header line
        out.trace_bytes = len(text.encode("utf-8"))
        out.chain_bytes = sum(len(line.encode("utf-8")) + 1 for line in lines)
        out.messages = sum(1 for r in trace.records if r["kind"] == "deliver")
    if meter is not None:
        meter.close()
    return PassResult(run_times, verify_times, action_ns, outputs)


def _verify_line(cfg, line: str) -> bool:
    """The `fairlab verify` path for one exported chain line."""
    cert = fairlab.validity.certificate_from_dict(json.loads(line)["certificate"])
    return fairlab.validity.verify_certificate(cfg, cert).ok


def failures(result: PassResult, pinned: Optional[list[dict]],
             reference: Optional[PassResult]) -> list[str]:
    """One line per failed scenario. A scenario fails when it raised, when its
    audit gate or any stand-alone certificate check fails, when its digests
    differ from the pinned ones (default seed only), or when they differ from
    the same scenario's digests in the run's first pass."""
    out = []
    for idx, o in enumerate(result.outputs):
        why = []
        if o.error is not None:
            why.append(o.error)
        else:
            if not o.gate_ok:
                why.append("audit gate violated")
            if not o.verify_ok:
                why.append("stand-alone verify rejected a block")
            if pinned is not None:
                pin = pinned[idx]
                if pin["label"] != o.label or pin["instance"] != o.instance:
                    why.append("scenario differs from the pinned one")
                if pin["trace_sha256"] != o.trace_sha256:
                    why.append("trace digest differs from the pinned one")
                if pin["chain_sha256"] != o.chain_sha256:
                    why.append("chain digest differs from the pinned one")
            if reference is not None:
                ref = reference.outputs[idx]
                if (ref.trace_sha256, ref.chain_sha256) != (o.trace_sha256, o.chain_sha256):
                    why.append("digests differ from this run's first pass")
        if why:
            out.append(f"scenario {idx} ({o.label}): " + "; ".join(why))
    return out
