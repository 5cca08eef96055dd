"""Rewrite pinned.json: every workload's scenario digests at the default seed.

    python3 perfbench/pin.py

The benchmark fails any default-seed scenario whose trace or chain digest
differs from these pins, which holds every change to the byte-identical-trace
rule. Re-pin only at a commit whose traces are meant to change.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.use_checkout_source()
    import passes
    import workloads

    pins = {}
    for name in run.WORKLOAD_NAMES:
        result = passes.run_pass(workloads.scenarios(name, workloads.DEFAULT_SEED))
        bad = passes.failures(result, None, None)
        if bad:
            raise SystemExit("refusing to pin failing scenarios:\n" + "\n".join(bad))
        pins[name] = {
            "seed": workloads.DEFAULT_SEED,
            "scenarios": [
                {"label": o.label, "instance": o.instance,
                 "trace_sha256": o.trace_sha256, "chain_sha256": o.chain_sha256}
                for o in result.outputs
            ],
        }
    with open(run.PINNED, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
