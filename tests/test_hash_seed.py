"""Nothing fairlab writes depends on Python's string hash seed: the digest
suite and an audit report are re-made in fresh interpreters under other
seeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairlab.core import validate_config
from fairlab.simnet.generators import segment_schedule

from conftest import run

ROOT = Path(__file__).resolve().parents[1]


def _under_seed(seed, argv):
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("seed", ["1", "2"])
def test_digests_hold_under_another_hash_seed(seed):
    done = _under_seed(seed, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests" / "test_digests.py")])
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_audit_report_holds_under_another_hash_seed(tmp_path):
    # Without its sight records no honest party sighted any request, so
    # block fairness reports every request of every block, in an order the
    # auditor must not take from a set.
    trace = run(segment_schedule(validate_config(4, 1), depth=3))
    trace.rows = [rec for rec in trace.records if rec["kind"] != "sight"]
    path = tmp_path / "trace.jsonl"
    path.write_text(trace.to_text(), encoding="utf-8")
    reports = [_under_seed(seed, ["-m", "fairlab.cli", "audit", str(path),
                                  "--format", "structured"])
               for seed in ("1", "2")]
    assert [r.returncode for r in reports] == [0, 0], reports[0].stderr + reports[1].stderr
    assert reports[0].stdout.count("included without any honest sighting") == 12
    assert reports[0].stdout == reports[1].stdout
