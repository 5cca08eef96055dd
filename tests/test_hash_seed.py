"""The pinned trace and chain digests do not depend on Python's string hash
seed: the digest suite is re-run in a fresh interpreter under other seeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_digests_hold_under_another_hash_seed(seed):
    env = {**os.environ, "PYTHONHASHSEED": seed}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_digests.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
