"""Host-speed normalisation for the untraced pass.

On a shared host the same code runs up to twice as slow from one second to
the next, and a slow spell can last minutes, so raw wall times of one commit
drift between sets of runs by more than any useful bound. The meter therefore
runs a fixed calibration loop (builtins only, nothing from fairlab) between
pieces of measured work, about every `EVERY_S` seconds, and scales each piece
by REF_CAL_S over the mean of the calibration times just before and just
after it. A piece that took 2x its usual time while the calibration also took
2x counts at its usual time. The results are seconds at the reference speed:
the speed at which one calibration loop takes REF_CAL_S.

The calibration loop does not run fairlab code, so a change to fairlab moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from collections import defaultdict

REF_CAL_S = 0.0027  # one calibration loop on a quiet 2-core Xeon, Python 3.11
EVERY_S = 0.05
CAL_ITERS = 4000


def calibration_s() -> float:
    """Seconds one pass of the calibration loop takes now."""
    start = time.perf_counter()
    counts: dict = {}
    names = set()
    for i in range(CAL_ITERS):
        key = (i % 251, "r%d" % (i % 613))
        counts[key] = counts.get(key, 0) + 1
        names.add(key[1])
    return time.perf_counter() - start


class Meter:
    """Collects raw work times and scales them by the calibration loops run
    between them. Call `add` after each piece of work, `tick` where a
    calibration may run (never inside a timed piece) and `close` once at the
    end; then read `totals` (scaled seconds per kind and scenario; actions
    count as `run`) and `actions`."""

    def __init__(self) -> None:
        self.calibrations = [calibration_s()]
        self._last = time.perf_counter()
        self._pending: list[tuple[str, int, float]] = []
        self.totals: dict[tuple[str, int], float] = defaultdict(float)
        self.actions: list[float] = []  # scaled seconds of each action, in order

    def add(self, kind: str, idx: int, seconds: float) -> None:
        self._pending.append((kind, idx, seconds))

    def tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self._flush()

    def close(self) -> None:
        self._flush()

    def _flush(self) -> None:
        cal = calibration_s()
        factor = REF_CAL_S / ((self.calibrations[-1] + cal) / 2)
        self.calibrations.append(cal)
        for kind, idx, seconds in self._pending:
            scaled = seconds * factor
            if kind == "action":  # an action is also run-path time
                self.actions.append(scaled)
                kind = "run"
            self.totals[kind, idx] += scaled
        self._pending.clear()
        self._last = time.perf_counter()
