"""The closed-form pivot-median rule against subset enumeration, and a guard
that no run-time path enumerates (n-t)-subsets."""

import dataclasses
from itertools import combinations, combinations_with_replacement

import pytest

import fairlab.votes
from fairlab.core import validate_config
from fairlab.leaders import TIMED_FAIR
from fairlab.simnet.generators import benign_schedule
from fairlab.simnet.runner import Simulation
from fairlab.validity import verify_certificate
from fairlab.votes import median_bounds

from oracles import lower_median


def _achievable(ts, q):
    """Median of every q-subset, by enumeration."""
    return {lower_median(sub) for sub in combinations(ts, q)}


def _closed_form(ts, q, value):
    low, high = median_bounds(ts, q)
    return value in ts and low <= value <= high


@pytest.mark.parametrize("q", range(1, 8))
def test_median_rule_matches_enumeration(q):
    domain = 5
    for size in range(q, q + 5):
        for ts in combinations_with_replacement(range(1, domain + 1), size):
            achievable = _achievable(ts, q)
            assert median_bounds(ts, q) == (min(achievable), max(achievable))
            # 0 and domain + 1 are never cited; the others are cited or not
            for value in range(0, domain + 2):
                assert _closed_form(ts, q, value) == (value in achievable), (ts, q, value)


def test_median_bounds_rejects_too_few_timestamps():
    with pytest.raises(ValueError):
        median_bounds([1, 2], 3)
    with pytest.raises(ValueError):
        median_bounds([], 1)


def _clocked_benign(n, requests):
    cfg = validate_config(n, (n - 1) // 3)
    scenario = dataclasses.replace(benign_schedule(cfg, requests=requests, seed=3),
                                   mode="clocked")
    sim = Simulation(scenario)
    sim.run()
    return cfg, list(sim.chain.blocks)


def test_verifier_accepts_exactly_the_enumerated_pivot_medians():
    cfg, certs = _clocked_benign(7, 3)
    assert certs
    for cert in certs:
        assert cert.mode_tag == TIMED_FAIR
        seed_ts = sorted(v.ts for votes in cert.votes_by_party.values() for v in votes
                         if v.request == cert.pivot.request)
        achievable = _achievable(seed_ts, cfg.strong_size)
        for value in range(seed_ts[0] - 1, seed_ts[-1] + 2):
            pivot = dataclasses.replace(cert.pivot, m_r=value)
            forged = dataclasses.replace(cert, pivot=pivot)
            reason = verify_certificate(cfg, forged).reason
            assert (reason == "invalid-pivot") == (value not in achievable), (value, reason)


def test_no_subset_enumeration_at_run_time(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run-time code enumerated timestamp subsets")

    # Set even though votes imports no combinations: a run-time call to
    # one would look this module global up first.
    monkeypatch.setattr(fairlab.votes, "combinations", refuse, raising=False)
    # n = 31 and n - t = 21: enumeration would visit 44,352,165 subsets per
    # certificate; the run's Chain.submit calls verify every block.
    cfg, certs = _clocked_benign(31, 12)
    assert sum(len(cert.requests) for cert in certs) == 12
    for cert in certs:
        assert verify_certificate(cfg, cert).ok
