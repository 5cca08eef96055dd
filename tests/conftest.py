import dataclasses
import hashlib

import pytest

from fairlab.core import make_request, validate_config
from fairlab.leaders import new_leader
from fairlab.simnet.generators import probabilistic_adversary, segment_schedule
from fairlab.simnet.runner import Simulation
from fairlab.votes import VoteStore, make_vote

INSTANCE = "test-instance"


@pytest.fixture
def cfg4():
    return validate_config(4, 1)


@pytest.fixture
def cfg7():
    return validate_config(7, 2)


def req(name, market="m"):
    return make_request(market, name.encode())


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine(cfg, mode, proposer=0, **kw):
    """A leader engine over a request table of the test's own, which `cast` fills."""
    return new_leader(cfg, mode, INSTANCE, proposer, {}, **kw)


def new_store(cfg, timestamped=False, block=0):
    """A store over a request table of the test's own, which `cast` fills."""
    return VoteStore(cfg, timestamped, INSTANCE, block, {})


def cast(store, party, seq, request, ts=None):
    """Enter request in the store's table, then sign and ingest one vote;
    returns the ingest outcome."""
    store.requests[request.id] = request
    vote = make_vote(party, store.instance, store.block, seq, ts, request.id)
    return store.ingest(vote)


def fill_logs(store, logs, timestamped=False):
    """logs: {party: [request, ...]} ingested in per-party order, timestamps
    1,2,3,... when requested."""
    for party, requests in logs.items():
        for seq, request in enumerate(requests):
            cast(store, party, seq, request, ts=seq + 1 if timestamped else None)


def run(scenario):
    """Execute a scenario to quiescence and return its trace."""
    return Simulation(scenario).run()


def records(trace, kind):
    """The trace's records of one kind, in order."""
    return [r for r in trace.records if r["kind"] == kind]


def wrapped_hybrid_scenario():
    """Depth-10 segments under p=0.05 failures, wrapper seed 15, hybrid with
    r_max 6: three leaders enter the fallback and one ships four blocks."""
    base = segment_schedule(validate_config(4, 1), depth=10, seed=0)
    return dataclasses.replace(probabilistic_adversary(base, 0.05, 15), mode="hybrid", r_max=6)
