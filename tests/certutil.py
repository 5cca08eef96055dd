"""Certificate mutation helpers shared by the validity tests and the
acceptance suite. Mutations re-sign any vote whose signed fields change, so
rejections exercise the protocol rules rather than the signature check."""

import dataclasses

from fairlab.votes import make_vote


def _rebuild(cert, votes_by_party=None, requests=None):
    return dataclasses.replace(
        cert,
        votes_by_party=votes_by_party if votes_by_party is not None else cert.votes_by_party,
        requests=requests if requests is not None else cert.requests,
    )


def resign(vote, **fields):
    """`vote` with some signed fields changed, signed again by its signer."""
    v = dataclasses.replace(vote, **fields)
    return make_vote(v.signer, v.instance, v.block, v.seq, v.ts, v.request)


def member_vote_count(cert, member):
    return sum(
        1
        for votes in cert.votes_by_party.values()
        for v in votes
        if v.request == member
    )


def reduce_member_votes(cert, member, target):
    """Truncate voter histories at their vote for `member` until only `target`
    votes for it remain; histories stay contiguous."""
    votes_by_party = {p: list(vs) for p, vs in cert.votes_by_party.items()}
    count = member_vote_count(cert, member)
    for party in sorted(votes_by_party, reverse=True):
        if count <= target:
            break
        votes = votes_by_party[party]
        idx = next((i for i, v in enumerate(votes) if v.request == member), None)
        if idx is None:
            continue
        removed = votes[idx:]
        votes_by_party[party] = votes[:idx]
        count -= sum(1 for v in removed if v.request == member)
    votes_by_party = {p: tuple(vs) for p, vs in votes_by_party.items() if vs}
    return _rebuild(cert, votes_by_party=votes_by_party)


def drop_history_entry(cert):
    """Remove one interior vote from some cited history, leaving a gap."""
    for party in sorted(cert.votes_by_party):
        votes = cert.votes_by_party[party]
        if len(votes) >= 2:
            votes_by_party = dict(cert.votes_by_party)
            votes_by_party[party] = tuple(votes[:-2] + votes[-1:])
            return _rebuild(cert, votes_by_party=votes_by_party)
    raise ValueError("no voter has two votes to drop from")


def omit_member(cert, member):
    requests = tuple(r for r in cert.requests if r != member)
    return _rebuild(cert, requests=requests)


def pad_member(cert, cfg):
    """The certificate with one more cited request that holds votes from n-t
    voters, the block kept in cited-median order; None if no request
    outside the block has them."""
    voters, stamps = {}, {}
    for party, votes in cert.votes_by_party.items():
        for v in votes:
            voters.setdefault(v.request, set()).add(party)
            stamps.setdefault(v.request, []).append(v.ts)
    extra = next((r for r in cert.request_table if r not in cert.requests
                  and len(voters.get(r, ())) >= cfg.n - cfg.t), None)
    if extra is None:
        return None

    def cited_median(r):
        ts = sorted(stamps[r])
        return ts[(len(ts) - 1) // 2], r

    return _rebuild(cert, requests=tuple(sorted(cert.requests + (extra,), key=cited_median)))


def empty_requests(cert):
    return _rebuild(cert, requests=())


def invert_timestamps(cert):
    """Swap the timestamps of two adjacent votes in one cited history and
    re-sign them; the voter's sequence and timestamp orders now disagree.
    Returns (mutated certificate, party, index of the first swapped vote)."""
    for party in sorted(cert.votes_by_party):
        votes = list(cert.votes_by_party[party])
        if len(votes) < 2:
            continue
        a, b = votes[-2], votes[-1]
        if a.ts == b.ts:
            continue
        votes[-2] = resign(a, ts=b.ts)
        votes[-1] = resign(b, ts=a.ts)
        votes_by_party = dict(cert.votes_by_party)
        votes_by_party[party] = tuple(votes)
        return _rebuild(cert, votes_by_party=votes_by_party), party, len(votes) - 2
    raise ValueError("no voter has two timestamped votes to invert")


def expected_inversion_reason(cert, cfg, party, idx):
    """The discount rule decides the reason: whichever member first drops
    below a strong quorum of surviving votes yields insufficient-votes,
    otherwise the residual mismatch itself is reported."""
    surviving = {}
    for p, votes in cert.votes_by_party.items():
        prefix = []
        for v in sorted(votes, key=lambda v: v.seq):
            if prefix and v.ts <= prefix[-1].ts:
                break
            prefix.append(v)
        surviving[p] = prefix
    for member in cert.requests:
        count = sum(
            1 for votes in surviving.values() for v in votes if v.request == member
        )
        if count < cfg.n - cfg.t:
            return "insufficient-votes"
    return "timestamp-order"
