"""Trace files: the complete record of one simulation, one event per line.

The first line is a header carrying the scenario digest and configuration; the
last line is a run summary. Everything in between is ordered by a global step
counter the parties never observe. The record stream is complete enough for
the auditor to reconstruct every honest party's local view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from ..core import canonical_json, parse_json

# The runner's per-copy records, `deliver`, `ingest` and `vote`, are nearly all
# of a wide run's lines, and canonical_json's sorted-keys encoder costs about
# twice what a template does. `Trace.lines` writes each of the three through
# one f-string that lists the keys in sorted order, writes ints through str()
# and strings through the escaper canonical_json's encoder uses, so it gives
# canonical_json's bytes. A run repeats few strings (request ids, `via`,
# status and reason), so each `lines()` call keeps their quoted forms in a
# dict that lives as long as the call. A record takes its template only when
# its key set is the runner's and every value has the exact type the template
# expects; any other record (a bool, a float, a missing or extra key) goes
# through canonical_json. tests/test_trace_lines.py holds the two to one
# output.


class _Quoted(dict):
    """str -> its JSON string literal, quoted on first use."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = _quote(text)
        return literal


@dataclass
class Trace:
    header: dict
    records: list[dict] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [canonical_json({"kind": "header", **self.header})]
        append = out.append
        q = _Quoted()
        for rec in self.records:
            kind = rec.get("kind")
            try:
                # With the length checked, reading every key proves the key set.
                if kind == "deliver" and len(rec) == 7:
                    msg, request, sender = rec["msg"], rec["request"], rec["sender"]
                    step, to, via = rec["step"], rec["to"], rec["via"]
                    if (type(kind) is type(request) is type(via) is str
                            and type(msg) is type(sender) is type(step) is type(to) is int):
                        append(f'{{"kind": "deliver", "msg": {msg}, "request": {q[request]}, '
                               f'"sender": {sender}, "step": {step}, "to": {to}, '
                               f'"via": {q[via]}}}')
                        continue
                elif kind == "ingest" and len(rec) == 8:
                    leader, party, reason = rec["leader"], rec["party"], rec["reason"]
                    request, seq, status = rec["request"], rec["seq"], rec["status"]
                    step = rec["step"]
                    if (type(kind) is type(request) is type(status) is str
                            and type(leader) is type(party) is type(seq) is type(step) is int
                            and (reason is None or type(reason) is str)):
                        reason = "null" if reason is None else q[reason]
                        append(f'{{"kind": "ingest", "leader": {leader}, "party": {party}, '
                               f'"reason": {reason}, "request": {q[request]}, "seq": {seq}, '
                               f'"status": {q[status]}, "step": {step}}}')
                        continue
                elif kind == "vote" and len(rec) == 8:
                    audience, block, party = rec["audience"], rec["block"], rec["party"]
                    request, seq, step, ts = rec["request"], rec["seq"], rec["step"], rec["ts"]
                    if (type(kind) is type(request) is str
                            and type(block) is type(party) is type(seq) is type(step) is int
                            and (audience is None or type(audience) is str)
                            and (ts is None or type(ts) is int)):
                        audience = "null" if audience is None else q[audience]
                        append(f'{{"audience": {audience}, "block": {block}, "kind": "vote", '
                               f'"party": {party}, "request": {q[request]}, "seq": {seq}, '
                               f'"step": {step}, "ts": {"null" if ts is None else ts}}}')
                        continue
            except KeyError:
                pass
            append(canonical_json(rec))
        return out

    def to_text(self) -> str:
        lines = self.lines()
        lines.append("")  # the final newline, without copying the joined text
        return "\n".join(lines)

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Trace":
        """Parse a trace file; ValueError when a line is not a JSON object
        with a string `kind` or the first is not the header. The auditor's
        TraceView checks the records it reads."""
        records = [parse_json(line) for line in lines if line.strip()]
        if not all(isinstance(r, dict) and isinstance(r.get("kind"), str) for r in records):
            raise ValueError("trace line is not a JSON object with a string 'kind'")
        if not records or records[0]["kind"] != "header":
            raise ValueError("trace does not start with a header record")
        header = {k: v for k, v in records[0].items() if k != "kind"}
        return cls(header=header, records=records[1:])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as fh:
            return cls.from_lines(fh.read().splitlines())

    @property
    def summary(self) -> dict:
        for r in reversed(self.records):
            if r["kind"] == "summary":
                return r
        raise ValueError("trace has no summary record")
