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

# The runner's per-copy records, `deliver` and `ingest`, are nearly all of a
# wide run's lines, and canonical_json's sorted-keys encoder costs about twice
# what these templates do. Each template writes the keys in sorted order, ints
# through %d and strings through the escaper canonical_json's encoder uses, so
# it gives canonical_json's bytes. A record takes its template only when its
# key set is the runner's and every value has the exact type the template
# expects; any other record (a bool, a float, a missing or extra key) goes
# through canonical_json. tests/test_trace_lines.py holds the two to one
# output.
_DELIVER = ('{"kind": "deliver", "msg": %d, "request": %s, "sender": %d, "step": %d, '
            '"to": %d, "via": %s}')
_INGEST = ('{"kind": "ingest", "leader": %d, "party": %d, "reason": %s, "request": %s, '
           '"seq": %d, "status": %s, "step": %d}')


def _line(rec: dict) -> str:
    kind = rec.get("kind")
    try:
        # With the length checked, reading every key proves the key set.
        if kind == "deliver" and len(rec) == 7:
            msg, request, sender = rec["msg"], rec["request"], rec["sender"]
            step, to, via = rec["step"], rec["to"], rec["via"]
            if (type(kind) is type(request) is type(via) is str
                    and type(msg) is type(sender) is type(step) is type(to) is int):
                return _DELIVER % (msg, _quote(request), sender, step, to, _quote(via))
        elif kind == "ingest" and len(rec) == 8:
            leader, party, reason = rec["leader"], rec["party"], rec["reason"]
            request, seq, status, step = rec["request"], rec["seq"], rec["status"], rec["step"]
            if (type(kind) is type(request) is type(status) is str
                    and type(leader) is type(party) is type(seq) is type(step) is int
                    and (reason is None or type(reason) is str)):
                return _INGEST % (leader, party, "null" if reason is None else _quote(reason),
                                  _quote(request), seq, _quote(status), step)
    except KeyError:
        pass
    return canonical_json(rec)


@dataclass
class Trace:
    header: dict
    records: list[dict] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [canonical_json({"kind": "header", **self.header})]
        out.extend(map(_line, self.records))
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

    # -- convenience views ---------------------------------------------------

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]

    @property
    def summary(self) -> dict:
        for r in reversed(self.records):
            if r["kind"] == "summary":
                return r
        raise ValueError("trace has no summary record")

    def blocks(self) -> list[dict]:
        return self.of_kind("block")
