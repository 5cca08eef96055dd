"""Trace files: the complete record of one simulation, one event per line.

The first line is a header carrying the scenario digest and configuration; the
last line is a run summary. Everything in between is ordered by a global step
counter the parties never observe. The record stream is complete enough for
the auditor to reconstruct every honest party's local view.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Union

from ..core import canonical_json, parse_json

# A trace holds its records as rows. The runner's per-copy records, `deliver`,
# `ingest` and `vote`, are nearly all of a wide run's lines; it stores each as
# a flat tuple, `(kind, *values)`, with the values in the sorted order of
# their keys (`_KEYS`), which is cheaper to build and to keep than a dict.
# Every other record, and every record read back from a file, is a dict.
# `Trace.lines` encodes the rows only when the trace is written: a dict row
# through canonical_json, a tuple row through one f-string per kind that lists
# the keys in sorted order, writes ints through str() and strings through the
# escaper canonical_json's encoder uses, so it gives canonical_json's bytes.
# A tuple row is not type-checked again: the scenario checks make every value
# an int, a string or, where `_KEYS` allows it, None. A run repeats few
# strings (request ids, `via`, status and reason), so each `lines()` call
# keeps their quoted forms in a dict that lives as long as the call.
# `Trace.records` gives every row as a dict, in file order.
# tests/test_trace_lines.py holds the two encodings to one output.

_KEYS = {
    "deliver": ("kind", "msg", "request", "sender", "step", "to", "via"),
    # reason: a string or None
    "ingest": ("kind", "leader", "party", "reason", "request", "seq", "status", "step"),
    # audience: a string or None; ts: an int or None
    "vote": ("kind", "audience", "block", "party", "request", "seq", "step", "ts"),
}

Row = Union[dict, tuple]


def _as_dict(row: Row) -> dict:
    return row if type(row) is dict else dict(zip(_KEYS[row[0]], row))


class Records(Sequence):
    """A read-only view of a trace's rows, each given as a dict."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list[Row]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_as_dict(row) for row in self._rows[index]]
        return _as_dict(self._rows[index])

    def __iter__(self):
        return map(_as_dict, self._rows)


class _Quoted(dict):
    """str -> its JSON string literal, quoted on first use; None -> null."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = _quote(text)
        return literal


@dataclass
class Trace:
    header: dict
    rows: list[Row] = field(default_factory=list)

    @property
    def records(self) -> Records:
        return Records(self.rows)

    def lines(self) -> list[str]:
        out = [canonical_json({"kind": "header", **self.header})]
        append = out.append
        q = _Quoted({None: "null"})
        for row in self.rows:
            if type(row) is dict:
                append(canonical_json(row))
            elif row[0] == "deliver":
                _, msg, request, sender, step, to, via = row
                append(f'{{"kind": "deliver", "msg": {msg}, "request": {q[request]}, '
                       f'"sender": {sender}, "step": {step}, "to": {to}, "via": {q[via]}}}')
            elif row[0] == "ingest":
                _, leader, party, reason, request, seq, status, step = row
                append(f'{{"kind": "ingest", "leader": {leader}, "party": {party}, '
                       f'"reason": {q[reason]}, "request": {q[request]}, "seq": {seq}, '
                       f'"status": {q[status]}, "step": {step}}}')
            else:  # vote
                _, audience, block, party, request, seq, step, ts = row
                append(f'{{"audience": {q[audience]}, "block": {block}, "kind": "vote", '
                       f'"party": {party}, "request": {q[request]}, "seq": {seq}, '
                       f'"step": {step}, "ts": {"null" if ts is None else ts}}}')
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
        return cls(header=header, rows=records[1:])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as fh:
            return cls.from_lines(fh.read().splitlines())

    @property
    def summary(self) -> dict:
        """The last `summary` record; the last row of a finished run's trace,
        so walking back from the end decodes no tuple row before it."""
        for rec in reversed(self.records):
            if rec["kind"] == "summary":
                return rec
        raise ValueError("trace has no summary record")
