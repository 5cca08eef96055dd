"""Trace files: the complete record of one simulation, one event per line.

The first line is a header carrying the scenario digest and configuration; the
last line is a run summary. Everything in between is ordered by a global step,
each record's place after the header (0, 1, 2, ...), that the parties never
observe. The record stream is complete enough for the auditor to reconstruct
every honest party's local view.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import count
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Union

from ..core import canonical_json, parse_json_lines

# A trace holds its records as rows, and a row's step is its place among the
# rows (0, 1, 2, ...). The runner's per-copy records, `deliver`, `ingest` and
# `vote`, are nearly all of a wide run's lines; it stores each as a flat
# tuple, `(kind, *values)`, with the values in the sorted order of their keys
# (`_KEYS`), which is cheaper to build and to keep than a dict. A tuple row
# holds no step: its step is its position. Every other record, and every
# record read back from a file, is a dict that carries its own `step`.
# The rows are encoded only when the trace is written: a dict row through
# canonical_json, a tuple row through one f-string per kind that lists the
# keys in sorted order, writes ints through str() and strings through the
# escaper canonical_json's encoder uses, so it gives canonical_json's bytes.
# A tuple row is not type-checked again: the scenario checks make every value
# an int, a string or, where `_KEYS` allows it, None. A run repeats few
# strings (request ids, `via`, status and reason), so each `lines()` call
# keeps their quoted forms in a dict that lives as long as the call.
# `save` writes `to_text` of `CHUNK_ROWS` rows at a time and `to_text()`
# joins the same chunks, so neither holds a list of every line; the bytes are
# the same.
# `Trace.records` gives every row as a dict, in file order, a tuple row's
# with its index as its step.
# tests/test_trace_lines.py holds the two encodings to one output.

# About 90 KB of a wide run's text. Chunks of 2,048 rows (about 360 KB) made
# `to_text` 10-20% slower at n=22 than one list of every line, in page faults
# on fresh memory; 512 rows measured even with it (Python 3.11, Linux).
CHUNK_ROWS = 512

_KEYS = {
    "deliver": ("kind", "msg", "request", "sender", "to", "via"),
    # reason: a string or None
    "ingest": ("kind", "leader", "party", "reason", "request", "seq", "status"),
    # audience: a string or None; ts: an int or None
    "vote": ("kind", "audience", "block", "party", "request", "seq", "ts"),
}

Row = Union[dict, tuple]


def _as_dict(row: Row, step: int) -> dict:
    """A row as its record: a dict row as it is, a tuple row with `step`."""
    if type(row) is dict:
        return row
    rec = dict(zip(_KEYS[row[0]], row))
    rec["step"] = step
    return rec


class Records(Sequence):
    """A read-only view of a trace's rows, each given as a dict; a tuple
    row's step is its index."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list[Row]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows
        steps = range(len(rows))[index]  # IndexError and TypeError as the list's
        if isinstance(index, slice):
            return list(map(_as_dict, rows[index], steps))
        return _as_dict(rows[index], steps)

    def __iter__(self):
        return map(_as_dict, self._rows, count())


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

    def lines(self, start: int = 0, stop: Optional[int] = None) -> list[str]:
        """The lines of rows[start:stop], after the header line when start is
        0: by default every line of the trace, without newlines."""
        out = [canonical_json({"kind": "header", **self.header})] if start == 0 else []
        append = out.append
        q = _Quoted({None: "null"})
        for step, row in enumerate(self.rows[start:stop], start):
            if type(row) is dict:
                append(canonical_json(row))
            elif row[0] == "deliver":
                _, msg, request, sender, to, via = row
                append(f'{{"kind": "deliver", "msg": {msg}, "request": {q[request]}, '
                       f'"sender": {sender}, "step": {step}, "to": {to}, "via": {q[via]}}}')
            elif row[0] == "ingest":
                _, leader, party, reason, request, seq, status = row
                append(f'{{"kind": "ingest", "leader": {leader}, "party": {party}, '
                       f'"reason": {q[reason]}, "request": {q[request]}, "seq": {seq}, '
                       f'"status": {q[status]}, "step": {step}}}')
            else:  # vote
                _, audience, block, party, request, seq, ts = row
                append(f'{{"audience": {q[audience]}, "block": {block}, "kind": "vote", '
                       f'"party": {party}, "request": {q[request]}, "seq": {seq}, '
                       f'"step": {step}, "ts": {"null" if ts is None else ts}}}')
        return out

    def to_text(self, start: int = 0, stop: Optional[int] = None) -> str:
        """The lines of rows[start:stop], after the header line when start is
        0, each ending in a newline: by default the whole trace text. It is
        encoded CHUNK_ROWS rows at a time, so no list of every line is held."""
        stop = len(self.rows) if stop is None else min(stop, len(self.rows))
        pieces = []
        for first in range(start, max(stop, start + 1), CHUNK_ROWS):
            lines = self.lines(first, min(first + CHUNK_ROWS, stop))
            lines.append("")  # the final newline, without copying the joined piece
            pieces.append("\n".join(lines))
        return "".join(pieces)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Trace":
        """Parse a trace file's lines, as read; ValueError, naming the file
        line, when a line is not a JSON object with a string `kind`, and when
        the first is not the header. The auditor's TraceView checks the
        records it reads."""
        records = []
        for number, rec in parse_json_lines(lines):
            if not (isinstance(rec, dict) and isinstance(rec.get("kind"), str)):
                raise ValueError(f"line {number}: trace line is not a JSON object "
                                 f"with a string 'kind'")
            records.append(rec)
        if not records or records[0]["kind"] != "header":
            raise ValueError("trace does not start with a header record")
        header = {k: v for k, v in records.pop(0).items() if k != "kind"}
        return cls(header=header, rows=records)

    def save(self, path: str) -> None:
        """Write the trace CHUNK_ROWS rows at a time; the file is `to_text()`."""
        with open(path, "w") as fh:
            for start in range(0, max(len(self.rows), 1), CHUNK_ROWS):
                fh.write(self.to_text(start, start + CHUNK_ROWS))

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Read a trace file line by line; a line ends only at a newline."""
        with open(path) as fh:
            return cls.from_lines(fh)

    @property
    def summary(self) -> dict:
        """The last `summary` record; the last row of a finished run's trace,
        so walking back from the end decodes no tuple row before it."""
        for rec in reversed(self.records):
            if rec["kind"] == "summary":
                return rec
        raise ValueError("trace has no summary record")
