"""Trace files: the complete record of one simulation, one event per line.

The first line is a header carrying the scenario digest and configuration; the
last line is a run summary. Everything in between is ordered by a global step
counter the parties never observe. The record stream is complete enough for
the auditor to reconstruct every honest party's local view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import canonical_json, parse_json, validate_config
from ..leaders import MODES

# Record fields the auditor reads, with their JSON types (true is no int).
AUDITED_FIELDS = {
    "request": {"id": str, "name": str, "market": str},
    "sight": {"party": int, "request": str, "ts": int, "step": int},
    "block": {"number": int, "requests": list, "step": int},
    "incarnation": {"block": int, "step": int},
}


@dataclass
class Trace:
    header: dict
    records: list[dict] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [canonical_json({"kind": "header", **self.header})]
        out.extend(map(canonical_json, self.records))
        return out

    def to_text(self) -> str:
        lines = self.lines()
        lines.append("")  # the final newline, without copying the joined text
        return "\n".join(lines)

    @classmethod
    def from_lines(cls, lines: list[str]) -> "Trace":
        """Parse a trace file; ValueError when a line is not a JSON object
        with a string `kind`, a field the auditor reads is malformed, a
        `sight` names a party out of range or an undeclared request or
        repeats a (party, request) sighting, or a `block` is not numbered
        0, 1, 2, ... in file order or names a request that no `request`
        record declares."""
        records = [parse_json(line) for line in lines if line.strip()]
        if not all(isinstance(r, dict) and isinstance(r.get("kind"), str) for r in records):
            raise ValueError("trace line is not a JSON object with a string 'kind'")
        if not records or records[0].get("kind") != "header":
            raise ValueError("trace does not start with a header record")
        header = {k: v for k, v in records[0].items() if k != "kind"}
        n = validate_config(header.get("n"), header.get("t")).n
        if header.get("mode") not in MODES:
            raise ValueError(f"trace header has unknown mode {header.get('mode')!r}")
        corrupt = header.get("corrupt")
        if not isinstance(corrupt, list) or not all(type(p) is int and 0 <= p < n for p in corrupt):
            raise ValueError(f"trace header 'corrupt' must list party ids in [0, {n}), "
                             f"not {corrupt!r}")
        declared = set()  # ids of the request records read so far
        names = set()  # and their names
        sighted = set()  # (party, request) of the sight records read so far
        blocks = []
        for rec in records[1:]:
            kind = rec["kind"]
            ok = all(type(rec.get(key)) is typ for key, typ in AUDITED_FIELDS.get(kind, {}).items())
            if ok and kind == "block":
                ok = all(isinstance(name, str) for name in rec["requests"])
            if not ok:
                raise ValueError(f"malformed {kind!r} trace record: {rec!r}")
            if kind == "request":
                declared.add(rec["id"])
                names.add(rec["name"])
            elif kind == "sight":
                if not (0 <= rec["party"] < n and rec["request"] in declared):
                    raise ValueError(f"'sight' trace record names a party outside [0, {n}) or "
                                     f"a request no earlier 'request' record declares: {rec!r}")
                # The auditor keeps one sighting per party and request.
                if (rec["party"], rec["request"]) in sighted:
                    raise ValueError(f"'sight' trace record repeats an earlier sighting of "
                                     f"its request by its party: {rec!r}")
                sighted.add((rec["party"], rec["request"]))
            elif kind == "block":
                if rec["number"] != len(blocks):
                    raise ValueError(f"'block' trace record is not numbered {len(blocks)}, "
                                     f"its place in the file: {rec!r}")
                blocks.append(rec)
        # A block may name a request declared further down: a trace whose
        # blocks swapped their requests is well formed, and its audit fails.
        for rec in blocks:
            if not names.issuperset(rec["requests"]):
                raise ValueError(f"'block' trace record names a request no 'request' record "
                                 f"declares: {rec!r}")
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
