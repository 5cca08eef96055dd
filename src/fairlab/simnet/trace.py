"""Trace files: the complete record of one simulation, one event per line.

The first line is a header carrying the scenario digest and configuration; the
last line is a run summary. Everything in between is ordered by a global step
counter the parties never observe. The record stream is complete enough for
the auditor to reconstruct every honest party's local view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import canonical_json, parse_json


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
