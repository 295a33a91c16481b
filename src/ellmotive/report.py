"""Machine-readable verification reports.

Each check produces a record {id, anchor, status, details}: `anchor` carries
the identity being checked verbatim, so failures name what broke;
`status` is pass | fail | flagged, where flagged is reserved for the two
documented ambiguities (the F_n divisor display and the sign display of the
right action).  Serialization is bit-stable for a fixed config and seed.
"""

from __future__ import annotations

import json


class Record:
    def __init__(self, id: str, anchor: str, status: str, details):
        self.id = id
        self.anchor = anchor
        self.status = status  # pass | fail | flagged
        self.details = details

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "details": self.details,
        }


class Report:
    def __init__(self, config_echo: dict):
        self.config_echo = config_echo
        self.records = []

    def add(self, id: str, anchor: str, ok, details=None):
        status = "pass" if ok else "fail"
        self.records.append(Record(id, anchor, status, details))

    def flag(self, id: str, anchor: str, details=None):
        self.records.append(Record(id, anchor, "flagged", details))

    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "flagged": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.records)

    def to_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "records": [r.to_dict() for r in self.records],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            lines.append(f"[{r.status.upper():7s}] {r.id} :: {r.anchor}")
            if r.details is not None and r.status != "pass":
                lines.append(f"          {r.details}")
        s = self.summary()
        lines.append(
            f"-- {s['pass']} pass, {s['fail']} fail, {s['flagged']} flagged --"
        )
        return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str = "json", path: str = None) -> str:
    if fmt == "json":
        payload = report.to_json()
    elif fmt == "text":
        payload = report.to_text()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return payload
