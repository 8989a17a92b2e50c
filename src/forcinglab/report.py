"""Structured check records shared by the verification suites and the CLI.

One record per sub-check.  Serialization is line-delimited JSON with sorted
keys so report files are diffable and bit-stable across runs; wall-clock
timings deliberately stay out of the records.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class CheckRecord:
    suite: str
    check: str
    instance: str
    status: str                      # pass | fail | skip
    context: dict[str, Any] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def counterexample_id(self) -> str | None:
        if self.status != "fail":
            return None
        blob = json.dumps(
            [self.suite, self.check, self.instance, self.context, self.detail],
            sort_keys=True, default=str)
        return "cx-" + hashlib.sha256(blob.encode()).hexdigest()[:12]

    def sort_key(self):
        return (self.instance, self.suite, self.check,
                json.dumps(self.context, sort_keys=True, default=str))

    def to_json(self) -> str:
        payload = {
            "kind": "check",
            "suite": self.suite,
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "context": self.context,
            "detail": self.detail,
        }
        cid = self.counterexample_id
        if cid:
            payload["counterexample"] = cid
        return json.dumps(payload, sort_keys=True, default=str,
                          separators=(",", ":"))


@dataclass
class SuiteReport:
    """Itemized outcome of one verification suite on one instance."""

    checks: list[CheckRecord] = field(default_factory=list)

    def record(self, suite: str, check: str, instance: str, ok: bool,
               context: dict | None = None, detail: dict | None = None):
        self.checks.append(CheckRecord(
            suite, check, instance, "pass" if ok else "fail",
            context or {}, detail or {}))

    def skip(self, suite: str, check: str, instance: str,
             context: dict | None = None, detail: dict | None = None):
        self.checks.append(CheckRecord(
            suite, check, instance, "skip", context or {}, detail or {}))

    def extend(self, other: "SuiteReport"):
        self.checks.extend(other.checks)

    @property
    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_jsonl(self) -> str:
        return "\n".join(c.to_json() for c in
                         sorted(self.checks, key=CheckRecord.sort_key))


def merge_reports(reports: Iterable[SuiteReport]) -> SuiteReport:
    out = SuiteReport()
    for r in reports:
        out.extend(r)
    return out
