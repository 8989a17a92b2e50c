"""Structured check records shared by the verification suites and the CLI.

One record per sub-check.  Serialization is line-delimited JSON with sorted
keys so report files are diffable and bit-stable across runs; wall-clock
timings deliberately stay out of the records.  Every report line is
written by one C encoder, bound at import (``JSONEncoder.encode`` builds a
new one on each call): a check record is its fixed sorted envelope around
the encodings of its context and detail, the bytes the encoder writes for
the whole record.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator

# sorted keys, compact separators, str() of any other value; no circular
# check, which records never need, so no state outlives a call
_iterencode = c_make_encoder(None, str, encode_basestring_ascii, None,
                             ":", ",", True, False, True)


def encode_line(obj: Any) -> str:
    """One report line: obj as compact JSON with sorted keys."""
    return "".join(_iterencode(obj, 0))


def content_id(prefix: str, obj: Any, digits: int) -> str:
    """``prefix`` and sha256 digits of obj's JSON, default separators kept:
    the rule of instance and counterexample ids, which must never move."""
    blob = json.dumps(obj, sort_keys=True, default=str)
    return prefix + hashlib.sha256(blob.encode()).hexdigest()[:digits]


class CheckRecord:
    def __init__(self, suite: str, check: str, instance: str, status: str,
                 context: dict[str, Any] | None = None,
                 detail: dict[str, Any] | None = None):
        self.suite = suite
        self.check = check
        self.instance = instance
        self.status = status                 # pass | fail | skip
        self.context = {} if context is None else context
        self.detail = {} if detail is None else detail

    @property
    def counterexample_id(self) -> str | None:
        if self.status != "fail":
            return None
        return content_id("cx-", [self.suite, self.check, self.instance,
                                  self.context, self.detail], 12)

    def to_json(self, context: str | None = None) -> str:
        # context, if given, is encode_line(self.context); the keys in
        # sorted order: check, context, counterexample, detail, instance,
        # kind, status, suite
        cid = self.counterexample_id
        return "".join((
            '{"check":', encode_basestring_ascii(self.check),
            ',"context":', encode_line(self.context) if context is None else context,
            f',"counterexample":"{cid}"' if cid else "",
            ',"detail":', encode_line(self.detail),
            ',"instance":', encode_basestring_ascii(self.instance),
            ',"kind":"check","status":', encode_basestring_ascii(self.status),
            ',"suite":', encode_basestring_ascii(self.suite), "}"))


class SuiteReport:
    """Itemized outcome of one verification suite on one instance."""

    def __init__(self, checks: list[CheckRecord] | None = None):
        self.checks = [] if checks is None else checks

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

    def to_jsonl(self) -> Iterator[str]:
        """The check lines, without their newlines, in report order: sorted
        here, and each encoded as it is read, so no copy of the whole
        report is built."""
        # each context is encoded once, to sort on and to write; the compact
        # encoding orders contexts as the default one does: the two differ
        # only by a space after a structural "," or ":", and the first
        # position where two encodings differ is never such a space
        rows = sorted((c.instance, c.suite, c.check, encode_line(c.context), i)
                      for i, c in enumerate(self.checks))
        return (self.checks[i].to_json(ctx) for *_, ctx, i in rows)
