"""Report lines against the encoder they replaced.  One prebuilt C encoder
writes every line: a check record is a fixed sorted envelope around the
encodings of its context and detail, and must equal byte for byte what
``json.JSONEncoder(sort_keys=True, default=str, separators=(",", ":"))``
writes for the record's payload.  Records sort on the compact encoding of
their context, which must order them as the default-separator encoding
did, and counterexample ids keep the default-separator blob."""

import hashlib
import itertools
import json

import pytest

from forcinglab.cli import ExperimentConfig, execute
from forcinglab.iteration import TAIL_ONE
from forcinglab.report import CheckRecord, SuiteReport, encode_line

ORACLE = json.JSONEncoder(sort_keys=True, default=str,
                          separators=(",", ":")).encode
DEFAULT = json.JSONEncoder(sort_keys=True, default=str).encode


def oracle_line(c: CheckRecord) -> str:
    payload = {"kind": "check", "suite": c.suite, "check": c.check,
               "instance": c.instance, "status": c.status,
               "context": c.context, "detail": c.detail}
    if c.status == "fail":
        blob = DEFAULT([c.suite, c.check, c.instance, c.context, c.detail])
        payload["counterexample"] = \
            "cx-" + hashlib.sha256(blob.encode()).hexdigest()[:12]
    return ORACLE(payload)


def test_every_record_of_the_s3_sweep_encodes_as_the_oracle():
    report, meta = execute(ExperimentConfig(max_poset=3, max_stages=3, seed=1))
    assert report.counts() == {"pass": 14359, "fail": 0, "skip": 6}
    for c in report.checks:
        assert c.to_json() == oracle_line(c)
    summary = {"kind": "summary", "counts": meta["counts"],
               "counterexamples": meta["counterexamples"]}
    assert encode_line(summary) == ORACLE(summary)


PLANTED = [
    CheckRecord("theorem2", "item1-complete-hom", "it-éß", "fail",
                {"alpha": 1, "generic": 10, "note": 'a "quoted", b: c'},
                {"violations": [[1, [2, None]], {"b": True, "a": False}],
                 "ratio": 0.1 + 0.2, "text": "π → ¬σ \\ \"q\"",
                 "none": None, "tail": TAIL_ONE, "empty": [{}, []],
                 "by_index": {10: "y", 3: "x"}, "big": 10 ** 20,
                 "neg": -0.0}),
    CheckRecord("corollary15", "stage-1-order-isomorphic", "it-\\\"x\"", "fail",
                {}, {"rebuilt": 3, "quotient": 3, "natural_map_total": False}),
    CheckRecord("projection-lemmas", "L11-glue", "sweep", "fail",
                {"k": ["x, y", "u: v"]}, {"s": "\n\t\x00 \U0001f600"}),
    CheckRecord("lemma1", "stage-1-separative", "it-0", "skip", {}, {}),
]


@pytest.mark.parametrize("record", PLANTED, ids=lambda c: c.check)
def test_planted_records_encode_as_the_oracle(record):
    line = record.to_json()
    assert line == oracle_line(record)
    assert json.loads(line)["status"] == record.status
    assert ('"counterexample":"cx-' in line) == (record.status == "fail")


def test_counterexample_ids_keep_the_default_blob():
    # a fixed record's id, as every earlier report wrote it
    c = CheckRecord("theorem2", "item1-complete-hom", "it-1", "fail",
                    {"alpha": 1, "generic": 0}, {"violations": 1})
    assert c.counterexample_id == "cx-9d85a2aa1f67"


# contexts whose compact and default encodings could disagree on order if
# a separator's space ever sat at the first difference: numbers of unequal
# length, keys of unequal length, and strings holding ", " and ": "
CONTEXTS = [
    {}, {"generic": 10}, {"generic": 2}, {"generic": 1}, {"generic": -1},
    {"alpha": 1}, {"alpha": 1, "generic": 0}, {"alpha": 10, "generic": 0},
    {"alpha": 1, "generic_": 0}, {"alpha": 1, "generic2": 0}, {"a": 1},
    {"aa": 1}, {"a b": 1}, {"a,": 1}, {"a": "x, y"}, {"a": "x,y"},
    {"a": "x,"}, {"a": "x: y"}, {"a": "x:y"}, {"a": ["x", "y"]},
    {"a": ["x, y"]}, {"a": ["x,", "y"]}, {"a": [1, 2]}, {"a": [1]},
    {"a": [12]}, {"a": {"b": 1}}, {"a": {"b": 1, "c": 2}}, {"a": {"b,": 1}},
    {"a": None}, {"a": True}, {"a": 0.5}, {"a": "", "b": 1},
]


def test_compact_contexts_order_as_default_ones():
    for a, b in itertools.permutations(CONTEXTS, 2):
        assert (encode_line(a) < encode_line(b)) == (DEFAULT(a) < DEFAULT(b))


def test_to_jsonl_keeps_the_default_order():
    rep = SuiteReport()
    for ctx in reversed(CONTEXTS):
        rep.record("theorem2", "item1-complete-hom", "it-1", True, ctx)
    want = sorted(rep.checks, key=lambda c: DEFAULT(c.context))
    assert list(rep.to_jsonl()) == [c.to_json() for c in want]
