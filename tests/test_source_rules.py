"""Rules the library's source keeps: no handler catches ``Exception``,
``BaseException`` or everything, so an error the code cannot act on is
never swallowed or reported as a check result; and no module but
``iteration.py`` reads a stage's private indices, so every other module
finds a condition by (prefix, tail) through ``Stage.extension``.

Two rules a run keeps: a passing ``run --suite all --max-poset 3
--max-stages 3`` builds no name, since every statement about names is
certified on algebra elements and tails are decoded off pi_prime; and it
builds no stage condition label, since labels are only read when a failing
check names conditions.  Each run-time rule refuses the construction and
checks that the run still writes its pinned report."""

import ast
import hashlib
from pathlib import Path

import pytest

import test_cli
from forcinglab import iteration
from forcinglab.cli import main
from forcinglab.iteration import TableProvider, build_iteration
from forcinglab.names import Name
from forcinglab.poset import antichain_with_top
from forcinglab.projection import (_frown_table, _lemma11, _prefix_groups,
                                   make_context)

SRC = Path(__file__).resolve().parents[1] / "src" / "forcinglab"
BROAD = {"Exception", "BaseException"}
STAGE_INDICES = {"_index", "_tails"}


def broad_handlers(source: str) -> list[int]:
    """Line numbers of the ``except`` clauses in source that are bare or
    name Exception or BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
        if node.type is None or names & BROAD:
            lines.append(node.lineno)
    return lines


def test_no_broad_exception_handlers():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): broad_handlers(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_broad_form_is_found():
    source = "\n".join([
        "try:\n    pass\nexcept ValueError:\n    pass",
        "try:\n    pass\nexcept Exception:\n    pass",
        "try:\n    pass\nexcept BaseException as e:\n    raise",
        "try:\n    pass\nexcept:\n    raise",
        "try:\n    pass\nexcept (KeyError, builtins.Exception):\n    pass",
    ])
    assert broad_handlers(source) == [7, 11, 15, 19]


def stage_index_reads(source: str) -> list[int]:
    """Line numbers, ascending, of the accesses in source, read or
    written, to an attribute named ``_index`` or ``_tails``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in STAGE_INDICES)


def test_only_iteration_reads_the_stage_indices():
    files = sorted(p for p in SRC.glob("**/*.py") if p.name != "iteration.py")
    assert files
    found = {str(p.relative_to(SRC)): stage_index_reads(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_stage_index_read_is_found():
    source = "\n".join([
        "stage.extension(p, t)",
        "i = stage._index[cond]",
        "q = level.stage._index.get(c)",
        "getattr(stage, 'path_index')",
        "stage.cond_index(c), stage.path_index",
        "stage._tails.get((p, t))",
        "stage._index = {}",
    ])
    assert stage_index_reads(source) == [2, 3, 6, 7]


class Refused(AssertionError):
    """A construction that a run-time rule forbids was reached."""


def refuse(monkeypatch, owner, attr: str):
    def refused(*args, **kwargs):
        raise Refused(f"{attr} called")
    monkeypatch.setattr(owner, attr, refused)


def sweep_report_sha256(tmp_path) -> str:
    out = tmp_path / "r.jsonl"
    assert main(["run", "--suite", "all", "--max-poset", "3",
                 "--max-stages", "3", "--seed", "1", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


PINNED = test_cli.TestRunReports.REPORT_SHA256[3]


def two_step_antichains():
    a2 = antichain_with_top(2)
    return build_iteration(TableProvider([{(): a2}, {(0,): a2, (1,): a2}]))


def test_a_passing_run_builds_no_name(monkeypatch, tmp_path):
    refuse(monkeypatch, Name, "__new__")
    assert sweep_report_sha256(tmp_path) == PINNED


def test_a_pi_second_call_builds_a_name(monkeypatch):
    ctx = make_context(two_step_antichains(), 1, 0)
    empty = Name((), ctx.source_algebras[2])
    refuse(monkeypatch, Name, "__new__")
    with pytest.raises(Refused):
        ctx.pi_second(2, empty)


def test_a_passing_run_builds_no_condition_label(monkeypatch, tmp_path):
    refuse(monkeypatch, iteration, "_cond_label")
    assert sweep_report_sha256(tmp_path) == PINNED


def test_a_failing_l11_reads_labels(monkeypatch):
    refuse(monkeypatch, iteration, "_cond_label")
    it = two_step_antichains()
    ctx = make_context(it, 1, 0)
    siblings = [make_context(it, 1, g).levels[2]
                for g in range(len(it.stages[1].generics))]
    table = _frown_table(ctx, 2)
    assert _lemma11(ctx, 2, table, _prefix_groups(table), siblings)[0]
    # with the top condition's s-frown row emptied, no s glues it to itself
    top = it.stages[2].poset.top
    table[top] = (table[top][0], {})
    with pytest.raises(Refused):
        _lemma11(ctx, 2, table, _prefix_groups(table), siblings)
