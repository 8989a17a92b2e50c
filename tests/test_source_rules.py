"""Rules the library's source keeps: no handler catches ``Exception``,
``BaseException`` or everything, so an error the code cannot act on is
never swallowed or reported as a check result; and no module but
``iteration.py`` reads a stage's private indices, so every other module
finds a condition by (prefix, tail) through ``Stage.extension``."""

import ast
from pathlib import Path

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
