"""List the statements of ``src/forcinglab`` that the tier-1 suite never runs.

Usage, from the repository root::

    python tests/uncovered.py [pytest arguments]

With no arguments it runs the whole tier-1 suite, ``tests/``.

The suite runs in this process under a stdlib ``sys.settrace`` tracer that
follows only frames of ``src/forcinglab``, so the library is imported, and
every line it runs recorded, after the tracer is set.  A statement is
uncovered when none of its own lines ran: a simple statement's lines are
all of its lines, a compound one's are the lines of its header before its
first inner statement, and a line counts only where the compiled code has
an instruction on it.  Tracing is slow: expect several times the plain
run's wall time.  Not collected by pytest (the name has no ``test_``);
subprocesses that tests start are not traced.  The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "forcinglab"


def executable_lines(code) -> set[int]:
    """The lines on which ``code`` or a code object nested in it has an
    instruction."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def own_spans(tree: ast.AST):
    """(first line, last line) of each statement's own lines: up to its
    first inner statement, or to its end."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        inner = [child.lineno for field in ("body", "orelse", "finalbody",
                                            "handlers")
                 for child in getattr(node, field, ())]
        yield node.lineno, (min(inner) - 1 if inner else node.end_lineno)


def uncovered(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, source text) of each statement of ``path`` with code on its
    own lines and none of them in ``ran``."""
    source = path.read_text(encoding="utf-8")
    code = executable_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for first, last in sorted(set(own_spans(ast.parse(source)))):
        own = set(range(first, last + 1)) & code
        if own and not own & ran:
            out.append((first, text[first - 1].strip()))
    return out


def main(args: list[str]) -> int:
    # as the tier-1 command sets it, for this process and the CLI
    # processes that tests start
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)
    followed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        follow = followed.get(code)
        if follow is None:
            follow = followed[code] = code.co_filename.startswith(prefix)
        if not follow:
            return None
        ran[code.co_filename].add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("**/*.py")):
        missed = uncovered(path, ran.get(str(path), set()))
        total += len(missed)
        for line, text in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{total} statements never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
