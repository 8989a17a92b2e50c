"""Rules the library's source keeps: no handler catches ``Exception``,
``BaseException`` or everything, so an error the code cannot act on is
never swallowed or reported as a check result; no module but
``iteration.py`` reads a stage's private indices, so every other module
finds a condition by (prefix, tail) through ``Stage.extension``; no module
but ``iteration.py`` reads the toy iteration's step data, so the checks of
that iteration sit beside the provider that writes it; no module
but ``iteration.py`` assigns an attribute of a stage, so a stage that many
contexts share carries no per-context state (each level keeps its pi and
algebras); only
``ProjectionContext.pi_second`` touches a level's pi_second memo, so every
memo entry is the structural recursion that the element certificates of
Theorem 2 and Theorem 16 induct through; only ``extend_stage`` reads or
writes a stage's map of the children it enumerated, so every stage that
map returns is one ``extend_stage`` built from that parent and those step
posets; and no module reads
``ProjectionContext.source_algebras``, a view that builds a new dict on
every read and stays for the benchmark and the tests, since each level
holds its own ``source``; and no module writes an attribute named
``pi_prime``, so every map a run reads is its level's own derivation and
only the tests plant maps, on copies; and only the element route reads
``certify_complete_hom``, ``QuotientLevel.hom`` where pi's atom images do
not decide the level and ``verify_theorem2``'s override, so a passing
level is never certified on its 2^|A| elements; and only the CLI's unit
runner ``run_unit`` catches ``ProjectionError``, so the policy that makes
one a failed record, and a cap a labeled skip, lives in one place; and no
module uses ``dataclasses`` or ``NamedTuple``, so importing the CLI loads
neither ``dataclasses`` nor ``inspect``, which a fresh ``forcinglab run``
process would otherwise pay for at start-up; and no module uses
``functools.cached_property``, whose first read takes a lock on Python
3.11, so every lazy attribute is :class:`forcinglab.config.lazy`; and the
lemma kernels that read no generic, the s-frown pass ``_frown_levels``,
``_lemma13`` and ``_lemma14``, take no ``ProjectionContext`` and name no
``ctx``, ``G`` or ``gen_index``, so what they compute is a fact about
P_alpha..P_beta alone.

Three rules a run keeps: a passing ``run --suite all --max-poset 3
--max-stages 3`` builds no name, since every statement about names is
certified on algebra elements and tails are decoded off pi_prime; it
builds no stage condition label and no label of a cifs step poset, collapse
or product, since labels are only read when a failing check names
elements; and it lists no algebra's 2^k elements (no ``regular_cuts``),
since every check of a passing level reads single elements' memoized cuts
and atom images.  Each run-time rule refuses the construction and checks
that the run still writes its pinned report.  The same refusal shows that
``QuotientLevel.onto`` names the unattained element of a complete
homomorphism that is not onto with no element listed, while a planted
map's element route lists them."""

import ast
import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import algebra_oracle
import lemma_oracle
import test_cli
from forcinglab import boolalg, iteration, poset, projection
from forcinglab.cli import main
from forcinglab.config import fields, replace
from forcinglab.iteration import (CollapseSpec, Stage, TableProvider,
                                  build_iteration, collapse_poset)
from forcinglab.names import Name
from forcinglab.poset import antichain_with_top, product_poset
from forcinglab.projection import (_frown_levels, _lemma11, make_context,
                                   verify_theorem2)

SRC = Path(__file__).resolve().parents[1] / "src" / "forcinglab"
BROAD = {"Exception", "BaseException"}
STAGE_INDICES = {"_index", "_tails"}
# CifsProvider.info and the CifsStepInfo fields but ``poset``, a name every
# stage and level shares
STEP_DATA = {"info", "element_tuples", "payloads", "structure", "witnesses"}
# a stage's fields, lazy attributes and methods
STAGE_ATTRS = set(fields(Stage)) | {n for n in vars(Stage)
                                    if not n.startswith("__")}
SOURCE_VIEW = {"source_algebras"}
# the lemma kernels that read no generic, and the names through which one
# would reach G
G_FREE = {"_frown_levels", "_lemma13", "_lemma14"}
CONTEXT_READS = {"ProjectionContext", "ctx", "G", "gen_index"}
MACHINERY = {"dataclass", "dataclasses", "NamedTuple"}
LOCKED = {"cached_property"}


def caught_names(handler: ast.ExceptHandler) -> set:
    """The names an ``except`` clause catches, alone or in a tuple."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {getattr(t, "id", getattr(t, "attr", None)) for t in caught}


def broad_handlers(source: str) -> list[int]:
    """Line numbers of the ``except`` clauses in source that are bare or
    name Exception or BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None or caught_names(node) & BROAD:
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


def name_uses(source: str, names: set[str]) -> list[int]:
    """Line numbers, ascending, of the imports and names in source that
    are one of ``names``: bare, as an attribute, imported, or the module
    imported from."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else \
            node.name if isinstance(node, ast.alias) else \
            node.module if isinstance(node, ast.ImportFrom) else None
        if name in names:
            lines.add(node.lineno)
    return sorted(lines)


def machinery_uses(source: str) -> list[int]:
    """Line numbers, ascending, of the imports and names in source that
    are ``dataclasses``, ``dataclass`` or ``NamedTuple``."""
    return name_uses(source, MACHINERY)


def test_no_module_uses_the_dataclass_machinery():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): machinery_uses(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_machinery_use_is_found():
    # the library's own replace and a word in a string are no use of it
    source = "\n".join([
        "from dataclasses import field",
        "import dataclasses as dc",
        "from typing import NamedTuple",
        "@dataclass(frozen=True)",
        "class Rows(typing.NamedTuple): pass",
        "copy = dataclasses.replace(level)",
        "from .config import replace",
        "copy = replace(level, pi=pi)",
        "doc = 'a dataclass'",
    ])
    assert machinery_uses(source) == [1, 2, 3, 4, 5, 6]


def test_no_module_uses_functools_cached_property():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): name_uses(p.read_text(encoding="utf-8"),
                                                LOCKED)
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_cached_property_use_is_found():
    # the library's own descriptor and a word in a string are no use of it
    source = "\n".join([
        "from functools import cached_property",
        "from functools import cache, cached_property as cp",
        "@functools.cached_property",
        "def rows(self): pass",
        "prop = ft.cached_property(derive)",
        "@cached_property",
        "def cols(self): pass",
        "from .config import lazy",
        "@lazy",
        "def pi(self): pass",
        "doc = 'a functools.cached_property'",
    ])
    assert name_uses(source, LOCKED) == [1, 2, 3, 5, 6]


def modules_added_by(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement`` that it
    does not hold after ``pass``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)

    def loaded(code: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        return set(proc.stdout.split())

    return loaded(statement) - loaded("pass")


def test_importing_the_cli_loads_no_dataclass_machinery():
    added = modules_added_by("import forcinglab.cli")
    assert "forcinglab.projection" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_a_dataclass_import_is_seen():
    assert {"dataclasses", "inspect"} <= modules_added_by("import dataclasses")


def policy_handlers(source: str) -> list[int]:
    """Line numbers, ascending, of the ``except`` clauses in source that
    name ProjectionError and lie in no function named ``run_unit``."""
    lines = []

    def visit(node, inside: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "run_unit"
        if isinstance(node, ast.ExceptHandler) and not inside \
                and "ProjectionError" in caught_names(node):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_only_the_unit_runner_handles_projection_errors():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): policy_handlers(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_policy_handler_is_found():
    # raising or naming the error is no handler of it
    source = "\n".join([
        "def run_unit(build):",
        "    try:\n        build()\n    except ProjectionError:\n        pass",
        "def run_suite(build):",
        "    try:\n        build()\n    except ProjectionError as e:\n        pass",
        "try:\n    pass\nexcept (CapExceeded, projection.ProjectionError):\n    pass",
        "try:\n    pass\nexcept CapExceeded:\n    raise ProjectionError('x')",
        "errors = (ProjectionError,)",
    ])
    assert policy_handlers(source) == [9, 13]


def attribute_accesses(source: str, attrs: set[str]) -> list[int]:
    """Line numbers, ascending, of the accesses in source, read or
    written, to an attribute named in ``attrs``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in attrs)


def test_only_iteration_reads_the_stage_indices():
    files = sorted(p for p in SRC.glob("**/*.py") if p.name != "iteration.py")
    assert files
    found = {str(p.relative_to(SRC)):
             attribute_accesses(p.read_text(encoding="utf-8"), STAGE_INDICES)
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
    assert attribute_accesses(source, STAGE_INDICES) == [2, 3, 6, 7]


def test_only_iteration_reads_the_step_data():
    files = sorted(p for p in SRC.glob("**/*.py") if p.name != "iteration.py")
    found = {str(p.relative_to(SRC)):
             attribute_accesses(p.read_text(encoding="utf-8"), STEP_DATA)
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_step_data_read_is_found():
    source = "\n".join([
        "info = provider.info[1, path]",
        "structure = info.structure",
        "tup, w = info.element_tuples[c], info.witnesses[0]",
        "payload = info.payloads[0][c]",
        "poset = info.poset",
    ])
    assert attribute_accesses(source, STEP_DATA) == [1, 2, 3, 3, 4]


def names_a_stage(node: ast.expr) -> bool:
    """Whether an expression reads as a stage: the name, attribute or
    called function it ends in, past any subscript, has ``stage`` in it
    (``stage``, ``qstage``, ``level.stage``, ``stages[k]``,
    ``root_stage()``), or is ``final`` (``Iteration.final``)."""
    while isinstance(node, (ast.Subscript, ast.Call)):
        node = node.value if isinstance(node, ast.Subscript) else node.func
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else ""
    return "stage" in name.lower() or name == "final"


def stage_writes(source: str) -> list[int]:
    """Line numbers, ascending, of the writes in source to an attribute
    of a stage, or to an item of one: assigned, augmented, annotated, a
    loop target or deleted, alone or unpacked, or through ``setattr``,
    ``delattr`` or ``vars``.  The attribute's owner is a stage when it
    reads as one (:func:`names_a_stage`), or when the attribute is one a
    stage has and the owner is not ``self``."""
    lines = []

    def owned_by_a_stage(t: ast.Attribute) -> bool:
        if names_a_stage(t.value):
            return True
        is_self = isinstance(t.value, ast.Name) and t.value.id == "self"
        return t.attr in STAGE_ATTRS and not is_self

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("setattr", "delattr") and node.args:
            attr = node.args[1] if len(node.args) > 1 else None
            if names_a_stage(node.args[0]) or \
                    getattr(attr, "value", None) in STAGE_ATTRS:
                lines.append(node.lineno)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
                continue
            if isinstance(t, ast.Starred):
                targets.append(t.value)
                continue
            while isinstance(t, ast.Subscript):
                t = t.value
            if isinstance(t, ast.Call) and getattr(t.func, "id", None) == \
                    "vars" and t.args and names_a_stage(t.args[0]):
                lines.append(t.lineno)
            elif isinstance(t, ast.Attribute) and owned_by_a_stage(t):
                lines.append(t.lineno)
    return sorted(lines)


def test_only_iteration_writes_a_stage():
    files = sorted(p for p in SRC.glob("**/*.py") if p.name != "iteration.py")
    assert files
    found = {str(p.relative_to(SRC)): stage_writes(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_stage_write_is_found():
    # reading a stage, writing a level's or an iteration's attribute, or a
    # class's own fields, is no write of a stage
    source = "\n".join([
        "qstage = extend_stage(prev, steps, caps)",
        "gens = level.stage.generics",
        "level.stage = qstage",
        "it.stages[2] = qstage",
        "self.poset = poset",
        "qstage.pi = pi",
        "level.stage._children[key] = level",
        "ctx.levels[beta].stage.poset = Poset(below, top)",
        "stages[k].memo, n = {}, 1",
        "it.final.combine += [0]",
        "root_stage().owner: object = ctx",
        "for stage.cursor in range(3): pass",
        "del stage.path_index",
        "setattr(qstage, 'pi', pi)",
        "delattr(level, 'gen_masks')",
        "vars(stage)['rows'] = rows",
        "level.stage.__dict__['parent'] = ()",
        "prev.generics[0] = g",
        "copy.paths = []",
    ])
    assert stage_writes(source) == list(range(6, 20))


def test_no_module_reads_the_source_algebras_view():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)):
             attribute_accesses(p.read_text(encoding="utf-8"), SOURCE_VIEW)
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_source_algebras_read_is_found():
    # defining the view is no read of it
    source = "\n".join([
        "class ProjectionContext:",
        "    @property",
        "    def source_algebras(self):",
        "        return {b: lvl.source for b, lvl in self.levels.items()}",
        "A = ctx.source_algebras[beta]",
        "for beta, A in ctx.source_algebras.items(): pass",
        "A = level.source",
        "A = ctx.levels[beta].source",
        "self.source_algebras = {}",
    ])
    assert attribute_accesses(source, SOURCE_VIEW) == [5, 6, 9]


def context_reads(source: str) -> dict[str, list[int]]:
    """Per function of ``G_FREE`` that source defines, the line numbers,
    ascending, where it names ``ProjectionContext``, ``ctx``, ``G`` or
    ``gen_index``: as a parameter, an annotation, a name or an
    attribute."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in G_FREE:
            found[node.name] = sorted({
                sub.lineno for sub in ast.walk(node)
                if (sub.arg if isinstance(sub, ast.arg) else
                    sub.id if isinstance(sub, ast.Name) else
                    sub.attr if isinstance(sub, ast.Attribute) else
                    None) in CONTEXT_READS})
    return found


def test_the_g_free_kernels_take_no_context():
    source = (SRC / "projection.py").read_text(encoding="utf-8")
    assert context_reads(source) == {f: [] for f in G_FREE}


def test_every_context_read_of_a_g_free_kernel_is_found():
    # a word in a docstring, a stage's attributes and the kernels that
    # read G are no such read
    source = "\n".join([
        "def _frown_levels(stages, ctx):",
        "    'reads no G and no ctx.gen_index'",
        "def _lemma13(astage: ProjectionContext, table, groups):",
        "    return astage.G.mask",
        "def _lemma14(astage, src, table, groups, siblings):",
        "    x = siblings[0].gen_index",
        "    y = src.generics, astage.gen_masks",
        "    return G",
        "def _lemma11(ctx, beta, table, groups, siblings):",
        "    return ctx.G",
    ])
    assert context_reads(source) == {"_frown_levels": [1],
                                     "_lemma13": [3, 4], "_lemma14": [6, 8]}


def map_writes(source: str) -> list[int]:
    """Line numbers, ascending, of the assignment targets in source that
    are an attribute named ``pi_prime`` or an item of one, alone or
    unpacked."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif isinstance(t, (ast.Starred, ast.Subscript)):
                targets.append(t.value)
            elif isinstance(t, ast.Attribute) and t.attr == "pi_prime":
                lines.append(t.lineno)
    return sorted(lines)


def test_no_module_writes_a_map():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): map_writes(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_map_write_is_found():
    # deriving or reading a map is no write of it
    source = "\n".join([
        "class QuotientLevel:",
        "    def pi_prime(self):",
        "        return {x: 0 for x in self.source.elements}",
        "img = level.pi_prime[x]",
        "h = {**level.pi_prime, b: B.zero}",
        "level.pi_prime[x] = img",
        "level.pi_prime = {}",
        "copy.pi_prime = level.pi_prime",
        "a, ctx.levels[b].pi_prime = 1, {}",
        "level.pi_prime[x] |= bit",
        "level.pi_prime: dict = {}",
        "for level.pi_prime[x] in images: pass",
    ])
    assert map_writes(source) == [6, 7, 8, 9, 10, 11, 12]


def accesses_outside(source: str, attr: str, owner: str) -> list[int]:
    """Line numbers, ascending, of the accesses in source, read or
    written, to an attribute named ``attr`` that lie in no function named
    ``owner``."""
    lines = []

    def visit(node, inside: bool):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == owner
        if isinstance(node, ast.Attribute) and node.attr == attr \
                and not inside:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


def memo_accesses(source: str) -> list[int]:
    return accesses_outside(source, "_pi_second", "pi_second")


def child_map_accesses(source: str) -> list[int]:
    return accesses_outside(source, "_children", "extend_stage")


def test_only_pi_second_touches_its_memo():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): memo_accesses(p.read_text(encoding="utf-8"))
             for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_memo_access_is_found():
    source = "\n".join([
        "class Context:",
        "    _pi_second: dict = {}",
        "    def pi_second(self, beta, name):",
        "        got = self.levels[beta]._pi_second.get(name.uid)",
        "        fill = lambda k, v: level._pi_second.update({k: v})",
        "    def audit(self, level, k, v):",
        "        level._pi_second[k] = v",
        "x = ctx.levels[2]._pi_second",
        "def pi_second_audit(m):",
        "    m._pi_second.clear()",
    ])
    assert memo_accesses(source) == [7, 8, 10]


def test_only_extend_stage_touches_the_child_map():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)): child_map_accesses(
        p.read_text(encoding="utf-8")) for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_child_map_access_is_found():
    source = "\n".join([
        "class Stage:",
        "    def _children(self):",
        "        return {}",
        "def extend_stage(prev, steps, caps):",
        "    built = prev._children.get(key)",
        "    prev._children[key] = stage",
        "def rebuild(parent, key, child):",
        "    parent._children[key] = child",
        "ids = list(root_stage()._children)",
        "def extend_stage_twice(prev):",
        "    prev._children.clear()",
    ])
    assert child_map_accesses(source) == [8, 9, 11]


# the scopes, as (class, function) or (function,), that may read the
# element certificate
ELEMENT_ROUTE = {("QuotientLevel", "hom"), ("verify_theorem2",)}


def certificate_reads(source: str) -> list[int]:
    """Line numbers, ascending, of the names and attributes
    ``certify_complete_hom`` in source that lie outside the scopes of
    ``ELEMENT_ROUTE``."""
    lines = []

    def visit(node, scope: tuple):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope += (node.name,)
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name == "certify_complete_hom" and scope not in ELEMENT_ROUTE:
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(lines)


def test_only_the_element_route_reads_the_certificate():
    files = sorted(SRC.glob("**/*.py"))
    assert files
    found = {str(p.relative_to(SRC)):
             certificate_reads(p.read_text(encoding="utf-8")) for p in files}
    assert {f: ls for f, ls in found.items() if ls} == {}


def test_every_certificate_read_is_found():
    # importing, defining or exporting the certificate is no read of it
    source = "\n".join([
        "from .boolalg import certify_complete_hom",
        "__all__ = ['certify_complete_hom']",
        "def certify_complete_hom(h, A, B): pass",
        "class QuotientLevel:",
        "    def hom(self):",
        "        return certify_complete_hom(self.pi_prime, A, B)",
        "    def onto(self):",
        "        return certify_complete_hom(self.pi_prime, A, B)",
        "def verify_theorem2(ctx, pi_prime_override=None):",
        "    hom = boolalg.certify_complete_hom(pi_prime_override, A, B)",
        "def hom(level):",
        "    return certify_complete_hom(level.pi_prime, A, B)",
        "def _lemmas_at_level(ctx):",
        "    certify = certify_complete_hom",
        "    check = functools.partial(boolalg.certify_complete_hom, h)",
        "class Other:",
        "    def hom(self):",
        "        return certify_complete_hom(self.pi_prime, A, B)",
    ])
    assert certificate_reads(source) == [8, 12, 14, 15, 18]


class Refused(AssertionError):
    """A construction that a run-time rule forbids was reached."""


def refuse(monkeypatch, owner, attr: str):
    def refused(*args, **kwargs):
        raise Refused(f"{attr} called")
    monkeypatch.setattr(owner, attr, refused)


def sweep_report_sha256(tmp_path, monkeypatch) -> str:
    """The sha256 of the acceptance sweep's report.  The run starts from a
    fresh root stage, so it builds every stage and quotient stage itself:
    the root's children that an earlier test's sweep still holds, with
    whatever lazy state (labels) that test read, are not reused."""
    fresh_root = functools.cache(iteration.root_stage.__wrapped__)
    monkeypatch.setattr(iteration, "root_stage", fresh_root)
    monkeypatch.setattr(projection, "root_stage", fresh_root)
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
    assert sweep_report_sha256(tmp_path, monkeypatch) == PINNED


def test_a_pi_second_call_builds_a_name(monkeypatch):
    ctx = make_context(two_step_antichains(), 1, 0)
    empty = Name((), ctx.source_algebras[2])
    refuse(monkeypatch, Name, "__new__")
    with pytest.raises(Refused):
        ctx.pi_second(2, empty)


def test_a_passing_run_reads_no_element_table(monkeypatch, tmp_path):
    refuse(monkeypatch, boolalg, "regular_cuts")
    assert sweep_report_sha256(tmp_path, monkeypatch) == PINNED


def test_a_planted_map_lists_the_elements(monkeypatch):
    # iterating a map planted on a copy is the element route: Theorem 2
    # certifies it on every element
    ctx = make_context(two_step_antichains(), 1, 0)
    level = ctx.final_level
    copy = replace(level)
    copy.pi_prime = level.pi_prime
    planted = replace(ctx, levels={**ctx.levels, 2: copy})
    refuse(monkeypatch, boolalg, "regular_cuts")
    with pytest.raises(Refused):
        verify_theorem2(planted)


def test_a_homomorphism_that_is_not_onto_lists_no_element(monkeypatch,
                                                          default_sweep):
    # its atom images decide the map and name the unattained element
    planted = [m for _, it in default_sweep
               for alpha in range(1, len(it))
               for gi in range(len(it.stages[alpha].generics))
               for beta in range(alpha + 1, len(it) + 1)
               for m in algebra_oracle.planted_homs(
                   make_context(it, alpha, gi).levels[beta])]
    refuse(monkeypatch, boolalg, "regular_cuts")
    missed = [m for m in planted if m.onto["counterexample"] is not None]
    assert len(planted) == 2100 and len(missed) == 1110


def test_a_passing_run_builds_no_condition_label(monkeypatch, tmp_path):
    refuse(monkeypatch, iteration, "_cond_label")
    refuse(monkeypatch, iteration, "_injection_label")
    refuse(monkeypatch, poset, "_tuple_label")
    assert sweep_report_sha256(tmp_path, monkeypatch) == PINNED


def test_reading_a_cifs_poset_label_builds_it(monkeypatch):
    refuse(monkeypatch, iteration, "_injection_label")
    refuse(monkeypatch, poset, "_tuple_label")
    collapse, _ = collapse_poset(CollapseSpec((0, 1), 2))
    product, _ = product_poset([antichain_with_top(2), collapse])
    for built in (collapse, product):
        with pytest.raises(Refused):
            built.labels


def test_a_failing_l11_reads_labels(monkeypatch):
    refuse(monkeypatch, iteration, "_cond_label")
    it = two_step_antichains()
    ctx = make_context(it, 1, 0)
    siblings = [make_context(it, 1, g).levels[2]
                for g in range(len(it.stages[1].generics))]
    (table, groups), = _frown_levels(it.stages[1:])
    assert _lemma11(ctx, 2, table, groups, siblings)[0]
    # with the top condition's s-frown row emptied, no s glues it to itself
    top = it.stages[2].poset.top
    table[top] = (table[top][0], {})
    with pytest.raises(Refused):
        _lemma11(ctx, 2, table, lemma_oracle.prefix_groups(table), siblings)
