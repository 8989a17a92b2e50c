"""Experiment runner: instance sweeps, suite selection, replay, reports.

    forcinglab run --suite <name> --max-poset <n> --max-stages <n>
                   --seed <n> --out <path> [--config <file>]
    forcinglab replay <counterexample-id> --out <path> [same bounds flags]

Suites: lemma1, theorem2, projection-lemmas, theorem16, corollary15, cifs,
all.  A run is deterministic for a fixed (config, seed): the machine-readable
report (line-delimited JSON records, sorted) is bit-identical across repeats;
timing and the count of each distinct skip reason appear only in the human
summary on stdout.  Exit code 0 means every executed check passed, 1 means
counterexamples, 2 means usage or IO errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from collections import Counter

from .config import DEFAULT_CAPS, CapExceeded, Caps, fields
from .formula import parse_formula
from .iteration import (CifsProvider, CollapseSpec, Iteration, Stage,
                        TableProvider, build_iteration, check_lemma1,
                        cifs_dependence_probe, collapse_poset, extend_stage,
                        verify_lemma20_analogue)
from .poset import (PERM_MAX, Poset, PosetError, all_separative_posets,
                    validate_poset)
from .projection import (ProjectionError, factor_generic, limit_clause_skip,
                         make_context, verify_corollary15,
                         verify_projection_lemmas, verify_theorem2)
from .report import SuiteReport, encode_line

# the last, "all", runs every suite before it
SUITES = ("lemma1", "theorem2", "projection-lemmas", "theorem16",
          "corollary15", "cifs", "all")


class ExperimentConfig:
    def __init__(self, suite: str = "all", max_poset: int = 3,
                 max_stages: int = 3, seed: int = 0,
                 out: str = "forcinglab-report.jsonl",
                 max_stage_conditions: int = DEFAULT_CAPS.max_stage_conditions,
                 cifs_formulas: str = "forall z (! (z in x)); exists z (z in x)",
                 cifs_ladder: str = "1:2,1:3"):
        self.suite = suite
        self.max_poset = max_poset
        self.max_stages = max_stages
        self.seed = seed
        self.out = out
        self.max_stage_conditions = max_stage_conditions
        self.cifs_formulas = cifs_formulas
        self.cifs_ladder = cifs_ladder

    def caps(self) -> Caps:
        return DEFAULT_CAPS.with_(
            max_stages=self.max_stages,
            max_stage_conditions=self.max_stage_conditions,
        )

    def echo(self) -> dict:
        """Every field but ``out``: the config a report's meta line records."""
        return {k: getattr(self, k) for k in fields(ExperimentConfig) if k != "out"}


def read_config_file(path: str) -> dict:
    """Plain key-value format mirroring the flags: `key = value` per line,
    `#` comments."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# -- poset and provider text formats ----------------------------------------


def parse_poset_text(text: str, first_line: int = 1, where: str = "") -> Poset:
    """One `top: <id>` line, then `<id> < <id>` Hasse edges; an empty id,
    a line with other than one `<` and a second `top:` line are errors
    that name the line, counted from ``first_line``, then ``where``.  With
    a ``where``, an error of the whole text names the line before it."""
    top = None
    pairs = []
    ids: list[str] = []
    for lineno, line in enumerate(text.splitlines(), first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("top:"):
            if top is not None:
                raise PosetError(f"line {lineno}{where}: a second `top:` line")
            top = line[4:].strip()
            ends = [top]
        else:
            ends = [e.strip() for e in line.split("<")]
            if len(ends) != 2:
                raise PosetError(f"line {lineno}{where}: expected `<id> < <id>`")
            pairs.append(tuple(ends))
        if "" in ends:
            raise PosetError(f"line {lineno}{where}: empty element id")
        for e in ends:
            if e not in ids:
                ids.append(e)
    try:
        if top is None:
            raise PosetError("missing `top:` line")
        return validate_poset(ids, pairs, top)
    except PosetError as e:
        if not where:
            raise
        raise PosetError(f"line {first_line - 1}{where}: {e}") from None


def format_poset_text(poset: Poset) -> str:
    lines = [f"top: {poset.labels[poset.top]}"]
    for p in range(poset.n):
        for q in range(poset.n):
            # Hasse edges only: p < q with nothing strictly between
            if p == q or not poset.leq(p, q):
                continue
            between = poset.above[p] & poset.below[q] & ~(1 << p) & ~(1 << q)
            if not between:
                lines.append(f"{poset.labels[p]} < {poset.labels[q]}")
    return "\n".join(lines) + "\n"


def format_provider_tables(instance: "InstanceSpec") -> str:
    """`G:<atom-path> -> <poset-ref | undef>` lines per stage, with the
    referenced posets serialized once up front.

    Path entries are element labels of the step poset at the corresponding
    earlier stage, so the text survives the reindexing a reparse causes.
    A poset's ref is its index in the step catalog, found by canonical key.
    """
    tables = instance.tables
    used = [q for table in tables for q in table.values() if q is not None]
    catalog = _step_catalog(max((q.n for q in used), default=0))
    index = {q.canonical_key(): i for i, q in enumerate(catalog) if q is not None}
    posets = {index[q.canonical_key()]: q for q in used}
    chunks = []
    for ref in sorted(posets):
        chunks.append(f"[poset p{ref}]")
        chunks.append(format_poset_text(posets[ref]).rstrip())
    chunks.append("[provider]")
    for n, table in enumerate(tables):
        chunks.append(f"stage {n}")
        for path in sorted(table, key=str):
            option = table[path]
            tag = "undef" if option is None else f"p{index[option.canonical_key()]}"
            parts = []
            for k, e in enumerate(path):
                step = tables[k].get(path[:k])
                parts.append("-" if e is None else step.labels[e])
            chunks.append(f"G:{','.join(parts)} -> {tag}")
    return "\n".join(chunks) + "\n"


def parse_provider_tables(text: str) -> TableProvider:
    """The provider of a `[poset <ref>]` ... `[provider]` payload.  Every
    error is a ValueError that names the payload line, and the section of
    a line inside one; a repeated section and a repeated path in one stage
    are errors."""
    sections: dict[str, tuple[int, list[str]]] = {}
    body = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            name = " ".join(line[1:-1].split())
            if name != "provider" and (len(name.split()) != 2
                                       or name.split()[0] != "poset"):
                raise ValueError(f"line {lineno}: unknown section: {line}")
            if name in sections:
                raise ValueError(f"line {lineno}: a second section: {line}")
            body = []
            sections[name] = lineno, body
        elif body is not None:
            body.append(line)
        elif line:
            raise ValueError(f"line {lineno}: line before any section: {line}")
    posets: dict[str, Poset] = {}
    for name, (header, body) in sections.items():
        if name != "provider":
            posets[name.split()[1]] = parse_poset_text(
                "\n".join(body), header + 1, f" in [{name}]")
    header, body = sections.get("provider", (0, []))
    tables: list[dict] = []
    for lineno, line in enumerate(body, header + 1):

        def bad(what: str) -> ValueError:
            return ValueError(f"line {lineno} in [provider]: {what}: {line}")

        if not line:
            continue
        if line.startswith("stage "):
            if line != f"stage {len(tables)}":
                raise bad(f"expected stage {len(tables)}")
            tables.append({})
            continue
        if not line.startswith("G:") or "->" not in line:
            raise bad("bad provider line")
        if not tables:
            raise bad("provider line before any stage line")
        pathtxt, _, ref = line[2:].partition("->")
        labels = [e for e in pathtxt.strip().split(",") if e != ""]
        if len(labels) != len(tables) - 1:
            raise bad(f"path of {len(labels)} entries at stage {len(tables) - 1}")
        path = []
        for k, lab in enumerate(labels):
            if lab == "-":
                path.append(None)
                continue
            step = tables[k].get(tuple(path))
            if step is None:
                raise bad("path through an undefined step")
            if lab not in step.labels:
                raise bad(f"no element {lab!r} in its step poset")
            path.append(step.labels.index(lab))
        ref = ref.strip()
        if ref != "undef" and ref not in posets:
            raise bad(f"unknown poset {ref!r}")
        if tuple(path) in tables[-1]:
            raise bad(f"a second line for this path in stage {len(tables) - 1}")
        tables[-1][tuple(path)] = None if ref == "undef" else posets[ref]
    return TableProvider(tables)


# -- instance generation ------------------------------------------------------


class InstanceSpec:
    def __init__(self, instance_id: str, tables: list[dict],
                 partial: bool = False, canon: tuple = ()):
        self.instance_id = instance_id
        self.tables = tables
        self.partial = partial
        self.canon = canon


def _step_catalog(max_poset: int) -> list[Poset | None]:
    return [None] + list(all_separative_posets(max_poset))


def _tree_level(stage: Stage, child: Stage, table: dict,
                catalog_index: dict) -> tuple:
    """One level of a provider behavior tree: per generic of ``stage``, the
    label of its step and where its children sit among ``child``'s
    generics.  An undefined or one-point step has one child, the generic
    that extends it by no tail; any other step has one child per atom,
    listed once per distinct arrangement of the atoms under the step
    poset's automorphisms."""
    level = []
    for path in stage.paths:
        q = table.get(path)
        label = "U" if q is None else f"q{catalog_index[id(q)]}"
        if q is None or q.n == 1:
            level.append((label, child.path_index[path + (None,)]))
            continue
        kids = {a: child.path_index[path + (a,)] for a in q.atoms}
        arrangements = dict.fromkeys(tuple(kids[sigma[a]] for a in q.atoms)
                                     for sigma in q.automorphisms())
        level.append((label, tuple(arrangements)))
    return tuple(level)


def _fold(levels: list[tuple], forms: list[tuple]) -> tuple:
    """The root's form from the forms of the generics below the last of
    ``levels``: a node's form is its label with its one child's form, or
    with the least arrangement of its children's forms."""
    for level in reversed(levels):
        forms = [(label, forms[kids]) if type(kids) is int else
                 (label, min(tuple(forms[i] for i in arrangement)
                             for arrangement in kids))
                 for label, kids in level]
    return forms[0]


def generate_instances(config: ExperimentConfig) -> list[tuple[InstanceSpec, Iteration]]:
    """Deterministic isomorph-reduced stream of providers within the bounds:
    every separative step poset within size, every table, every stage count
    up to the bound, each extending its parent's final stage by one stage.
    Instances come in instance-id order; the seed plays no part.

    Isomorphs are rejected at every depth, before a stage is built
    (canonical augmentation: McKay, "Isomorph-free exhaustive generation",
    1998).  Below each kept parent, the table assignments run in product
    order, and each one's tree form is folded from the parent's tree levels
    and the forms its options give the new generics.  Only the first
    assignment of each form is built, so each class of child trees is
    extended once.  Children of distinct kept parents are never isomorphic,
    since a child tree cut at its parent's depth is the parent's tree.  So
    the kept representative of each class is the first one a search over
    every assignment would reach, and ids, tables and census are those of
    that search.  The first capped assignment in product order is the first
    of its class, since a cap depends only on the class; it stands for the
    parent's partial instance.  ``seen`` is the safety net: it drops any
    repeated final form."""
    caps = config.caps()
    catalog = _step_catalog(config.max_poset)
    catalog_index = {id(p): i for i, p in enumerate(catalog) if p is not None}
    # a final-stage generic's form under each option: its children are leaves
    leaf_forms = [("U" if q is None else f"q{i}",
                   () if q is None or q.n == 1 else ((),) * len(q.atoms))
                  for i, q in enumerate(catalog)]
    seen: set[tuple] = set()
    out: list[tuple[InstanceSpec, Iteration]] = []

    def record(iteration: Iteration, form: tuple):
        canon = ("partial" if iteration.partial else "total", form)
        if canon in seen:
            return
        blob = json.dumps(canon, sort_keys=True, default=str)
        iid = "it-" + hashlib.sha256(blob.encode()).hexdigest()[:10]
        seen.add(canon)
        out.append((InstanceSpec(iid, iteration.provider.tables,
                                 iteration.partial, canon), iteration))

    def rec(iteration: Iteration, levels: list[tuple], form: tuple):
        """Record or extend the first child of each class below a parent
        whose tree has these levels and this form."""
        tables = iteration.provider.tables
        stage = iteration.final
        last = len(tables) + 1 == config.max_stages
        classes: set[tuple] = set()
        for assignment in itertools.product(range(len(catalog)),
                                            repeat=len(stage.generics)):
            child_form = _fold(levels, [leaf_forms[c] for c in assignment])
            if child_form in classes:
                continue
            classes.add(child_form)
            steps = [catalog[c] for c in assignment]
            table = {path: q for path, q in zip(stage.paths, steps)
                     if q is not None}
            provider = TableProvider(tables + [table])
            try:
                child = extend_stage(stage, steps, caps)
            except CapExceeded:
                record(Iteration(list(iteration.stages), provider, caps,
                                 partial=True), form)
                continue
            grown = Iteration(iteration.stages + [child], provider, caps)
            if last:
                record(grown, child_form)
            else:
                rec(grown, levels + [_tree_level(stage, child, table,
                                                 catalog_index)],
                    child_form)

    root = build_iteration(TableProvider([]), caps)
    if config.max_stages == 0:
        record(root, ())
    else:
        rec(root, [], ())
    out.sort(key=lambda pair: pair[0].instance_id)
    return out


# -- suite drivers ------------------------------------------------------------


def run_unit(suite: str, instance: str, context: dict, build,
             verify=None) -> SuiteReport:
    """The records of one verification unit, the one place where the CLI's
    cap-and-error policy lives: a cap is a labeled skip, never a
    counterexample, and a ProjectionError one failed record.  ``build()``
    makes the unit's context, capped as `context-capped` and failed as
    `context-build`, and ``verify(ctx)`` returns its records (`suite-capped`,
    `bridge`); with no ``verify``, ``build()`` is a factorization returning
    its records (`context-capped`, `factor`)."""
    rep = SuiteReport()
    built = False
    try:
        unit = build()
        built = True
        rep.extend(unit if verify is None else verify(unit))
    except CapExceeded as e:
        rep.skip(suite, "suite-capped" if built else "context-capped",
                 instance, context, {"reason": str(e)})
    except ProjectionError as e:
        check = "bridge" if built else "context-build" if verify else "factor"
        rep.record(suite, check, instance, False, context, {"error": str(e)})
    return rep


def run_suite(suite: str, spec: InstanceSpec, iteration: Iteration,
              config: ExperimentConfig) -> SuiteReport:
    caps = config.caps()
    rep = SuiteReport()
    iid = spec.instance_id
    if spec.partial:
        rep.skip(suite, "instance-partial", iid, {},
                 {"reason": "stage cap aborted the tail of this instance"})
    if suite == "lemma1":
        rep.extend(check_lemma1(iteration, iid))
        return rep
    N = len(iteration)
    if suite == "theorem16":
        for alpha in range(1, N + 1):
            for gi in range(len(iteration.stages[N].generics)):
                rep.extend(run_unit(
                    suite, iid, {"alpha": alpha, "full_generic": gi},
                    lambda: factor_generic(iteration, alpha, gi, caps=caps,
                                           instance=iid)[2]))
        return rep
    verify = {"theorem2": verify_theorem2, "corollary15": verify_corollary15,
              "projection-lemmas": verify_projection_lemmas}[suite]
    for alpha in range(1, N + 1):
        for gi in range(len(iteration.stages[alpha].generics)):
            rep.extend(run_unit(
                suite, iid, {"alpha": alpha, "generic": gi},
                lambda: make_context(iteration, alpha, gi, caps),
                lambda ctx: verify(ctx, instance=iid)))
    return rep


def _closed_form_injection_count(n: int, m: int) -> int:
    """The partial injections of size < m from n points into m values."""
    return sum(math.comb(n, k) * math.perm(m, k)
               for k in range(min(n, m - 1) + 1))


def _cifs_provider(config: ExperimentConfig) -> CifsProvider:
    """The toy iteration's provider; ValueError or CapExceeded on a bad value."""
    formulas = [parse_formula(s.strip())
                for s in config.cifs_formulas.split(";") if s.strip()]
    rungs = [part.partition(":") for part in config.cifs_ladder.split(",")]
    try:
        ladder = [(int(r), int(m)) for r, _, m in rungs]
    except ValueError:
        raise ValueError(f"cifs ladder {config.cifs_ladder!r} is not rank:m,...") from None
    return CifsProvider(formulas, ladder)


def check_config(config: ExperimentConfig) -> None:
    """Reject bad option values before any suite runs."""
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite}")
    if not 0 <= config.max_poset <= PERM_MAX:
        raise ValueError(
            f"max_poset must be in 0..{PERM_MAX}, got {config.max_poset}")
    if config.max_stages < 0:
        raise ValueError(f"max_stages must be >= 0, got {config.max_stages}")
    if config.max_stage_conditions < 1:
        raise ValueError("max_stage_conditions must be >= 1, "
                         f"got {config.max_stage_conditions}")
    _cifs_provider(config)


def run_cifs_suite(config: ExperimentConfig) -> SuiteReport:
    caps = config.caps()
    rep = SuiteReport()
    # collapse counts against the closed form
    for n in range(0, 4):
        for m in range(1, 5):
            poset, _ = collapse_poset(CollapseSpec(tuple(range(n)), m))
            want = _closed_form_injection_count(n, m)
            rep.record("cifs", f"collapse-count-{n}-{m}", "cifs",
                       poset.n == want, {}, {"got": poset.n, "want": want})
    # stage-dependence probe: a debris-admitting rung must see the collapse
    rep.extend(cifs_dependence_probe())
    try:
        iteration = build_iteration(_cifs_provider(config), caps,
                                    allow_partial=True)
    except CapExceeded as e:
        # a ladder above --max-stages: the cap aborts the toy iteration only
        rep.skip("cifs", "iteration-capped", "cifs", {}, {"reason": str(e)})
        return rep
    if iteration.partial:
        rep.skip("cifs", "iteration-partial", "cifs", {},
                 {"reason": "stage cap aborted the toy iteration"})
    rep.extend(check_lemma1(iteration, "cifs"))
    for gi in range(len(iteration.final.generics)):
        rep.extend(verify_lemma20_analogue(iteration, gi, "cifs"))
    # generic factorization through the toy iteration as well
    if len(iteration) >= 2 and not iteration.partial:
        for gi in range(len(iteration.final.generics)):
            rep.extend(run_unit(
                "cifs", "cifs", {"full_generic": gi},
                lambda: factor_generic(iteration, 1, gi, caps=caps,
                                       instance="cifs")[2]))
    return rep


# -- run / replay -------------------------------------------------------------


def execute(config: ExperimentConfig) -> tuple[SuiteReport, dict]:
    t0 = time.time()
    suites = SUITES[:-1] if config.suite == "all" else (config.suite,)
    report = SuiteReport()
    table_suites = [s for s in suites if s != "cifs"]
    instances = generate_instances(config) if table_suites else []
    census = {
        "instances": len(instances),
        # a partial instance keeps its parent's stages, so the capped table
        # assignments below one prefix share a canonical form: this counts
        # distinct partial prefixes, not capped assignments
        "partial_instances": sum(1 for s, _ in instances if s.partial),
        "contexts": sum(len(it.stages[a].generics)
                        for _, it in instances for a in range(1, len(it) + 1)),
    }
    for spec, iteration in instances:
        for s in table_suites:
            report.extend(run_suite(s, spec, iteration, config))
        # contexts are only reused within one instance
        iteration.context_cache.clear()
    if "projection-lemmas" in table_suites and instances:
        report.extend(limit_clause_skip())
    if "cifs" in suites:
        report.extend(run_cifs_suite(config))
    by_id = {spec.instance_id: spec for spec, _ in instances}
    failures = report.failures
    meta = {
        "config": config.echo(),
        "census": census,
        "counts": report.counts(),
        "counterexamples": sorted(c.counterexample_id for c in failures),
        "payloads": {c.instance: format_provider_tables(by_id[c.instance])
                     for c in failures if c.instance in by_id},
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    return report, meta


def write_report(report: SuiteReport, meta: dict, out_path: str):
    """The meta line, the check lines, one line per failing instance's
    payload and the summary line, each written as it is encoded."""
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(encode_line({"kind": "meta", "config": meta["config"],
                              "census": meta["census"]}) + "\n")
        fh.writelines(line + "\n" for line in report.to_jsonl())
        for iid in sorted(meta.get("payloads", {})):
            fh.write(encode_line({"kind": "instance", "instance": iid,
                                  "tables": meta["payloads"][iid]}) + "\n")
        fh.write(encode_line({"kind": "summary", "counts": meta["counts"],
                              "counterexamples": meta["counterexamples"]}) + "\n")


def human_summary(report: SuiteReport, meta: dict) -> str:
    counts = meta["counts"]
    rows: dict[str, dict] = {}
    skips: Counter = Counter()
    for c in report.checks:
        row = rows.setdefault(c.suite, {"pass": 0, "fail": 0, "skip": 0})
        row[c.status] += 1
        if c.status == "skip":
            skips[c.suite, c.check, str(c.detail.get("reason", ""))] += 1
    width = max((len(s) for s in rows), default=5)
    lines = [f"{'suite'.ljust(width)}  pass  fail  skip"]
    for s in sorted(rows):
        r = rows[s]
        lines.append(f"{s.ljust(width)}  {r['pass']:4d}  {r['fail']:4d}  {r['skip']:4d}")
    lines.append("")
    lines.append(f"instances: {meta['census']['instances']} "
                 f"(partial: {meta['census']['partial_instances']}), "
                 f"contexts: {meta['census']['contexts']}")
    lines.append(f"total: {counts['pass']} pass, {counts['fail']} fail, "
                 f"{counts['skip']} skip in {meta['elapsed_seconds']}s")
    for (suite, check, reason), n in sorted(skips.items()):
        lines.append(f"skipped {n}x {suite} {check}: {reason}")
    if meta["counterexamples"]:
        lines.append("counterexamples: " + ", ".join(meta["counterexamples"]))
    return "\n".join(lines)


def replay(config: ExperimentConfig, cex_id: str) -> int:
    report, _ = execute(config)
    hits = [c for c in report.checks if c.counterexample_id == cex_id]
    if not hits:
        print(f"error: id {cex_id} not found in this configuration", file=sys.stderr)
        return 2
    lines = [c.to_json() for c in hits]
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for c in hits:
        print(c.to_json())
    return 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forcinglab",
        description="exhaustive finite-forcing verification sweeps")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value file mirroring the flags")
        p.add_argument("--suite", choices=SUITES)
        p.add_argument(
            "--max-poset", type=int, dest="max_poset",
            help=f"largest step poset, 0..{PERM_MAX}.  {PERM_MAX} is the cap "
                 "of the canonical-form search, not a bound on what finishes: "
                 "with --max-stages 1, 7 takes about 2 s and 8 did not "
                 "finish in 40 s")
        p.add_argument("--max-stages", type=int, dest="max_stages")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--max-stage-conditions", type=int, dest="max_stage_conditions")
        p.add_argument("--cifs-formulas", dest="cifs_formulas")
        p.add_argument("--cifs-ladder", dest="cifs_ladder")

    runp = sub.add_parser("run", help="run a verification sweep")
    add_common(runp)
    repp = sub.add_parser("replay", help="re-run one counterexample by id")
    repp.add_argument("id")
    add_common(repp)
    return ap


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    if getattr(args, "config", None):
        known = fields(ExperimentConfig)
        for key, value in read_config_file(args.config).items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            current = getattr(config, key)
            setattr(config, key, type(current)(value) if not isinstance(current, str)
                    else value)
    for key in config.echo():
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "out", None):
        config.out = args.out
    return config


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        config = _config_from(args)
        check_config(config)
    except (ValueError, OSError, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.command == "replay":
            return replay(config, args.id)
        report, meta = execute(config)
        write_report(report, meta, config.out)
        print(human_summary(report, meta))
        return 1 if meta["counterexamples"] else 0
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
