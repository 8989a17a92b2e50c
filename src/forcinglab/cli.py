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
import sys
import time
from collections import Counter
from dataclasses import dataclass

from .config import DEFAULT_CAPS, CapExceeded, Caps
from .formula import parse_formula
from .iteration import (CifsProvider, CollapseSpec, Iteration, Stage,
                        StepContext, TableProvider, build_iteration, check_lemma1,
                        cifs_toy_iteration, collapse_poset, extend_stage)
from .poset import (PERM_MAX, Poset, PosetError, all_separative_posets,
                    validate_poset)
from .projection import (ProjectionError, factor_generic, limit_clause_skip,
                         make_context, verify_corollary15,
                         verify_lemma20_analogue, verify_projection_lemmas,
                         verify_theorem2)
from .report import SuiteReport, merge_reports

SUITES = ("lemma1", "theorem2", "projection-lemmas", "theorem16",
          "corollary15", "cifs", "all")


@dataclass
class ExperimentConfig:
    suite: str = "all"
    max_poset: int = 3
    max_stages: int = 3
    seed: int = 0
    out: str = "forcinglab-report.jsonl"
    max_stage_conditions: int = DEFAULT_CAPS.max_stage_conditions
    cifs_formulas: str = "forall z (! (z in x)); exists z (z in x)"
    cifs_ladder: str = "1:2,1:3"

    def caps(self) -> Caps:
        return DEFAULT_CAPS.with_(
            max_stages=self.max_stages,
            max_stage_conditions=self.max_stage_conditions,
        )

    def echo(self) -> dict:
        return {k: getattr(self, k) for k in (
            "suite", "max_poset", "max_stages", "seed",
            "max_stage_conditions", "cifs_formulas", "cifs_ladder")}


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


def parse_poset_text(text: str) -> Poset:
    """One `top: <id>` line, then `<id> < <id>` Hasse edges."""
    top = None
    pairs = []
    ids: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("top:"):
            top = line[4:].strip()
            if top not in ids:
                ids.append(top)
            continue
        if "<" not in line:
            raise PosetError(f"line {lineno}: expected `<id> < <id>`")
        lo, _, hi = line.partition("<")
        lo, hi = lo.strip(), hi.strip()
        for e in (lo, hi):
            if e not in ids:
                ids.append(e)
        pairs.append((lo, hi))
    if top is None:
        raise PosetError("missing `top:` line")
    return validate_poset(ids, pairs, top)


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
    """
    refs: dict[int, str] = {}
    chunks = []
    for key, poset in sorted(instance.catalog_used.items()):
        refs[key] = f"p{key}"
        chunks.append(f"[poset p{key}]")
        chunks.append(format_poset_text(poset).rstrip())
    chunks.append("[provider]")
    tables = instance.tables
    for n, table in enumerate(tables):
        chunks.append(f"stage {n}")
        for path in sorted(table, key=str):
            option = table[path]
            tag = "undef" if option is None else refs[instance.option_key[(n, path)]]
            parts = []
            for k, e in enumerate(path):
                step = tables[k].get(path[:k])
                parts.append("-" if e is None else step.labels[e])
            chunks.append(f"G:{','.join(parts)} -> {tag}")
    return "\n".join(chunks) + "\n"


def parse_provider_tables(text: str) -> TableProvider:
    posets: dict[str, Poset] = {}
    tables: list[dict] = []
    section = None
    buf: list[str] = []

    def flush():
        if section and section.startswith("poset "):
            posets[section.split()[1]] = parse_poset_text("\n".join(buf))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            section = line[1:-1]
            buf = []
            continue
        if section == "provider":
            if line.startswith("stage "):
                tables.append({})
                continue
            if not line.startswith("G:") or "->" not in line:
                raise ValueError(f"bad provider line: {line}")
            pathtxt, _, ref = line[2:].partition("->")
            labels = [e for e in pathtxt.strip().split(",") if e != ""]
            path = []
            for k, lab in enumerate(labels):
                if lab == "-":
                    path.append(None)
                    continue
                step = tables[k].get(tuple(path))
                if step is None:
                    raise ValueError(f"path through an undefined step: {line}")
                path.append(step.labels.index(lab))
            ref = ref.strip()
            tables[-1][tuple(path)] = None if ref == "undef" else posets[ref]
        else:
            buf.append(line)
    flush()
    return TableProvider(tables)


# -- instance generation ------------------------------------------------------


@dataclass
class InstanceSpec:
    instance_id: str
    tables: list[dict]
    option_key: dict
    catalog_used: dict
    partial: bool = False
    canon: tuple = ()


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
        tables = iteration.provider.tables
        canon = ("partial" if iteration.partial else "total", form)
        if canon in seen:
            return
        blob = json.dumps(canon, sort_keys=True, default=str)
        iid = "it-" + hashlib.sha256(blob.encode()).hexdigest()[:10]
        option_key = {}
        catalog_used = {}
        for n, table in enumerate(tables):
            for path, option in table.items():
                key = catalog_index[id(option)]
                option_key[(n, path)] = key
                catalog_used[key] = option
        spec = InstanceSpec(iid, tables, option_key, catalog_used,
                            iteration.partial, canon)
        seen.add(canon)
        out.append((spec, iteration))

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


def _contexts(iteration: Iteration):
    for alpha in range(1, len(iteration) + 1):
        for gi in range(len(iteration.stages[alpha].generics)):
            yield alpha, gi


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
    for alpha, gi in _contexts(iteration):
        cctx = {"alpha": alpha, "generic": gi}
        try:
            ctx = make_context(iteration, alpha, gi, caps)
        except (ProjectionError, CapExceeded) as e:
            rep.record(suite, "context-build", iid, False, cctx, {"error": str(e)})
            continue
        try:
            if suite == "theorem2":
                rep.extend(verify_theorem2(ctx, instance=iid))
            elif suite == "projection-lemmas":
                rep.extend(verify_projection_lemmas(ctx, instance=iid))
            elif suite == "corollary15":
                rep.extend(verify_corollary15(ctx, instance=iid))
        except CapExceeded as e:
            rep.skip(suite, "suite-capped", iid, cctx, {"reason": str(e)})
        except ProjectionError as e:
            rep.record(suite, "bridge", iid, False, cctx, {"error": str(e)})
    if suite == "theorem16":
        N = len(iteration)
        for alpha in range(1, N + 1):
            for gi in range(len(iteration.stages[N].generics)):
                try:
                    _, _, frep = factor_generic(iteration, alpha, gi,
                                                caps=caps, instance=iid)
                    rep.extend(frep)
                except (ProjectionError, CapExceeded) as e:
                    rep.record(suite, "factor", iid, False,
                               {"alpha": alpha, "full_generic": gi},
                               {"error": str(e)})
    return rep


def _closed_form_injection_count(n: int, m: int) -> int:
    total = 0
    for k in range(0, min(n, m - 1) + 1):
        c = 1
        for i in range(k):
            c = c * (n - i) // (i + 1)
        p = 1
        for i in range(k):
            p *= m - i
        total += c * p
    return total


def _cifs_provider(config: ExperimentConfig) -> CifsProvider:
    """The toy iteration's provider; ValueError or CapExceeded on a bad value."""
    formulas = [parse_formula(s.strip())
                for s in config.cifs_formulas.split(";") if s.strip()]
    rungs = [part.partition(":") for part in config.cifs_ladder.split(",")]
    try:
        ladder = [(int(r), int(m)) for r, _, m in rungs]
    except ValueError:
        raise ValueError(f"cifs ladder {config.cifs_ladder!r} is not rank:m,...") from None
    return cifs_toy_iteration(formulas, ladder, config.caps())


def check_config(config: ExperimentConfig) -> None:
    """Reject bad option values before any suite runs."""
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite}")
    if not 0 <= config.max_poset <= PERM_MAX:
        raise ValueError(
            f"max_poset must be in 0..{PERM_MAX}, got {config.max_poset}")
    if config.max_stages < 0:
        raise ValueError(f"max_stages must be >= 0, got {config.max_stages}")
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
    iteration = build_iteration(_cifs_provider(config), caps, allow_partial=True)
    if iteration.partial:
        rep.skip("cifs", "iteration-partial", "cifs", {},
                 {"reason": "stage cap aborted the toy iteration"})
    rep.extend(check_lemma1(iteration, "cifs"))
    for gi in range(len(iteration.final.generics)):
        rep.extend(verify_lemma20_analogue(iteration, gi, "cifs"))
    # generic factorization through the toy iteration as well
    if len(iteration) >= 2 and not iteration.partial:
        for gi in range(len(iteration.final.generics)):
            try:
                _, _, frep = factor_generic(iteration, 1, gi, caps=caps,
                                            instance="cifs")
                rep.extend(frep)
            except (ProjectionError, CapExceeded) as e:
                rep.record("cifs", "factor", "cifs", False,
                           {"full_generic": gi}, {"error": str(e)})
    # stage-dependence probe: a debris-admitting rung must see the collapse
    rep.extend(cifs_dependence_probe(caps))
    return rep


def cifs_dependence_probe(caps: Caps, instance: str = "cifs") -> SuiteReport:
    """Build both stage-1 tables of a debris-admitting ladder and compare:
    the witnessed structure must differ between the stage-0 generics."""
    rep = SuiteReport()
    psi = parse_formula(
        "exists y (y in x) & forall y (y in x -> exists z (z in y & exists w (w in z)))")
    provider = cifs_toy_iteration([psi], [(1, 2), (6, 3)], caps)
    iteration = build_iteration(
        provider, caps.with_(max_stage_conditions=16), allow_partial=True)
    stage = iteration.stages[1]
    infos = []
    for gi in range(len(stage.generics)):
        provider.step(1, StepContext(stage, gi, stage.paths[gi]))
        infos.append(provider.info[(1, stage.paths[gi])])
    structures = {tuple(h.code for h in info.structure) for info in infos}
    witnesses = {info.witnesses[0] for info in infos}
    rep.record("cifs", "tables-differ-between-generics", instance,
               len(structures) > 1 and len(witnesses) > 1, {},
               {"structure_sizes": [len(i.structure) for i in infos],
                "witness_is_generic_encoding": all(
                    w is not None for w in witnesses)})
    return rep


# -- run / replay -------------------------------------------------------------


def execute(config: ExperimentConfig) -> tuple[SuiteReport, dict]:
    t0 = time.time()
    suites = [config.suite] if config.suite != "all" else \
        ["lemma1", "theorem2", "projection-lemmas", "theorem16", "corollary15", "cifs"]
    reports = []
    census = {"instances": 0, "partial_instances": 0, "contexts": 0}
    table_suites = [s for s in suites if s != "cifs"]
    failing_payloads: dict[str, str] = {}
    if table_suites:
        instances = generate_instances(config)
        census["instances"] = len(instances)
        # a partial instance keeps its parent's stages, so the capped table
        # assignments below one prefix share a canonical form: this counts
        # distinct partial prefixes, not capped assignments
        census["partial_instances"] = sum(1 for s, _ in instances if s.partial)
        census["contexts"] = sum(
            len(it.stages[a].generics)
            for _, it in instances for a in range(1, len(it) + 1))
        for spec, iteration in instances:
            reports.extend(run_suite(s, spec, iteration, config) for s in table_suites)
            # contexts are only reused within one instance
            iteration.context_cache.clear()
        by_id = {spec.instance_id: spec for spec, _ in instances}
        for rep in reports:
            for c in rep.failures:
                spec = by_id.get(c.instance)
                if spec is not None:
                    failing_payloads[c.instance] = format_provider_tables(spec)
        if "projection-lemmas" in table_suites and instances:
            reports.append(limit_clause_skip())
    if "cifs" in suites:
        reports.append(run_cifs_suite(config))
    merged = merge_reports(reports)
    meta = {
        "config": config.echo(),
        "census": census,
        "counts": merged.counts(),
        "counterexamples": sorted(
            c.counterexample_id for c in merged.failures),
        "payloads": failing_payloads,
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    return merged, meta


def write_report(report: SuiteReport, meta: dict, out_path: str):
    lines = [json.dumps({"kind": "meta",
                         "config": meta["config"],
                         "census": meta["census"]},
                        sort_keys=True, separators=(",", ":"))]
    lines.append(report.to_jsonl())
    for iid in sorted(meta.get("payloads", {})):
        lines.append(json.dumps({"kind": "instance", "instance": iid,
                                 "tables": meta["payloads"][iid]},
                                sort_keys=True, separators=(",", ":")))
    lines.append(json.dumps({"kind": "summary",
                             "counts": meta["counts"],
                             "counterexamples": meta["counterexamples"]},
                            sort_keys=True, separators=(",", ":")))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(line for line in lines if line) + "\n")


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
        for key, value in read_config_file(args.config).items():
            if not hasattr(config, key):
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
        return 0 if not report.failures else 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
