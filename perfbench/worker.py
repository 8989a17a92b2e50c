"""One benchmark process: set up, run one workload's timed section, report.

    python3 perfbench/worker.py --workload <name> --seed <n> --seconds <s>
                                [--setup-only] [--trace] [--known-bad]

The worker prints `ready` once forcinglab is imported, the instances are
generated and the slice is chosen; run.py times set-up from the spawn to
that line.  A cli-all-s2 worker runs the CLI in-process and prints `done`
when it returns; run.py times the run from the spawn to that line.  The
host-speed sampler (hostspeed.py) runs for the whole life of the worker,
and the result reports its factor over each timed stretch.  The last stdout
line is a JSON result.  The library is imported from the `src/` directory of
the checkout holding this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import traceback
from collections import defaultdict

from hostspeed import HostSpeed, clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

S3_WORKLOADS = ("lemmas-s3", "theorem2-s3", "factor-s3")
WORKLOADS = S3_WORKLOADS + ("cli-all-s2",)

GEN_SEED = 1   # generation seed of the acceptance sweep; the slice seed is separate
RANK = 2       # the CLI's default --max-rank

# Slice members verified per second of timed work (full-sweep costs on a
# 2-core x86 box, Python 3.11): contexts below the final stage (434 in the
# 100-instance acceptance sweep) for lemmas-s3 and theorem2-s3, instances
# for factor-s3.  A slice holds seconds * rate of them, so one run measures
# about --seconds.
RATE = {"lemmas-s3": 434 / 152.0, "theorem2-s3": 434 / 35.4,
        "factor-s3": 100 / 130.0}

# A unit's host-speed factor averages the samples from this many seconds
# before it starts to this many after it ends.
LOCAL_S = 0.1

# The CLI suites whose checks each workload runs.
SUITES = {"lemmas-s3": ("projection-lemmas",), "theorem2-s3": ("theorem2", "corollary15"),
          "factor-s3": ("theorem16",)}

# Workloads whose units are single contexts, each verified from a cold
# context cache so that its cost does not depend on the other units drawn.
CONTEXT_WORKLOADS = ("lemmas-s3", "theorem2-s3")


def import_forcinglab():
    if not os.path.isfile(os.path.join(SRC, "forcinglab", "__init__.py")):
        raise SystemExit(f"error: no forcinglab sources under {SRC}")
    sys.path.insert(0, SRC)
    import forcinglab.cli
    if not os.path.abspath(forcinglab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: forcinglab imported from {forcinglab.cli.__file__}")
    return forcinglab.cli


def slice_size(workload: str, seconds: int) -> int:
    return max(6, round(seconds * RATE[workload]))


def choose_units(workload: str, instances: list, seconds: int, seed: int) -> list[tuple]:
    """The seeded slice of one workload, as (spec, iteration, alpha, generic)
    units in the sweep's own order."""
    k = slice_size(workload, seconds)
    if workload in CONTEXT_WORKLOADS:
        return context_slice(instances, k, seed)
    return factor_units(instance_slice(instances, k, seed))


def instance_slice(instances: list, k: int, seed: int) -> list:
    """k instances, stratified by final-stage size measured in generics;
    inside a stratum ordered by context count and condition count."""
    chosen = stratified(
        range(len(instances)), k, random.Random(seed),
        stratum=lambda pos: len(instances[pos][1].final.generics),
        order=lambda pos: (n_contexts(instances[pos][1]),
                           instances[pos][1].final.poset.n,
                           instances[pos][0].instance_id))
    return [instances[pos] for pos in sorted(chosen)]


def context_slice(instances: list, k: int, seed: int) -> list[tuple]:
    """k contexts below the final stage, stratified by (alpha, final-stage
    condition count); inside a stratum ordered by the number of later-stage
    conditions whose alpha-prefix lies in G, a proxy for the quotient size
    (rank correlation with lemma-check cost ~0.95).

    One 63-condition instance alone costs ~11 s of lemma checks, so whole
    instances are too coarse a unit of choice for a steady slice.  Contexts
    at the final stage have no quotient level (the lemma suite only labels
    the limit clause there, Theorem 2 and Corollary 15 emit nothing) and
    are left out.
    """
    from forcinglab.iteration import trim

    population = []
    for pos, (spec, it) in enumerate(instances):
        for alpha, gi in contexts(it):
            if alpha == len(it):
                continue
            G, stage = it.stages[alpha].generics[gi], it.stages[alpha]
            above = sum(
                (G.mask >> stage.cond_index(trim(cond[:alpha]))) & 1
                for beta in range(alpha + 1, len(it) + 1)
                for cond in it.stages[beta].conditions)
            population.append((pos, alpha, gi, it.final.poset.n, above, spec.instance_id))
    chosen = stratified(population, k, random.Random(seed),
                        stratum=lambda c: (c[1], c[3]), order=lambda c: (c[4], c[5], c[2]))
    return [(*instances[pos], alpha, gi) for pos, alpha, gi, *_ in sorted(chosen)]


def stratified(items, k: int, rng: random.Random, stratum, order) -> list:
    """k items by stratified systematic sampling.

    Each stratum gets its proportional share of k (largest remainder, ties
    to the larger stratum), so every seed has the same mix of strata.  Inside
    a stratum, items are sorted by order, cut into equal consecutive groups,
    and the RNG picks one item per group.
    """
    items = list(items)
    if k >= len(items):
        return items
    strata: dict = defaultdict(list)
    for item in items:
        strata[stratum(item)].append(item)
    n = len(items)
    quota = {key: k * len(v) / n for key, v in strata.items()}
    alloc = {key: int(q) for key, q in quota.items()}
    spare = k - sum(alloc.values())
    for key in sorted(strata, key=lambda s: (alloc[s] - quota[s], -len(strata[s]), s))[:spare]:
        alloc[key] += 1
    chosen = []
    for key in sorted(strata):
        members = sorted(strata[key], key=order)
        m = alloc[key]
        chosen += [members[rng.randrange(g * len(members) // m, (g + 1) * len(members) // m)]
                   for g in range(m)]
    return chosen


def n_contexts(iteration) -> int:
    return sum(len(iteration.stages[a].generics) for a in range(1, len(iteration) + 1))


def contexts(iteration):
    for alpha in range(1, len(iteration) + 1):
        for gi in range(len(iteration.stages[alpha].generics)):
            yield alpha, gi


def factor_units(chosen: list) -> list[tuple]:
    """(spec, iteration, alpha, final generic) for every factor_generic call
    on the chosen instances."""
    units = []
    for spec, it in chosen:
        N = len(it)
        units += [(spec, it, alpha, gi) for alpha in range(1, N + 1)
                  for gi in range(len(it.stages[N].generics))]
    return units


def run_unit(workload: str, unit: tuple, caps, fl) -> "fl.report.SuiteReport":
    """One unit, with the error handling of `forcinglab.cli.run_suite`."""
    spec, it, alpha, gi = unit
    iid = spec.instance_id
    rep = fl.report.SuiteReport()
    if workload == "factor-s3":
        try:
            _, _, frep = fl.projection.factor_generic(it, alpha, gi, caps=caps,
                                                      instance=iid, rank=RANK)
            rep.extend(frep)
        except (fl.projection.ProjectionError, fl.config.CapExceeded) as e:
            rep.record("theorem16", "factor", iid, False,
                       {"alpha": alpha, "full_generic": gi}, {"error": str(e)})
        return rep
    suite = SUITES[workload][0]
    cctx = {"alpha": alpha, "generic": gi}
    try:
        ctx = fl.projection.make_context(it, alpha, gi, caps)
    except (fl.projection.ProjectionError, fl.config.CapExceeded) as e:
        rep.record(suite, "context-build", iid, False, cctx, {"error": str(e)})
        return rep
    try:
        if workload == "lemmas-s3":
            rep.extend(fl.projection.verify_projection_lemmas(ctx, instance=iid, rank=RANK))
        else:
            rep.extend(fl.projection.verify_theorem2(ctx, instance=iid, rank=RANK))
            rep.extend(fl.projection.verify_corollary15(ctx, instance=iid))
    except fl.config.CapExceeded as e:
        rep.skip(suite, "suite-capped", iid, cctx, {"reason": str(e)})
    except fl.projection.ProjectionError as e:
        rep.record(suite, "bridge", iid, False, cctx, {"error": str(e)})
    return rep


def known_bad_unit(units: list, caps, fl):
    """A theorem2-s3 unit whose pi_prime has two entries swapped: the
    first context of the slice with one quotient level and a hom check
    inside the family cap."""
    for spec, it, alpha, gi in units:
        if alpha != len(it) - 1:
            continue
        ctx = fl.projection.make_context(it, alpha, gi, caps)
        level = ctx.final_level
        if 1 << len(ctx.source_algebras[len(it)].elements) > caps.hom_family_cap:
            continue
        cuts = sorted(level.pi_prime)
        a, b = next((a, b) for a in cuts for b in cuts if level.pi_prime[a] != level.pi_prime[b])
        bad = dict(level.pi_prime)
        bad[a], bad[b] = bad[b], bad[a]
        return spec.instance_id, ctx, bad
    raise SystemExit("error: no context in the slice fits the known-bad control")


def digest(lines: list[str]) -> str:
    """sha256 of the sorted check-record JSON lines."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def status_counts(lines: list[str]) -> dict[str, int]:
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for line in lines:
        counts[json.loads(line)["status"]] += 1
    return counts


def report_lines(path: str) -> list[str]:
    """The check records of a CLI report file, as written."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh
                if json.loads(line).get("kind") == "check"]


def layer_metrics(tr) -> dict:
    """Per-layer metrics under their published names."""
    self_s = tr.self_times()
    m: dict = {}
    for name in ("iteration.canonicalize_condition", "projection.make_context",
                 "projection.pi_second", "boolalg.check_complete_hom",
                 "boolalg.ro_algebra", "names.TruthSession", "names.evaluate",
                 "iteration.build_iteration", "iteration.extend_stage"):
        m[f"{name}.calls"] = tr.call_count(name)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("projection.verify_projection_lemmas", "projection.verify_theorem2",
                 "projection.factor_generic", "projection.verify_corollary15",
                 "generic.enumerate_generics", "cli.generate_instances",
                 "cli.execute", "cli.run_cifs_suite", "iteration.check_lemma1",
                 "cli.write_report", "report.SuiteReport.to_jsonl"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["iteration.canonicalize_condition.distinct_ratio"] = \
        tr.distinct_ratio("iteration.canonicalize_condition")
    calls = tr.call_count("projection.make_context")
    new = len(tr.distinct.get("projection.context_cache", ()))
    m["projection.context_cache.hit_ratio"] = 1 - new / calls if calls else 0.0
    m["boolalg.check_complete_hom.families"] = tr.counts.get("boolalg.check_complete_hom.families", 0)
    m["names.universe.builds"] = tr.observed.get("names.universe", 0)
    m["names.universe.self_s"] = self_s.get("names.universe", 0.0)
    m["names.universe.distinct_ratio"] = tr.distinct_ratio("names.universe")
    for name in ("boolalg.BoolAlgebra.ops", "names.Name.constructions",
                 "hfset.HFSet.constructions", "poset.regularize.calls",
                 "poset.complement_cut.calls", "generic.dense_subsets.calls",
                 "formula.parse_formula.calls"):
        m[name] = tr.counts.get(name, 0)
    return m


def cli_argv(seed: int, out: str) -> list[str]:
    return ["run", "--suite", "all", "--max-poset", "3", "--max-stages", "2",
            "--seed", str(seed), "--out", out]


def timed_slice(workload: str, units: list, lines: list[str], caps, fl, speed, tr) -> dict:
    """Verify every unit once, each from a cold context cache.  A unit's
    latency is its time scaled by the host-speed factor around it."""
    unit_ms = []
    exceptions = 0
    t0 = clock()
    for u, unit in enumerate(units):
        if tr is not None:
            tr.unit = u
        if workload in CONTEXT_WORKLOADS:
            unit[1].context_cache.clear()
        ts = clock()
        try:
            lines += [r.to_json() for r in run_unit(workload, unit, caps, fl).checks]
        except Exception:  # a unit that raises is a gate failure, not a crash
            traceback.print_exc()
            exceptions += 1
        te = clock()
        unit_ms.append((te - ts) * 1000 / speed.factor(ts - LOCAL_S, te + LOCAL_S))
    t1 = clock()
    return {"lines": lines, "exceptions": exceptions, "unit_ms": unit_ms,
            "raw_s": t1 - t0, "speed": speed.factor(t0, t1)}


def run_cli(seed: int, tr) -> dict:
    """The user's `forcinglab run --suite all` command, in this process.
    `done` is printed as soon as the CLI returns, for run.py's clock."""
    import forcinglab.cli

    path = os.path.join(OUT, f"cli-{os.getpid()}.jsonl")
    if tr is not None:
        tr.unit = 0
    t0 = clock()
    code = forcinglab.cli.main(cli_argv(seed, path))
    t1 = clock()
    print("done", flush=True)
    lines = report_lines(path)
    os.remove(path)
    counts = status_counts(lines)
    # the CLI exits 1 exactly when the report has fail records (which the gate
    # counts already); any other exit, or a mismatch, is an error
    bad_exit = code not in (0, 1) or (code == 1) != (counts["fail"] > 0)
    return {"lines": lines, "exceptions": int(bad_exit),
            "raw_s": t1 - t0, "t1": t1}


def main(argv=None) -> int:
    speed = HostSpeed().start()
    t_start = clock()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--known-bad", action="store_true")
    args = ap.parse_args(argv)
    if args.known_bad and args.workload != "theorem2-s3":
        ap.error("--known-bad applies to theorem2-s3 only")

    cli = import_forcinglab()
    import forcinglab as fl
    tr = None
    if args.trace:
        from tracer import Tracer
        tr = Tracer()
        tr.install()

    chosen, units = [], []
    if args.workload == "cli-all-s2":
        # set-up of the CLI's own run: import plus instance generation
        if args.setup_only:
            chosen = cli.generate_instances(cli.ExperimentConfig(
                max_poset=3, max_stages=2, seed=args.seed))
    else:
        config = cli.ExperimentConfig(max_poset=3, max_stages=3, seed=GEN_SEED)
        caps = config.caps()
        units = choose_units(args.workload, cli.generate_instances(config),
                             args.seconds, args.seed)
        chosen = list({id(u[1]): u[:2] for u in units}.values())
    t_ready = clock()
    print("ready", flush=True)
    result = {"workload": args.workload, "seed": args.seed,
              "setup_speed": speed.factor(t_start, t_ready)}
    if args.setup_only:
        speed.stop()
        print(json.dumps(result), flush=True)
        return 0

    if args.workload == "cli-all-s2":
        res = run_cli(args.seed, tr)
        # run.py times the whole process, spawn to `done`
        res["speed"] = speed.factor(t_start, res.pop("t1"))
        res["unit_ms"] = [res["raw_s"] / res["speed"] * 1000]
    elif args.known_bad:
        iid, ctx, bad = known_bad_unit(units, caps, fl)
        chosen = [pair for pair in chosen if pair[0].instance_id == iid]
        t0 = clock()
        records = fl.projection.verify_theorem2(ctx, instance=iid, rank=RANK,
                                                pi_prime_override=bad).checks
        lines = [r.to_json() for r in records]
        t1 = clock()
        res = {"lines": lines, "exceptions": 0,
               "raw_s": t1 - t0, "unit_ms": [(t1 - t0) / speed.factor(t0, t1) * 1000]}
    else:
        skips = fl.report.SuiteReport()
        for spec, _ in chosen:
            for suite in SUITES[args.workload] if spec.partial else ():
                skips.skip(suite, "instance-partial", spec.instance_id, {},
                           {"reason": "stage cap aborted the tail of this instance"})
        res = timed_slice(args.workload, units, [r.to_json() for r in skips.checks],
                          caps, fl, speed, tr)
    speed.stop()
    if tr is not None:
        tr.unit = -1

    lines = res.pop("lines")
    result.update(res)
    result["digest"] = digest(lines)
    result.update({
        "instances": [spec.instance_id for spec, _ in chosen],
        "units": len(res["unit_ms"]), "wall_s": sum(res["unit_ms"]) / 1000,
        "counts": status_counts(lines),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tr is not None:
        result["layers"] = layer_metrics(tr)
        result["span_s"] = tr.root_seconds()
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.spans.gz")
        tr.write(path)
        result["spans"] = len(tr.start)
        result["span_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
