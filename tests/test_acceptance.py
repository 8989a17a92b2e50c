"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All checks are combinatorial equalities quantified exhaustively over their
stated ranges; where a stated range outruns what exhaustive enumeration can
certify (doubly-exponential name universes), the affected cells run at the
largest feasible slice and are counted as labeled skips, never silently
narrowed.
"""

import itertools

import pytest

from forcinglab.boolalg import (boolean_law_violations, check_complete_hom,
                                dense_embedding_violations, ro_algebra)
from forcinglab.cli import (ExperimentConfig, execute, generate_instances,
                            write_report)
from forcinglab.config import DEFAULT_CAPS, CapExceeded
from forcinglab.formula import parse_formula
from forcinglab.generic import dense_subsets, enumerate_generics
from forcinglab.iteration import (CifsProvider, CollapseSpec, build_iteration,
                                  check_lemma1, collapse_poset,
                                  verify_lemma20_analogue)
from forcinglab.names import (Name, NameUniverse, TruthSession,
                              UniverseCapExceeded, evaluate, name_universe,
                              sampled_universe)
from forcinglab.poset import (all_posets_with_top, all_separative_posets,
                              antichain_with_top)
from forcinglab.projection import (factor_generic, limit_clause_skip,
                                   make_context, verify_corollary15,
                                   verify_projection_lemmas, verify_theorem2)
from forcinglab.report import merge_reports


RESULT_LINES: list[str] = []


def announce(n: int, ok: bool, summary: str):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {summary}"
    print(line)
    RESULT_LINES.append(line)
    assert ok, line


def contexts_of(iteration):
    for alpha in range(1, len(iteration) + 1):
        for gi in range(len(iteration.stages[alpha].generics)):
            yield alpha, gi


# -- criterion 1: Boolean-algebra laws ----------------------------------------


def test_criterion_1_boolean_laws():
    posets = list(all_separative_posets(5))
    assert len(posets) == 5
    law_hits = []
    embed_hits = []
    for p in posets:
        A = ro_algebra(p)
        law_hits += boolean_law_violations(A)
        embed_hits += dense_embedding_violations(A)
    sizes_ok = all(
        len(ro_algebra(antichain_with_top(k))) == 2 ** k for k in range(1, 5))
    announce(1, not law_hits and not embed_hits and sizes_ok,
             f"law suite clean on {len(posets)} separative posets <= 5, "
             f"dense embedding holds, antichain algebras sized 2^k")


# -- criterion 2: truth lemma --------------------------------------------------


ATOM_SLOTS = [(l, r) for l in (0, 1) for r in (0, 1)]


def _criterion2_universe(A):
    try:
        return name_universe(A, 2), True
    except UniverseCapExceeded:
        # the full rank-2 universe over this algebra is doubly exponential
        # (e.g. 8 names ** 8 cut-choices); run the exhaustive rank-1 layer
        # plus the deterministic structured rank-2 sample, and label it
        return sampled_universe(A, 2, cap=64), False


def test_criterion_2_truth_lemma():
    checked = 0
    labeled = []
    for poset in all_posets_with_top(4):
        A = ro_algebra(poset)
        base = A.base
        universe, exhaustive = _criterion2_universe(A)
        if not exhaustive:
            labeled.append(f"{poset!r}")
        generics = enumerate_generics(base)
        sess = TruthSession(universe)
        eval_memo: dict = {}
        evaluations = {g.atom: {n: evaluate(n, g.mask, eval_memo)
                                for n in universe.names} for g in generics}

        # layer 1: every atomic formula, every ordered pair, every generic;
        # the left side is the literal exists-p-in-G forcing sweep
        for x, y in itertools.product(universe.names, repeat=2):
            vin = sess.member_value(x, y)
            veq = sess.equal_value(x, y)
            for g in generics:
                ix, iy = evaluations[g.atom][x], evaluations[g.atom][y]
                for value, holds in ((vin, ix in iy), (veq, ix == iy)):
                    lhs = any(not base.principal_cut(p) & ~A.cut(value)
                              for p in range(base.n) if p in g)
                    assert lhs == holds, (poset, x, y)
                    checked += 1

        # layer 2: b -> (atom in b) is a complement/meet/join homomorphism
        # onto {0,1}; with layer 1 this lifts the lemma to every
        # quantifier-free combination by compositionality of both semantics
        for g in generics:
            def h(cut):
                return bool((cut >> g.atom) & 1)
            for a in A.elements:
                assert h(A.complement(a)) == (not h(a))
                for b in A.elements:
                    assert h(A.meet(a, b)) == (h(a) and h(b))
                    assert h(A.join(a, b)) == (h(a) or h(b))
                    checked += 1

        # layer 3: literal depth-bounded closure over the rank-1 slice,
        # tracking reachable (truth-value, extension-truth) pairs, which
        # covers every depth<=3 tree up to value equivalence
        small = name_universe(A, 1)
        ssess = TruthSession(small)
        for x, y in itertools.product(small.names, repeat=2):
            atoms = [(ssess.member_value(a, b), None) for a, b in
                     [(x, y), (y, x), (x, x), (y, y)]]
            atoms += [(ssess.equal_value(a, b), None) for a, b in
                      [(x, y), (x, x), (y, y)]]
            for g in generics:
                ix, iy = evaluate(x, g.mask, eval_memo), evaluate(y, g.mask, eval_memo)
                seeds = {(ssess.member_value(x, y), ix in iy),
                         (ssess.member_value(y, x), iy in ix),
                         (ssess.equal_value(x, y), ix == iy)}
                layer = set(seeds)
                for _ in range(3):
                    new = set()
                    for (c1, b1) in layer:
                        new.add((A.complement(c1), not b1))
                        for (c2, b2) in layer:
                            new.add((A.meet(c1, c2), b1 and b2))
                            new.add((A.join(c1, c2), b1 or b2))
                            new.add((A.join(A.complement(c1), c2),
                                     (not b1) or b2))
                    layer |= new
                for cut, holds in layer:
                    assert bool((cut >> g.atom) & 1) == holds
                    checked += 1
    announce(2, checked > 0,
             f"{checked} truth-lemma checks, zero exceptions; "
             f"rank-2 universes sampled (labeled) on: {labeled or 'none'}")


# -- criterion 3: stagewise separativity ---------------------------------------


def test_criterion_3_lemma1():
    # raised stage cap so even the 255-condition third stage of the full
    # two-atom instance is built and checked
    cfg = ExperimentConfig(max_poset=3, max_stages=3, seed=1,
                           max_stage_conditions=512)
    instances = generate_instances(cfg)
    reports = [check_lemma1(it, spec.instance_id) for spec, it in instances]
    merged = merge_reports(reports)
    stages = sum(len(it) for _, it in instances)
    partial = sum(1 for s, _ in instances if s.partial)
    announce(3, merged.ok and not partial and stages > 0,
             f"{stages} stage posets over {len(instances)} iterations all "
             f"separative, zero exceptions")


# -- criteria 4 and 5: Theorem 2 ------------------------------------------------


@pytest.fixture(scope="module")
def theorem2_reports(default_sweep):
    reports = []
    for spec, it in default_sweep:
        for alpha, gi in contexts_of(it):
            ctx = make_context(it, alpha, gi)
            reports.append(verify_theorem2(ctx, instance=spec.instance_id))
    return merge_reports(reports)


def test_criterion_4_complete_homomorphism(theorem2_reports, default_sweep):
    records = [c for c in theorem2_reports.checks
               if c.check == "item1-complete-hom"]
    item1 = {(c.instance, c.context["alpha"], c.context["generic"],
              c.context["beta"]): c.status for c in records}
    assert len(item1) == len(records)
    statuses = list(item1.values())
    # the subfamily fold is the oracle on every level where 2^|A| fits its cap
    folded = families = 0
    disagree = []
    for spec, it in default_sweep:
        for alpha, gi in contexts_of(it):
            ctx = make_context(it, alpha, gi)
            for beta in range(alpha + 1, len(it) + 1):
                A = ctx.source_algebras[beta]
                cap = ctx.caps.hom_family_cap
                if 1 << len(A) > cap:
                    continue
                level = ctx.levels[beta]
                fold = check_complete_hom(level.pi_prime, A, level.algebra,
                                          family_cap=cap)
                folded += 1
                families += fold.families_checked
                key = (spec.instance_id, alpha, gi, beta)
                if item1[key] != ("pass" if fold.ok else "fail"):
                    disagree.append(key)
    passed = statuses.count("pass")
    announce(4, statuses and passed == len(statuses) and not disagree,
             f"pi-prime certified a complete homomorphism on {passed} "
             f"(iteration, alpha, G, beta) instances; the subfamily fold "
             f"agrees on {folded - len(disagree)} of {folded} ({families} "
             f"subfamilies folded); {statuses.count('skip')} skipped")


PAIR_UNIVERSE = 48     # names in the source universe of the transport oracle


def _onto_sweep(ctx, beta) -> bool:
    """pi_second is onto the quotient's rank-2 working universe: each target
    name gets a structural preimage, its entries mapped back through the
    first preimage of their element in the order of the source algebra."""
    level = ctx.levels[beta]
    A = ctx.source_algebras[beta]
    inverse: dict = {}
    for x in A.elements:
        inverse.setdefault(level.pi_prime[x], x)
    memo: dict = {}

    def preimage(y):
        got = memo.get(y.uid)
        if got is None:
            entries = []
            for sub, c in y.entries:
                px = preimage(sub)
                if px is None or c not in inverse:
                    return None
                entries.append((px, inverse[c]))
            got = memo[y.uid] = Name(entries, A)
        return got

    for y in sampled_universe(level.algebra, 2).names:
        x = preimage(y)
        # both sides are interned in the quotient algebra
        if x is None or ctx.pi_second(beta, x) is not y:
            return False
    return True


def _transport_sweep(ctx, beta) -> bool:
    """Atomic truth values transport over every ordered pair of a
    PAIR_UNIVERSE-name rank-2 source universe: pi_prime of each source value
    is the value of the image pair."""
    level = ctx.levels[beta]
    source = sampled_universe(ctx.source_algebras[beta], 2, cap=PAIR_UNIVERSE)
    images = [ctx.pi_second(beta, n) for n in source.names]
    src = TruthSession(source)
    tgt = TruthSession(NameUniverse(
        level.algebra, 2, tuple({m.uid: m for m in images}.values()),
        exhaustive=False))
    h = level.pi_prime
    for x, px in zip(source.names, images):
        for y, py in zip(source.names, images):
            if h[src.member_value(x, y)] != tgt.member_value(px, py) or \
                    h[src.equal_value(x, y)] != tgt.equal_value(px, py):
                return False
    return True


def test_criterion_5_onto_and_atomic_transport(theorem2_reports, default_sweep):
    status = {(c.instance, c.context["alpha"], c.context["generic"],
               c.context["beta"], c.check): c.status
              for c in theorem2_reports.checks}
    statuses = [v for k, v in status.items()
                if k[-1] in ("item2-onto", "item3-atomic-transport")]
    # the rank-2 sweeps are the oracles for the element certificates
    levels = onto_agree = transport_agree = 0
    for spec, it in default_sweep:
        for alpha, gi in contexts_of(it):
            ctx = make_context(it, alpha, gi)
            for beta in range(alpha + 1, len(it) + 1):
                key = (spec.instance_id, alpha, gi, beta)
                levels += 1
                onto_agree += status[key + ("item2-onto",)] == \
                    ("pass" if _onto_sweep(ctx, beta) else "fail")
                transport_agree += status[key + ("item3-atomic-transport",)] == \
                    ("pass" if _transport_sweep(ctx, beta) else "fail")
    passed = statuses.count("pass")
    announce(5, levels and passed == len(statuses) == 2 * levels
             and onto_agree == transport_agree == levels,
             f"pi-second onto and atomic transport certified on algebra "
             f"elements for every name of every rank on {levels} (iteration, "
             f"alpha, G, beta) instances, zero exceptions; the rank-2 onto "
             f"sweep agrees on {onto_agree} of {levels} and the "
             f"{PAIR_UNIVERSE}-name pair transport sweep on {transport_agree} "
             f"of {levels}")


# -- criterion 6: projection lemma suite ----------------------------------------


def test_criterion_6_projection_lemmas(default_sweep):
    reports = []
    for spec, it in default_sweep:
        for alpha, gi in contexts_of(it):
            ctx = make_context(it, alpha, gi)
            reports.append(verify_projection_lemmas(ctx, instance=spec.instance_id))
    # the vacuous limit-stage clause is stated once per run, as the CLI does
    reports.append(limit_clause_skip())
    merged = merge_reports(reports)
    counts = merged.counts()
    lemmas = sorted({c.check.split("-")[0] for c in merged.checks
                     if c.check.startswith("L")})
    announce(6, merged.ok and counts["pass"] > 0,
             f"lemma suite {lemmas}: {counts['pass']} sub-checks passed, "
             f"{counts['skip']} labeled skips, zero exceptions")


# -- criterion 7: generic factorization -----------------------------------------


def test_criterion_7_theorem16(default_sweep):
    reports = []
    swept = 0
    disagree = []
    dense_swept = 0
    dense_disagree = []
    for spec, it in default_sweep:
        N = len(it)
        factored = []
        for alpha in range(1, N + 1):
            for gi in range(len(it.stages[N].generics)):
                G, hmask, rep = factor_generic(it, alpha, gi,
                                               instance=spec.instance_id)
                reports.append(rep)
                factored.append((alpha, gi, G, hmask, rep))
        # the rank-2 universe sweep is the oracle for the element
        # certificate of item 3: the final universe is built once per
        # instance, after its factor_generic calls
        universe = sampled_universe(make_context(it, N, 0).source_algebras[N], 2)
        # evaluations are memoized by (name uid, generic mask), so one memo
        # serves both sides of every record
        memo: dict = {}
        for alpha, gi, G, hmask, rep in factored:
            if G is None:
                continue
            ctx = make_context(it, alpha, it.stages[alpha].generics.index(G))
            gmask = it.stages[N].generics[gi].mask
            holds = all(evaluate(x, gmask, memo) ==
                        evaluate(ctx.pi_second(N, x), hmask, memo)
                        for x in universe.names)
            status = {c.check: c.status for c in rep.checks}
            swept += 1
            if status["item3-evaluation-identity"] != ("pass" if holds else "fail"):
                disagree.append((spec.instance_id, alpha, gi))
            # the literal dense-subset sweep is the oracle for item 2's
            # meets-the-atom-set test
            qposet = ctx.final_level.stage.poset
            if qposet.n <= 16:
                dense_swept += 1
                literal = all(hmask & d for d in dense_subsets(qposet))
                [item2] = [c for c in rep.checks
                           if c.check == "item2-quotient-generic"]
                if item2.detail["meets_all_dense"] != literal:
                    dense_disagree.append((spec.instance_id, alpha, gi))
    merged = merge_reports(reports)
    counts = merged.counts()
    announce(7, merged.ok and counts["pass"] > 0 and not disagree
             and dense_swept > 0 and not dense_disagree,
             f"prefix genericity, quotient genericity and the evaluation "
             f"identity verified on {counts['pass']} checks, zero exceptions; "
             f"the rank-2 universe sweep agrees on {swept - len(disagree)} "
             f"of {swept}; the literal dense-subset sweep agrees on "
             f"{dense_swept - len(dense_disagree)} of {dense_swept}")


# -- criterion 8: quotient equals the shifted iteration --------------------------


def test_criterion_8_corollary15(default_sweep):
    reports = []
    for spec, it in default_sweep:
        for alpha, gi in contexts_of(it):
            ctx = make_context(it, alpha, gi)
            reports.append(verify_corollary15(ctx, instance=spec.instance_id))
    merged = merge_reports(reports)
    counts = merged.counts()
    announce(8, merged.ok and counts["pass"] > 0,
             f"rebuilt tail stages order-isomorphic to the quotients on "
             f"{counts['pass']} checks, zero exceptions")


# -- criterion 9: collapse counts and the total-injection witness ----------------


def brute_force_injection_count(n: int, m: int) -> int:
    count = 0
    for dom_bits in range(1 << n):
        dom = [i for i in range(n) if (dom_bits >> i) & 1]
        if len(dom) >= m:
            continue
        for values in itertools.product(range(m), repeat=len(dom)):
            if len(set(values)) == len(values):
                count += 1
    return count


def test_criterion_9_collapse_and_lemma20():
    counts_ok = True
    for n in range(0, 4):
        for m in range(1, 5):
            poset, _ = collapse_poset(CollapseSpec(tuple(range(n)), m))
            counts_ok &= poset.n == brute_force_injection_count(n, m)
    p22, _ = collapse_poset(CollapseSpec((0, 1), 2))
    p23, _ = collapse_poset(CollapseSpec((0, 1), 3))
    counts_ok &= p22.n == 5 and p23.n == 13
    # the witness property through the toy iterations, for |X| < m
    reports = []
    for ladder in ([(1, 2)], [(2, 3)], [(1, 2), (1, 3)]):
        provider = CifsProvider([parse_formula("x = x")], ladder)
        it = build_iteration(provider, DEFAULT_CAPS.with_(max_stage_conditions=256))
        for gi in range(len(it.final.generics)):
            reports.append(verify_lemma20_analogue(it, gi))
    merged = merge_reports(reports)
    totals = merged.counts()
    announce(9, counts_ok and merged.ok and totals["pass"] > 0,
             f"collapse sizes match the independent count (incl. 5 and 13); "
             f"{totals['pass']} generic unions were total injections")


# -- criterion 10: determinism ----------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    files = []
    for i in (1, 2):
        cfg = ExperimentConfig(suite="theorem2", max_poset=3, max_stages=2,
                               seed=13, out=str(tmp_path / f"run{i}.jsonl"))
        report, meta = execute(cfg)
        write_report(report, meta, cfg.out)
        files.append((tmp_path / f"run{i}.jsonl").read_bytes())
    announce(10, files[0] == files[1],
             f"two runs with identical config and seed wrote bit-identical "
             f"reports ({len(files[0])} bytes)")
