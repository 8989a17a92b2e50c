"""Generic-quotient projections and the lemma/theorem verification suites.

Given a built iteration, a stage alpha and a generic G on it, this module
constructs, level by level, the quotient posets seen from the extension
together with the three maps:

    pi        conditions with their alpha-prefix in G  ->  quotient conditions
    pi_prime  algebra elements                         ->  quotient algebra elements
              (pointwise image of the element's cut, then regularization)
    pi_second names                                    ->  names
              (structural recursion, elements through pi_prime)

The first quotient level takes a condition's tail to its value under G; each
later level pairs the previous quotient prefix with the image name of the
tail (tails are turned into literal names by mixing over the atoms, mapped
structurally, then read back as functions by evaluating under the quotient
generics).  Everything downstream -- the complete-homomorphism certificate,
the per-lemma property checks, generic factorization and the rebuilt-tail
comparison -- quantifies exhaustively over the finite instance.  The facts
that Theorem 2 and the lemma suite share (homomorphism, onto, atomic
transport) are computed once per level and cached on the context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .boolalg import BoolAlgebra, HomReport, certify_complete_hom, ro_algebra
from .config import DEFAULT_CAPS, CapExceeded, Caps
from .formula import Formula, constants, to_text
from .generic import GenericSet, dense_subsets, is_filter
from .iteration import (TAIL_ONE, CifsProvider, Iteration, ProviderError,
                        Stage, StepContext, StepProvider, build_iteration,
                        canonicalize_condition, extend_stage, root_stage,
                        trim)
from .names import (Name, NameUniverse, TruthSession, decode_element,
                    element_name, evaluate, mix_name, name_text,
                    name_universe, sampled_universe)
from .poset import Poset, _mask_bits, regularize
from .report import SuiteReport


class ProjectionError(RuntimeError):
    pass


@dataclass
class QuotientLevel:
    """The quotient data at one level beta > alpha (or the trivial root)."""

    beta: int
    stage: Stage                      # quotient conditions as a built stage
    pi: list                          # P_beta condition index -> class index | None
    combine: list[int]                # quotient generic -> P_beta generic index
    algebra: BoolAlgebra              # r.o. of the quotient poset
    pi_prime: dict[int, int]          # source element -> quotient element
    _pi_second: dict = field(default_factory=dict, init=False)  # name uid -> image


@dataclass
class ProjectionContext:
    """All quotient levels for one (iteration, alpha, G)."""

    iteration: Iteration
    alpha: int
    gen_index: int
    caps: Caps
    levels: dict[int, QuotientLevel]
    source_algebras: dict[int, BoolAlgebra]
    # (beta, rank) -> _LevelFacts; not an init field, so that
    # dataclasses.replace gives the copy an empty cache
    _facts: dict = field(default_factory=dict, init=False)

    @property
    def G(self) -> GenericSet:
        return self.iteration.stages[self.alpha].generics[self.gen_index]

    @property
    def final_level(self) -> QuotientLevel:
        return self.levels[len(self.iteration)]

    def prefix_index(self, beta: int, cond_idx: int) -> int:
        """Index in P_alpha of the alpha-prefix of a P_beta condition."""
        cond = self.iteration.stages[beta].conditions[cond_idx]
        return self.iteration.stages[self.alpha].cond_index(trim(cond[:self.alpha]))

    def in_G(self, beta: int, cond_idx: int) -> bool:
        return bool((self.G.mask >> self.prefix_index(beta, cond_idx)) & 1)

    def pi(self, beta: int, cond_idx: int):
        return self.levels[beta].pi[cond_idx]

    def pi_prime(self, beta: int, x: int) -> int:
        return self.levels[beta].pi_prime[x]

    def pi_second(self, beta: int, name: Name) -> Name:
        level = self.levels[beta]
        got = level._pi_second.get(name.uid)
        if got is None:
            got = Name(((self.pi_second(beta, sub), level.pi_prime[x])
                        for sub, x in name.entries), level.algebra)
            level._pi_second[name.uid] = got
        return got


def _tail_as_name(stage: Stage, tail, algebra: BoolAlgebra,
                  memo: dict) -> Name:
    """Literal name for a function-form tail: mixing over the atoms."""
    values = []
    for g, e in tail:
        atom = stage.generics[g].atom
        values.append((atom, element_name(e, algebra, memo)))
    return mix_name(values, algebra)


def make_context(iteration: Iteration, alpha: int, gen_index: int,
                 caps: Caps | None = None) -> ProjectionContext:
    """Build pi, pi_prime, pi_second and the quotient posets for every level.

    The construction follows the inductive cases: the first level evaluates
    tails under G, later successor levels prepend the previous level's
    quotient prefix and push tails through pi_second.  Only successor levels
    exist at finite stage counts; the limit clause is vacuous here and the
    suites report it as such.
    """
    caps = caps or iteration.caps
    stages = iteration.stages
    N = len(iteration)
    if not 1 <= alpha <= N:
        raise ProjectionError(f"alpha {alpha} out of range 1..{N}")
    # caps bound the algebras built here, so they are part of the key
    cache_key = (alpha, gen_index, caps)
    cached = iteration.context_cache.get(cache_key)
    if cached is not None:
        return cached
    G = stages[alpha].generics[gen_index]

    source_algebras: dict[int, BoolAlgebra] = {}
    for beta in range(alpha, N + 1):
        source_algebras[beta] = ro_algebra(stages[beta].poset,
                                           max_base=caps.algebra_max_base)

    levels: dict[int, QuotientLevel] = {}
    # trivial root level: everything in G maps to the empty sequence
    root = root_stage()
    pi_root = [0 if (G.mask >> i) & 1 else None
               for i in range(stages[alpha].poset.n)]
    root_alg = ro_algebra(root.poset, max_base=caps.algebra_max_base)
    pi_prime_root = {x: (root_alg.one if x & G.mask else root_alg.zero)
                     for x in source_algebras[alpha].elements}
    levels[alpha] = QuotientLevel(alpha, root, pi_root, [gen_index],
                                  root_alg, pi_prime_root)

    ctx = ProjectionContext(iteration, alpha, gen_index, caps, levels,
                            source_algebras)

    for beta in range(alpha + 1, N + 1):
        # numeral names are built over this level's source algebra only
        numeral_memo: dict = {}
        prev_level = levels[beta - 1]
        prev_src = stages[beta - 1]
        src = stages[beta]
        steps_q: list[Poset | None] = [
            prev_src.steps[prev_level.combine[h]]
            for h in range(len(prev_level.stage.generics))]
        defined: list[int] = []
        raw_tails: list[tuple[int, object]] = []
        for ci, cond in enumerate(src.conditions):
            if not ctx.in_G(beta, ci):
                continue
            prev_idx = prev_src.cond_index(trim(cond[: beta - 1]))
            qprefix = prev_level.pi[prev_idx]
            if qprefix is None:
                raise ProjectionError("prefix in G but previous level undefined")
            tail = cond[beta - 1] if len(cond) == beta else TAIL_ONE
            if tail is TAIL_ONE:
                qtail = TAIL_ONE
            elif beta == alpha + 1:
                qtail = ((0, dict(tail)[gen_index]),)
            else:
                src_alg = source_algebras[beta - 1]
                literal = _tail_as_name(prev_src, tail, src_alg, numeral_memo)
                image = ctx.pi_second(beta - 1, literal)
                out = []
                for h in range(len(prev_level.stage.generics)):
                    hmask = prev_level.stage.gen_masks[qprefix]
                    if not (hmask >> h) & 1:
                        continue
                    hf = evaluate(image, prev_level.stage.generics[h].mask)
                    e = decode_element(hf)
                    q = steps_q[h]
                    if e is None or q is None or not 0 <= e < q.n:
                        raise ProjectionError(
                            f"tail image does not denote a step element at level {beta}, "
                            f"generic {h}: {hf!r}")
                    out.append((h, e))
                qtail = tuple(out)
            defined.append(ci)
            raw_tails.append((qprefix, qtail))
        qstage, placement = extend_stage(prev_level.stage, steps_q, caps,
                                         explicit_tails=raw_tails)
        pi: list = [None] * src.poset.n
        for ci, where in zip(defined, placement):
            pi[ci] = where
        # bridge: quotient generics <-> source generics whose prefix generic is G
        combine: list[int | None] = [None] * len(qstage.generics)
        for sg, gen in enumerate(src.generics):
            if pi[gen.atom] is None:
                continue
            img = pi[gen.atom]
            hit = [h for h, qg in enumerate(qstage.generics) if qg.atom == img]
            if len(hit) != 1:
                raise ProjectionError(
                    f"atom image is not a quotient atom at level {beta}")
            if combine[hit[0]] is not None:
                raise ProjectionError(
                    f"two source generics project onto one quotient generic at level {beta}")
            combine[hit[0]] = sg
        if any(c is None for c in combine):
            raise ProjectionError(f"quotient generic with no source generic at level {beta}")
        algebra = ro_algebra(qstage.poset, max_base=caps.algebra_max_base)
        A = source_algebras[beta]
        pi_prime: dict[int, int] = {}
        for x in A.elements:
            img = 0
            for p in _mask_bits(A.cut(x)):
                if pi[p] is not None:
                    img |= 1 << pi[p]
            pi_prime[x] = regularize(img, qstage.poset) & qstage.poset.atom_mask
        levels[beta] = QuotientLevel(beta, qstage, pi, combine, algebra, pi_prime)

    iteration.context_cache[cache_key] = ctx
    return ctx


# -- working universes -------------------------------------------------------


def working_universe(algebra: BoolAlgebra, rank: int,
                     caps: Caps = DEFAULT_CAPS,
                     cap: int | None = None) -> NameUniverse:
    """The full rank-bounded universe when it fits the cap, else the
    deterministic structured sample (flagged non-exhaustive)."""
    limit = caps.universe_cap if cap is None else cap
    try:
        return name_universe(algebra, rank, cap=limit)
    except CapExceeded:
        return sampled_universe(algebra, rank, cap=limit)


def pair_universe(algebra: BoolAlgebra, rank: int,
                  caps: Caps = DEFAULT_CAPS) -> NameUniverse:
    """Universe for sweeps quadratic in the name count."""
    return working_universe(algebra, rank, caps, cap=caps.pair_universe_cap)


# -- shared per-level facts ------------------------------------------------------


@dataclass(frozen=True)
class _LevelFacts:
    """What Theorem 2 and the lemma suite both cite at one quotient level."""

    hom: HomReport          # item 1; L6 cites complement, L7 products
    onto: dict              # item 2 detail, with "counterexample" on failure
    transport: dict         # item 3 detail
    atomic_values: tuple    # L12: distinct (shape, source value, target value)


def _transport_sessions(ctx: ProjectionContext, beta: int,
                        rank: int) -> tuple[TruthSession, TruthSession]:
    """Truth sessions over the source pair universe and over its pi_second
    image, a non-exhaustive universe of the quotient algebra."""
    src_u = pair_universe(ctx.source_algebras[beta], rank, ctx.caps)
    images = {m.uid: m for m in (ctx.pi_second(beta, n) for n in src_u.names)}
    image_names = tuple(sorted(images.values(), key=lambda n: n.key))
    tgt_u = NameUniverse(ctx.levels[beta].algebra, src_u.rank_bound,
                         image_names, exhaustive=False)
    return TruthSession(src_u), TruthSession(tgt_u)


def _level_facts(ctx: ProjectionContext, beta: int, rank: int) -> _LevelFacts:
    """The shared facts of level beta at this rank, computed on first use."""
    cached = ctx._facts.get((beta, rank))
    if cached is not None:
        return cached
    level = ctx.levels[beta]
    A = ctx.source_algebras[beta]
    B = level.algebra
    # onto: each bounded quotient name gets a structural preimage, entries
    # mapped back through the first preimage in the order of A.elements
    inverse: dict[int, int] = {}
    for x in A.elements:
        inverse.setdefault(level.pi_prime[x], x)
    pre_memo: dict[int, Name] = {}

    def preimage(y: Name) -> Name | None:
        got = pre_memo.get(y.uid)
        if got is not None:
            return got
        entries = []
        for sub, x in y.entries:
            px = preimage(sub)
            if px is None or x not in inverse:
                return None
            entries.append((px, inverse[x]))
        built = Name(entries, A)
        pre_memo[y.uid] = built
        return built

    target = working_universe(B, rank, ctx.caps)
    onto: dict = {"targets": len(target.names), "exhaustive": target.exhaustive}
    for y in target.names:
        x = preimage(y)
        # both sides are interned in B, so equal names are one object
        if x is None or ctx.pi_second(beta, x) is not y:
            onto["counterexample"] = name_text(y, B)
            break
    # atomic transport over every ordered source pair; the distinct value
    # pairs are kept per shape in first-seen order
    src_sess, tgt_sess = _transport_sessions(ctx, beta, rank)
    names = src_sess.universe.names
    images = [ctx.pi_second(beta, n) for n in names]
    seen: dict[str, dict] = {"in": {}, "=": {}}
    bad = 0
    first = None
    for x, px in zip(names, images):
        for y, py in zip(names, images):
            for shape, sv, tv in (
                    ("in", src_sess.member_value(x, y), tgt_sess.member_value(px, py)),
                    ("=", src_sess.equal_value(x, y), tgt_sess.equal_value(px, py))):
                seen[shape][sv, tv] = None
                if level.pi_prime[sv] != tv:
                    bad += 1
                    first = first or (shape, name_text(x, A), name_text(y, A))
    facts = _LevelFacts(
        certify_complete_hom(level.pi_prime, A, B), onto,
        {"pairs": len(names) ** 2, "violations": bad, "first": first,
         "universe_exhaustive": src_sess.universe.exhaustive},
        tuple((shape, sv, tv) for shape, values in seen.items() for sv, tv in values))
    ctx._facts[beta, rank] = facts
    return facts


# -- Theorem 2 ----------------------------------------------------------------


def verify_theorem2(ctx: ProjectionContext, formulas: Sequence[Formula] = (),
                    instance: str = "adhoc", pi_prime_override=None,
                    rank: int = 2) -> SuiteReport:
    """Items 1-3 per level, reported from the level's shared facts: pi_prime
    is a complete Boolean homomorphism (certified by complement and binary
    meets and joins, which in a finite algebra is completeness), pi_second is
    onto the bounded quotient universe (witnesses built by rank recursion),
    and truth values transport through the maps (atomic always; quantified
    formulas over aligned universes).  ``pi_prime_override`` replaces the
    map in item 1 only."""
    rep = SuiteReport()
    N = len(ctx.iteration)
    for beta in range(ctx.alpha + 1, N + 1):
        facts = _level_facts(ctx, beta, rank)
        cctx = {"alpha": ctx.alpha, "generic": ctx.gen_index, "beta": beta}
        hom = facts.hom if pi_prime_override is None else certify_complete_hom(
            pi_prime_override, ctx.source_algebras[beta], ctx.levels[beta].algebra)
        rep.record("theorem2", "item1-complete-hom", instance, hom.ok, cctx,
                   {"families": hom.families_checked,
                    "violations": hom.violation_count,
                    "counterexamples": hom.counterexamples[:4]})
        rep.record("theorem2", "item2-onto", instance,
                   "counterexample" not in facts.onto, cctx, facts.onto)
        rep.record("theorem2", "item3-atomic-transport", instance,
                   not facts.transport["violations"], cctx, facts.transport)
        for k, f in enumerate(formulas):
            ok, detail = _formula_transport(ctx, beta, f, rank)
            rep.record("theorem2", f"item3-formula-{k}", instance, ok,
                       {**cctx, "formula": to_text(f)}, detail)
    return rep


def _formula_transport(ctx: ProjectionContext, beta: int, f: Formula,
                       rank: int):
    """pi_prime(||f(a...)||) == ||f(pi_second a...)|| over all argument tuples
    from the source universe.  Quantified formulas are compared over the
    pi_second-image universe, per the bounded-quantifier reading."""
    level = ctx.levels[beta]
    src_sess, tgt_sess = _transport_sessions(ctx, beta, rank)
    slots = sorted(constants(f))
    src_names = src_sess.universe.names
    checked = 0
    for combo in itertools.product(src_names, repeat=len(slots)):
        sv = src_sess.with_constants(combo)
        tv = tgt_sess.with_constants([ctx.pi_second(beta, n) for n in combo])
        if level.pi_prime[sv.value(f)] != tv.value(f):
            return False, {"args": [name_text(n, src_sess.algebra) for n in combo],
                           "checked": checked}
        checked += 1
    return True, {"tuples": checked}


# -- Lemmas 3-14 --------------------------------------------------------------


def verify_projection_lemmas(ctx: ProjectionContext, instance: str = "adhoc",
                             rank: int = 2) -> SuiteReport:
    """One exhaustive sub-check per projection lemma, itemized L3..L14.
    L6-L9 and L12 cite the level's shared facts, as Theorem 2 does."""
    rep = SuiteReport()
    N = len(ctx.iteration)
    for beta in range(ctx.alpha + 1, N + 1):
        _lemmas_at_level(ctx, beta, rep, instance, rank)
    # at finite stage counts every level is a successor; the limit-stage
    # coherence clause has nothing to range over
    rep.skip("projection-lemmas", "limit-clause", instance,
             {"alpha": ctx.alpha, "generic": ctx.gen_index},
             {"reason": "vacuous at this scale: no limit stages exist"})
    return rep


def _lemmas_at_level(ctx: ProjectionContext, beta: int, rep: SuiteReport,
                     instance: str, rank: int):
    facts = _level_facts(ctx, beta, rank)
    level = ctx.levels[beta]
    src = ctx.iteration.stages[beta]
    qposet = level.stage.poset
    A = ctx.source_algebras[beta]
    B = level.algebra
    cctx = {"alpha": ctx.alpha, "generic": ctx.gen_index, "beta": beta}
    defined = [ci for ci in range(src.poset.n) if level.pi[ci] is not None]

    # L3: every quotient principal cut is the image of a principal cut
    images = {level.pi_prime[A.principal(ci)] for ci in defined}
    missing = [qposet.labels[p] for p in range(qposet.n)
               if B.principal(p) not in images]
    rep.record("projection-lemmas", "L3-principal-onto", instance, not missing,
               cctx, {"missing": missing})

    # L4: prefix-in-G conditions project principal cuts to principal cuts
    bad4 = []
    for ci in defined:
        want = B.principal(level.pi[ci])
        got = level.pi_prime[A.principal(ci)]
        if got != want:
            bad4.append(src.poset.labels[ci])
    rep.record("projection-lemmas", "L4-principal-to-principal", instance,
               not bad4, cctx, {"violations": bad4})

    # L5: disjoint principal cuts stay disjoint
    bad5 = []
    for ci in defined:
        for cj in defined:
            if src.poset.below[ci] & src.poset.below[cj]:
                continue
            if qposet.below[level.pi[ci]] & qposet.below[level.pi[cj]]:
                bad5.append((src.poset.labels[ci], src.poset.labels[cj]))
    rep.record("projection-lemmas", "L5-disjointness", instance, not bad5,
               cctx, {"violations": bad5[:4], "count": len(bad5)})

    # L6: pi_prime commutes with complement
    bad6 = [f"{c[1][0]:#x}" for c in facts.hom.counterexamples
            if c[0] == "complement"]
    rep.record("projection-lemmas", "L6-complement", instance,
               facts.hom.preserves_complement, cctx, {"violations": bad6[:4]})

    # L7: pi_prime commutes with arbitrary products: it keeps one and every
    # binary meet, and every family of a finite algebra is finite
    rep.record("projection-lemmas", "L7-products", instance,
               facts.hom.preserves_all_products, cctx,
               {"families": facts.hom.families_checked})

    # L8: pi_second onto the bounded quotient universe (Theorem 2 item 2)
    rep.record("projection-lemmas", "L8-onto", instance,
               "counterexample" not in facts.onto, cctx,
               {k: facts.onto[k] for k in ("targets", "exhaustive")})

    # L9: atomic truth values transport (Theorem 2 item 3)
    rep.record("projection-lemmas", "L9-atomic-transport", instance,
               not facts.transport["violations"], cctx,
               {k: facts.transport[k] for k in ("pairs", "violations")})

    # L10: pi is monotone where defined
    bad10 = []
    for ci in defined:
        for cj in defined:
            if src.poset.leq(ci, cj) and not qposet.leq(level.pi[ci], level.pi[cj]):
                bad10.append((src.poset.labels[ci], src.poset.labels[cj]))
    rep.record("projection-lemmas", "L10-monotone", instance, not bad10, cctx,
               {"violations": bad10[:4], "count": len(bad10)})

    # L11: forced equal projections merge below some member of G
    ok11, detail11 = _lemma11(ctx, beta)
    rep.record("projection-lemmas", "L11-merge-below", instance, ok11, cctx, detail11)

    # L12: forcing transports forward, and back below some member of G
    ok12, detail12 = _lemma12(ctx, beta, facts.atomic_values)
    rep.record("projection-lemmas", "L12-forcing-transport", instance, ok12,
               cctx, detail12)

    # L13: the equal-tails cut is regular
    ok13, detail13 = _lemma13(ctx, beta)
    rep.record("projection-lemmas", "L13-equal-tails-regular", instance, ok13,
               cctx, detail13)

    # L14: order reflects below conditions forcing the projected comparison
    ok14, detail14 = _lemma14(ctx, beta)
    rep.record("projection-lemmas", "L14-order-reflection", instance, ok14,
               cctx, detail14)


def _tail_sequences(ctx: ProjectionContext, beta: int):
    """Pairs (prefix index in P_alpha, tail suffix) of P_beta conditions,
    where the suffix is the coordinate block above alpha."""
    src = ctx.iteration.stages[beta]
    alpha = ctx.alpha
    out = []
    for ci, cond in enumerate(src.conditions):
        out.append((ci, ctx.prefix_index(beta, ci), cond[alpha:]))
    return out


def _attach(ctx: ProjectionContext, beta: int, s_idx: int, suffix) -> int | None:
    """Index of s-frown-suffix in P_beta: the alpha-prefix replaced by s and
    every tail restricted to the generics below it.  None when s does not
    sit below the suffix's original prefix constraints."""
    stages = ctx.iteration.stages
    alpha = ctx.alpha
    s_cond = stages[alpha].conditions[s_idx]
    raw = list(s_cond) + [TAIL_ONE] * (alpha - len(s_cond)) + list(suffix)
    try:
        cond = canonicalize_condition(raw, ctx.iteration, beta)
    except (KeyError, ProviderError):
        return None
    idx = stages[beta]._index.get(cond)
    return idx


def _lemma11(ctx: ProjectionContext, beta: int):
    """r in G with forced-equal projected tails: some s in G below r glues
    the two conditions into literal equality."""
    stages = ctx.iteration.stages
    alpha = ctx.alpha
    G = ctx.G
    src = stages[beta]
    tails = _tail_sequences(ctx, beta)
    checked = 0
    for (ci, pi_i, suf_i), (cj, pi_j, suf_j) in itertools.product(tails, repeat=2):
        if pi_i != pi_j:
            continue
        r = pi_i
        if r not in G:
            continue
        # premise: r forces equal projections, i.e. in every sibling context
        # whose generic contains r the two images agree
        forced = True
        for g2, gen2 in enumerate(stages[alpha].generics):
            if r not in gen2:
                continue
            ctx2 = make_context(ctx.iteration, alpha, g2, ctx.caps)
            if ctx2.levels[beta].pi[ci] != ctx2.levels[beta].pi[cj]:
                forced = False
                break
        if not forced:
            continue
        checked += 1
        found = False
        for s in _mask_bits(G.mask & stages[alpha].poset.below[r]):
            si = _attach(ctx, beta, s, suf_i)
            sj = _attach(ctx, beta, s, suf_j)
            if si is not None and si == sj:
                found = True
                break
        if not found:
            return False, {"pair": (src.poset.labels[ci], src.poset.labels[cj])}
    return True, {"pairs": checked}


def _lemma12(ctx: ProjectionContext, beta: int, atomic_values: tuple):
    """Forcing transports along pi for atomic formulas, and conversely some
    s in G below the prefix restores forcing.  Both directions depend only
    on the (source value, target value) pair of the formula instance, so
    each distinct pair is checked once per shape."""
    level = ctx.levels[beta]
    src = ctx.iteration.stages[beta]
    stages = ctx.iteration.stages
    alpha = ctx.alpha
    G = ctx.G
    A = ctx.source_algebras[beta]
    B = level.algebra
    principal = [A.principal(ci) for ci in range(src.poset.n)]
    defined = [(ci, principal[ci], B.principal(level.pi[ci]))
               for ci in range(src.poset.n) if level.pi[ci] is not None]
    checked = 0
    for _, src_val, tgt_val in atomic_values:
        for ci, u, qu in defined:
            src_forces = A.leq(u, src_val)
            tgt_forces = B.leq(qu, tgt_val)
            if src_forces and not tgt_forces:
                return False, {"direction": "forward",
                               "condition": src.poset.labels[ci]}
            if tgt_forces:
                prefix = ctx.prefix_index(beta, ci)
                suffix = src.conditions[ci][alpha:]
                ok = False
                for s in _mask_bits(G.mask & stages[alpha].poset.below[prefix]):
                    si = _attach(ctx, beta, s, suffix)
                    if si is not None and A.leq(principal[si], src_val):
                        ok = True
                        break
                if not ok:
                    return False, {"direction": "backward",
                                   "condition": src.poset.labels[ci]}
            checked += 1
    return True, {"checks": checked}


def _lemma13(ctx: ProjectionContext, beta: int):
    """U_{p1,p2} = {s : s-frown-p1 == s-frown-p2} is a regular cut of P_alpha."""
    stages = ctx.iteration.stages
    alpha = ctx.alpha
    aposet = stages[alpha].poset
    tails = _tail_sequences(ctx, beta)
    checked = 0
    for (ci, pre_i, suf_i), (cj, pre_j, suf_j) in itertools.product(tails, repeat=2):
        if pre_i != pre_j:
            continue
        mask = 0
        for s in _mask_bits(aposet.below[pre_i]):
            si = _attach(ctx, beta, s, suf_i)
            sj = _attach(ctx, beta, s, suf_j)
            if si is not None and si == sj:
                mask |= 1 << s
        checked += 1
        if not aposet.is_downward_closed(mask) or \
                regularize(mask, aposet) != mask:
            return False, {"pair": (ci, cj), "cut": f"{mask:#x}"}
    return True, {"pairs": checked}


def _lemma14(ctx: ProjectionContext, beta: int):
    """If r <= p and every generic containing r projects tail p1 below tail
    q1, then r-frown-p1 <= r-frown-q1 already in P_beta."""
    stages = ctx.iteration.stages
    alpha = ctx.alpha
    aposet = stages[alpha].poset
    src = stages[beta]
    tails = _tail_sequences(ctx, beta)
    checked = 0
    for (ci, pre_i, suf_i), (cj, pre_j, suf_j) in itertools.product(tails, repeat=2):
        if pre_i != pre_j:
            continue
        p = pre_i
        for r in _mask_bits(aposet.below[p]):
            ri = _attach(ctx, beta, r, suf_i)
            rj = _attach(ctx, beta, r, suf_j)
            if ri is None or rj is None:
                continue
            premise = True
            for g2, gen2 in enumerate(stages[alpha].generics):
                if r not in gen2:
                    continue
                ctx2 = make_context(ctx.iteration, alpha, g2, ctx.caps)
                lvl2 = ctx2.levels[beta]
                ii, jj = lvl2.pi[ri], lvl2.pi[rj]
                if ii is None or jj is None or \
                        not lvl2.stage.poset.leq(ii, jj):
                    premise = False
                    break
            if not premise:
                continue
            checked += 1
            if not src.poset.leq(ri, rj):
                return False, {"r": aposet.labels[r],
                               "pair": (src.poset.labels[ci], src.poset.labels[cj])}
    return True, {"checks": checked}


# -- Theorem 16: generic factorization ----------------------------------------


def factor_generic(iteration: Iteration, alpha: int, full_gen_index: int,
                   caps: Caps | None = None,
                   instance: str = "adhoc", rank: int = 2
                   ) -> tuple[GenericSet, int, SuiteReport]:
    """Split a final-stage generic into its stage-alpha part and the quotient
    remainder, checking genericity of both and the evaluation identity
    i_Gfull(x) = i_H(pi_second x) over the working universe."""
    caps = caps or iteration.caps
    rep = SuiteReport()
    stages = iteration.stages
    N = len(iteration)
    G_full = stages[N].generics[full_gen_index]
    aposet = stages[alpha].poset
    # stage-alpha restriction: P_alpha conditions are P_N conditions verbatim
    gmask = 0
    for ci, cond in enumerate(stages[alpha].conditions):
        ni = stages[N]._index.get(cond)
        if ni is not None and ni in G_full:
            gmask |= 1 << ci
    hit = [g for g in stages[alpha].generics if g.mask == gmask]
    rep.record("theorem16", "item1-prefix-generic", instance, len(hit) == 1,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"mask": f"{gmask:#x}"})
    if not hit:
        return None, -1, rep
    G = hit[0]
    gen_index = stages[alpha].generics.index(G)
    ctx = make_context(iteration, alpha, gen_index, caps)
    level = ctx.final_level
    qposet = level.stage.poset
    hmask = 0
    for ci in range(stages[N].poset.n):
        if level.pi[ci] is not None and ci in G_full:
            hmask |= 1 << level.pi[ci]
    filter_ok = is_filter(hmask, qposet)
    dense_ok = qposet.n <= caps.dense_enum_max and \
        all(hmask & d for d in dense_subsets(qposet))
    if qposet.n > caps.dense_enum_max:
        dense_ok = bool(hmask & qposet.atom_mask)
    rep.record("theorem16", "item2-quotient-generic", instance,
               filter_ok and dense_ok,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"filter": filter_ok, "meets_all_dense": dense_ok,
                "literal_dense_sweep": qposet.n <= caps.dense_enum_max})
    # item 3: evaluation identity over the working universe, one evaluation
    # memo per side
    A = ctx.source_algebras[N]
    src_u = working_universe(A, rank, caps)
    bad = None
    lhs_memo: dict = {}
    rhs_memo: dict = {}
    for x in src_u.names:
        lhs = evaluate(x, G_full.mask, lhs_memo)
        rhs = evaluate(ctx.pi_second(N, x), hmask, rhs_memo)
        if lhs != rhs:
            bad = name_text(x, A)
            break
    rep.record("theorem16", "item3-evaluation-identity", instance, bad is None,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"names": len(src_u.names), "exhaustive": src_u.exhaustive,
                "counterexample": bad})
    return G, hmask, rep


# -- Corollary 15: the quotient is the shifted iteration ----------------------


class _ShiftedProvider(StepProvider):
    """The original provider read through G: stage k of the rebuilt iteration
    asks the original rule at stage alpha+k along the composed generic path."""

    def __init__(self, base: StepProvider, alpha: int, gpath: tuple):
        self.base = base
        self.alpha = alpha
        self.gpath = gpath
        self.stage_count = base.stage_count - alpha

    def step(self, n: int, ctx: StepContext) -> Poset | None:
        shifted = StepContext(ctx.stage, ctx.gen_index,
                              self.gpath + ctx.path, ctx.stages)
        return self.base.step(n + self.alpha, shifted)


def verify_corollary15(ctx: ProjectionContext, instance: str = "adhoc") -> SuiteReport:
    """Rebuild the tail iteration with the shifted provider and check each
    rebuilt stage is order-isomorphic to the quotient poset, via the natural
    generic bridge (and by canonical form on small stages)."""
    rep = SuiteReport()
    iteration = ctx.iteration
    alpha = ctx.alpha
    N = len(iteration)
    gpath = iteration.stages[alpha].paths[ctx.gen_index]
    shifted = _ShiftedProvider(iteration.provider, alpha, gpath)
    rebuilt = build_iteration(shifted, ctx.caps.with_(
        max_stages=max(ctx.caps.max_stages, shifted.stage_count)))
    # generic bridge per rebuilt stage: rebuilt path -> source generic -> quotient generic
    bridges: dict[int, dict[int, int]] = {0: {0: 0}}
    for k in range(1, N - alpha + 1):
        rb = rebuilt.stages[k]
        level = ctx.levels[alpha + k]
        src_stage = iteration.stages[alpha + k]
        bridge: dict[int, int] = {}
        ok = True
        for rg, path in enumerate(rb.paths):
            sidx = src_stage.path_index.get(gpath + path)
            if sidx is None:
                ok = False
                break
            hit = [h for h, s in enumerate(level.combine) if s == sidx]
            if len(hit) != 1:
                ok = False
                break
            bridge[rg] = hit[0]
        rep.record("corollary15", f"stage-{k}-generic-bridge", instance, ok,
                   {"alpha": alpha, "generic": ctx.gen_index, "k": k},
                   {"rebuilt_generics": len(rb.paths),
                    "quotient_generics": len(level.stage.generics)})
        if not ok:
            return rep
        bridges[k] = bridge
    for k in range(1, N - alpha + 1):
        rb = rebuilt.stages[k]
        level = ctx.levels[alpha + k]
        qposet = level.stage.poset
        mapping: list[int | None] = []
        ok = True
        for cond in rb.conditions:
            remapped = tuple(
                coord if coord is TAIL_ONE else
                tuple(sorted((bridges[j][g], e) for g, e in coord))
                for j, coord in enumerate(cond))
            qi = level.stage._index.get(remapped)
            if qi is None:
                ok = False
                mapping.append(None)
            else:
                mapping.append(qi)
        bijective = ok and len(set(mapping)) == len(mapping) == qposet.n
        order_ok = bijective
        if bijective:
            for i in range(rb.poset.n):
                for j in range(rb.poset.n):
                    if rb.poset.leq(i, j) != qposet.leq(mapping[i], mapping[j]):
                        order_ok = False
                        break
                if not order_ok:
                    break
        rep.record("corollary15", f"stage-{k}-order-isomorphic", instance,
                   bijective and order_ok,
                   {"alpha": alpha, "generic": ctx.gen_index, "k": k},
                   {"rebuilt": rb.poset.n, "quotient": qposet.n,
                    "natural_map_total": ok})
        if bijective and order_ok and rb.poset.n <= 8 and qposet.n <= 8:
            same = rb.poset.canonical_key() == qposet.canonical_key()
            rep.record("corollary15", f"stage-{k}-canonical-form", instance,
                       same, {"alpha": alpha, "generic": ctx.gen_index, "k": k}, {})
    return rep


# -- Lemma 20 analogue ---------------------------------------------------------


def verify_lemma20_analogue(iteration: Iteration, full_gen_index: int,
                            instance: str = "adhoc") -> SuiteReport:
    """Whenever a collapse component ran with |X| < m, the generic filter's
    union is a total injection from X into {0..m-1}."""
    rep = SuiteReport()
    provider = iteration.provider
    if not isinstance(provider, CifsProvider):
        raise ProjectionError("lemma 20 analogue needs a toy-iteration provider")
    N = len(iteration)
    path = iteration.stages[N].paths[full_gen_index]
    for k in range(N):
        if k >= len(path) or path[k] is None:
            continue
        info = provider.info.get((k, path[:k]))
        if info is None:
            continue
        _, m = provider.ladder[k]
        tup = info.element_tuples[path[k]]
        for comp, cond_idx in enumerate(tup):
            payload = info.payloads[comp][cond_idx]
            if comp == 0:
                X = info.structure
            else:
                w = info.witnesses[comp - 1]
                if w is None:
                    continue
                X = w.members
            if len(X) >= m:
                continue
            dom = {x for x, _ in payload}
            vals = [v for _, v in payload]
            total = dom == set(X)
            injective = len(set(vals)) == len(vals) and all(0 <= v < m for v in vals)
            rep.record("cifs", f"lemma20-stage{k}-component{comp}", instance,
                       total and injective,
                       {"stage": k, "component": comp, "generic": full_gen_index},
                       {"X": len(X), "m": m, "union_size": len(payload)})
    return rep
