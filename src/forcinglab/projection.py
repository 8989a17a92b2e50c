"""Generic-quotient projections and the lemma/theorem verification suites.

Given a built iteration, a stage alpha and a generic G on it, this module
constructs, level by level, the quotient posets seen from the extension
together with the three maps:

    pi        conditions with their alpha-prefix in G  ->  quotient conditions
    pi_prime  algebra elements                         ->  quotient algebra elements
              (pointwise image of the element's cut, then regularization:
              the atoms below some image point)
    pi_second names                                    ->  names
              (structural recursion, elements through pi_prime)

The first quotient level takes a condition's tail to its value under G; each
later level pairs the previous quotient prefix with the tail's image, which
:func:`_tail_image` reads off the previous level's pi_prime: what the tail's
literal name, mapped through pi_second, denotes under each quotient generic,
with no name built.  Everything downstream -- the complete-homomorphism
certificate, the per-lemma property checks, generic factorization and the
rebuilt-tail comparison -- quantifies exhaustively over the finite instance.
Each level holds one record of pi: its conditions grouped by image
(pi_prime's columns, Theorem 16's H), per condition the equal, above and
compatible images as bit rows (L5 and L10 at the level, L11 and L14 at every
sibling level), and the facts Theorem 2 and the lemma suite share
(homomorphism, onto, atomic transport).  Each context builds its own source
algebras, so names and their pi_second images never pass between contexts;
the order rows and cut tables under them are memoized per relation matrix in
:mod:`forcinglab.poset`.  L11-L14 read the s-frown table, built from the
parent rows and grouped by alpha-prefix; L12 runs through the lower adjoint
of the level's homomorphism.  The statements about names -- Theorem 2's onto
and transport items and Theorem 16's evaluation identity -- are certified on
algebra elements, which by induction through pi_second covers every name of
every rank, plus an audit of the cached pi_second images; no name universe
is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .boolalg import BoolAlgebra, HomReport, certify_complete_hom, ro_algebra
from .config import Caps
from .generic import GenericSet, is_filter
from .iteration import (TAIL_ONE, CifsProvider, Coordinate, Iteration, Stage,
                        StepContext, StepProvider, build_iteration,
                        extend_stage, root_stage)
# evaluate is unused here; it stays bound for perfbench/selftest.py, which
# checks that its tracer reaches this binding
from .names import Name, evaluate, name_text  # noqa: F401
from .poset import Poset, _mask_bits, regular_cuts
from .report import SuiteReport


class ProjectionError(RuntimeError):
    pass


class _ImageRows(NamedTuple):
    """Bit rows of conditions q per P_beta condition p, parallel to pi."""

    equal: list[int]        # pi(q) == pi(p), two undefined images equal
    above: list[int]        # pi(p) <= pi(q), both defined
    compatible: list[int]   # pi(p) and pi(q) compatible, both defined


@dataclass
class QuotientLevel:
    """The quotient data at one level beta > alpha (or the trivial root).
    Its record of pi is derived on first read and is no init field, so a
    ``dataclasses.replace`` copy with another pi or pi_prime derives its own."""

    beta: int
    stage: Stage                      # quotient conditions as a built stage
    pi: list                          # P_beta condition index -> class index | None
    combine: list[int]                # quotient generic -> P_beta generic index
    algebra: BoolAlgebra              # r.o. of the quotient poset
    pi_prime: dict[int, int]          # source element -> quotient element
    _pi_second: dict = field(default_factory=dict, init=False)  # name uid -> image
    _preimages: dict | None = field(default=None, init=False)
    _rows: _ImageRows | None = field(default=None, init=False)
    _facts: _LevelFacts | None = field(default=None, init=False)

    @property
    def preimages(self) -> dict:
        """{pi image: bitmask of its P_beta conditions}, None for undefined."""
        if self._preimages is None:
            self._preimages = {}
            for p, v in enumerate(self.pi):
                self._preimages[v] = self._preimages.get(v, 0) | 1 << p
        return self._preimages

    @property
    def rows(self) -> _ImageRows:
        if self._rows is None:
            self._rows = _image_rows(self)
        return self._rows


def _image_rows(level: QuotientLevel) -> _ImageRows:
    """The level's rows: per image v the preimage classes above v and those
    compatible with v are ORed once, and each condition reads its image's."""
    classes = level.preimages
    defined = [(u, m) for u, m in classes.items() if u is not None]
    qposet = level.stage.poset
    cones = {None: (0, 0)}
    for v, _ in defined:
        cones[v] = (sum(m for u, m in defined if qposet.above[v] >> u & 1),
                    sum(m for u, m in defined if qposet.compat[v] >> u & 1))
    return _ImageRows([classes[v] for v in level.pi],
                      [cones[v][0] for v in level.pi],
                      [cones[v][1] for v in level.pi])


@dataclass
class ProjectionContext:
    """All quotient levels for one (iteration, alpha, G)."""

    iteration: Iteration
    alpha: int
    gen_index: int
    caps: Caps
    levels: dict[int, QuotientLevel]
    source_algebras: dict[int, BoolAlgebra]   # this context's own, per stage

    @property
    def G(self) -> GenericSet:
        return self.iteration.stages[self.alpha].generics[self.gen_index]

    @property
    def final_level(self) -> QuotientLevel:
        return self.levels[len(self.iteration)]

    def pi_second(self, beta: int, name: Name) -> Name:
        level = self.levels[beta]
        got = level._pi_second.get(name.uid)
        if got is None:
            got = Name(((self.pi_second(beta, sub), level.pi_prime[x])
                        for sub, x in name.entries), level.algebra)
            level._pi_second[name.uid] = got
        return got


def _tail_image(prev_level: QuotientLevel, prev_stage: Stage, steps_q: list,
                qprefix: int, tail) -> Coordinate | None:
    """The canonical quotient tail under ``qprefix`` that the pi_second
    image of ``tail``'s literal name denotes, ``tail`` being canonical at
    ``prev_stage``, the source stage of ``prev_level``; None (refused) for
    a value outside its step poset or a generic with no step poset.

    Let S_i be the atoms of the generics whose value has bit i.  An id's
    :func:`forcinglab.hfset.element_code` is the set of chains i for its
    set bits, so the literal name, mixed over the atoms, has the entries
    (check name of chain i, S_i).  Check names carry one, and pi_prime(one)
    is one (pi is onto the quotient stage, so every quotient atom has a
    preimage), so pi_second keeps them and sends S_i to pi_prime(S_i).
    Under the quotient generic of atom a the image denotes the element
    whose bit i is set exactly when a is in pi_prime(S_i).  The tests keep
    the name route as this decoder's oracle."""
    sets: dict[int, int] = {}       # bit i -> S_i
    for g, e in tail:
        for i in _mask_bits(e):
            sets[i] = sets.get(i, 0) | 1 << prev_stage.generics[g].atom
    images = [(1 << i, prev_level.pi_prime[s]) for i, s in sets.items()]
    qstage = prev_level.stage
    out = []
    for g in qstage.gens_of(qprefix):
        a = qstage.generics[g].atom
        e = sum(bit for bit, image in images if image >> a & 1)
        if steps_q[g] is None or e >= steps_q[g].n:
            return None
        out.append((g, e))
    return TAIL_ONE if all(e == steps_q[g].top for g, e in out) else tuple(out)


def make_context(iteration: Iteration, alpha: int, gen_index: int,
                 caps: Caps | None = None) -> ProjectionContext:
    """Build pi, pi_prime and the quotient posets for every level.

    The construction follows the inductive cases: the first level evaluates
    tails under G, later successor levels prepend the previous level's
    quotient prefix and decode each tail's pi_second image from the
    previous level's pi_prime (:func:`_tail_image`), building no name.
    Only successor levels exist at finite stage counts; the limit clause is
    vacuous here and the suites report it as such.

    The root level is the process's one :func:`root_stage`.  The context
    builds its own source algebras and every level its own quotient
    algebra, so names and pi_second images stay apart from other
    contexts'; the poset rows and algebra tables under them are memoized
    per relation matrix in :mod:`forcinglab.poset`, so orders that repeat
    across contexts are validated and tabulated once.  The iteration's
    ``context_cache`` holds the finished context and nothing else.

    Stage beta-1's conditions keep their indices at stage beta and have
    tail 1 there, so at level beta they project as at level beta-1.  A
    condition new at stage beta gives a (quotient prefix, canonical tail)
    pair, the quotient stage is built from these pairs, and the image is
    ``qstage.extension(qprefix, qtail)``.  pi_prime's columns are read off
    the level's preimage classes, which the level keeps for the checks.
    A refused tail image raises before the context is cached.
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

    source_algebras = {beta: ro_algebra(stages[beta].poset,
                                        max_base=caps.algebra_max_base)
                       for beta in range(alpha, N + 1)}

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

    in_G = G.mask           # the level's conditions with alpha-prefix in G
    for beta in range(alpha + 1, N + 1):
        prev_level = levels[beta - 1]
        prev_src = stages[beta - 1]
        src = stages[beta]
        steps_q = [src.steps[sg] for sg in prev_level.combine]
        # stage beta-1's conditions keep their indices and have tail 1, so
        # each projects as at the previous level; only the new ones, those
        # with a tail at stage beta-1, are placed here
        old = prev_src.poset.n
        pi: list = prev_level.pi + [None] * (src.poset.n - old)
        new_in_G = 0
        for ci in range(old, src.poset.n):
            if in_G >> src.parent[ci] & 1:
                new_in_G |= 1 << ci
        in_G |= new_in_G
        tails: list[tuple[int, object]] = []
        for ci in _mask_bits(new_in_G):
            tail = src.conditions[ci][beta - 1]
            qprefix = pi[src.parent[ci]]
            if qprefix is None:
                raise ProjectionError("prefix in G but previous level undefined")
            if beta == alpha + 1:
                e = dict(tail)[gen_index]   # of a canonical tail: valid
                qtail = TAIL_ONE if e == steps_q[0].top else ((0, e),)
            else:
                qtail = _tail_image(prev_level, prev_src, steps_q, qprefix, tail)
                if qtail is None:
                    raise ProjectionError(f"tail image at level {beta} is "
                                          "outside the quotient's step posets")
            tails.append((qprefix, qtail))
        qstage = extend_stage(prev_level.stage, steps_q, caps, tails)
        for ci, (qprefix, qtail) in zip(_mask_bits(new_in_G), tails):
            pi[ci] = qstage.extension(qprefix, qtail)
        # bridge: quotient generics <-> source generics whose prefix generic
        # is G, matched through their atoms (one generic per atom)
        qposet = qstage.poset
        gen_of_atom = {qg.atom: h for h, qg in enumerate(qstage.generics)}
        combine: list[int | None] = [None] * len(qstage.generics)
        for sg, gen in enumerate(src.generics):
            if pi[gen.atom] is None:
                continue
            h = gen_of_atom.get(pi[gen.atom])
            if h is None:
                raise ProjectionError(
                    f"atom image is not a quotient atom at level {beta}")
            if combine[h] is not None:
                raise ProjectionError(
                    f"two source generics project onto one quotient generic at level {beta}")
            combine[h] = sg
        if any(c is None for c in combine):
            raise ProjectionError(f"quotient generic with no source generic at level {beta}")
        algebra = ro_algebra(qposet, max_base=caps.algebra_max_base)
        level = levels[beta] = QuotientLevel(beta, qstage, pi, combine,
                                             algebra, {})
        # the atoms of the regularized image of a cut are the atoms below
        # some image point, so quotient atom b is in pi_prime(x) iff the
        # cut of x meets b's column: the defined p with b <= pi(p)
        preimages = level.preimages
        columns = [(1 << b, sum(preimages.get(q, 0)
                                for q in _mask_bits(qposet.above[b])))
                   for b in qposet.atoms]
        A = source_algebras[beta]
        for x in A.elements:
            cut = A.cut(x)
            img = 0
            for bit, col in columns:
                if cut & col:
                    img |= bit
            level.pi_prime[x] = img

    ctx = ProjectionContext(iteration, alpha, gen_index, caps, levels,
                            source_algebras)
    iteration.context_cache[cache_key] = ctx
    return ctx


# -- shared per-level facts ------------------------------------------------------


@dataclass(frozen=True)
class _LevelFacts:
    """What Theorem 2 and the lemma suite both cite at one quotient level."""

    hom: HomReport          # item 1; L6 cites complement, L7 products
    onto: dict              # item 2 and L8 detail
    transport: dict         # item 3 and L9 detail


def _holds(detail: dict) -> bool:
    """An item-2 or item-3 detail with neither a counterexample nor a stale
    name image."""
    return detail["counterexample"] is None and detail["stale_image"] is None


def _stale_image(ctx: ProjectionContext, beta: int) -> Name | None:
    """The first source name whose cached level-beta pi_second image is not
    the structural recursion on its entries, or None.

    The element certificates of Theorem 2 and Theorem 16 reach every name
    by induction through that recursion, so they trust the memo only after
    this audit.  Children are interned before their parents, so walking the
    algebra's name table in insertion order reports the first stale image,
    not a parent that merely carries it.
    """
    level = ctx.levels[beta]
    A, B = ctx.source_algebras[beta], level.algebra
    memo = level._pi_second
    for x in A.name_table.values():
        got = memo.get(x.uid)
        if got is not None and got is not Name(
                ((ctx.pi_second(beta, sub), level.pi_prime[e])
                 for sub, e in x.entries), B):
            return x
    return None


def _transport_witness(hom: HomReport, A: BoolAlgebra) -> tuple[str, Name, Name]:
    """A source pair of rank <= 2 and an atomic shape on which pi_prime of
    the source value differs from the value of the image pair, built from
    the first violation of a failed homomorphism report.

    With e the empty name: ||e = e|| is one and ||e in e|| is zero;
    ||e = {(e, b)}|| is -b; ||e in {({(e, -a)}, b)}|| is a * b.  The report
    checks zero, one and every complement before any pair, so a first
    product violation comes with complement kept, which makes the image of
    that last value h(a) * h(b); a first sum violation at (a, b) is a
    product violation at (-a, -b) by De Morgan.
    """
    kind, xs, _, _ = hom.counterexamples[0]
    e = Name((), A)

    def single(b: int) -> Name:
        return Name(((e, b),), A)

    if kind == "zero":
        return "in", e, e
    if kind == "one":
        return "=", e, e
    if kind == "complement":
        return "=", e, single(xs[0])
    if kind == "sum":
        xs = [A.complement(x) for x in xs]
    a, b = xs
    return "in", e, Name(((single(A.complement(a)), b),), A)


def _level_facts(ctx: ProjectionContext, beta: int) -> _LevelFacts:
    """The shared facts of level beta, computed on first use.

    Both items are decided for every name of every rank by induction
    through the structural definition of pi_second (Jech, *Set Theory*,
    2003, Ch. 14).  pi_second is onto when pi_prime attains every nonzero
    quotient element: entries map back through any preimage of their
    element.  For a homomorphism, whose image is closed under joins, only
    then, and {(empty, c)} witnesses an unattained c.  Atomic truth values
    transport exactly when pi_prime is a Boolean homomorphism: the atomic
    clauses are finite sums, products and complements, and entries that
    pi_second merges are joined.  Both inductions trust the pi_second memo,
    which :func:`_stale_image` audits.
    """
    level = ctx.levels[beta]
    if level._facts is not None:
        return level._facts
    A = ctx.source_algebras[beta]
    B = level.algebra
    hom = certify_complete_hom(level.pi_prime, A, B)
    stale = _stale_image(ctx, beta)
    stale_text = None if stale is None else name_text(stale, A)
    image = set(level.pi_prime.values())
    unattained = next((c for c in B.nonzero if c not in image), None)
    onto = {"quotient_elements": len(B),
            "counterexample": None if unattained is None else
            name_text(Name(((Name((), B), unattained),), B), B),
            "stale_image": stale_text}
    witness = None
    if not hom.ok:
        shape, x, y = _transport_witness(hom, A)
        witness = [shape, name_text(x, A), name_text(y, A)]
    transport = {"source_elements": len(A), "counterexample": witness,
                 "stale_image": stale_text}
    level._facts = _LevelFacts(hom, onto, transport)
    return level._facts


# -- Theorem 2 ----------------------------------------------------------------


def verify_theorem2(ctx: ProjectionContext, instance: str = "adhoc",
                    pi_prime_override=None, rank: int = 2) -> SuiteReport:
    """Items 1-3 per level, reported from the level's shared facts, each
    certified on algebra elements for every name of every rank: pi_prime is
    a complete Boolean homomorphism (complement and binary meets and joins,
    which in a finite algebra is completeness), pi_second is onto (pi_prime
    attains every nonzero quotient element), and atomic truth values
    transport through the maps (item 1 for the level's own map).  A failure
    of item 2 is witnessed by a rank-1 quotient name, of item 3 by a source
    pair of rank at most 2; a stale cached name image fails both.

    Item 1's ``families`` is the number of families the certificate
    settles, the empty family and every pair of distinct elements;
    ``violations`` counts a broken zero, a broken one, each element whose
    complement is not kept and each element whose atom or coatom fold
    fails (see :func:`certify_complete_hom`).

    ``pi_prime_override`` replaces the map in item 1 only.  ``rank`` bounds
    nothing; it stays so that callers passing the run's rank keep working."""
    rep = SuiteReport()
    N = len(ctx.iteration)
    for beta in range(ctx.alpha + 1, N + 1):
        facts = _level_facts(ctx, beta)
        cctx = {"alpha": ctx.alpha, "generic": ctx.gen_index, "beta": beta}
        A, B = ctx.source_algebras[beta], ctx.levels[beta].algebra
        hom = facts.hom if pi_prime_override is None else certify_complete_hom(
            pi_prime_override, A, B)
        # each element written as its poset cut
        cuts = [(kind, tuple(A.cut(x) for x in family), B.cut(want), B.cut(got))
                for kind, family, want, got in hom.counterexamples[:4]]
        rep.record("theorem2", "item1-complete-hom", instance, hom.ok, cctx,
                   {"families": hom.families_checked,
                    "violations": hom.violation_count,
                    "counterexamples": cuts})
        rep.record("theorem2", "item2-onto", instance, _holds(facts.onto),
                   cctx, facts.onto)
        rep.record("theorem2", "item3-atomic-transport", instance,
                   _holds(facts.transport), cctx, facts.transport)
    return rep


# -- Lemmas 3-14 --------------------------------------------------------------


def verify_projection_lemmas(ctx: ProjectionContext, instance: str = "adhoc",
                             rank: int = 2) -> SuiteReport:
    """One exhaustive sub-check per projection lemma, itemized L3..L14.
    L5 and L10 read the level's image rows and L6-L9 its shared facts, as
    Theorem 2 does; L11-L14 read one s-frown-p table, built from the parent
    rows stage by stage and grouped by alpha-prefix, L11 and L14 also the
    image rows of every sibling level, each level's built once, and L12
    uses the lower adjoint where item 1 holds.  No condition is
    canonicalized.  The limit-stage clause is stated once per run by
    :func:`limit_clause_skip`.
    ``rank`` bounds nothing, as in :func:`verify_theorem2`."""
    rep = SuiteReport()
    N = len(ctx.iteration)
    for beta in range(ctx.alpha + 1, N + 1):
        _lemmas_at_level(ctx, beta, rep, instance)
    return rep


def limit_clause_skip() -> SuiteReport:
    """The one labeled skip for the lemmas' limit-stage coherence clause.
    At finite stage counts every level is a successor, so the clause has
    nothing to range over in any context; it is one fact about the run, not
    one per context."""
    rep = SuiteReport()
    rep.skip("projection-lemmas", "limit-clause", "sweep", {},
             {"reason": "vacuous at this scale: no limit stages exist"})
    return rep


def _lemmas_at_level(ctx: ProjectionContext, beta: int, rep: SuiteReport,
                     instance: str):
    facts = _level_facts(ctx, beta)
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

    rows = level.rows
    defined_mask = src.poset.full_mask & ~level.preimages.get(None, 0)

    # L5: disjoint principal cuts stay disjoint
    detail5 = _pair_violations(src.poset, defined, [
        rows.compatible[ci] & ~src.poset.compat[ci] for ci in defined])
    rep.record("projection-lemmas", "L5-disjointness", instance,
               not detail5["count"], cctx, detail5)

    # L6: pi_prime commutes with complement
    bad6 = [f"{A.cut(c[1][0]):#x}" for c in facts.hom.counterexamples
            if c[0] == "complement"]
    rep.record("projection-lemmas", "L6-complement", instance,
               facts.hom.preserves_complement, cctx, {"violations": bad6[:4]})

    # L7: pi_prime commutes with arbitrary products: it keeps one and every
    # binary meet, and every family of a finite algebra is finite
    rep.record("projection-lemmas", "L7-products", instance,
               facts.hom.preserves_all_products, cctx,
               {"families": facts.hom.families_checked})

    # L8: pi_second onto every quotient name (Theorem 2 item 2)
    rep.record("projection-lemmas", "L8-onto", instance, _holds(facts.onto),
               cctx, facts.onto)

    # L9: atomic truth values transport (Theorem 2 item 3)
    rep.record("projection-lemmas", "L9-atomic-transport", instance,
               _holds(facts.transport), cctx, facts.transport)

    # L10: pi is monotone where defined
    detail10 = _pair_violations(src.poset, defined, [
        defined_mask & src.poset.above[ci] & ~rows.above[ci] for ci in defined])
    rep.record("projection-lemmas", "L10-monotone", instance,
               not detail10["count"], cctx, detail10)

    # L11-L14 quantify over s-frown-p and over the sibling contexts
    table = _frown_table(ctx, beta)
    groups = _prefix_groups(table)
    siblings = [make_context(ctx.iteration, ctx.alpha, g, ctx.caps).levels[beta]
                for g in range(len(ctx.iteration.stages[ctx.alpha].generics))]

    # L11: forced equal projections merge below some member of G
    ok11, detail11 = _lemma11(ctx, beta, table, groups, siblings)
    rep.record("projection-lemmas", "L11-merge-below", instance, ok11, cctx, detail11)

    # L12: forcing transports forward, and back below some member of G
    ok12, detail12 = _lemma12(ctx, beta, table, facts.hom.ok)
    rep.record("projection-lemmas", "L12-forcing-transport", instance, ok12,
               cctx, detail12)

    # L13: the equal-tails cut is regular
    ok13, detail13 = _lemma13(ctx, table, groups)
    rep.record("projection-lemmas", "L13-equal-tails-regular", instance, ok13,
               cctx, detail13)

    # L14: order reflects below conditions forcing the projected comparison
    ok14, detail14 = _lemma14(ctx, beta, table, groups, siblings)
    rep.record("projection-lemmas", "L14-order-reflection", instance, ok14,
               cctx, detail14)


def _pair_violations(poset: Poset, defined: list[int], rows: list[int]) -> dict:
    """The pairs (ci, cj) with cj in ci's row, ``rows`` running parallel to
    ``defined``: the first four in (ci, cj) order as label pairs, and the
    count."""
    count, first = 0, []
    for ci, row in zip(defined, rows):
        count += row.bit_count()
        for cj in itertools.islice(_mask_bits(row), 4 - len(first)):
            first.append((poset.labels[ci], poset.labels[cj]))
    return {"violations": first, "count": count}


def _frown_table(ctx: ProjectionContext, beta: int) -> list[tuple[int, dict]]:
    """Per P_beta condition p: the index in P_alpha of its alpha-prefix, and
    a map from each s below that prefix, in ascending order, to the P_beta
    index of s-frown-p (the alpha-prefix replaced by s, every tail
    restricted to the generics below it), or None when s does not sit below
    the tails' prefix constraints.

    The table is built one stage at a time from the parent rows.  At stage
    alpha, s-frown-r is s.  At stage k a tail-1 condition keeps its
    parent's row, since stage k holds stage k-1's conditions at the same
    indices; any other condition's s-frown is its tail restricted to the
    generics of the parent's s-frown f: f itself when the restriction is
    all top, else the stage-k condition looked up by prefix and tail,
    ``stage.extension(f, restriction)``.
    ``tests/lemma_oracle.py`` keeps the form that canonicalizes each
    (p, s) from stage 0 as this kernel's oracle."""
    stages = ctx.iteration.stages
    astage = stages[ctx.alpha]
    below = astage.poset.below
    prefixes = list(range(astage.poset.n))
    rows = [{s: s for s in _mask_bits(below[r])} for r in prefixes]
    for k in range(ctx.alpha + 1, beta + 1):
        prev, stage = stages[k - 1], stages[k]
        gen_masks = prev.gen_masks
        for ci in range(prev.poset.n, stage.poset.n):
            p = stage.parent[ci]
            tail = stage.conditions[ci][k - 1]
            lifted = 0          # the generics where the tail is below top
            for g, e in tail:
                if e != stage.steps[g].top:
                    lifted |= 1 << g
            row = {}
            for s, f in rows[p].items():
                if f is not None:
                    gens = gen_masks[f]
                    if gens & lifted:
                        f = stage.extension(f, tuple(
                            (g, e) for g, e in tail if gens >> g & 1))
                row[s] = f
            rows.append(row)
            prefixes.append(prefixes[p])
    return list(zip(prefixes, rows))


def _prefix_groups(table: list[tuple[int, dict]]) -> dict[int, tuple[int, dict]]:
    """The table's rows grouped by alpha-prefix r: the P_beta conditions
    with prefix r, as a bitmask, and for each s below r those conditions
    partitioned by their s-frown image, as {image: bitmask}.  A condition
    whose s-frown is undefined is in no class at s.  L11, L13 and L14
    enumerate pairs only inside one group."""
    groups: dict[int, tuple[int, dict]] = {}
    for ci, (r, row) in enumerate(table):
        members, classes = groups.get(r, (0, {}))
        for s, si in row.items():
            if si is not None:
                at_s = classes.setdefault(s, {})
                at_s[si] = at_s.get(si, 0) | 1 << ci
        groups[r] = (members | 1 << ci, classes)
    return groups


def _forced(astage: Stage, rows: list[list[int]], n: int):
    """R(r, p): the AND of the sibling rows rows[g][p] over the generics g
    of P_alpha that contain r, memoized per (r, p).  There is one generic
    per atom, so these are the q that r forces into p's relation (Kunen,
    *Set Theory*, 1980, Ch. VII); no generic contains r means every q."""
    memo: dict[tuple[int, int], int] = {}

    def forced(r: int, p: int) -> int:
        got = memo.get((r, p))
        if got is None:
            got = (1 << n) - 1
            for g in astage.gens_of(r):
                got &= rows[g][p]
            memo[r, p] = got
        return got
    return forced


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _lemma11(ctx: ProjectionContext, beta: int, table: list, groups: dict,
             siblings: list):
    """r in G with forced-equal projected tails: some s in G below r glues
    the two conditions into literal equality.  A pair is glued at s when
    both lie in one s-frown class of their group; the first failing pair
    in (p, q) order is reported.

    On the `--max-poset 3 --max-stages 3` sweep the premise holds for
    4,910 pairs over 608 quotient levels (4,886 over the 606 levels of
    total instances), all of them diagonal, so there this checks that
    each condition with prefix r in G has a defined s-frown at some s in G
    below r.  Only the collapsed-siblings control exercises the pairwise
    part."""
    G = ctx.G
    astage = ctx.iteration.stages[ctx.alpha]
    forced_equal = _forced(astage, [lvl.rows.equal for lvl in siblings],
                           len(table))
    checked = 0
    for ci, (r, row) in enumerate(table):
        if r not in G:
            continue
        members, classes = groups[r]
        premise = forced_equal(r, ci) & members
        glued = 0
        for s in _mask_bits(G.mask & astage.poset.below[r]):
            si = row.get(s)
            if si is not None:
                glued |= classes[s][si]
        checked += premise.bit_count()
        if premise & ~glued:
            labels = ctx.iteration.stages[beta].poset.labels
            return False, {"pair": (labels[ci], labels[_lowest(premise & ~glued)])}
    return True, {"pairs": checked}


def _lemma12(ctx: ProjectionContext, beta: int, table: list, hom_ok: bool):
    """Forcing transports along pi for atomic formulas, and conversely some
    s in G below the prefix restores forcing.  Both directions depend only
    on the (source value, target value) pair of the formula instance.  Each
    element b is the source value of ||empty in {(empty, b)}||, whose target
    value is pi_prime(b), and where atomic transport holds (L9) every
    instance has that target.  So checking every element b covers every
    atomic instance of every rank.

    When pi_prime is a complete homomorphism h (``hom_ok``, the level's
    certified fact), each defined condition p, with u its principal element
    and qu that of pi(p), needs one test per direction.  h is monotone, so
    the forward direction holds for every b >= u iff qu <= h(u).  The b
    with qu <= h(b) are the principal filter above the lower adjoint
    b* = join of the atoms a with h(a) * qu != 0 (Davey & Priestley,
    *Introduction to Lattices and Order*, 2002, Ch. 7), and the backward
    condition is upward closed in b, so it holds on that filter iff it
    holds at b*.  ``checks`` counts the defined conditions.  Otherwise
    :func:`_lemma12_by_elements` checks every element."""
    if not hom_ok:
        return _lemma12_by_elements(ctx, beta, table)
    level = ctx.levels[beta]
    poset = ctx.iteration.stages[beta].poset
    aposet = ctx.iteration.stages[ctx.alpha].poset
    G = ctx.G
    A = ctx.source_algebras[beta]
    B = level.algebra
    atom_images = [(1 << a, level.pi_prime[1 << a]) for a in A.base.atoms]
    checked = 0
    for ci, qc in enumerate(level.pi):
        if qc is None:
            continue
        qu = B.principal(qc)
        if not B.leq(qu, level.pi_prime[A.principal(ci)]):
            return False, {"direction": "forward", "condition": poset.labels[ci]}
        bstar = 0
        for a, image in atom_images:
            if image & qu:
                bstar |= a
        prefix, row = table[ci]
        if not any(row.get(s) is not None and A.leq(A.principal(row[s]), bstar)
                   for s in _mask_bits(G.mask & aposet.below[prefix])):
            return False, {"direction": "backward", "condition": poset.labels[ci]}
        checked += 1
    return True, {"checks": checked}


def _lemma12_by_elements(ctx: ProjectionContext, beta: int, table: list):
    """L12 checked at every source element b and defined condition: the
    path for a pi_prime that is not a homomorphism, and the tests' oracle
    for :func:`_lemma12`.  ``checks`` counts (element, condition) pairs."""
    level = ctx.levels[beta]
    src = ctx.iteration.stages[beta]
    aposet = ctx.iteration.stages[ctx.alpha].poset
    G = ctx.G
    A = ctx.source_algebras[beta]
    B = level.algebra
    principal = [A.principal(ci) for ci in range(src.poset.n)]
    defined = [(ci, principal[ci], B.principal(level.pi[ci]))
               for ci in range(src.poset.n) if level.pi[ci] is not None]
    checked = 0
    for src_val in A.elements:
        tgt_val = level.pi_prime[src_val]
        for ci, u, qu in defined:
            src_forces = A.leq(u, src_val)
            tgt_forces = B.leq(qu, tgt_val)
            if src_forces and not tgt_forces:
                return False, {"direction": "forward",
                               "condition": src.poset.labels[ci]}
            if tgt_forces:
                prefix, row = table[ci]
                if not any(row.get(s) is not None and
                           A.leq(principal[row[s]], src_val)
                           for s in _mask_bits(G.mask & aposet.below[prefix])):
                    return False, {"direction": "backward",
                                   "condition": src.poset.labels[ci]}
            checked += 1
    return True, {"checks": checked}


def _lemma13(ctx: ProjectionContext, table: list, groups: dict):
    """U_{p1,p2} = {s : s-frown-p1 == s-frown-p2} is a regular cut of
    P_alpha, for every pair with one alpha-prefix.  U_{p1,p2} collects the
    s at which p2 lies in p1's s-frown class.  A cut is regular exactly
    when it is the regular cut of its own atoms, read off the cut table
    memoized per relation matrix; the first failing pair in (p1, p2) order
    is reported."""
    aposet = ctx.iteration.stages[ctx.alpha].poset
    cut_of = regular_cuts(aposet)[0]
    checked = 0
    for ci, (r, row) in enumerate(table):
        members, classes = groups[r]
        cuts = dict.fromkeys(_mask_bits(members), 0)
        for s, si in row.items():
            if si is not None:
                for cj in _mask_bits(classes[s][si]):
                    cuts[cj] |= 1 << s
        checked += len(cuts)
        for cj, mask in cuts.items():
            if cut_of[mask & aposet.atom_mask] != mask:
                return False, {"pair": (ci, cj), "cut": f"{mask:#x}"}
    return True, {"pairs": checked}


def _lemma14(ctx: ProjectionContext, beta: int, table: list, groups: dict,
             siblings: list):
    """If r <= p and every generic containing r projects tail p1 below tail
    q1, then r-frown-p1 <= r-frown-q1 already in P_beta.  For fixed p1 and
    r the q1 of p1's group fall into r-frown classes, one premise bit test
    and one order test per class; the first failing (p1, q1, r) is
    reported."""
    astage = ctx.iteration.stages[ctx.alpha]
    src = ctx.iteration.stages[beta]
    below = src.poset.below
    forced_below = _forced(astage, [lvl.rows.above for lvl in siblings],
                           len(table))
    checked = 0
    for ci, (prefix, row) in enumerate(table):
        classes = groups[prefix][1]
        failed = []
        for r, ri in row.items():
            if ri is None:
                continue
            premise = forced_below(r, ri)
            for rj, cjs in classes[r].items():
                if premise >> rj & 1:
                    checked += cjs.bit_count()
                    if not below[rj] >> ri & 1:
                        failed.append((_lowest(cjs), r))
        if failed:
            cj, r = min(failed)
            labels = src.poset.labels
            return False, {"r": astage.poset.labels[r],
                           "pair": (labels[ci], labels[cj])}
    return True, {"checks": checked}


# -- Theorem 16: generic factorization ----------------------------------------


def _evaluation_identity_witness(ctx: ProjectionContext, gmask: int,
                                 hmask: int) -> Name | None:
    """A final-stage source name x with i_G(x) != i_H(pi_second x), or None
    when the identity holds for every name of every rank.

    By induction on names through the structural definition of pi_second,
    the identity holds everywhere exactly when every nonzero element b
    meets G iff pi_prime(b) meets H: entries that pi_second merges are
    joined, and a join meets an ultrafilter iff one of its parts does.  A
    failing b is witnessed by the rank-1 name {(empty name, b)}; zero
    occurs in no name.  The induction trusts that the pi_second memo is
    that recursion, so a stale cached image (see :func:`_stale_image`) is
    reported as the witness otherwise.
    """
    N = len(ctx.iteration)
    level = ctx.levels[N]
    A = ctx.source_algebras[N]
    for b in A.nonzero:
        if bool(b & gmask) != bool(level.pi_prime[b] & hmask):
            return Name(((Name((), A), b),), A)
    return _stale_image(ctx, N)


def factor_generic(iteration: Iteration, alpha: int, full_gen_index: int,
                   caps: Caps | None = None,
                   instance: str = "adhoc", rank: int = 2
                   ) -> tuple[GenericSet, int, SuiteReport]:
    """Split a final-stage generic into its stage-alpha part and the quotient
    remainder, checking genericity of both and the evaluation identity
    i_Gfull(x) = i_H(pi_second x) for every name x of every rank.

    The identity is certified on algebra elements (see
    :func:`_evaluation_identity_witness`), so no name universe is built and
    ``rank`` no longer bounds anything; the keyword stays so that callers
    passing the run's rank keep working."""
    caps = caps or iteration.caps
    rep = SuiteReport()
    stages = iteration.stages
    N = len(iteration)
    G_full = stages[N].generics[full_gen_index]
    # stage-alpha restriction: P_alpha's conditions are the first ones of
    # P_N, at the same indices
    gmask = G_full.mask & stages[alpha].poset.full_mask
    hit = [gi for gi, g in enumerate(stages[alpha].generics) if g.mask == gmask]
    rep.record("theorem16", "item1-prefix-generic", instance, len(hit) == 1,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"mask": f"{gmask:#x}"})
    if not hit:
        return None, -1, rep
    ctx = make_context(iteration, alpha, hit[0], caps)
    level = ctx.final_level
    qposet = level.stage.poset
    # H: the quotient conditions with a preimage in G_full
    hmask = 0
    for v, members in level.preimages.items():
        if v is not None and members & G_full.mask:
            hmask |= 1 << v
    filter_ok = is_filter(hmask, qposet)
    # every dense subset contains every atom and the atom set is dense, so
    # H meets every dense subset iff it meets the atom set
    dense_ok = bool(hmask & qposet.atom_mask)
    rep.record("theorem16", "item2-quotient-generic", instance,
               filter_ok and dense_ok,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"filter": filter_ok, "meets_all_dense": dense_ok})
    # item 3: the evaluation identity for every name of every rank
    A = ctx.source_algebras[N]
    bad = _evaluation_identity_witness(ctx, G_full.mask, hmask)
    rep.record("theorem16", "item3-evaluation-identity", instance, bad is None,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"nonzero_elements": len(A.nonzero),
                "counterexample": None if bad is None else name_text(bad, A)})
    return ctx.G, hmask, rep


# -- Corollary 15: the quotient is the shifted iteration ----------------------


class _ShiftedProvider(StepProvider):
    """The original provider read through G: stage k of the rebuilt iteration
    asks the original rule at stage alpha+k along the composed generic path.
    It has one stage per quotient level, N - alpha: a partial iteration's
    provider has a further stage, the capped one, which no level compares."""

    def __init__(self, base: StepProvider, alpha: int, gpath: tuple,
                 stage_count: int):
        self.base = base
        self.alpha = alpha
        self.gpath = gpath
        self.stage_count = stage_count

    def step(self, n: int, ctx: StepContext) -> Poset | None:
        shifted = StepContext(ctx.stage, ctx.gen_index, self.gpath + ctx.path)
        return self.base.step(n + self.alpha, shifted)


def verify_corollary15(ctx: ProjectionContext, instance: str = "adhoc") -> SuiteReport:
    """Rebuild the tail iteration with the shifted provider and check each
    rebuilt stage is order-isomorphic to the quotient poset, via the natural
    generic bridge, which must also carry each rebuilt generic's atom to its
    quotient generic's atom.  The rebuild has the N - alpha stages that
    have a quotient level to compare with.  Stage k keeps stage k-1's
    conditions at their indices, in the rebuilt iteration and in the
    quotient alike, so the natural map goes through each condition's
    prefix: an old condition keeps its image, and a new one maps to
    ``extension(image of its parent, bridged tail)``.

    On stages of at most 8 elements a verified isomorphism is followed by a
    canonical-form record.  The canonical key is an isomorphism invariant,
    so that record cross-checks the canonical search against the verified
    isomorphism and cannot fail otherwise.  The search is memoized per
    relation matrix, so the record costs one memo lookup per distinct
    order."""
    rep = SuiteReport()
    iteration = ctx.iteration
    alpha = ctx.alpha
    N = len(iteration)
    gpath = iteration.stages[alpha].paths[ctx.gen_index]
    shifted = _ShiftedProvider(iteration.provider, alpha, gpath, N - alpha)
    caps = ctx.caps
    if caps.max_stages < shifted.stage_count:
        caps = caps.with_(max_stages=shifted.stage_count)
    rebuilt = build_iteration(shifted, caps)
    # generic bridge per rebuilt stage: rebuilt path -> source generic -> quotient generic
    bridges: dict[int, dict[int, int]] = {0: {0: 0}}
    for k in range(1, N - alpha + 1):
        rb = rebuilt.stages[k]
        level = ctx.levels[alpha + k]
        src_stage = iteration.stages[alpha + k]
        # source generic -> the quotient generics combined from it
        combined: dict[int, list[int]] = {}
        for h, sg in enumerate(level.combine):
            combined.setdefault(sg, []).append(h)
        bridge: dict[int, int] = {}
        ok = True
        for rg, path in enumerate(rb.paths):
            sidx = src_stage.path_index.get(gpath + path)
            if sidx is None:
                ok = False
                break
            hit = combined.get(sidx, ())
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
    # the natural map, rebuilt index -> quotient index, stage by stage
    mapping: list[int | None] = [0]
    for k in range(1, N - alpha + 1):
        rb = rebuilt.stages[k]
        level = ctx.levels[alpha + k]
        qposet = level.stage.poset
        for ci in range(len(mapping), rb.poset.n):
            tail = tuple(sorted((bridges[k - 1][g], e)
                                for g, e in rb.conditions[ci][k - 1]))
            mapping.append(level.stage.extension(mapping[rb.parent[ci]], tail))
        ok = None not in mapping
        bijective = ok and len(set(mapping)) == len(mapping) == qposet.n
        order_ok = bijective
        if bijective:
            # a bijection is an order isomorphism iff it carries every
            # lower cone onto the lower cone of the image
            for i, row in enumerate(rb.poset.below):
                image = 0
                for j in _mask_bits(row):
                    image |= 1 << mapping[j]
                if image != qposet.below[mapping[i]]:
                    order_ok = False
                    break
            # the bridge must match generics atom for atom; the last stage's
            # bridge remaps no later stage, so this is its only check
            order_ok = order_ok and all(
                mapping[g.atom] == level.stage.generics[bridges[k][rg]].atom
                for rg, g in enumerate(rb.generics))
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
