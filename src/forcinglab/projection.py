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
verdict, the per-lemma property checks, generic factorization and the
rebuilt-tail comparison -- quantifies exhaustively over the finite instance.
Theorem 2's homomorphism and onto facts are decided on pi's atom images
(``QuotientLevel._atom_images``), and Theorem 16's evaluation identity on
pi for every map, in O(|P_beta|) bit operations per level; only a map that
fails the atom criterion, or one a test planted, walks the 2^k elements of
a k-atom source algebra, the one route the algebra cap bounds.  Each level
is one record: its source algebra, pi_prime's domain, and, derived on first
read, its conditions grouped by image (pi_prime's columns, Theorem 16's H),
pi_prime by one formula read per element, per condition the equal, above
and compatible images as bit rows (L5 and L10 at the level, L11 and L14 at
every sibling level), and the facts Theorem 2 and the lemma suite share.
Each context builds its own source algebras, so names and their pi_second
images never pass between contexts; the order rows under them are memoized
per relation matrix in :mod:`forcinglab.poset`.  L11-L14 read the s-frown
table, built from the parent rows and grouped by alpha-prefix; L12 runs
through the lower adjoint of the level's homomorphism.  The statements about
names -- Theorem 2's onto and transport items and Theorem 16's evaluation
identity -- are decided on algebra elements, which by induction through
pi_second covers every name of every rank.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence

from .boolalg import BoolAlgebra, HomReport, certify_complete_hom, ro_algebra
from .config import Caps, lazy
from .generic import GenericSet, is_filter
from .iteration import (TAIL_ONE, Coordinate, Iteration, Stage, extend_stage,
                        root_stage)
# evaluate is unused here; it stays bound for perfbench/selftest.py, which
# checks that its tracer reaches this binding
from .names import Name, evaluate, name_text  # noqa: F401
from .poset import Poset, _mask_bits, is_separative
from .report import SuiteReport


class ProjectionError(RuntimeError):
    pass


class QuotientLevel:
    """The quotient data at one level beta > alpha (or the trivial root).
    Its maps and facts are derived on first read and held outside the
    ``__init__`` arguments: pi_prime, the record of pi (``preimages``,
    ``rows``) and the Theorem 2 facts (``hom``, ``onto``, ``transport``).
    So a :func:`forcinglab.config.replace` copy with another pi derives its
    own, with a fresh pi_second memo, and a test plants a map by assigning
    ``pi_prime`` on a copy.  ``hom`` and ``onto``, witnesses included, read
    pi's atom images (``_atom_images``) and list no element; only a planted
    map and a map that fails the atom criterion take the element route,
    ``certify_complete_hom`` on pi_prime and pi_prime's values.

    The facts hold for every name of every rank, by induction through the
    structural definition of pi_second (Jech, *Set Theory*, 2003, Ch. 14).
    pi_second is onto when pi_prime attains every nonzero quotient element,
    entries mapping back through any preimage; for a homomorphism, whose
    image is closed under joins, only then.  Atomic truth values transport
    exactly when pi_prime is a Boolean homomorphism: the atomic clauses are
    finite sums, products and complements, and merged entries are joined."""

    def __init__(self, beta: int, stage: Stage, pi: list, combine: list[int],
                 source: BoolAlgebra, algebra: BoolAlgebra | None = None):
        self.beta = beta
        self.stage = stage          # quotient conditions as a built stage
        self.pi = pi                # P_beta condition index -> class index | None
        self.combine = combine      # quotient generic -> P_beta generic index
        self.source = source        # r.o. of P_beta, pi_prime's domain
        if algebra is not None:
            self.algebra = algebra

    @lazy
    def algebra(self) -> BoolAlgebra:
        """r.o. of the quotient poset, under the source's cap, derived on
        first read by a check that reads it, or taken by a copy."""
        return ro_algebra(self.stage.poset, max_base=self.source.max_base)

    @lazy
    def _pi_second(self) -> dict:
        """name uid -> image, written by ProjectionContext.pi_second alone."""
        return {}

    @lazy
    def preimages(self) -> dict:
        """{pi image: bitmask of its P_beta conditions}, None for undefined."""
        classes = {}
        for p, v in enumerate(self.pi):
            classes[v] = classes.get(v, 0) | 1 << p
        return classes

    @lazy
    def pi_prime(self) -> _ColumnMap:
        """{source element: quotient element}, the column formula read per
        element; a test plants another map by assigning this on a copy."""
        return self._column_map

    @lazy
    def _column_map(self) -> _ColumnMap:
        return _ColumnMap(self.source, self.stage.poset, self.preimages)

    @lazy
    def rows(self) -> tuple[list[int], list[int], list[int]]:
        """Bit rows of conditions q per P_beta condition p, parallel to pi:
        (equal, above, compatible), where q is in p's row when pi(q) ==
        pi(p), two undefined images equal; when pi(p) <= pi(q); and when
        pi(p) and pi(q) are compatible, both defined in the last two.  Per
        image v the preimage classes above v and those compatible with v
        are ORed once, and each condition reads its image's."""
        classes = self.preimages
        defined = [(u, m) for u, m in classes.items() if u is not None]
        qposet = self.stage.poset
        cones = {None: (0, 0)}
        for v, _ in defined:
            cones[v] = (sum(m for u, m in defined if qposet.above[v] >> u & 1),
                        sum(m for u, m in defined if qposet.compat[v] >> u & 1))
        return ([classes[v] for v in self.pi],
                [cones[v][0] for v in self.pi],
                [cones[v][1] for v in self.pi])

    @lazy
    def _atom_images(self) -> list[int] | None:
        """B(a) for each source atom a, in ``source.base.atoms`` order, when
        they decide ``hom`` and ``onto``; None where the element route decides
        them: a planted pi_prime, or a map that fails the criterion below.

        For p in P_beta let A(p) be the source atoms below p, and B(p) the
        quotient atoms below pi(p), 0 where pi(p) is undefined.  Then
        pi_prime(x) is the join of the B(p) with A(p) <= x, and
        pi_prime({a}) = B(a), since on a separative base (:func:`make_context`
        refuses any other) A(p) = {a} forces p = a.  A complete homomorphism
        of finite Boolean algebras sends x to the join of its atoms' images,
        which are pairwise disjoint and join to one, and every such family of
        atom images defines one (Koppelberg, *Handbook of Boolean Algebras*
        vol. 1, 1989).  So pi_prime is a complete homomorphism iff (1) every
        B(p) lies in the join of the B(a) over a in A(p), which makes
        pi_prime(x) the join of the B(a) over a in x, (2) the B(a) of
        distinct atoms are disjoint and (3) they cover the quotient's atoms."""
        table = vars(self).get("pi_prime")
        if table is not None and table is not vars(self).get("_column_map"):
            return None
        A, B = self.source, self.algebra
        qbase = B.base
        atoms = A.base.atoms
        images = [0 if self.pi[a] is None else qbase.atoms_below(self.pi[a])
                  for a in atoms]
        covered = 0
        for b in images:
            covered |= b
        if covered != B.one:
            return self._criterion_fails()
        # given (3), (1) and (2) hold iff every p whose image meets B(a)
        # lies above a: no other atom does, and a quotient atom of B(p) lies
        # in the join over A(p) iff the a whose B(a) holds it is below p
        classes = [(qbase.atoms_below(v), members)
                   for v, members in self.preimages.items() if v is not None]
        for a, b in zip(atoms, images):
            for block, members in classes:
                if block & b and members & ~A.base.above[a]:
                    return self._criterion_fails()
        return images

    def _criterion_fails(self) -> None:
        """None, so that the element route decides and writes the witnesses
        of an unplanted map that fails the atom criterion; such a map is no
        complete homomorphism, so where the cap forbids that route this
        raises a ProjectionError, a failure, not a capped skip."""
        A, B = self.source, self.algebra
        if A.listable and B.listable:
            return None
        raise ProjectionError(
            f"pi_prime at level {self.beta} is no complete homomorphism (its "
            f"atom images fail), and its witnesses need the elements of "
            f"algebras of {len(A.base.atoms)} and {len(B.base.atoms)} atoms")

    @lazy
    def hom(self) -> HomReport:
        """Item 1; L6 cites its complement flag, L7 its products flag.
        Decided on the atom images; the element certificate runs only
        where they do not decide it, and writes the witnesses."""
        if self._atom_images is None:
            return certify_complete_hom(self.pi_prime, self.source, self.algebra)
        n = len(self.source)
        return HomReport(families_checked=1 + n * (n - 1) // 2)

    @lazy
    def onto(self) -> dict:
        """Item 2 and L8 detail: a rank-1 quotient name on the first element
        of ``B.nonzero``, ascending by cut, that pi_prime misses.  Where the
        atom images decide the map, it sends x to the join of the disjoint
        B(a) over a in x; with W the union of the B(a) of two or more atoms,
        it is onto iff W = 0, and otherwise misses first {b} for W's lowest
        atom b: {b} has cut ``1 << b`` on a separative quotient (the only
        kind :func:`make_context` builds), and a smaller cut holds only
        atoms below b, each a singleton B(a).  Other maps list the values."""
        B = self.algebra
        atoms = self._atom_images
        if atoms is None:
            image = set(self.pi_prime.values())
            unattained = next((c for c in B.nonzero if c not in image), None)
        else:
            wide = sum(b for b in atoms if b & (b - 1))     # W, disjoint
            unattained = wide & -wide or None
        return {"quotient_elements": len(B),
                "counterexample": None if unattained is None else
                name_text(Name(((Name((), B), unattained),), B), B)}

    @lazy
    def transport(self) -> dict:
        """Item 3 and L9 detail: a failing source pair of rank <= 2."""
        A = self.source
        witness = None
        if not self.hom.ok:
            shape, x, y = _transport_witness(self.hom, A)
            witness = [shape, name_text(x, A), name_text(y, A)]
        return {"source_elements": len(A), "counterexample": witness}


class _ColumnMap(Mapping):
    """pi_prime by its formula, a read-only mapping evaluated per element on
    first read and memoized; iterating it lists ``source.elements``.  The
    atoms of the regularized image of a cut are the atoms below some image
    point, so quotient atom b is in pi_prime(x) iff the cut of x meets b's
    column: the defined p with b <= pi(p)."""

    __slots__ = ("_source", "_columns", "_memo")

    def __init__(self, source: BoolAlgebra, qposet: Poset, preimages: dict):
        self._source = source
        self._columns = [(1 << b, sum(preimages.get(q, 0)
                                      for q in _mask_bits(qposet.above[b])))
                         for b in qposet.atoms]
        self._memo: dict[int, int] = {}

    def __getitem__(self, x: int) -> int:
        got = self._memo.get(x)
        if got is None:
            cut = self._source.base.cuts[x]
            got = self._memo[x] = sum(bit for bit, col in self._columns
                                      if cut & col)
        return got

    def __iter__(self):
        return iter(self._source.elements)

    def __len__(self) -> int:
        return len(self._source)


class ProjectionContext:
    """All quotient levels for one (iteration, alpha, G)."""

    def __init__(self, iteration: Iteration, alpha: int, gen_index: int,
                 caps: Caps, levels: dict[int, QuotientLevel]):
        self.iteration = iteration
        self.alpha = alpha
        self.gen_index = gen_index
        self.caps = caps
        self.levels = levels

    @property
    def source_algebras(self) -> dict[int, BoolAlgebra]:
        """{beta: level.source}, a new dict on every read."""
        return {beta: level.source for beta, level in self.levels.items()}

    @property
    def G(self) -> GenericSet:
        return self.iteration.stages[self.alpha].generics[self.gen_index]

    @property
    def final_level(self) -> QuotientLevel:
        return self.levels[len(self.iteration)]

    def pi_second(self, beta: int, name: Name) -> Name:
        """The level-beta image of ``name``: its entries' images paired
        with pi_prime of their elements.  This is the API through which
        callers map names, and the oracle that acceptance criteria 5 and 7
        read; no check of the library calls it.  The level's memo is
        written only here, so every entry in it is that recursion."""
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


def _check_index(what: str, value: int, lo: int, hi: int):
    if not lo <= value <= hi:
        raise ProjectionError(f"{what} {value} out of range {lo}..{hi}")


def make_context(iteration: Iteration, alpha: int, gen_index: int,
                 caps: Caps | None = None) -> ProjectionContext:
    """Build pi and the quotient posets for every level; each level
    derives pi_prime on first read.

    The construction follows the inductive cases: the first level evaluates
    tails under G, later successor levels prepend the previous level's
    quotient prefix and decode each tail's pi_second image from the
    previous level's pi_prime (:func:`_tail_image`), building no name.
    Only successor levels exist at finite stage counts; the limit clause is
    vacuous here and the suites report it as such.

    Separativity is decided on the orders, memoized per relation matrix in
    :mod:`forcinglab.poset`: of P_alpha..P_N first, of each quotient before
    its level exists.  The root level is the process's one
    :func:`root_stage`.  Each level builds its own source algebra, so names
    and pi_second images stay apart from other contexts', and derives its
    quotient algebra when a check reads it.  The iteration's
    ``context_cache`` holds the finished context and nothing else.

    Stage beta-1's conditions keep their indices at stage beta and have
    tail 1 there, so at level beta they project as at level beta-1.  A
    condition new at stage beta is placed exactly when its parent's image
    is defined: the root's pi is defined on G, so by induction level
    beta-1's pi is defined exactly on the conditions whose alpha-prefix is
    in G.  Each placed condition gives a (quotient prefix, canonical tail)
    pair, and its image is ``qstage.extension(qprefix, qtail)``, where
    ``qstage`` is the stage :func:`extend_stage` enumerates from the
    previous level's stage under the step posets of the combined
    generics.  By the factor property (Jech, *Set Theory*, 2003, Ch. 16)
    the quotient is the tail iteration read through G, so every pair
    names a condition of ``qstage`` and every new condition of it is some
    pair's image.  A pair that names none, a new condition that is no
    image, a refused tail image, or a stage or quotient poset that is not
    separative, raises before the context is cached: pi indexes
    conditions, not the classes a quotient's atoms are.

    ``extend_stage`` returns the child its parent already holds under the
    same step posets, so in a generated sweep contexts share their
    quotient stages with generation and with each other, while pi,
    combine and the algebras stay per level.
    """
    caps = caps or iteration.caps
    max_base = caps.algebra_max_base
    stages = iteration.stages
    N = len(iteration)
    _check_index("alpha", alpha, 1, N)
    _check_index("generic", gen_index, 0, len(stages[alpha].generics) - 1)
    # caps bound the algebras built here, so they are part of the key
    cache_key = (alpha, gen_index, caps)
    cached = iteration.context_cache.get(cache_key)
    if cached is not None:
        return cached
    G = stages[alpha].generics[gen_index]
    # P_alpha..P_N first: a non-separative stage refuses before any quotient
    for beta in range(alpha, N + 1):
        if not is_separative(stages[beta].poset):
            raise ProjectionError(f"stage {beta} poset is not separative")

    # trivial root level: everything in G maps to the empty sequence
    pi_root = [0 if (G.mask >> i) & 1 else None
               for i in range(stages[alpha].poset.n)]
    levels = {alpha: QuotientLevel(alpha, root_stage(), pi_root, [gen_index],
                                   ro_algebra(stages[alpha].poset, max_base))}

    for beta in range(alpha + 1, N + 1):
        prev_level = levels[beta - 1]
        prev_src = stages[beta - 1]
        src = stages[beta]
        steps_q = [src.steps[sg] for sg in prev_level.combine]
        # stage beta-1's conditions keep their indices and have tail 1, so
        # each projects as at the previous level; a new one, with a tail at
        # stage beta-1, is placed when its parent's image is defined
        old = prev_src.poset.n
        pi: list = prev_level.pi + [None] * (src.poset.n - old)
        qstage = extend_stage(prev_level.stage, steps_q, caps)
        for ci in range(old, src.poset.n):
            qprefix = pi[src.parent[ci]]
            if qprefix is None:
                continue
            tail = src.conditions[ci][beta - 1]
            if beta == alpha + 1:
                # G's own tail: decoding it by pi_prime reads timed slower at s3
                e = dict(tail)[gen_index]   # of a canonical tail: valid
                qtail = TAIL_ONE if e == steps_q[0].top else ((0, e),)
            else:
                qtail = _tail_image(prev_level, prev_src, steps_q, qprefix, tail)
                if qtail is None:
                    raise ProjectionError(f"tail image at level {beta} is "
                                          "outside the quotient's step posets")
            pi[ci] = qstage.extension(qprefix, qtail)
            if pi[ci] is None:
                raise ProjectionError(f"tail image at level {beta} names no "
                                      "condition of the quotient stage")
        # pi is onto the quotient stage: each new condition is an image
        missed = set(range(prev_level.stage.poset.n, qstage.poset.n))
        missed.difference_update(pi[old:])
        if missed:
            raise ProjectionError(f"quotient condition {min(missed)} at level "
                                  f"{beta} is no condition's image")
        # bridge: quotient generics <-> source generics whose prefix generic
        # is G, matched through their atoms (one generic per atom)
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
        if not is_separative(qstage.poset):
            raise ProjectionError(f"quotient poset at level {beta} is not separative")
        levels[beta] = QuotientLevel(beta, qstage, pi, combine,
                                     ro_algebra(src.poset, max_base))

    ctx = ProjectionContext(iteration, alpha, gen_index, caps, levels)
    iteration.context_cache[cache_key] = ctx
    return ctx


# -- Theorem 2 ----------------------------------------------------------------


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


def verify_theorem2(ctx: ProjectionContext, instance: str = "adhoc",
                    pi_prime_override=None, rank: int = 2) -> SuiteReport:
    """Items 1-3 per level, reported from the level's shared facts, each
    for every name of every rank: pi_prime is a complete Boolean
    homomorphism, pi_second is onto (pi_prime attains every nonzero
    quotient element), and atomic truth values transport through the maps
    (item 1 for the level's own map).  Items 1 and 2, and item 2's witness,
    are decided on pi's atom images (see :class:`QuotientLevel`); where
    those do not decide a level, item 1 is certified on algebra elements
    (complement and binary meets and joins, which in a finite algebra is
    completeness) and item 2 read off pi_prime's values.  A failing item 2
    is witnessed by a rank-1 quotient name, item 3 by a source pair.

    Item 1's ``families`` is 1 + n(n-1)/2 for n source elements, the
    families the element certificate settles: the empty family and every
    pair of distinct elements.  ``violations`` counts a broken zero, a
    broken one, each element whose complement is not kept and each failing
    split (see :func:`certify_complete_hom`); it is 0 on a level the atom
    images pass.

    ``pi_prime_override``, a map on the final level's source elements,
    replaces that level's map in item 1 only, and is always certified on
    elements.  ``rank`` bounds nothing; it stays so that callers passing
    the run's rank keep working."""
    rep = SuiteReport()
    N = len(ctx.iteration)
    for beta in range(ctx.alpha + 1, N + 1):
        level = ctx.levels[beta]
        cctx = {"alpha": ctx.alpha, "generic": ctx.gen_index, "beta": beta}
        A, B = level.source, level.algebra
        hom = level.hom if pi_prime_override is None or beta < N else \
            certify_complete_hom(pi_prime_override, A, B)
        # each element written as its poset cut
        cuts = [(kind, tuple(A.cut(x) for x in family), B.cut(want), B.cut(got))
                for kind, family, want, got in hom.counterexamples[:4]]
        rep.record("theorem2", "item1-complete-hom", instance, hom.ok, cctx,
                   {"families": hom.families_checked,
                    "violations": hom.violation_count,
                    "counterexamples": cuts})
        rep.record("theorem2", "item2-onto", instance,
                   level.onto["counterexample"] is None, cctx, level.onto)
        rep.record("theorem2", "item3-atomic-transport", instance,
                   level.transport["counterexample"] is None, cctx,
                   level.transport)
    return rep


# -- Lemmas 3-14 --------------------------------------------------------------


def verify_projection_lemmas(ctx: ProjectionContext, instance: str = "adhoc",
                             rank: int = 2) -> SuiteReport:
    """One exhaustive sub-check per projection lemma, itemized L3..L14.
    L5 and L10 read the level's image rows and L6-L9 its shared facts, as
    Theorem 2 does; L11-L14 read the s-frown-p table and its prefix groups,
    which one pass (:func:`_frown_levels`) extends by each level's stage,
    L11 and L14 also the image rows of every sibling level, each level's
    built once, and L12 uses the lower adjoint where item 1 holds.  No
    condition is canonicalized.  The limit-stage clause is stated once per
    run by :func:`limit_clause_skip`.
    ``rank`` bounds nothing, as in :func:`verify_theorem2`."""
    rep = SuiteReport()
    frowns = _frown_levels(ctx.iteration.stages[ctx.alpha:])
    for beta, (table, groups) in enumerate(frowns, ctx.alpha + 1):
        _lemmas_at_level(ctx, beta, table, groups, rep, instance)
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


def _lemmas_at_level(ctx: ProjectionContext, beta: int, table: list,
                     groups: dict, rep: SuiteReport, instance: str):
    level = ctx.levels[beta]
    src = ctx.iteration.stages[beta]
    qposet = level.stage.poset
    A, B, hom = level.source, level.algebra, level.hom
    cctx = {"alpha": ctx.alpha, "generic": ctx.gen_index, "beta": beta}
    defined = [ci for ci in range(src.poset.n) if level.pi[ci] is not None]

    # L3: every quotient principal cut is the image of a principal cut
    images = [level.pi_prime[A.principal(ci)] for ci in defined]
    attained = set(images)
    missing = [qposet.labels[p] for p in range(qposet.n)
               if B.principal(p) not in attained]
    rep.record("projection-lemmas", "L3-principal-onto", instance, not missing,
               cctx, {"missing": missing})

    # L4: prefix-in-G conditions project principal cuts to principal cuts
    bad4 = [src.poset.labels[ci] for ci, got in zip(defined, images)
            if got != B.principal(level.pi[ci])]
    rep.record("projection-lemmas", "L4-principal-to-principal", instance,
               not bad4, cctx, {"violations": bad4})

    _, above, compatible = level.rows
    defined_mask = src.poset.full_mask & ~level.preimages.get(None, 0)

    # L5: disjoint principal cuts stay disjoint
    detail5 = _pair_violations(src.poset, defined, [
        compatible[ci] & ~src.poset.compat[ci] for ci in defined])
    rep.record("projection-lemmas", "L5-disjointness", instance,
               not detail5["count"], cctx, detail5)

    # L6: pi_prime commutes with complement
    bad6 = [f"{A.cut(c[1][0]):#x}" for c in hom.counterexamples
            if c[0] == "complement"]
    rep.record("projection-lemmas", "L6-complement", instance,
               hom.preserves_complement, cctx, {"violations": bad6[:4]})

    # L7: pi_prime commutes with arbitrary products: it keeps one and every
    # binary meet, and every family of a finite algebra is finite
    rep.record("projection-lemmas", "L7-products", instance,
               hom.preserves_all_products, cctx,
               {"families": hom.families_checked})

    # L8: pi_second onto every quotient name (Theorem 2 item 2)
    rep.record("projection-lemmas", "L8-onto", instance,
               level.onto["counterexample"] is None, cctx, level.onto)

    # L9: atomic truth values transport (Theorem 2 item 3)
    rep.record("projection-lemmas", "L9-atomic-transport", instance,
               level.transport["counterexample"] is None, cctx,
               level.transport)

    # L10: pi is monotone where defined
    detail10 = _pair_violations(src.poset, defined, [
        defined_mask & src.poset.above[ci] & ~above[ci] for ci in defined])
    rep.record("projection-lemmas", "L10-monotone", instance,
               not detail10["count"], cctx, detail10)

    # L11 and L14 quantify over the sibling contexts
    astage = ctx.iteration.stages[ctx.alpha]
    siblings = [make_context(ctx.iteration, ctx.alpha, g, ctx.caps).levels[beta]
                for g in range(len(astage.generics))]

    # L11: forced equal projections merge below some member of G
    ok11, detail11 = _lemma11(ctx, beta, table, groups, siblings)
    rep.record("projection-lemmas", "L11-merge-below", instance, ok11, cctx, detail11)

    # L12: forcing transports forward, and back below some member of G
    ok12, detail12 = _lemma12(ctx, beta, table, hom.ok)
    rep.record("projection-lemmas", "L12-forcing-transport", instance, ok12,
               cctx, detail12)

    # L13: the equal-tails cut is regular
    ok13, detail13 = _lemma13(astage.poset, table, groups)
    rep.record("projection-lemmas", "L13-equal-tails-regular", instance, ok13,
               cctx, detail13)

    # L14: order reflects below conditions forcing the projected comparison
    ok14, detail14 = _lemma14(astage, src, table, groups, siblings)
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


def _frown_levels(stages: Sequence[Stage]) -> Iterator[tuple[list, dict]]:
    """The s-frown table and its prefix groups at each level beta > alpha
    of ``stages`` P_alpha..P_N, one pair extended in place: level beta's
    is level beta-1's with stage beta's rows added, read before the next.

    The table holds per P_beta condition p the index in P_alpha of its
    alpha-prefix, and a map from each s below that prefix, in ascending
    order, to the P_beta index of s-frown-p (the alpha-prefix replaced by s,
    every tail restricted to the generics below it), or None when s does
    not sit below the tails' prefix constraints.  At stage alpha s-frown-r
    is s.  At stage k a tail-1 condition keeps its parent's row, since
    stage k holds stage k-1's conditions at the same indices; any other
    condition's s-frown is its tail restricted to the generics of the
    parent's s-frown f: f itself when the restriction is all top, else
    ``stage.extension(f, restriction)``.  The groups hold per alpha-prefix
    r its conditions as a bitmask, and for each s below r their partition
    by s-frown image, {image: bitmask}, an undefined s-frown in no class;
    L11, L13 and L14 pair conditions only inside a group.
    ``tests/lemma_oracle.py`` keeps the canonicalizing table and the
    row-by-row grouping as this kernel's oracles."""
    table: list[tuple[int, dict]] = []
    groups: dict[int, tuple[int, dict]] = {}

    def add(r: int, row: dict):
        bit = 1 << len(table)
        table.append((r, row))
        members, classes = groups.get(r, (0, {}))
        for s, si in row.items():
            if si is not None:
                at_s = classes.setdefault(s, {})
                at_s[si] = at_s.get(si, 0) | bit
        groups[r] = (members | bit, classes)

    for r, cone in enumerate(stages[0].poset.below):
        add(r, {s: s for s in _mask_bits(cone)})
    for prev, stage in zip(stages, stages[1:]):
        gen_masks = prev.gen_masks
        for ci in range(prev.poset.n, stage.poset.n):
            p = stage.parent[ci]
            tail = stage.conditions[ci][prev.index]
            lifted = 0          # the generics where the tail is below top
            for g, e in tail:
                if e != stage.steps[g].top:
                    lifted |= 1 << g
            r, parent_row = table[p]
            row = {}
            for s, f in parent_row.items():
                if f is not None:
                    gens = gen_masks[f]
                    if gens & lifted:
                        f = stage.extension(f, tuple(
                            (g, e) for g, e in tail if gens >> g & 1))
                row[s] = f
            add(r, row)
        yield table, groups


def _forced(astage: Stage, rows: list[list[int]], n: int):
    """R(r, p): the AND of the sibling rows rows[g][p] over the generics g
    of P_alpha that contain r.  There is one generic per atom, so these are
    the q that r forces into p's relation (Kunen, *Set Theory*, 1980,
    Ch. VII); no generic contains r means every q."""
    full = (1 << n) - 1
    rows_of = [[rows[g] for g in _mask_bits(gens)] for gens in astage.gen_masks]

    def forced(r: int, p: int) -> int:
        got = full
        for row in rows_of[r]:
            got &= row[p]
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

    The premise holds only on the diagonal.  Distinct p and q with prefix r
    first differ at a stage k > alpha over one prefix s, every generic
    through s having a step poset, so their canonical tails (1 as all top)
    differ at a generic h through s.  In the context of h's restriction to
    P_alpha, which holds r, pi(s) lies in h's quotient generic (pi is
    monotone), the quotient tails there take the tails' values under h, and
    each image extends its parent's: p and q project apart.  So this checks
    that each condition with prefix r in G has a defined s-frown at some s
    in G below r; only the collapsed-siblings control exercises the
    pairwise part."""
    astage = ctx.iteration.stages[ctx.alpha]
    forced_equal = _forced(astage, [lvl.rows[0] for lvl in siblings],
                           len(table))
    gmask, below = ctx.G.mask, astage.poset.below
    checked = 0
    for ci, (r, row) in enumerate(table):
        if not gmask >> r & 1:
            continue
        members, classes = groups[r]
        premise = forced_equal(r, ci) & members
        glued = 0
        for s in _mask_bits(gmask & below[r]):
            si = row.get(s)
            if si is not None:
                glued |= classes[s][si]
                if not premise & ~glued:
                    break
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
    A, B = level.source, level.algebra
    pi_prime, principal = level.pi_prime, A.principal
    atom_images = [(1 << a, pi_prime[1 << a]) for a in A.base.atoms]
    adjoint: dict[int, tuple[int, int]] = {}    # pi(p) -> (qu, b*)
    checked = 0
    for ci, qc in enumerate(level.pi):
        if qc is None:
            continue
        got = adjoint.get(qc)
        if got is None:
            qu = B.principal(qc)
            got = adjoint[qc] = (qu, sum(a for a, image in atom_images
                                         if image & qu))
        qu, bstar = got
        if qu & ~pi_prime[principal(ci)]:
            return False, {"direction": "forward", "condition": poset.labels[ci]}
        prefix, row = table[ci]
        for s in _mask_bits(G.mask & aposet.below[prefix]):
            f = row.get(s)
            if f is not None and not principal(f) & ~bstar:
                break
        else:
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
    A, B = level.source, level.algebra
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


def _lemma13(aposet: Poset, table: list, groups: dict):
    """U_{p1,p2} = {s : s-frown-p1 == s-frown-p2} is a regular cut of
    P_alpha, for every pair with one alpha-prefix r, decided per p1.

    Let M be r's group and, for s <= r, C_s p1's s-frown class (0 where
    s-frown-p1 is undefined), so s is in U_{p1,p2} iff p2 is in C_s.  In a
    finite separative poset the regular cuts are exactly the sets {s : every
    atom below s is in X} for a set X of atoms (Jech, *Set Theory*, 2003,
    Ch. 14), and an element whose atoms all lie below r lies below r itself.
    :func:`make_context` refuses a non-separative P_alpha, so U_{p1,p2} is
    regular iff at every non-atom s <= r it holds s exactly when it holds
    every atom below s: the p2 whose cut fails are the bits of the OR over
    those s of C_s XOR (M AND the C_a over the atoms a below s).  The first
    failing pair in (p1, p2) order is p1's lowest such bit, and its cut is
    rebuilt from the classes for the record.
    ``tests/lemma_oracle.py`` keeps the pairwise check as this kernel's
    oracle."""
    below, atom_mask = aposet.below, aposet.atom_mask
    # per prefix r: each non-atom s <= r with the atoms below it
    shapes = {r: [(s, tuple(_mask_bits(below[s] & atom_mask)))
                  for s in _mask_bits(below[r] & ~atom_mask)]
              for r in groups}
    checked = 0
    for ci, (r, row) in enumerate(table):
        members, classes = groups[r]
        checked += members.bit_count()
        C = {s: classes[s][si] for s, si in row.items() if si is not None}
        bad = 0
        for s, atoms in shapes[r]:
            meet = members
            for a in atoms:
                meet &= C.get(a, 0)
            bad |= C.get(s, 0) ^ meet
        if bad:
            cj = _lowest(bad)
            cut = sum(1 << s for s, c in C.items() if c >> cj & 1)
            return False, {"pair": (ci, cj), "cut": f"{cut:#x}"}
    return True, {"pairs": checked}


def _lemma14(astage: Stage, src: Stage, table: list, groups: dict,
             siblings: list):
    """If r <= p and every generic containing r projects tail p1 below tail
    q1, then r-frown-p1 <= r-frown-q1 already in P_beta.  At fixed r the
    premise and the order test read p1 and q1 only through their r-frown
    images ri and rj, so each r-frown class of a prefix group is tested
    once, on bits: the rj forced above ri are the premise row masked to
    the images at r, and those outside ri's upper cone fail.  ``checks``
    counts the pairs of members, as the pairwise oracle does; the first
    failing (p1, q1, r) in that order is reported."""
    above = src.poset.above
    forced_below = _forced(astage, [lvl.rows[1] for lvl in siblings],
                           len(table))
    checked = 0
    failing = []        # (p1's class, (lowest q1, r)) per failing class
    for _, classes in groups.values():
        for r, at_r in classes.items():
            # the r-frown images at r, and each class of more than one
            # member with its image and its further members
            images, extra = 0, []
            for rj, cjs in at_r.items():
                images |= 1 << rj
                if cjs & (cjs - 1):
                    extra.append((rj, cjs.bit_count() - 1))
            for ri, cis in at_r.items():
                hit = forced_below(r, ri) & images
                count = hit.bit_count()
                for rj, more in extra:
                    if hit >> rj & 1:
                        count += more
                checked += count * cis.bit_count()
                bad = hit & ~above[ri]
                if bad:
                    failing.append((cis, min((_lowest(at_r[rj]), r)
                                             for rj in _mask_bits(bad))))
    if failing:
        ci = min(_lowest(cis) for cis, _ in failing)
        cj, r = min(f for cis, f in failing if cis >> ci & 1)
        labels = src.poset.labels
        return False, {"r": astage.poset.labels[r],
                       "pair": (labels[ci], labels[cj])}
    return True, {"checks": checked}


# -- Theorem 16: generic factorization ----------------------------------------


def _evaluation_identity_witness(ctx: ProjectionContext, gmask: int,
                                 hmask: int) -> int | None:
    """A nonzero final-stage source element b whose rank-1 name
    x = {(empty name, b)} has i_G(x) != i_H(pi_second x), G being the
    generic above atom g0 (mask ``gmask``) and H the quotient filter (mask
    ``hmask``), or None when the identity holds for every name of every
    rank.  Read off pi alone, for every map.

    By induction on names through pi_second (merged entries are joined, and
    a join meets an ultrafilter iff a part does), the identity holds
    everywhere iff each nonzero b meets G iff pi_prime(b) meets H: iff b
    holds g0 exactly when it holds A(p) for some p in Q, the conditions
    whose image has a quotient atom in H.  So b = {g0} needs g0 in Q (on a
    separative base A(p) = {g0} forces p = g0) and b = A(p) needs p above
    g0, which together suffice.  The witness is the lowest
    atom on which Q and G disagree, else A(p) for the lowest p in Q outside
    G: where the atom criterion holds, the atom route's first failing b.
    """
    level = ctx.final_level
    base, qposet = level.source.base, level.stage.poset
    q = sum(members for v, members in level.preimages.items()
            if v is not None and qposet.atoms_below(v) & hmask)
    odd = (q ^ gmask) & base.atom_mask
    if odd:
        return odd & -odd
    stray = q & ~gmask
    return base.atoms_below(_lowest(stray)) if stray else None


def factor_generic(iteration: Iteration, alpha: int, full_gen_index: int,
                   caps: Caps | None = None,
                   instance: str = "adhoc", rank: int = 2
                   ) -> tuple[GenericSet, int, SuiteReport]:
    """Split a final-stage generic into its stage-alpha part and the quotient
    remainder, checking genericity of both and the evaluation identity
    i_Gfull(x) = i_H(pi_second x) for every name x of every rank.

    The identity is decided on pi (see
    :func:`_evaluation_identity_witness`), so no name universe is built, no
    element is listed and ``rank`` no longer bounds anything; the keyword
    stays so that callers passing the run's rank keep working."""
    caps = caps or iteration.caps
    rep = SuiteReport()
    stages = iteration.stages
    N = len(iteration)
    _check_index("alpha", alpha, 1, N)
    _check_index("full generic", full_gen_index, 0, len(stages[N].generics) - 1)
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
    A = level.source
    bad = _evaluation_identity_witness(ctx, G_full.mask, hmask)
    rep.record("theorem16", "item3-evaluation-identity", instance, bad is None,
               {"alpha": alpha, "full_generic": full_gen_index},
               {"nonzero_elements": len(A) - 1,
                "counterexample": None if bad is None else
                name_text(Name(((Name((), A), bad),), A), A)})
    return ctx.G, hmask, rep


# -- Corollary 15: the quotient is the tail iteration read through G ---------


def verify_corollary15(ctx: ProjectionContext, instance: str = "adhoc") -> SuiteReport:
    """Rebuild the tail iteration read through G and check each rebuilt
    stage is order-isomorphic to the quotient poset, via the natural
    generic bridge, which must also carry each rebuilt generic's atom to its
    quotient generic's atom.  Rebuilt stage k is the ``extend_stage`` child
    of stage k-1 under the provider's steps at stage alpha+k-1 along G's
    path, for the N - alpha stages that have a quotient level to compare
    with.  Stage k keeps stage k-1's conditions at their indices, in the
    rebuilt stages and in the quotient alike, so the natural map goes
    through each condition's prefix: an old condition keeps its image, and
    a new one maps to ``extension(image of its parent, bridged tail)``.

    The rebuilt stages may be the sweep's own objects: ``extend_stage``
    returns the stage it already built from the same parent and step
    posets, and in a generated sweep every rebuilt stage is one that
    generation built.  So, in a generated sweep, is each quotient stage,
    which ``make_context`` asks for in the same way, and a rebuilt stage
    and its quotient are then one object.  The natural map is still
    computed through the bridges and checked cone by cone, and the
    quotient level's pi, combine and algebras are its context's own.

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
    rebuilt = [root_stage()]
    for n in range(alpha, N):
        prev = rebuilt[-1]
        rebuilt.append(extend_stage(
            prev, [iteration.provider.step(n, gpath + path) for path in prev.paths],
            ctx.caps))
    # generic bridge per rebuilt stage: rebuilt path -> source generic -> quotient generic
    bridges: dict[int, dict[int, int]] = {0: {0: 0}}
    for k in range(1, N - alpha + 1):
        rb = rebuilt[k]
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
        rb = rebuilt[k]
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
