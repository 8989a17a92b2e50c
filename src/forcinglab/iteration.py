"""Finite-stage definable iterations, condition canonicalization, collapse
posets and the toy rank-ladder iteration.

Conditions are stored in *function representation*: a stage-n condition is a
tuple of n coordinates, where coordinate k is either the symbol ``TAIL_ONE``
or a total map from the stage-k generics containing the prefix to elements
of the step poset provided under each generic; those step posets belong to
the stage they build, ``stages[k + 1].steps``.  Trailing ones are trimmed
(so earlier-stage conditions literally reappear inside later stages) and an
all-top map is identified with ``TAIL_ONE``.  This is the mutual-order
quotient at finite scale: two literal name tails are equivalent exactly when
they evaluate identically under every generic containing the prefix, i.e.
when they induce the same map.  The literal name-based construction is kept
alongside in the test suite as the cross-validating oracle, together with
the name route that turns a literal name tail back into a canonical tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Iterable, Sequence

from .config import DEFAULT_CAPS, CapExceeded, Caps
from .formula import Formula, FormulaError, eval_classical, free_variables
from .generic import GenericSet, enumerate_generics
from .hfset import (HFSet, encode_function, numeral, rank_segment,
                    transitive_closure)
from .poset import (Poset, _mask_bits, is_separative, product_poset,
                    separativity_witness)
from .report import SuiteReport


class ProviderError(ValueError):
    """A step provider broke its contract (e.g. a non-separative step poset)."""


class _TailOne:
    __slots__ = ()

    def __repr__(self):
        return "1"

    def __reduce__(self):
        # unpickle to the one instance, which coordinates are compared to
        return "TAIL_ONE"


TAIL_ONE = _TailOne()

# a coordinate is TAIL_ONE or a sorted tuple of (generic index, element) pairs
Coordinate = _TailOne | tuple
Condition = tuple


def trim(cond: Condition) -> Condition:
    while cond and cond[-1] is TAIL_ONE:
        cond = cond[:-1]
    return cond


def _cond_label(cond: Condition) -> str:
    if not cond:
        return "<>"
    parts = []
    for coord in cond:
        if coord is TAIL_ONE:
            parts.append("1")
        else:
            parts.append("{" + ",".join(f"{g}:{e}" for g, e in coord) + "}")
    return "<" + ";".join(parts) + ">"


@dataclass
class Stage:
    """One stage of a built iteration, complete once built: canonical
    conditions, generics and their paths, the step posets it was built
    from, one per generic of the previous stage, and each condition's
    ``parent``, the index of its prefix in the previous stage (both empty
    at the root).  Composing parent rows down to stage k gives every
    condition's k-prefix without canonicalizing it.  The poset's labels
    are the conditions' ``<...>`` texts, built on first read."""

    index: int
    conditions: tuple[Condition, ...]
    poset: Poset
    generics: list[GenericSet]
    paths: list[tuple]
    gen_masks: tuple[int, ...]        # per condition: generics containing it
    steps: tuple[Poset | None, ...] = ()
    parent: tuple[int, ...] = ()

    def extension(self, prefix: int, tail: Coordinate) -> int | None:
        """The index of the condition whose prefix is condition ``prefix``
        of the previous stage and whose last coordinate is the canonical
        ``tail``, or None if the stage has no such condition.  Stage k-1's
        conditions keep their indices here, so ``(i, TAIL_ONE)`` is i."""
        if tail is TAIL_ONE:
            return prefix
        return self._tails.get((prefix, tail))

    def cond_index(self, cond: Condition) -> int:
        return self._index[cond]

    # built on first read, not init fields, so a dataclasses.replace copy
    # indexes its own conditions and paths.  _tails keys each new condition
    # by (parent, last coordinate); _index, by the whole condition, serves
    # cond_index, that is the tests and canonicalize_condition
    @cached_property
    def _tails(self) -> dict[tuple[int, Coordinate], int]:
        return {(p, c[-1]): i for i, (p, c) in
                enumerate(zip(self.parent, self.conditions))
                if len(c) == self.index}

    @cached_property
    def _index(self) -> dict[Condition, int]:
        return {c: i for i, c in enumerate(self.conditions)}

    @cached_property
    def path_index(self) -> dict[tuple, int]:
        return {p: i for i, p in enumerate(self.paths)}

    def gens_of(self, cond_idx: int) -> Iterable[int]:
        return _mask_bits(self.gen_masks[cond_idx])


@dataclass
class StepContext:
    """What a provider rule sees when asked for the next step poset."""

    stage: Stage
    gen_index: int
    path: tuple


class StepProvider:
    """Rule mapping (stage index, generic of that stage) to a separative step
    poset with top, or None for "no unique poset is defined here"."""

    stage_count: int

    def step(self, n: int, ctx: StepContext) -> Poset | None:
        raise NotImplementedError


class TableProvider(StepProvider):
    """Provider backed by literal tables keyed by generic paths."""

    def __init__(self, tables: Sequence[dict]):
        self.tables = [dict(t) for t in tables]
        self.stage_count = len(self.tables)

    def step(self, n: int, ctx: StepContext) -> Poset | None:
        return self.tables[n].get(ctx.path)


@dataclass
class Iteration:
    """A built iteration: stages[0] is the trivial root, stages[k] is P_k."""

    stages: list[Stage]
    provider: StepProvider
    caps: Caps
    partial: bool = False
    # instance-scoped: the projection contexts built on this iteration,
    # keyed (alpha, gen_index, caps), and nothing else; cleared once the
    # instance's suites are done.  Not an init field, so a
    # dataclasses.replace copy starts empty rather than reading contexts
    # built for the original's stages
    context_cache: dict = field(default_factory=dict, init=False)

    @property
    def final(self) -> Stage:
        return self.stages[-1]

    def __len__(self):
        return len(self.stages) - 1


@cache
def root_stage() -> Stage:
    """The trivial stage P_0: the empty condition and its one generic.  A
    stage is never changed once built, so this one is built once per
    process and shared by every iteration and every context's root level."""
    poset = Poset([1], 0, ["<>"])
    generics = enumerate_generics(poset)
    return Stage(0, ((),), poset, generics, [()], (1,))


def _canonical_tail(prev: Stage, steps: Sequence, prev_idx: int, tail) -> "Coordinate":
    """Restrict a raw tail map to the prefix's generics; all-top becomes 1."""
    if tail is TAIL_ONE:
        return TAIL_ONE
    tmap = dict(tail)
    out = []
    all_top = True
    for g in prev.gens_of(prev_idx):
        q = steps[g]
        if q is None:
            raise ProviderError(
                f"tail given where stage {prev.index} has no step poset under generic {g}")
        if g not in tmap:
            raise ProviderError(f"tail map missing generic {g}")
        e = tmap[g]
        if not 0 <= e < q.n:
            raise ProviderError(f"tail value {e} outside step poset under generic {g}")
        if e != q.top:
            all_top = False
        out.append((g, e))
    if all_top:
        return TAIL_ONE
    return tuple(out)


def extend_stage(prev: Stage, steps: Sequence[Poset | None], caps: Caps,
                 tails: Iterable[tuple[int, Coordinate]] | None = None) -> Stage:
    """Build stage n+1 from stage n and the step posets named over it.

    With ``tails`` None, every tail map is enumerated (the Definition-1
    successor clause); otherwise only the supplied (prefix index,
    canonical tail) pairs are admitted, in order and each once, a tail 1
    naming its prefix.  They are not validated again, as
    :func:`forcinglab.projection._tail_image` returns canonical tails;
    :meth:`Stage.extension` finds the condition of each pair.

    Stage n's conditions keep their indices, the empty one included, so
    the top is ``prev``'s.  The enumerated conditions are new and pairwise
    distinct, so they are appended without being hashed.

    i <= j iff prefix(i) <= prefix(j) at stage n and, at each generic g
    of prefix(i), tail(i) lies below tail(j), a TAIL_ONE tail reading as
    top.  So the order is built as lower cones from rows.  Stage n's
    conditions are the TAIL_ONE ones, so the cone of such a p is p's row
    at stage n together with the new conditions whose prefix lies below
    p.  ``tail_down[g][v]`` holds the conditions whose prefix is outside
    g, those whose tail at g lies below v, and the TAIL_ONE ones when v is
    top; a new condition's cone is its prefix's cone ANDed with
    ``tail_down[g][t(g)]`` for each generic g of its prefix.  A generic
    is the upward closure of its atom, so the generics containing a
    condition are read off the filters' masks, and each generic extends
    the lowest generic of its atom's prefix.
    """
    n = prev.index
    conditions: list[Condition] = list(prev.conditions)
    # per condition, the index of its prefix at stage n: a stage-n
    # condition is its own prefix
    prev_of = list(range(len(conditions)))

    def over_cap() -> CapExceeded:
        return CapExceeded(f"stage {n + 1} has more conditions than the cap "
                           f"{caps.max_stage_conditions}")

    def padded(prefix: int) -> Condition:
        cond = prev.conditions[prefix]
        return cond + (TAIL_ONE,) * (n - len(cond))

    # the new conditions are pairwise distinct, so the stage's size is
    # known before any tail is placed, and a capped stage, which is
    # discarded, costs no enumeration
    if tails is None:
        extended = []
        size = len(conditions)
        for ci in range(len(conditions)):
            gens = list(prev.gens_of(ci))
            if all(steps[g] is not None for g in gens):
                extended.append((ci, gens))
                size += math.prod(steps[g].n for g in gens) - 1
        if size > caps.max_stage_conditions:
            raise over_cap()
        for ci, gens in extended:
            base = padded(ci)
            tops = tuple(steps[g].top for g in gens)
            for combo in itertools.product(*[range(steps[g].n) for g in gens]):
                if combo != tops:
                    conditions.append(base + (tuple(zip(gens, combo)),))
                    prev_of.append(ci)
    else:
        new = [pair for pair in dict.fromkeys(tails) if pair[1] is not TAIL_ONE]
        if len(conditions) + len(new) > caps.max_stage_conditions:
            raise over_cap()
        for prefix, tail in new:
            conditions.append(padded(prefix) + (tail,))
            prev_of.append(prefix)

    # order: each new condition has a tail value under every generic of
    # its prefix, so the new conditions over g are those with a value at g
    k = prev.poset.n
    m = len(conditions)
    new_over: dict[int, int] = {}     # prefix -> the new conditions over it
    with_value = [None if q is None else [0] * q.n for q in steps]
    for i in range(k, m):
        bit = 1 << i
        p = prev_of[i]
        new_over[p] = new_over.get(p, 0) | bit
        for g, e in conditions[i][n]:
            with_value[g][e] |= bit
    below = list(prev.poset.below)    # the cones of stage n's conditions
    for r, mask in new_over.items():
        for p in _mask_bits(prev.poset.above[r]):
            below[p] |= mask
    old = (1 << k) - 1
    tail_down = []
    for g, (q, by_value) in enumerate(zip(steps, with_value)):
        rows = None
        if q is not None:
            inside_g = prev.generics[g].mask
            for mask in by_value:
                inside_g |= mask
            outside_g = ((1 << m) - 1) & ~inside_g
            rows = []
            for v in range(q.n):
                mask = outside_g
                if v == q.top:
                    mask |= old
                for u in _mask_bits(q.below[v]):
                    mask |= by_value[u]
                rows.append(mask)
        tail_down.append(rows)
    for j in range(k, m):
        down = below[prev_of[j]]
        for g, v in conditions[j][n]:
            down &= tail_down[g][v]
        below.append(down)
    conds = tuple(conditions)
    # a partial, not a lambda, so that the stage poset stays picklable
    poset = Poset(below, prev.poset.top, partial(map, _cond_label, conds))
    generics = enumerate_generics(poset)
    paths = []
    gen_masks = [0] * m
    for gi, g in enumerate(generics):
        prev_mask = prev.gen_masks[prev_of[g.atom]]
        prev_gen = (prev_mask & -prev_mask).bit_length() - 1
        if g.atom < k:
            paths.append(prev.paths[prev_gen] + (None,))
        else:
            paths.append(prev.paths[prev_gen] +
                         (dict(conds[g.atom][n])[prev_gen],))
        bit = 1 << gi
        for i in _mask_bits(g.mask):
            gen_masks[i] |= bit
    return Stage(n + 1, conds, poset, generics, paths,
                 tuple(gen_masks), tuple(steps), tuple(prev_of))


def build_iteration(provider: StepProvider, caps: Caps = DEFAULT_CAPS,
                    allow_partial: bool = False) -> Iteration:
    """Run the staged construction: P_1 from the base clause, P_{n+1} from
    canonical (condition, tail) pairs, quotiented by mutual order."""
    if provider.stage_count > caps.max_stages:
        raise CapExceeded(
            f"provider has {provider.stage_count} stages, above the cap {caps.max_stages}")
    stages = [root_stage()]
    partial = False
    for n in range(provider.stage_count):
        stage = stages[-1]
        steps: list[Poset | None] = []
        for gi in range(len(stage.generics)):
            q = provider.step(n, StepContext(stage, gi, stage.paths[gi]))
            if q is not None and not is_separative(q):
                raise ProviderError(
                    f"step poset at stage {n}, generic {gi} is not separative")
            steps.append(q)
        try:
            stages.append(extend_stage(stage, steps, caps))
        except CapExceeded:
            if not allow_partial:
                raise
            partial = True
            break
    return Iteration(stages, provider, caps, partial=partial)


def canonicalize_condition(raw: Sequence, iteration: Iteration, stage_index: int
                           ) -> Condition:
    """Canonical representative of a raw coordinate sequence at a stage.

    Trailing ones are trimmed, all-top tail maps become 1, and each tail map
    is restricted to the generics containing its prefix (the mutual-order
    quotient in function form).  The lemma suite's s-frown kernel
    (``projection._frown_table``) reads the same conditions off the parent
    rows instead; this function is the reference it is tested against.
    """
    if len(raw) > stage_index:
        raise ValueError(f"condition has {len(raw)} coordinates at stage {stage_index}")
    cond: Condition = ()
    for k, coord in enumerate(raw):
        prev = iteration.stages[k]
        prev_idx = prev.cond_index(trim(cond))
        canon = _canonical_tail(prev, iteration.stages[k + 1].steps, prev_idx, coord)
        if canon is not TAIL_ONE:
            cond = cond + (TAIL_ONE,) * (k - len(cond)) + (canon,)
    return cond


# -- collapse posets --------------------------------------------------------


@dataclass(frozen=True)
class CollapseSpec:
    """Collapse the finite set X to size m: injections of size < m."""

    X: tuple
    m: int


def collapse_conditions(spec: CollapseSpec) -> list[frozenset]:
    """All partial injections X -> {0..m-1} of size < m, as frozensets of
    (x, value) pairs; deterministic order."""
    if spec.m < 1:
        raise ValueError("collapse target must be >= 1")
    xs = list(spec.X)
    out = [frozenset()]
    max_size = min(len(xs), spec.m - 1)
    for size in range(1, max_size + 1):
        for dom in itertools.combinations(range(len(xs)), size):
            for ran in itertools.permutations(range(spec.m), size):
                out.append(frozenset((xs[d], r) for d, r in zip(dom, ran)))
    return out


def collapse_poset(spec: CollapseSpec) -> tuple[Poset, list[frozenset]]:
    """The collapse ordering: reverse inclusion of partial injections,
    empty map on top.  Returns the poset plus the condition payloads."""
    conds = collapse_conditions(spec)
    n = len(conds)
    below = [0] * n
    for i, p in enumerate(conds):
        for j, q in enumerate(conds):
            if q <= p:
                below[j] |= 1 << i
    labels = ["{}" if not c else
              "{" + ",".join(f"{x!r}:{v}" for x, v in sorted(c, key=lambda e: (repr(e[0]), e[1]))) + "}"
              for c in conds]
    return Poset(below, 0, labels), conds


# -- toy rank-ladder iteration ----------------------------------------------


@dataclass
class CifsStepInfo:
    """What the toy iteration provided at one (stage, generic path)."""

    poset: Poset
    element_tuples: tuple
    payloads: list[list[frozenset]]
    structure: tuple[HFSet, ...]
    witnesses: list[HFSet | None]


class CifsProvider(StepProvider):
    """Stagewise product of collapse components driven by one-free-variable
    formulas evaluated over the extension's materialized rank segment.

    Component 0 collapses the rank segment itself; component i collapses the
    unique witness of the i-th formula in that structure when one exists and
    is trivial otherwise.  The materialized segment is the ground fragment
    plus the hereditary content of the earlier collapse generics, restricted
    to the ladder rank, so later stages genuinely see stage-dependent
    structures.
    """

    def __init__(self, formulas: Sequence[Formula], ladder: Sequence[tuple[int, int]],
                 caps: Caps = DEFAULT_CAPS):
        for f in formulas:
            fv = free_variables(f)
            if len(fv) != 1:
                raise FormulaError(
                    f"toy-iteration formulas need exactly one free variable, got {sorted(fv)}")
        if ladder and ladder[0][0] > caps.cifs_rank_max:
            # only the ground fragment is materialized rank-segment-wise;
            # later rungs merely filter the transitive closure
            raise CapExceeded(
                f"ground rank {ladder[0][0]} above the cap {caps.cifs_rank_max}")
        for rank, m in ladder:
            if m < 1:
                raise ValueError("ladder cardinal surrogate must be >= 1")
            if m > 5:
                # collapse values are encoded as numerals, whose codes top out
                raise CapExceeded(f"cardinal surrogate {m} above the encodable bound 5")
        ms = [m for _, m in ladder]
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("ladder cardinal surrogates must be strictly increasing")
        self.formulas = list(formulas)
        self.free_vars = [next(iter(free_variables(f))) for f in formulas]
        self.ladder = list(ladder)
        self.stage_count = len(ladder)
        self.caps = caps
        self.info: dict[tuple[int, tuple], CifsStepInfo] = {}

    def _generic_debris(self, ctx: StepContext) -> list[HFSet]:
        """HF encodings of the collapse functions the generic path fixed."""
        out = []
        for j, choice in enumerate(ctx.path):
            if choice is None:
                continue
            info = self.info.get((j, ctx.path[:j]))
            if info is None:
                continue
            tup = info.element_tuples[choice]
            for comp_idx, cond_idx in enumerate(tup):
                payload = info.payloads[comp_idx][cond_idx]
                if payload:
                    out.append(encode_function(
                        (x, numeral(v)) for x, v in payload))
        return out

    def step(self, n: int, ctx: StepContext) -> Poset | None:
        key = (n, ctx.path)
        if key in self.info:
            return self.info[key].poset
        rank, m = self.ladder[n]
        # the extension's materialized universe: the stage-0 ground fragment
        # plus the hereditary content of the collapse generics fixed so far,
        # cut at this rung's rank
        ground = rank_segment(self.ladder[0][0])
        debris = self._generic_debris(ctx)
        universe = transitive_closure(tuple(ground) + tuple(debris))
        structure = tuple(x for x in universe if x.rank < rank)
        components: list[Poset] = []
        payloads: list[list[frozenset]] = []
        witnesses: list[HFSet | None] = []
        p0, c0 = collapse_poset(CollapseSpec(structure, m))
        components.append(p0)
        payloads.append(c0)
        for f, var in zip(self.formulas, self.free_vars):
            hits = [x for x in structure
                    if eval_classical(f, structure, [], {var: x})]
            if len(hits) == 1:
                witnesses.append(hits[0])
                pc, cc = collapse_poset(CollapseSpec(tuple(hits[0].members), m))
            else:
                witnesses.append(None)
                pc, cc = collapse_poset(CollapseSpec((), 1))
            components.append(pc)
            payloads.append(cc)
        poset, tuples = product_poset(components)
        self.info[key] = CifsStepInfo(poset, tuples, payloads, structure,
                                      witnesses)
        return poset


def cifs_toy_iteration(formulas: Sequence[Formula],
                       ladder: Sequence[tuple[int, int]],
                       caps: Caps = DEFAULT_CAPS) -> CifsProvider:
    """Step provider for the toy collapse iteration over a finite rank ladder."""
    return CifsProvider(formulas, ladder, caps)


# -- stagewise separativity -------------------------------------------------


def check_lemma1(iteration: Iteration, instance: str = "adhoc") -> SuiteReport:
    """Every stage poset of a built iteration must be separative."""
    report = SuiteReport()
    for stage in iteration.stages[1:]:
        witness = separativity_witness(stage.poset)
        detail: dict = {"conditions": stage.poset.n}
        if witness is not None:
            detail["witness"] = tuple(stage.poset.labels[p] for p in witness)
        report.record("lemma1", f"stage-{stage.index}-separative", instance,
                      witness is None, {"stage": stage.index}, detail)
    return report
