"""Finite-stage definable iterations, condition canonicalization, collapse
posets and the toy rank-ladder iteration, with the two checks that read its
step data: the stage-dependence probe and the Lemma 20 analogue.

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
import weakref
from functools import cache, partial
from typing import Iterable, Sequence

from .config import DEFAULT_CAPS, CapExceeded, Caps, Value, lazy
from .formula import (Formula, FormulaError, eval_classical,
                      free_variables, parse_formula)
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


class Stage:
    """One stage of a built iteration, complete once built: canonical
    conditions, generics and their paths, the step posets it was built
    from, one per generic of the previous stage, and each condition's
    ``parent``, the index of its prefix in the previous stage (both empty
    at the root).  Composing parent rows down to stage k gives every
    condition's k-prefix without canonicalizing it.  The poset's labels
    are the conditions' ``<...>`` texts, built on first read.

    Every stage above the root is enumerated by :func:`extend_stage`,
    the one constructor, and its parent keeps it weakly, so that a stage
    asked for again is the same object: Corollary 15's rebuild and every
    quotient level of a projection context ask for the stages generation
    built.  One stage may so serve many projection contexts, so it holds
    nothing of any one context: each quotient level keeps its own pi,
    combine and algebras, and no module but this one assigns a stage
    attribute.  The child map is not pickled: an unpickled stage starts
    with none."""

    def __init__(self, index: int, conditions: tuple[Condition, ...],
                 poset: Poset, generics: list[GenericSet], paths: list[tuple],
                 gen_masks: tuple[int, ...],
                 steps: tuple[Poset | None, ...] = (),
                 parent: tuple[int, ...] = ()):
        self.index = index
        self.conditions = conditions
        self.poset = poset
        self.generics = generics
        self.paths = paths
        self.gen_masks = gen_masks        # per condition: generics containing it
        self.steps = steps
        self.parent = parent

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

    # built on first read, not __init__ arguments, so a config.replace copy
    # indexes its own conditions and paths.  _tails keys each new condition
    # by (parent, last coordinate); _index, by the whole condition, serves
    # cond_index, that is the tests and canonicalize_condition
    @lazy
    def _tails(self) -> dict[tuple[int, Coordinate], int]:
        return {(p, c[-1]): i for i, (p, c) in
                enumerate(zip(self.parent, self.conditions))
                if len(c) == self.index}

    @lazy
    def _index(self) -> dict[Condition, int]:
        return {c: i for i, c in enumerate(self.conditions)}

    @lazy
    def path_index(self) -> dict[tuple, int]:
        return {p: i for i, p in enumerate(self.paths)}

    # read and written by extend_stage alone: the ids of a child's step
    # posets -> the child.  Weak values keep no stage alive, and a live
    # child holds its step posets, so their ids name no other posets
    @lazy
    def _children(self) -> weakref.WeakValueDictionary:
        return weakref.WeakValueDictionary()

    def __getstate__(self):
        # weak references do not pickle
        state = dict(self.__dict__)
        state.pop("_children", None)
        return state

    def gens_of(self, cond_idx: int) -> Iterable[int]:
        return _mask_bits(self.gen_masks[cond_idx])


class StepProvider:
    """Rule mapping (stage index, generic of that stage) to a separative step
    poset with top, or None for "no unique poset is defined here".  The
    rule reads the generic's path, one entry per earlier stage: the step
    condition that stage's generic chose, or None where it had no step
    poset.  As in the paper, the next step is defined from that path."""

    stage_count: int

    def step(self, n: int, path: tuple) -> Poset | None:
        raise NotImplementedError


class TableProvider(StepProvider):
    """Provider backed by literal tables keyed by generic paths."""

    def __init__(self, tables: Sequence[dict]):
        self.tables = [dict(t) for t in tables]
        self.stage_count = len(self.tables)

    def step(self, n: int, path: tuple) -> Poset | None:
        return self.tables[n].get(path)


class Iteration:
    """A built iteration: stages[0] is the trivial root, stages[k] is P_k."""

    def __init__(self, stages: list[Stage], provider: StepProvider,
                 caps: Caps, partial: bool = False):
        self.stages = stages
        self.provider = provider
        self.caps = caps
        self.partial = partial
        # instance-scoped: the projection contexts built on this iteration,
        # keyed (alpha, gen_index, caps), and nothing else; cleared once
        # the instance's suites are done.  Not an __init__ argument, so a
        # config.replace copy starts empty rather than reading contexts
        # built for the original's stages
        self.context_cache: dict = {}

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


def extend_stage(prev: Stage, steps: Sequence[Poset | None], caps: Caps) -> Stage:
    """Build stage n+1 from stage n and the step posets named over it,
    enumerating every tail map (the Definition-1 successor clause).

    A stage depends on ``prev`` and ``steps`` alone, so it is built once
    while it lives: ``prev`` keeps it weakly under its step posets'
    identities, and a later call with the same step posets returns it,
    after checking ``max_stage_conditions`` against its size.  Instance
    generation, every ``build_iteration`` and every quotient level of
    :func:`forcinglab.projection.make_context` ask for a stage this way,
    so Corollary 15's rebuild and the projection contexts get the stages
    generation built, and contexts keep their own pi and algebras.

    Stage n's conditions keep their indices, the empty one included, so
    the top is ``prev``'s.  The enumerated conditions are new and pairwise
    distinct, so they are appended without being hashed;
    :meth:`Stage.extension` finds each by its (prefix, tail) pair.

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
    n, k = prev.index, prev.poset.n

    def over_cap() -> CapExceeded:
        return CapExceeded(f"stage {n + 1} has more conditions than the cap "
                           f"{caps.max_stage_conditions}")

    key = tuple(map(id, steps))
    built = prev._children.get(key)
    if built is not None:
        if built.poset.n > caps.max_stage_conditions:
            raise over_cap()
        return built

    # the new conditions are pairwise distinct, so the stage's size is
    # known before any tail is placed, and a capped stage, which is
    # discarded, costs no enumeration
    extended = []
    size = k
    for ci in range(k):
        gens = list(prev.gens_of(ci))
        if all(steps[g] is not None for g in gens):
            extended.append((ci, gens))
            size += math.prod(steps[g].n for g in gens) - 1
    if size > caps.max_stage_conditions:
        raise over_cap()
    conditions: list[Condition] = list(prev.conditions)
    # per condition, the index of its prefix at stage n: a stage-n
    # condition is its own prefix
    prev_of = list(range(k))
    for ci, gens in extended:
        cond = prev.conditions[ci]
        base = cond + (TAIL_ONE,) * (n - len(cond))
        tops = tuple(steps[g].top for g in gens)
        for combo in itertools.product(*[range(steps[g].n) for g in gens]):
            if combo != tops:
                conditions.append(base + (tuple(zip(gens, combo)),))
                prev_of.append(ci)

    # order: each new condition has a tail value under every generic of
    # its prefix, so the new conditions over g are those with a value at g
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
    stage = Stage(n + 1, conds, poset, generics, paths,
                  tuple(gen_masks), tuple(steps), tuple(prev_of))
    prev._children[key] = stage
    return stage


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
            q = provider.step(n, stage.paths[gi])
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
    (``projection._frown_levels``) reads the same conditions off the parent
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


class CollapseSpec(Value):
    """Collapse the finite set X to size m: injections of size < m."""

    def __init__(self, X: tuple, m: int):
        self.X = X
        self.m = m


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
    # labels are built on first read, by a partial so the poset pickles
    return Poset(below, 0, partial(map, _injection_label, tuple(conds))), conds


def _injection_label(cond: frozenset) -> str:
    if not cond:
        return "{}"
    pairs = sorted(cond, key=lambda e: (repr(e[0]), e[1]))
    return "{" + ",".join(f"{x!r}:{v}" for x, v in pairs) + "}"


# -- toy rank-ladder iteration ----------------------------------------------


class CifsStepInfo:
    """What the toy iteration provided at one (stage, generic path)."""

    def __init__(self, poset: Poset, element_tuples: tuple,
                 payloads: list[list[frozenset]], structure: tuple[HFSet, ...],
                 witnesses: list[HFSet | None]):
        self.poset = poset
        self.element_tuples = element_tuples
        self.payloads = payloads
        self.structure = structure
        self.witnesses = witnesses


CIFS_RANK_MAX = 4   # the highest ground rank a CifsProvider materializes


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

    def __init__(self, formulas: Sequence[Formula], ladder: Sequence[tuple[int, int]]):
        for f in formulas:
            fv = free_variables(f)
            if len(fv) != 1:
                raise FormulaError(
                    f"toy-iteration formulas need exactly one free variable, got {sorted(fv)}")
        if ladder and ladder[0][0] > CIFS_RANK_MAX:
            # only the ground fragment is materialized rank-segment-wise;
            # later rungs merely filter the transitive closure
            raise CapExceeded(
                f"ground rank {ladder[0][0]} above the cap {CIFS_RANK_MAX}")
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
        self.info: dict[tuple[int, tuple], CifsStepInfo] = {}

    def _generic_debris(self, path: tuple) -> list[HFSet]:
        """HF encodings of the collapse functions the generic path fixed."""
        out = []
        for j, choice in enumerate(path):
            if choice is None:
                continue
            # a path's step j is built before any later step is asked for
            info = self.info[j, path[:j]]
            tup = info.element_tuples[choice]
            for comp_idx, cond_idx in enumerate(tup):
                payload = info.payloads[comp_idx][cond_idx]
                if payload:
                    out.append(encode_function(
                        (x, numeral(v)) for x, v in payload))
        return out

    def _rung_structure(self, n: int, path: tuple
                        ) -> tuple[tuple[HFSet, ...], list[HFSet | None]]:
        """Rung n's structure under ``path``, and per formula its unique
        witness there or None.  The structure is the extension's
        materialized universe, the stage-0 ground fragment plus the
        hereditary content of the collapse generics the path fixed, cut at
        the rung's rank."""
        ground = rank_segment(self.ladder[0][0])
        universe = transitive_closure(
            tuple(ground) + tuple(self._generic_debris(path)))
        rank = self.ladder[n][0]
        structure = tuple(x for x in universe if x.rank < rank)
        witnesses: list[HFSet | None] = []
        for f, var in zip(self.formulas, self.free_vars):
            hits = [x for x in structure
                    if eval_classical(f, structure, [], {var: x})]
            witnesses.append(hits[0] if len(hits) == 1 else None)
        return structure, witnesses

    def step(self, n: int, path: tuple) -> Poset | None:
        key = (n, path)
        if key in self.info:
            return self.info[key].poset
        structure, witnesses = self._rung_structure(n, path)
        m = self.ladder[n][1]
        specs = [CollapseSpec(structure, m)] + [
            CollapseSpec((), 1) if w is None
            else CollapseSpec(tuple(w.members), m) for w in witnesses]
        components, payloads = zip(*map(collapse_poset, specs))
        poset, tuples = product_poset(components)
        self.info[key] = CifsStepInfo(poset, tuples, list(payloads), structure,
                                      witnesses)
        return poset


def cifs_dependence_probe(instance: str = "cifs") -> SuiteReport:
    """Compare the rung-1 structures of a debris-admitting ladder under
    the two stage-0 generics: the witnessed structure must differ."""
    rep = SuiteReport()
    psi = parse_formula(
        "exists y (y in x) & forall y (y in x -> exists z (z in y & exists w (w in z)))")
    provider = CifsProvider([psi], [(1, 2), (6, 3)])
    # stage 1 alone, under caps of its own: no cap of the run reaches it
    stage = extend_stage(root_stage(), [provider.step(0, ())], DEFAULT_CAPS)
    rungs = [provider._rung_structure(1, path) for path in stage.paths]
    structures = {tuple(h.code for h in structure) for structure, _ in rungs}
    witnesses = {ws[0] for _, ws in rungs}
    rep.record("cifs", "tables-differ-between-generics", instance,
               len(structures) > 1 and len(witnesses) > 1, {},
               {"structure_sizes": [len(structure) for structure, _ in rungs],
                "witness_is_generic_encoding": all(
                    w is not None for w in witnesses)})
    return rep


def verify_lemma20_analogue(iteration: Iteration, full_gen_index: int,
                            instance: str = "adhoc") -> SuiteReport:
    """Whenever a collapse component ran with |X| < m, the generic filter's
    union is a total injection from X into {0..m-1}."""
    rep = SuiteReport()
    provider = iteration.provider
    if not isinstance(provider, CifsProvider):
        raise ProviderError("lemma 20 analogue needs a toy-iteration provider")
    N = len(iteration)
    path = iteration.stages[N].paths[full_gen_index]
    for k in range(N):
        if path[k] is None:
            continue
        # the final stage's path has N entries, and each step it names
        # was built to build the next stage
        info = provider.info[k, path[:k]]
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
