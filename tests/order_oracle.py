"""The pairwise forms of the order kernels, kept as oracles for the
library's bit-row ones.

Each function here compares elements two at a time, and reads nothing of a
poset but ``below``, so it computes afresh what the library memoizes per
relation matrix.  The library reads the same relations off rows:
:class:`forcinglab.poset.Poset` builds ``above`` in its transitivity check
and ``compat`` from the atoms' upper cones,
:func:`forcinglab.poset.separativity_witness` ANDs atom rows,
:func:`forcinglab.poset.product_poset` ANDs coordinate rows, and
:func:`forcinglab.iteration.extend_stage` ANDs prefix and tail rows.
:func:`stage_paths_and_parents` recomputes the rest of what
``extend_stage`` records, each generic's path and each condition's prefix,
from the conditions and the generics' masks alone, and
:func:`stage_from_conditions` puts them together into a whole stage whose
new conditions come in any order, which the library, enumerating every
stage, never builds.
"""

import itertools

from forcinglab.config import replace
from forcinglab.generic import enumerate_generics
from forcinglab.iteration import TAIL_ONE, Stage, trim
from forcinglab.poset import Poset


def above_by_pairs(poset):
    """above[p]: the q with p in q's lower cone."""
    n = poset.n
    return tuple(sum(1 << q for q in range(n) if poset.below[q] >> p & 1)
                 for p in range(n))


def atoms_by_pairs(poset):
    """The p with no other element below them."""
    return tuple(p for p in range(poset.n)
                 if not any(q != p and poset.below[p] >> q & 1
                            for q in range(poset.n)))


def compat_by_pairs(poset):
    """compat[p]: the q whose lower cone meets p's."""
    n = poset.n
    return tuple(sum(1 << q for q in range(n) if poset.below[p] & poset.below[q])
                 for p in range(n))


def separativity_witness_by_pairs(poset):
    """The first (p, q) with p not below q and every element below p
    compatible with q, or None."""
    compat = compat_by_pairs(poset)
    return next(
        ((p, q) for p in range(poset.n) for q in range(poset.n)
         if not poset.below[q] >> p & 1 and not poset.below[p] & ~compat[q]),
        None)


def product_by_pairs(components):
    """The componentwise order, one pair of tuples at a time; returns the
    poset and the element tuples, as product_poset does."""
    tuples = list(itertools.product(*[range(c.n) for c in components]))
    below = [0] * len(tuples)
    for ti, t in enumerate(tuples):
        for si, s in enumerate(tuples):
            if all(c.leq(s[k], t[k]) for k, c in enumerate(components)):
                below[ti] |= 1 << si
    top = tuples.index(tuple(c.top for c in components))
    labels = ["(" + ",".join(c.labels[e] for c, e in zip(components, t)) + ")"
              for t in tuples]
    return Poset(below, top, labels), tuple(tuples)


def tail_leq(steps, gens_i, tail_i, tail_j):
    """Order on tail coordinates below a prefix with generic set gens_i."""
    if tail_j is TAIL_ONE:
        return True
    tj = dict(tail_j)
    if tail_i is TAIL_ONE:
        # acts as the top name only where the step poset exists everywhere
        for g in gens_i:
            q = steps[g]
            if q is None or tj[g] != q.top:
                return False
        return True
    ti = dict(tail_i)
    for g in gens_i:
        if not steps[g].leq(ti[g], tj[g]):
            return False
    return True


def stage_order_by_pairs(prev, stage):
    """The order extend_stage puts on stage's conditions, from prev (the
    stage it extends) and stage.steps, one pair of conditions at a time;
    returns (below, gen_masks)."""
    n = prev.index
    steps = stage.steps
    prev_of = [prev.cond_index(trim(c[:n])) for c in stage.conditions]
    tail_of = [c[n] if len(c) == n + 1 else TAIL_ONE for c in stage.conditions]
    m = len(stage.conditions)
    below = [0] * m
    for i in range(m):
        gens_i = list(prev.gens_of(prev_of[i]))
        for j in range(m):
            if not prev.poset.leq(prev_of[i], prev_of[j]):
                continue
            if tail_leq(steps, gens_i, tail_of[i], tail_of[j]):
                below[j] |= 1 << i
    gen_masks = tuple(
        sum(1 << gi for gi, g in enumerate(stage.generics) if (g.mask >> i) & 1)
        for i in range(m))
    return below, gen_masks


def stage_paths_and_parents(prev, stage):
    """Each generic's path and each condition's prefix index, as
    extend_stage records them, from the definitions: a generic H of stage
    n+1 restricts to the stage-n generic whose mask is H's on stage n's
    indices, and its path is that generic's path followed by the value of
    H's atom's tail there, None for a TAIL_ONE tail; a condition's parent
    is the index of its trimmed n-prefix in prev; returns (paths, parents)."""
    n = prev.index
    old = (1 << len(prev.conditions)) - 1
    paths = []
    for g in stage.generics:
        (pg,) = [i for i, h in enumerate(prev.generics)
                 if h.mask == g.mask & old]
        atom = stage.conditions[g.atom]
        tail = atom[n] if len(atom) == n + 1 else TAIL_ONE
        paths.append(prev.paths[pg] +
                     (None if tail is TAIL_ONE else dict(tail)[pg],))
    parents = [prev.conditions.index(trim(c[:n])) for c in stage.conditions]
    return paths, parents


def stage_from_conditions(prev, steps, conditions):
    """The stage over prev, under the step posets ``steps``, whose
    conditions are ``conditions`` in order, prev's first: its order from
    :func:`stage_order_by_pairs`, its generics enumerated from that order,
    and each generic's path and each condition's prefix from
    :func:`stage_paths_and_parents`."""
    draft = Stage(prev.index + 1, tuple(conditions), prev.poset, [], [], (),
                  tuple(steps))
    below, _ = stage_order_by_pairs(prev, draft)
    poset = Poset(below, prev.poset.top)
    draft = replace(draft, poset=poset, generics=enumerate_generics(poset))
    _, gen_masks = stage_order_by_pairs(prev, draft)
    paths, parents = stage_paths_and_parents(prev, draft)
    return replace(draft, paths=paths, gen_masks=gen_masks,
                   parent=tuple(parents))
