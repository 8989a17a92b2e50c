"""The search-per-call forms of four isomorph-rejection steps, kept as
oracles for the library's cached and pruned ones.

:func:`canonical_key_by_search` tries every permutation of a poset on every
call; :meth:`forcinglab.poset.Poset.canonical_key` searches only the
relabelings that respect its invariant groups, once per relation matrix.
:func:`automorphisms_by_search` backtracks over the order-preserving
permutations of a poset on every call;
:meth:`forcinglab.poset.Poset.automorphisms` reads them off the canonical-key
search.  :func:`tree_canon_per_automorphism` rebuilds each child subtree's
canonical form once per automorphism;
:func:`forcinglab.cli.generate_instances` folds it once per node into each
``InstanceSpec.canon``.  :func:`generate_instances_exhaustive` builds every
table assignment at every depth and rejects isomorphs only at the leaves;
the library extends one assignment per isomorphism class below each
parent.
"""

import hashlib
import itertools
import json

from forcinglab.cli import InstanceSpec, _step_catalog
from forcinglab.config import CapExceeded
from forcinglab.iteration import (Iteration, TableProvider, build_iteration,
                                  extend_stage)


def canonical_key_by_search(poset):
    """The least relation matrix over every relabeling that lists the
    elements in ascending order of their local invariants, found by trying
    all n! permutations.

    An element's invariant is the sizes of its lower cone, upper cone and
    compatible set, followed by the sorted sizes of the elements below it
    and of those above it.  Cell (perm[q], perm[p]) of the matrix is 1
    when q <= p."""
    n = poset.n

    def size(m):
        return bin(m).count("1")

    def members(m):
        return [q for q in range(n) if m >> q & 1]

    base = [(size(poset.below[p]), size(poset.above[p]), size(poset.compat[p]))
            for p in range(n)]
    inv = [base[p] + (tuple(sorted(base[q] for q in members(poset.below[p]))),
                      tuple(sorted(base[q] for q in members(poset.above[p]))))
           for p in range(n)]
    rank = [sorted(set(inv)).index(inv[p]) for p in range(n)]
    best = None
    for perm in itertools.permutations(range(n)):
        at = [0] * n
        for p in range(n):
            at[perm[p]] = rank[p]
        if any(at[i] > at[i + 1] for i in range(n - 1)):
            continue
        out = bytearray(n * n)
        for p in range(n):
            for q in members(poset.below[p]):
                out[perm[q] * n + perm[p]] = 1
        if best is None or bytes(out) < best:
            best = bytes(out)
    return n, best


def automorphisms_by_search(poset):
    """All order-preserving permutations of the elements, by backtracking
    over images with no invariant pruning."""
    n = poset.n
    out = []
    perm = [-1] * n
    used = [False] * n

    def rec(p):
        if p == n:
            out.append(tuple(perm))
            return
        for q in range(n):
            if used[q]:
                continue
            if all(poset.leq(r, p) == poset.leq(perm[r], q) and
                   poset.leq(p, r) == poset.leq(q, perm[r]) for r in range(p)):
                perm[p] = q
                used[q] = True
                rec(p + 1)
                used[q] = False
        perm[p] = -1

    rec(0)
    return out


def tree_canon_per_automorphism(iteration, catalog_index):
    """The provider behavior tree's canonical form, recursing into every
    child subtree once for each automorphism of the node's step poset."""
    stages = iteration.stages

    def canon(n, path):
        if n + 1 >= len(stages):
            return ()
        q = iteration.provider.tables[n].get(path)
        if q is None or q.n == 1:
            label = "U" if q is None else f"q{catalog_index[id(q)]}"
            if stages[n + 1].path_index.get(path + (None,)) is None:
                return (label,)
            return (label, canon(n + 1, path + (None,)))
        best = None
        for sigma in automorphisms_by_search(q):
            arranged = tuple(canon(n + 1, path + (sigma[a],)) for a in q.atoms)
            if best is None or arranged < best:
                best = arranged
        return (f"q{catalog_index[id(q)]}", best)

    return canon(0, ())


def generate_instances_exhaustive(config):
    """The isomorph-reduced instance stream, built the long way: every
    table assignment below every prefix extends its parent's final stage,
    and an instance is dropped only when its tree form, read by
    :func:`tree_canon_per_automorphism`, was already recorded.  Returns
    (spec, iteration) pairs in instance-id order."""
    caps = config.caps()
    catalog = _step_catalog(config.max_poset)
    catalog_index = {id(p): i for i, p in enumerate(catalog) if p is not None}
    seen = set()
    out = []

    def record(iteration):
        canon = ("partial" if iteration.partial else "total",
                 tree_canon_per_automorphism(iteration, catalog_index))
        if canon in seen:
            return
        blob = json.dumps(canon, sort_keys=True, default=str)
        iid = "it-" + hashlib.sha256(blob.encode()).hexdigest()[:10]
        seen.add(canon)
        out.append((InstanceSpec(iid, iteration.provider.tables,
                                 iteration.partial, canon), iteration))

    def rec(iteration):
        tables = iteration.provider.tables
        if len(tables) == config.max_stages:
            record(iteration)
            return
        stage = iteration.final
        for assignment in itertools.product(catalog, repeat=len(stage.generics)):
            table = {path: q for path, q in zip(stage.paths, assignment)
                     if q is not None}
            provider = TableProvider(tables + [table])
            try:
                child = extend_stage(stage, assignment, caps)
            except CapExceeded:
                record(Iteration(list(iteration.stages), provider, caps,
                                 partial=True))
                continue
            rec(Iteration(iteration.stages + [child], provider, caps))

    rec(build_iteration(TableProvider([]), caps))
    out.sort(key=lambda pair: pair[0].instance_id)
    return out
