"""The search-per-call forms of two isomorph-rejection steps, kept as oracles
for the library's cached ones.

:func:`automorphisms_by_search` backtracks over the order-preserving
permutations of a poset on every call;
:meth:`forcinglab.poset.Poset.automorphisms` reads them off the canonical-key
search.  :func:`tree_canon_per_automorphism` rebuilds each child subtree's
canonical form once per automorphism; :func:`forcinglab.cli._tree_canon`
builds it once per node.
"""


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
