"""The element-by-element forms of two algebra kernels, kept as oracles for
the library's atom folds.

:func:`cut_of_atom_set` reads one regular cut off the poset, element by
element, and :func:`cut_table_by_elements` every one of them, from the rows
alone; :func:`forcinglab.poset.regular_cuts` builds every cut alongside the
atom subsets, once per relation matrix.  :func:`certify_by_pairs` checks
every pair of distinct elements;
:func:`forcinglab.boolalg.certify_complete_hom` folds the atoms and the
coatoms.
"""

from forcinglab.boolalg import AlgebraError, HomReport


def cut_of_atom_set(atom_mask, poset):
    """The regular cut {p : atoms(p) <= atom_mask}."""
    out = 0
    for p in range(poset.n):
        if not poset.atoms_below(p) & ~atom_mask:
            out |= 1 << p
    return out


def cut_table_by_elements(poset):
    """(cut by atom set, atom sets ascending by cut, position by atom set),
    from ``below`` alone: each atom set's cut is read off element by
    element."""
    n = poset.n
    atoms = [p for p in range(n) if poset.below[p] == 1 << p]
    atom_mask = sum(1 << a for a in atoms)
    cuts = {}
    for bits in range(1 << len(atoms)):
        x = sum(1 << a for i, a in enumerate(atoms) if bits >> i & 1)
        cuts[x] = sum(1 << p for p in range(n)
                      if not poset.below[p] & atom_mask & ~x)
    ascending = tuple(sorted(cuts, key=cuts.get))
    return cuts, ascending, {x: i for i, x in enumerate(ascending)}


def certify_by_pairs(h, A, B):
    """Zero, one, complement, and the meet and join of every pair of
    distinct elements: quadratic in |A|."""
    els = A.elements
    for x in els:
        if h[x] not in B:
            raise AlgebraError(f"{h[x]:#x} is not an element of the target algebra")
    rep = HomReport(families_checked=1 + len(els) * (len(els) - 1) // 2)
    if h[A.zero] != B.zero:
        rep.preserves_zero_one = rep.preserves_all_sums = False
        rep._hit("zero", (A.zero,), B.zero, h[A.zero])
    if h[A.one] != B.one:
        rep.preserves_zero_one = rep.preserves_all_products = False
        rep._hit("one", (A.one,), B.one, h[A.one])
    for x in els:
        if h[A.complement(x)] != B.complement(h[x]):
            rep.preserves_complement = False
            rep._hit("complement", (x,), B.complement(h[x]), h[A.complement(x)])
    for i, x in enumerate(els):
        for y in els[i + 1:]:
            if h[x & y] != h[x] & h[y]:
                rep.preserves_all_products = False
                rep._hit("product", (x, y), h[x] & h[y], h[x & y])
            if h[x | y] != h[x] | h[y]:
                rep.preserves_all_sums = False
                rep._hit("sum", (x, y), h[x] | h[y], h[x | y])
    return rep


def flags(rep):
    return (rep.preserves_zero_one, rep.preserves_complement,
            rep.preserves_all_products, rep.preserves_all_sums)


def fake_binary_witnesses(rep, h):
    """The product and sum counterexamples of rep that are not a pair
    (x, y) of elements with h(x * y) != h(x) * h(y), or
    h(x + y) != h(x) + h(y)."""
    bad = []
    for kind, family, _, _ in rep.counterexamples:
        if kind not in ("product", "sum"):
            continue
        if len(family) != 2:
            bad.append((kind, family))
            continue
        x, y = family
        if kind == "product" and h[x & y] == h[x] & h[y]:
            bad.append((kind, family))
        if kind == "sum" and h[x | y] == h[x] | h[y]:
            bad.append((kind, family))
    return bad
