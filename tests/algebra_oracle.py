"""The element-by-element forms of the algebra kernels, kept as oracles for
the library's atom folds, element splits and per-element reads.

:func:`cut_of_atom_set` reads one regular cut off the poset, element by
element, and :func:`cut_table_by_elements` every one of them, from the rows
alone; ``BoolAlgebra.cut`` reads one from the memo ``Poset.cuts``, which
computes it from the atoms outside it.  :func:`column_table` is
pi_prime's column formula tabulated over every source element, the form
the library evaluates per element on first read, and
:func:`identity_failures` walks
every nonzero element for Theorem 16's evaluation identity, which the
library decides on pi's atom images, and :func:`first_unattained` walks
every nonzero quotient element for Theorem 2's onto witness, which the
library reads off the atom images wherever they decide the map;
:func:`planted_homs` gives the complete homomorphisms that are not onto on
which that reading is tested.  :func:`certify_by_pairs` checks
every pair of distinct elements, where
:func:`forcinglab.boolalg.certify_complete_hom` splits each element once at
its lowest atom and its lowest missing atom; :func:`fake_binary_witnesses`
lists the reported pairs that break nothing.  :func:`atom_conditions` reads
the three conditions of the atom criterion behind ``QuotientLevel.hom`` off
their definitions.
"""

from forcinglab.boolalg import AlgebraError, HomReport
from forcinglab.config import replace


def cut_of_atom_set(atom_mask, poset):
    """The regular cut {p : atoms(p) <= atom_mask}."""
    out = 0
    for p in range(poset.n):
        if not poset.atoms_below(p) & ~atom_mask:
            out |= 1 << p
    return out


def cut_table_by_elements(poset):
    """(cut by atom set, atom sets ascending by cut), from ``below`` alone:
    each atom set's cut is read off element by element."""
    n = poset.n
    atoms = [p for p in range(n) if poset.below[p] == 1 << p]
    atom_mask = sum(1 << a for a in atoms)
    cuts = {}
    for bits in range(1 << len(atoms)):
        x = sum(1 << a for i, a in enumerate(atoms) if bits >> i & 1)
        cuts[x] = sum(1 << p for p in range(n)
                      if not poset.below[p] & atom_mask & ~x)
    return cuts, tuple(sorted(cuts, key=cuts.get))


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


def atom_conditions(level):
    """(joins kept, disjoint, covering) for the level's pi, with B(p) the
    quotient atoms below pi(p), 0 where it is undefined: every B(p) lies in
    the join of the B(a) over the source atoms a below p; the B(a) of
    distinct atoms meet in 0; the B(a) join to the quotient's one."""
    A, B = level.source, level.algebra
    atoms = A.base.atoms

    def image(p):
        return 0 if level.pi[p] is None else B.principal(level.pi[p])

    def join(ps):
        out = 0
        for p in ps:
            out |= image(p)
        return out

    joins = all(not image(p) & ~join(a for a in atoms
                                     if A.base.atoms_below(p) >> a & 1)
                for p in range(A.base.n))
    disjoint = all(not image(a) & image(b)
                   for a in atoms for b in atoms if a < b)
    return joins, disjoint, join(atoms) == B.one


def column_table(level):
    """{source element: quotient element} for the level's pi: quotient atom
    b is in the image of x iff the cut of x meets b's column, the defined
    p with b <= pi(p)."""
    qposet = level.stage.poset
    columns = [(1 << b, sum(1 << p for p, v in enumerate(level.pi)
                            if v is not None and qposet.leq(b, v)))
               for b in qposet.atoms]
    A = level.source
    table = {}
    for x in A.elements:
        cut = cut_of_atom_set(x, A.base)
        table[x] = sum(bit for bit, col in columns if cut & col)
    return table


def identity_failures(table, A, gmask, hmask):
    """The nonzero source elements b on which the evaluation identity
    fails for the map ``table``: b meets G and its image misses H, or the
    other way round."""
    return [b for b in A.nonzero
            if bool(b & gmask) != bool(table[b] & hmask)]


def first_unattained(level):
    """The first nonzero quotient element, ascending by cut, that the
    level's pi_prime does not attain, or None: its values listed against
    every element of ``algebra.nonzero``."""
    image = set(level.pi_prime.values())
    return next((c for c in level.algebra.nonzero if c not in image), None)


def planted_homs(level):
    """Copies of the level, one per source atom a and quotient condition v
    above every quotient atom, whose pi sends the up-set of a to v and
    leaves every other condition undefined: the complete homomorphism onto
    {0, one} that asks whether a is in x, onto exactly when the quotient
    has one atom."""
    base, qposet = level.source.base, level.stage.poset
    tops = [v for v in range(qposet.n)
            if qposet.atoms_below(v) == qposet.atom_mask]
    for a in base.atoms:
        for v in tops:
            yield replace(level, pi=[v if base.above[a] >> p & 1 else None
                                     for p in range(base.n)])
