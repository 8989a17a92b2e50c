"""The regular-open completion of a finite poset as a concrete Boolean algebra.

A regular cut of a finite poset is fixed by the atoms it contains, so an
algebra element is that atom set, as a bitmask over the base poset: meet is
``&``, join is ``|`` and complement is ``^ one``.  :meth:`BoolAlgebra.cut`
gives back the regular cut, for reports and for tests against the cut
calculus in :mod:`forcinglab.poset`.  The algebra is materialized eagerly,
one element per subset of the atoms, each with its cut built alongside the
subsets (once per relation matrix), which is what lets the law suite and
the homomorphism checks be exhaustive instead of sampled.  The suites
certify complete homomorphisms with :func:`certify_complete_hom` (zero, one
and complement directly, every binary join and meet by one fold over the
atoms and one over the coatoms, no cap, work linear in |A|);
:func:`check_complete_hom` folds all 2^|A| subfamilies and is kept as the
reference oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .config import DEFAULT_CAPS, CapExceeded
from .poset import (Poset, _mask_bits, is_separative, regular_cuts,
                    separative_quotient)


class AlgebraError(ValueError):
    """A value that is not an element of the algebra."""


class BoolAlgebra:
    """All regular cuts of a separative base poset, stored as atom sets.

    ``elements`` ascend by their cuts, and ``index`` gives each element's
    position there; ``zero`` is 0 and ``one`` is ``base.atom_mask``.  The
    cut table, ``elements`` and ``index`` are read from
    :func:`forcinglab.poset.regular_cuts`, memoized on the base's relation
    rows, so algebras over one order share them.  If the input poset was
    not separative it is quotiented first: ``original``/``quotient_map``
    report that, and the atoms are those of ``base`` (the quotient).
    ``name_table`` and ``name_tag`` stay per algebra: the table interns the
    names built over this algebra (see :class:`forcinglab.names.Name`) for
    as long as it lives; those names hold ``name_tag``, not the algebra, so
    no reference cycle keeps them alive after it, and two algebras over one
    order never share a name.
    """

    __slots__ = ("base", "original", "quotient_map", "elements", "index",
                 "nonzero", "zero", "one", "_cuts", "name_table", "name_tag")

    def __init__(self, base: Poset, original: Poset | None = None,
                 quotient_map: tuple[int, ...] | None = None):
        self.base = base
        self.original = original
        self.quotient_map = quotient_map
        self.zero = 0
        self.one = base.atom_mask
        # memoized on the base's relation rows, shared with every algebra
        # over that order and never written to
        self._cuts, self.elements, self.index = regular_cuts(base)
        self.nonzero = self.elements[1:]
        self.name_table: dict[tuple, object] = {}
        self.name_tag = object()

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.index

    def cut(self, x: int) -> int:
        """The regular cut of the base poset that x stands for."""
        try:
            return self._cuts[x]
        except KeyError:
            raise AlgebraError(f"{x:#x} is not an element of this algebra")

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def complement(self, a: int) -> int:
        return a ^ self.one

    def product(self, family: Iterable[int]) -> int:
        """Meet of the whole family; the empty product is one."""
        acc = self.one
        for x in family:
            if x & ~self.one:
                raise AlgebraError(f"{x:#x} is not an element of this algebra")
            acc &= x
        return acc

    def sum(self, family: Iterable[int]) -> int:
        """Join of the whole family; the empty sum is zero."""
        acc = 0
        for x in family:
            acc |= x
        if acc & ~self.one:
            raise AlgebraError(f"{acc:#x} is not an element of this algebra")
        return acc

    def leq(self, a: int, b: int) -> bool:
        return not a & ~b

    def principal(self, p: int) -> int:
        """The element of the principal cut of base element p."""
        return self.base.atoms_below(p)


def ro_algebra(poset: Poset, max_base: int | None = None) -> BoolAlgebra:
    """The regular-open algebra of a poset.

    Non-separative inputs are quotiented first and the quotient map is kept
    on the result.  The algebra has 2^|atoms| elements, so posets with more
    than ``max_base`` atoms (default ``Caps.algebra_max_base``) are
    rejected, on every call.  Each call returns a new algebra with its own
    name table; its element tables and the separativity test are computed
    once per relation matrix (see :class:`BoolAlgebra`).
    """
    bound = DEFAULT_CAPS.algebra_max_base if max_base is None else max_base
    k = len(poset.atoms)
    if k > bound:
        raise CapExceeded(
            f"poset has {k} atoms, above the algebra enumeration bound {bound}")
    if is_separative(poset):
        return BoolAlgebra(poset)
    quot, mapping = separative_quotient(poset)
    return BoolAlgebra(quot, original=poset, quotient_map=mapping)


# -- law suite ------------------------------------------------------------


def boolean_law_violations(algebra: BoolAlgebra) -> list[tuple]:
    """Exhaustively check the Boolean-algebra laws; returns violations.

    Covers associativity, commutativity, distributivity, De Morgan, double
    complement and absorption, each quantified over all element pairs or
    triples of the algebra.
    """
    A = algebra
    out: list[tuple] = []
    els = A.elements
    for a in els:
        if A.complement(A.complement(a)) != a:
            out.append(("double-complement", a))
        if A.meet(a, A.complement(a)) != A.zero:
            out.append(("complement-meet", a))
        if A.join(a, A.complement(a)) != A.one:
            out.append(("complement-join", a))
    for a in els:
        for b in els:
            if A.meet(a, b) != A.meet(b, a):
                out.append(("meet-commutativity", a, b))
            if A.join(a, b) != A.join(b, a):
                out.append(("join-commutativity", a, b))
            if A.complement(A.meet(a, b)) != A.join(A.complement(a), A.complement(b)):
                out.append(("de-morgan-meet", a, b))
            if A.complement(A.join(a, b)) != A.meet(A.complement(a), A.complement(b)):
                out.append(("de-morgan-join", a, b))
            if A.meet(a, A.join(a, b)) != a:
                out.append(("absorption-meet", a, b))
            if A.join(a, A.meet(a, b)) != a:
                out.append(("absorption-join", a, b))
    for a in els:
        for b in els:
            for c in els:
                if A.meet(A.meet(a, b), c) != A.meet(a, A.meet(b, c)):
                    out.append(("meet-associativity", a, b, c))
                if A.join(A.join(a, b), c) != A.join(a, A.join(b, c)):
                    out.append(("join-associativity", a, b, c))
                if A.meet(a, A.join(b, c)) != A.join(A.meet(a, b), A.meet(a, c)):
                    out.append(("distributivity", a, b, c))
    return out


def dense_embedding_violations(algebra: BoolAlgebra) -> list[int]:
    """Nonzero algebra elements with no principal element below them."""
    A = algebra
    bad = []
    for b in A.nonzero:
        if not any(A.leq(A.principal(p), b) for p in range(A.base.n)):
            bad.append(b)
    return bad


# -- homomorphism checks ---------------------------------------------------


# the most counterexamples a HomReport lists
_KEPT = 32


@dataclass
class HomReport:
    """Outcome of a complete-homomorphism check, the certificate or the fold.

    ``counterexamples`` holds the first 32 entries of
    (kind, input family tuple, expected, got), each value an algebra
    element (an atom set); ``violation_count`` is the full count.  A
    preserves_* flag is True iff its kind has no violations.
    """

    preserves_zero_one: bool = True
    preserves_complement: bool = True
    preserves_all_products: bool = True
    preserves_all_sums: bool = True
    counterexamples: list[tuple] = field(default_factory=list)
    violation_count: int = 0
    families_checked: int = 0

    @property
    def ok(self) -> bool:
        return (self.preserves_zero_one and self.preserves_complement
                and self.preserves_all_products and self.preserves_all_sums)

    def _hit(self, kind: str, payload: tuple, expected: int, got: int):
        self.violation_count += 1
        if len(self.counterexamples) < _KEPT:
            self.counterexamples.append((kind, payload, expected, got))


def check_complete_hom(h: Mapping[int, int] | Callable[[int], int],
                       A: BoolAlgebra, B: BoolAlgebra,
                       family_cap: int | None = None) -> HomReport:
    """Exhaustively test that h preserves complement and the product and sum
    of every subfamily of A: the reference oracle for
    :func:`certify_complete_hom`.

    The algebras are finite, so checking every subfamily certifies full
    Sigma-completeness.  Violations are data, not errors; the report lists
    them.  The subfamily sweep is 2^|A| families, guarded by ``family_cap``.
    """
    cap = DEFAULT_CAPS.hom_family_cap if family_cap is None else family_cap
    els = A.elements
    k = len(els)
    if 1 << k > cap:
        raise CapExceeded(
            f"algebra has {k} elements: 2^{k} subfamilies exceed the cap {cap}")
    hv = []
    for x in els:
        v = h[x] if isinstance(h, Mapping) else h(x)
        if v not in B:
            raise AlgebraError(f"{v:#x} is not an element of the target algebra")
        hv.append(v)
    h_of = dict(zip(els, hv))
    rep = HomReport()
    if h_of[A.zero] != B.zero:
        rep.preserves_zero_one = False
        rep._hit("zero", (A.zero,), B.zero, h_of[A.zero])
    if h_of[A.one] != B.one:
        rep.preserves_zero_one = False
        rep._hit("one", (A.one,), B.one, h_of[A.one])
    for x, v in zip(els, hv):
        got = h_of[A.complement(x)]
        want = B.complement(v)
        if got != want:
            rep.preserves_complement = False
            rep._hit("complement", (x,), want, got)
    # DP over subfamily bitmasks: O(1) per family per side
    n_fam = 1 << k
    a_prod = [0] * n_fam
    a_sum = [0] * n_fam
    b_prod = [0] * n_fam
    b_sum = [0] * n_fam
    a_prod[0] = A.one
    b_prod[0] = B.one
    for m in range(1, n_fam):
        low = m & -m
        i = low.bit_length() - 1
        rest = m ^ low
        a_prod[m] = a_prod[rest] & els[i]
        a_sum[m] = a_sum[rest] | els[i]
        b_prod[m] = b_prod[rest] & hv[i]
        b_sum[m] = b_sum[rest] | hv[i]
    for m in range(n_fam):
        got = h_of[a_prod[m]]
        if got != b_prod[m]:
            rep.preserves_all_products = False
            rep._hit("product", tuple(els[i] for i in _mask_bits(m)),
                     b_prod[m], got)
        got = h_of[a_sum[m]]
        if got != b_sum[m]:
            rep.preserves_all_sums = False
            rep._hit("sum", tuple(els[i] for i in _mask_bits(m)),
                     b_sum[m], got)
    rep.families_checked = n_fam
    return rep


def certify_complete_hom(h: Mapping[int, int], A: BoolAlgebra,
                         B: BoolAlgebra) -> HomReport:
    """Certify that h is a complete Boolean homomorphism, with no cap.

    Checks zero, one and complement directly, then folds the atoms and the
    coatoms.  A finite Boolean algebra is generated by its atoms (Givant &
    Halmos, *Introduction to Boolean Algebras*, 2009), so h keeps zero and
    every binary join iff h(b) is the join of h(a) over the atoms a <= b,
    for every b; and h keeps one and every binary meet iff h(b) is the meet
    of h(c) over the coatoms c >= b, since a coatom above x * y lies above x
    or above y.  Each fold is one operation per element, built along the
    doubling order of the atom subsets.  A map that keeps one, complement
    and binary meets is a Boolean homomorphism, and every family in a
    finite algebra is finite, so it is then complete.  Every finite product
    (sum) is one (zero) or a chain of binary meets (joins), so each flag of
    the report equals that of :func:`check_complete_hom`.

    ``families_checked`` is 1 + |A|(|A|-1)/2: the empty family and every
    pair of distinct elements, the families the folds certify.  The zero,
    one and complement violations come first.  After them, each element b
    whose fold fails is one violation of its kind, and its witness is a
    binary one: refolding b's atoms (coatoms) one at a time, the first
    partial join (meet) p and atom (coatom) a with h(p + a) != h(p) + h(a)
    (h(p * a) != h(p) * h(a)) is reported as the pair (p, a).
    """
    els = A.elements
    for x in els:
        if h[x] not in B:
            raise AlgebraError(f"{h[x]:#x} is not an element of the target algebra")
    rep = HomReport(families_checked=1 + len(els) * (len(els) - 1) // 2)
    # zero and one are the sum and the product of the empty family
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
    # subsets[i] is an atom set x; joins[i] folds h over the atoms in x and
    # meets[i] over the coatoms one ^ a for the atoms a in x
    one = A.one
    subsets, joins, meets = [0], [B.zero], [B.one]
    for a in A.base.atoms:
        bit = 1 << a
        h_atom, h_coatom = h[bit], h[one ^ bit]
        subsets += [x | bit for x in subsets]
        joins += [j | h_atom for j in joins]
        meets += [m & h_coatom for m in meets]
    join_of = dict(zip(subsets, joins))
    meet_of = {one ^ x: m for x, m in zip(subsets, meets)}
    for b in els:
        if b != one and h[b] != meet_of[b]:
            rep.preserves_all_products = False
            p, c = _first_broken_meet(h, b, one)
            rep._hit("product", (p, c), h[p] & h[c], h[p & c])
        if b and h[b] != join_of[b]:
            rep.preserves_all_sums = False
            p, a = _first_broken_join(h, b)
            rep._hit("sum", (p, a), h[p] | h[a], h[p | a])
    return rep


def _first_broken_join(h: Mapping[int, int], b: int) -> tuple[int, int]:
    """The first partial join p of b's atoms and next atom a, in ascending
    bit order, with h(p | a) != h(p) | h(a).  Called only where h(b) is not
    the join of its atoms' images, so some step breaks."""
    p = b & -b
    rest = b ^ p
    while rest:
        a = rest & -rest
        if h[p | a] != h[p] | h[a]:
            return p, a
        p |= a
        rest ^= a
    raise AssertionError(f"the atoms of {b:#x} fold to its image")


def _first_broken_meet(h: Mapping[int, int], b: int,
                       one: int) -> tuple[int, int]:
    """The first partial meet p of the coatoms above b and next coatom c,
    in ascending order of their missing atoms, with h(p & c) != h(p) & h(c).
    Called only where h(b) is not the meet of those coatoms' images."""
    missing = one & ~b
    low = missing & -missing
    p, rest = one ^ low, missing ^ low
    while rest:
        a = rest & -rest
        c = one ^ a
        if h[p & c] != h[p] & h[c]:
            return p, c
        p &= c
        rest ^= a
    raise AssertionError(f"the coatoms above {b:#x} fold to its image")
