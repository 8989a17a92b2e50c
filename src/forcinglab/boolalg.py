"""The regular-open completion of a finite poset as a concrete Boolean algebra.

A regular cut of a finite poset is fixed by the atoms it contains, so an
algebra element is that atom set, as a bitmask over the base poset: meet is
``&``, join is ``|`` and complement is ``^ one``.  :meth:`BoolAlgebra.cut`
gives back the regular cut, memoized per relation matrix, for reports,
name keys and tests against the cut calculus in :mod:`forcinglab.poset`.
Every operation works on the atom mask; the 2^|atoms| elements are listed
only for a caller that enumerates them (the law suite, name universes and
the element routes), and that listing is what the algebra cap bounds.

A complete homomorphism between such algebras is fixed by its atom images,
so the projection suites decide Theorem 2's homomorphism on the images of
the base's atoms (``forcinglab.projection.QuotientLevel``).
:func:`certify_complete_hom` is the element route behind that: it runs for
a map the atom images do not decide, a failing or a planted one, checks
zero, one and complement directly and every binary join and meet by
splitting each element once at its lowest atom and its lowest missing atom
(no cap of its own, work linear in |A|), and writes each failing split as
a binary witness.  :func:`check_complete_hom` folds all 2^|A| subfamilies
and is kept as the reference oracle for both.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .config import DEFAULT_CAPS, CapExceeded
from .poset import (Poset, _mask_bits, is_separative, regular_cuts,
                    separative_quotient)


class AlgebraError(ValueError):
    """A value that is not an element of the algebra."""


class BoolAlgebra:
    """All regular cuts of a separative base poset, stored as atom sets.

    ``zero`` is 0 and ``one`` is ``base.atom_mask``, and every atom set is
    an element (Jech, *Set Theory*, 2003, Ch. 14).  ``cut`` reads the memo
    ``base.cuts``.  ``elements`` ascend by their cuts; they are read on
    first use from :func:`forcinglab.poset.regular_cuts`, memoized on the
    base's relation rows, and that read raises :class:`CapExceeded` unless
    ``listable``: the base has at most ``max_base`` atoms.  If the input
    poset was not separative it is quotiented first:
    ``original``/``quotient_map`` report that, and the atoms are those of
    ``base`` (the quotient).  ``name_table`` and ``name_tag`` stay per
    algebra: the table interns the names built over this algebra (see
    :class:`forcinglab.names.Name`) for as long as it lives; those names
    hold ``name_tag``, not the algebra, so no reference cycle keeps them
    alive after it, and two algebras over one order never share a name.
    """

    __slots__ = ("base", "original", "quotient_map", "max_base", "listable",
                 "zero", "one", "name_table", "name_tag")

    def __init__(self, base: Poset, original: Poset | None = None,
                 quotient_map: tuple[int, ...] | None = None,
                 max_base: int | None = None):
        self.base = base
        self.original = original
        self.quotient_map = quotient_map
        self.max_base = DEFAULT_CAPS.algebra_max_base if max_base is None \
            else max_base
        self.listable = len(base.atoms) <= self.max_base
        self.zero = 0
        self.one = base.atom_mask
        self.name_table: dict[tuple, object] = {}
        self.name_tag = object()

    @property
    def elements(self) -> tuple[int, ...]:
        """The 2^k atom sets, ascending by cut; only ``listable`` lists."""
        if not self.listable:
            raise CapExceeded(f"poset has {len(self.base.atoms)} atoms, above "
                              f"the algebra enumeration bound {self.max_base}")
        return regular_cuts(self.base)

    nonzero = property(lambda self: self.elements[1:])

    def __len__(self) -> int:
        return 1 << len(self.base.atoms)

    def __contains__(self, x: int) -> bool:
        return isinstance(x, int) and not x & ~self.one

    def cut(self, x: int) -> int:
        """The regular cut of the base poset that x stands for."""
        if x & ~self.one:
            raise AlgebraError(f"{x:#x} is not an element of this algebra")
        return self.base.cuts[x]

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
    on the result.  Listing its 2^|atoms| elements refuses a base of more
    than ``max_base`` atoms (default ``Caps.algebra_max_base``); nothing
    else does.  Each call returns a new algebra with its own name table;
    its cuts, their listing and the separativity test are computed once per
    relation matrix (see :class:`BoolAlgebra`).
    """
    if is_separative(poset):
        return BoolAlgebra(poset, max_base=max_base)
    quot, mapping = separative_quotient(poset)
    return BoolAlgebra(quot, original=poset, quotient_map=mapping,
                       max_base=max_base)


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


class HomReport:
    """Outcome of a complete-homomorphism check, the certificate or the fold.

    ``counterexamples`` holds the first 32 entries of
    (kind, input family tuple, expected, got), each value an algebra
    element (an atom set); ``violation_count`` is the full count.  A
    preserves_* flag is True iff its kind has no violations.
    """

    def __init__(self, preserves_zero_one: bool = True,
                 preserves_complement: bool = True,
                 preserves_all_products: bool = True,
                 preserves_all_sums: bool = True,
                 counterexamples: list[tuple] | None = None,
                 violation_count: int = 0, families_checked: int = 0):
        self.preserves_zero_one = preserves_zero_one
        self.preserves_complement = preserves_complement
        self.preserves_all_products = preserves_all_products
        self.preserves_all_sums = preserves_all_sums
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.violation_count = violation_count
        self.families_checked = families_checked

    @property
    def ok(self) -> bool:
        return (self.preserves_zero_one and self.preserves_complement
                and self.preserves_all_products and self.preserves_all_sums)

    def _hit(self, kind: str, payload: tuple, expected: int, got: int):
        self.violation_count += 1
        if len(self.counterexamples) < _KEPT:
            self.counterexamples.append((kind, payload, expected, got))


def check_complete_hom(h: Mapping[int, int], A: BoolAlgebra, B: BoolAlgebra,
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
    hv = [h[x] for x in els]
    for v in hv:
        if v not in B:
            raise AlgebraError(f"{v:#x} is not an element of the target algebra")
    rep = HomReport()
    if h[A.zero] != B.zero:
        rep.preserves_zero_one = False
        rep._hit("zero", (A.zero,), B.zero, h[A.zero])
    if h[A.one] != B.one:
        rep.preserves_zero_one = False
        rep._hit("one", (A.one,), B.one, h[A.one])
    for x, v in zip(els, hv):
        got = h[A.complement(x)]
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
        got = h[a_prod[m]]
        if got != b_prod[m]:
            rep.preserves_all_products = False
            rep._hit("product", tuple(els[i] for i in _mask_bits(m)),
                     b_prod[m], got)
        got = h[a_sum[m]]
        if got != b_sum[m]:
            rep.preserves_all_sums = False
            rep._hit("sum", tuple(els[i] for i in _mask_bits(m)),
                     b_sum[m], got)
    rep.families_checked = n_fam
    return rep


def certify_complete_hom(h: Mapping[int, int], A: BoolAlgebra,
                         B: BoolAlgebra) -> HomReport:
    """Certify that h is a complete Boolean homomorphism, with no cap.

    Checks zero, one and complement directly, then splits each element
    once: h(b) = h(b - a) + h(a) for each nonzero b with lowest atom a, and
    h(b) = h(b + a) * h(one - a) for each b != one with lowest missing atom
    a.  By induction on the atoms inside (outside) b these hold everywhere
    iff h keeps every binary join (meet): the join splits make h(b) the
    join of h(zero) and its atoms' images, and the split at an atom puts
    h(zero) below that atom's image; dually for meets.  A map that keeps
    one, complement and binary meets is a Boolean homomorphism, complete
    since the algebra is finite, and every finite product (sum) is one
    (zero) or a chain of binary meets (joins), so each flag of the report
    equals that of :func:`check_complete_hom`.

    ``families_checked`` is 1 + |A|(|A|-1)/2: the empty family and every
    pair of distinct elements, the families the splits certify.  The zero,
    one and complement violations come first, then one per failing split,
    whose pair is a binary witness with h(b) the value got: (b + a,
    one - a) for a product, (b - a, a) for a sum.
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
    one = A.one
    for b in els:
        if b != one:
            a = (one ^ b) & -(one ^ b)
            want = h[b | a] & h[one ^ a]
            if h[b] != want:
                rep.preserves_all_products = False
                rep._hit("product", (b | a, one ^ a), want, h[b])
        if b:
            a = b & -b
            want = h[b ^ a] | h[a]
            if h[b] != want:
                rep.preserves_all_sums = False
                rep._hit("sum", (b ^ a, a), want, h[b])
    return rep
