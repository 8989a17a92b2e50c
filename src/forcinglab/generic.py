"""Dense sets, filters and generic filters on finite posets.

At desk scale the "ground model" sees every subset, so a generic filter is
one meeting every dense subset outright.  For a finite poset those are
exactly the upward closures of the minimal elements (atoms): every dense
subset contains every atom, and the atom set is itself dense (Jech, *Set
Theory*, 2003, Ch. 14).  :func:`enumerate_generics` therefore returns one
filter per atom; the brute-force filters-meeting-every-dense-set sweep is
kept in the test suite as its oracle.
"""

from __future__ import annotations

from typing import Iterator

from .config import Value
from .poset import Poset, PosetError, _mask_bits


class GenericSet(Value):
    """The generic filter above one atom: a filter meeting every dense subset.

    Every dense subset contains every atom (an atom's lower cone is the atom
    itself), so ``atom`` is the one witness that the filter meets each of
    them.
    """

    def __init__(self, poset: Poset, mask: int, atom: int):
        self.poset = poset
        self.mask = mask
        self.atom = atom

    def __contains__(self, p: int) -> bool:
        return bool((self.mask >> p) & 1)


def is_filter(mask: int, poset: Poset) -> bool:
    if not (mask >> poset.top) & 1:
        return False
    for p in _mask_bits(mask):
        if poset.above[p] & ~mask:
            return False
    for p in _mask_bits(mask):
        for q in _mask_bits(mask):
            if not any((mask >> r) & 1
                       for r in _mask_bits(poset.below[p] & poset.below[q])):
                return False
    return True


def dense_subsets(poset: Poset) -> Iterator[int]:
    """All dense subsets, streamed.

    A subset is dense iff it meets every lower cone; since atoms have
    singleton cones, the dense subsets are exactly the supersets of the atom
    set, and every superset of the atoms is dense.
    """
    rest = poset.full_mask & ~poset.atom_mask
    free = list(_mask_bits(rest))
    for bits in range(1 << len(free)):
        extra = 0
        for i, p in enumerate(free):
            if (bits >> i) & 1:
                extra |= 1 << p
        yield poset.atom_mask | extra


def enumerate_generics(poset: Poset) -> list[GenericSet]:
    """All generic filters: the upward closure of each atom, in atom order."""
    return [GenericSet(poset, poset.above[a], a) for a in poset.atoms]


def forces(p: int, formula, universe) -> bool:
    """p forces f  iff  the principal element of p lies below ||f||.

    ``universe`` is a :class:`forcinglab.names.NameUniverse`; for posets that
    were quotiented on algebra construction, p is a condition of the
    original poset and is mapped through the quotient first.  A p outside
    the poset raises :class:`PosetError`.
    """
    from .names import truth_value

    algebra = universe.algebra
    qmap = algebra.quotient_map or range(algebra.base.n)
    if not 0 <= p < len(qmap):
        raise PosetError(
            f"condition {p} is outside the poset of {len(qmap)} conditions")
    return algebra.leq(algebra.principal(qmap[p]), truth_value(formula, universe))
