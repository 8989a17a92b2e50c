"""Finite partial orders with a maximal element, and the cut calculus on them.

Conventions used throughout the library:

    - Elements of a poset are the dense integers 0..n-1; user-facing ids live
      in ``labels``.
    - Subsets of a poset (cuts, filters, dense sets) are int bitmasks over
      those indexes: bit p set means element p is in the subset.
    - ``below[p]`` is the lower cone of p (including p itself), ``above[p]``
      the upper cone, ``compat[p]`` the set of elements compatible with p
      (sharing a lower bound).  All three are precomputed on construction,
      once per distinct relation matrix (see :class:`Poset`).

A cut is a downward-closed bitmask.  A regular cut additionally satisfies
u == -(-u), where -u is the set of elements incompatible with everything in
u.  In a finite poset the regular cuts are exactly the sets
``{p : atoms(p) <= A}`` for a subset A of the atoms (minimal elements), which
is what makes exhaustive Boolean-algebra work feasible here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# the largest poset that canonical_key's permutation search takes
PERM_MAX = 9


class PosetError(ValueError):
    """Raised when the input relation is not a partial order with top."""


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable finite partial order with a maximal element.

    ``below`` must already be reflexive, transitive and antisymmetric; use
    :func:`validate_poset` to build one from raw pairs.  Two elements are
    compatible iff some atom lies below both (every element has an atom
    below it), so ``compat[p]`` is the OR of ``above[a]`` over the atoms a
    below p.  Everything that reads nothing but ``below`` (the validation,
    ``above``, the atoms, ``compat``, and on first use the canonical search,
    the separativity witness and the regular-cut table) is one
    :class:`_Order`, memoized on the rows: posets with one relation matrix
    share it, whatever their labels.  An invalid relation is never
    memoized, so it raises on every construction, and ``top`` is checked
    on every construction.  ``labels`` stay per object and may be a
    sequence, a callable returning one, or None for ``e0``, ``e1``, ...; a
    callable or None is turned into the tuple on first read, since most
    labels are only read when a failing check names elements.  Instances
    are safe to share between concurrent workers: what is filled in after
    construction depends only on the constructor's arguments.
    """

    __slots__ = (
        "n", "top", "_labels", "below", "above", "compat",
        "full_mask", "atom_mask", "_atoms", "_order",
    )

    def __init__(self, below: Sequence[int], top: int,
                 labels: Sequence[str] | None = None):
        order = _order_of(tuple(below))
        if order.below[top] != order.full_mask:
            raise PosetError(f"top {top} is not above every element")
        self._order = order
        self.n = len(order.below)
        self.top = top
        self.full_mask = order.full_mask
        self.below = order.below
        self.above = order.above
        self._atoms = order.atoms
        self.atom_mask = order.atom_mask
        self.compat = order.compat
        self._labels = labels if labels is None or callable(labels) else \
            self._checked_labels(labels)

    def __reduce__(self):
        # rebuilt through the memo, labels unread if they still are
        return Poset, (self.below, self.top, self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        """Element ids, by index."""
        labels = self._labels
        if not isinstance(labels, tuple):
            self._labels = labels = self._checked_labels(
                (f"e{p}" for p in range(self.n)) if labels is None else labels())
        return labels

    def _checked_labels(self, labels: Iterable[str]) -> tuple[str, ...]:
        labels = tuple(labels)
        if len(labels) != self.n:
            raise PosetError("label count does not match element count")
        return labels

    # -- basic queries -------------------------------------------------

    def leq(self, p: int, q: int) -> bool:
        return bool((self.below[q] >> p) & 1)

    def incompatible(self, p: int, q: int) -> bool:
        return not self.below[p] & self.below[q]

    @property
    def atoms(self) -> tuple[int, ...]:
        """Minimal elements."""
        return self._atoms

    def atoms_below(self, p: int) -> int:
        return self.below[p] & self.atom_mask

    def principal_cut(self, p: int) -> int:
        """U_p = the lower cone of p, always a regular cut when separative."""
        return self.below[p]

    def is_downward_closed(self, mask: int) -> bool:
        acc = 0
        for p in _mask_bits(mask):
            acc |= self.below[p]
        return acc == mask

    def __repr__(self) -> str:
        pairs = [f"{self.labels[p]}<{self.labels[q]}"
                 for p in range(self.n) for q in range(self.n)
                 if p != q and self.leq(p, q)]
        return f"Poset({self.n}; top={self.labels[self.top]}; {', '.join(pairs)})"

    # -- isomorphism machinery ----------------------------------------

    def canonical_key(self):
        """Isomorphism-invariant key: lexicographically least relation matrix.

        Brute force over permutations, pruned by local invariants; intended
        for desk-scale posets only (n <= PERM_MAX, checked on every call).
        The relabelings that reach the least matrix differ exactly by
        automorphisms, so the same search also fills :meth:`automorphisms`.
        The search reads nothing but the relation rows ``below``, so it is
        kept on the poset's memoized :class:`_Order` (McKay, "Practical
        graph isomorphism", 1981): posets with one order share one search,
        whatever their labels.
        """
        if self.n > PERM_MAX:
            raise CanonicalFormError(
                f"canonical form by permutation search capped at {PERM_MAX} elements")
        order = self._order
        if order.search is None:
            order.search = self._canonical_search()
        return order.search[0]

    def _canonical_search(self) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
        """The canonical key and the automorphisms, by one permutation search."""
        n = self.n
        inv = self._invariants()
        groups: dict[tuple, list[int]] = {}
        for p in range(n):
            groups.setdefault(inv[p], []).append(p)
        ordered_groups = [groups[k] for k in sorted(groups)]
        best = None
        winners: list[tuple[int, ...]] = []
        for perm in self._group_perms(ordered_groups):
            key = self._matrix_key(perm)
            if best is None or key < best:
                best, winners = key, [tuple(perm)]
            elif key == best:
                winners.append(tuple(perm))
        # w0^-1 . w for every winner w, with w0 the first winner
        w0_inv = [0] * n
        for p, s in enumerate(winners[0]):
            w0_inv[s] = p
        return (n, best), tuple(tuple(w0_inv[s] for s in w) for w in winners)

    def _invariants(self) -> list[tuple]:
        n = self.n
        base = [(bin(self.below[p]).count("1"),
                 bin(self.above[p]).count("1"),
                 bin(self.compat[p]).count("1")) for p in range(n)]
        # one refinement round: multiset of neighbour invariants
        ref = []
        for p in range(n):
            down = tuple(sorted(base[q] for q in _mask_bits(self.below[p])))
            up = tuple(sorted(base[q] for q in _mask_bits(self.above[p])))
            ref.append(base[p] + (down, up))
        return ref

    def _group_perms(self, groups: list[list[int]]) -> Iterator[list[int]]:
        """All permutations mapping each invariant group onto a block of slots."""
        slots = []
        start = 0
        for g in groups:
            slots.append(list(range(start, start + len(g))))
            start += len(g)
        perm = [0] * self.n
        def rec(i: int) -> Iterator[list[int]]:
            if i == len(groups):
                yield perm
                return
            for assignment in itertools.permutations(slots[i]):
                for p, s in zip(groups[i], assignment):
                    perm[p] = s
                yield from rec(i + 1)
        yield from rec(0)

    def _matrix_key(self, perm: Sequence[int]) -> bytes:
        n = self.n
        out = bytearray(n * n)
        for p in range(n):
            row = self.below[p]
            for q in _mask_bits(row):
                out[perm[q] * n + perm[p]] = 1
        return bytes(out)

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All order-preserving permutations of the elements, as found by
        :meth:`canonical_key`'s search and memoized with it.

        Capped like that search at PERM_MAX elements (CanonicalFormError
        beyond); every catalog poset is within the cap, since
        :func:`_posets_with_top` keys each one by its canonical form.
        """
        self.canonical_key()
        return self._order.search[1]


class CanonicalFormError(RuntimeError):
    pass


class _Order:
    """What a relation matrix alone determines, computed once per distinct
    ``below`` tuple: the validated rows on construction, and on first use
    the canonical search, the separativity witness and the regular-cut
    table.  Built only through :func:`_order_of`, which memoizes it."""

    __slots__ = ("below", "full_mask", "above", "atoms", "atom_mask",
                 "compat", "search", "separative", "cuts")

    def __init__(self, below: tuple[int, ...]):
        n = len(below)
        if n == 0:
            raise PosetError("poset needs at least one element")
        full = (1 << n) - 1
        for p in range(n):
            if not (below[p] >> p) & 1:
                raise PosetError(f"relation is not reflexive at {p}")
            if below[p] & ~full:
                raise PosetError(f"dangling element bits below {p}")
        above = [0] * n
        for p in range(n):
            for q in _mask_bits(below[p]):
                if q != p and (below[q] >> p) & 1:
                    raise PosetError(f"cycle detected between {p} and {q}")
                if below[q] & ~below[p]:
                    raise PosetError(f"relation is not transitive at {q} <= {p}")
                above[q] |= 1 << p
        self.below = below
        self.full_mask = full
        self.above = tuple(above)
        self.atoms = tuple(p for p in range(n) if below[p] == 1 << p)
        self.atom_mask = sum(1 << a for a in self.atoms)
        # p compatible q  iff  some atom lies below both
        compat = []
        for p in range(n):
            m = 0
            for a in _mask_bits(below[p] & self.atom_mask):
                m |= above[a]
            compat.append(m)
        self.compat = tuple(compat)
        # (canonical key, automorphisms) of the permutation search
        self.search = None
        # separativity witness, or () once a scan found none
        self.separative = None
        # (cut by atom set, atom sets ascending by cut, position) of regular_cuts
        self.cuts = None


# the one memo of order facts, by relation rows; oldest dropped first past
# the bound.  A poset keeps its _Order after it is dropped here.
_ORDERS_KEPT = 1024
_orders: dict[tuple[int, ...], _Order] = {}


def _order_of(below: tuple[int, ...]) -> _Order:
    """The memoized :class:`_Order` of these rows; validated on a miss,
    and an invalid relation raises without being memoized."""
    order = _orders.get(below)
    if order is None:
        order = _Order(below)
        if len(_orders) >= _ORDERS_KEPT:
            del _orders[next(iter(_orders))]
        _orders[below] = order
    return order


# -- construction -------------------------------------------------------


def validate_poset(elements: Iterable, leq_pairs: Iterable[tuple], top) -> Poset:
    """Build a poset from raw `x <= y` pairs.

    The relation is closed reflexively and transitively (so Hasse-diagram
    input is fine); a closure that fails antisymmetry, a non-maximal top or a
    pair mentioning an unknown element is an error.
    """
    labels = [str(e) for e in elements]
    if not labels:
        raise PosetError("poset needs at least one element")
    if len(set(labels)) != len(labels):
        raise PosetError("duplicate element ids")
    index = {lab: i for i, lab in enumerate(labels)}
    if str(top) not in index:
        raise PosetError(f"dangling element id {top!r} used as top")
    n = len(labels)
    below = [1 << p for p in range(n)]
    for x, y in leq_pairs:
        if str(x) not in index:
            raise PosetError(f"dangling element id {x!r}")
        if str(y) not in index:
            raise PosetError(f"dangling element id {y!r}")
        below[index[str(y)]] |= 1 << index[str(x)]
    # transitive closure over the mask representation
    changed = True
    while changed:
        changed = False
        for p in range(n):
            acc = below[p]
            for q in _mask_bits(below[p]):
                acc |= below[q]
            if acc != below[p]:
                below[p] = acc
                changed = True
    for p in range(n):
        for q in _mask_bits(below[p]):
            if q != p and (below[q] >> p) & 1:
                raise PosetError(
                    f"cycle detected: {labels[p]} and {labels[q]} are mutually below each other")
    t = index[str(top)]
    if below[t] != (1 << n) - 1:
        raise PosetError(f"top {top!r} is not above every element")
    return Poset(below, t, labels)


# -- separativity and quotients -----------------------------------------


def separativity_witness(poset: Poset) -> tuple[int, int] | None:
    """The first (p, q) with p not below q although every extension of p is
    compatible with q, or None when the poset is separative.

    Every extension of p is compatible with q iff every atom below p lies
    below q (each extension has an atom below it), so the q that p fails
    against are the AND of ``above[a]`` over the atoms a below p, less
    ``above[p]``; the lowest such q of the lowest such p is the first pair
    in (p, q) order.
    """
    order = poset._order
    if order.separative is None:
        order.separative = ()
        for p in range(poset.n):
            common = poset.full_mask
            for a in _mask_bits(poset.atoms_below(p)):
                common &= poset.above[a]
            bad = common & ~poset.above[p]
            if bad:
                order.separative = (p, (bad & -bad).bit_length() - 1)
                break
    return order.separative or None


def is_separative(poset: Poset) -> bool:
    """Whenever p is not below q, some extension of p is incompatible with q."""
    return separativity_witness(poset) is None


def separative_quotient(poset: Poset) -> tuple[Poset, tuple[int, ...]]:
    """Quotient by "compatible with the same elements", ordered by
    "every extension of x is compatible with y".

    Returns the quotient poset and the class map (element -> class index).
    The result is separative, the map is order-preserving and sends top to
    top.
    """
    classes: dict[int, int] = {}
    mapping = []
    members: list[list[int]] = []
    for p in range(poset.n):
        key = poset.compat[p]
        if key not in classes:
            classes[key] = len(classes)
            members.append([])
        mapping.append(classes[key])
        members[classes[key]].append(p)
    m = len(classes)
    reps = [mem[0] for mem in members]
    below = [0] * m
    for ci in range(m):
        for cj in range(m):
            # [x] <= [y]  iff  every extension of x is compatible with y
            if not poset.below[reps[ci]] & ~poset.compat[reps[cj]]:
                below[cj] |= 1 << ci
    labels = ["+".join(sorted(poset.labels[p] for p in mem)) for mem in members]
    quot = Poset(below, mapping[poset.top], labels)
    if not is_separative(quot):
        raise AssertionError("separative quotient failed to be separative")
    return quot, tuple(mapping)


# -- cut calculus --------------------------------------------------------


def is_dense_below(s: int, p: int, poset: Poset) -> bool:
    """True iff every q <= p has an extension inside s."""
    if not 0 <= p < poset.n:
        raise PosetError(f"element {p} not in poset")
    for q in _mask_bits(poset.below[p]):
        if not poset.below[q] & s:
            return False
    return True


def complement_cut(u: int, poset: Poset) -> int:
    """-u = elements incompatible with everything in u; always a regular cut."""
    out = 0
    for p in range(poset.n):
        if not poset.compat[p] & u:
            out |= 1 << p
    return out


def regularize(u: int, poset: Poset) -> int:
    """-(-u): the least regular cut containing u.  Idempotent."""
    return complement_cut(complement_cut(u, poset), poset)


def is_regular_cut(u: int, poset: Poset) -> bool:
    return poset.is_downward_closed(u) and regularize(u, poset) == u


def regular_cuts(poset: Poset) -> tuple[dict[int, int], tuple[int, ...],
                                         dict[int, int]]:
    """Every regular cut keyed by its atom set, the atom sets in ascending
    order of their cuts, and each atom set's position in that order.

    cut(x) = {p : atoms(p) <= x} is the AND, over the atoms a outside x, of
    the elements not above a, so the cuts are built alongside the subsets.
    The table reads nothing but the relation rows, so it is kept on the
    poset's memoized :class:`_Order`, shared by every poset with those rows.
    """
    order = poset._order
    if order.cuts is None:
        order.cuts = _cut_table(poset)
    return order.cuts


def _cut_table(poset: Poset) -> tuple[dict[int, int], tuple[int, ...],
                                      dict[int, int]]:
    subsets, cuts = [0], [poset.full_mask]
    for a in poset.atoms:
        off = poset.full_mask & ~poset.above[a]
        subsets += [x | 1 << a for x in subsets]
        cuts = [c & off for c in cuts] + cuts
    cut_of = dict(zip(subsets, cuts))
    ascending = tuple(sorted(subsets, key=cut_of.__getitem__))
    return cut_of, ascending, {x: i for i, x in enumerate(ascending)}


# -- small builders and isomorph-reduced generation ----------------------


def antichain_with_top(k: int) -> Poset:
    """k pairwise-incompatible atoms under a common top."""
    below = [1 << p for p in range(k)]
    below.append((1 << (k + 1)) - 1)
    labels = [chr(ord("a") + p) for p in range(k)] + ["1"]
    return Poset(below, k, labels)


def chain_poset(k: int) -> Poset:
    """A k-element chain, element 0 at the bottom."""
    below = [(1 << (p + 1)) - 1 for p in range(k)]
    return Poset(below, k - 1, [f"c{p}" for p in range(k)])


def diamond_poset() -> Poset:
    """Top over two elements over a single bottom."""
    return validate_poset(["1", "a", "b", "c"],
                          [("c", "a"), ("c", "b"), ("a", "1"), ("b", "1")], "1")


def point_poset() -> Poset:
    return Poset([1], 0, ["1"])


@lru_cache(maxsize=None)
def _posets_with_top(n: int) -> tuple[Poset, ...]:
    """All posets on n elements with a top, one per iso class, in a
    deterministic order.

    Every finite poset has a linear extension, so each iso class has a
    representative whose strict relation below the top sits in the upper
    triangle; we enumerate those, append the top and deduplicate by
    canonical form, keeping the first of each class.
    """
    k = n - 1
    labels = [f"e{p}" for p in range(k)] + ["1"]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    seen: dict = {}
    for bits in range(1 << len(pairs)):
        leq = [(labels[i], labels[j]) for idx, (i, j) in enumerate(pairs)
               if (bits >> idx) & 1]
        leq += [(lab, "1") for lab in labels[:k]]
        poset = validate_poset(labels, leq, "1")
        seen.setdefault(poset.canonical_key(), poset)
    return tuple(sorted(seen.values(), key=lambda p: p.below))


def all_posets_with_top(max_size: int) -> Iterator[Poset]:
    """All posets with a maximal element, sizes 1..max_size, one per iso
    class, in a deterministic order."""
    for n in range(1, max_size + 1):
        yield from _posets_with_top(n)


def all_separative_posets(max_size: int) -> Iterator[Poset]:
    for p in all_posets_with_top(max_size):
        if is_separative(p):
            yield p


def product_poset(components: Sequence[Poset]) -> tuple[Poset, tuple[tuple[int, ...], ...]]:
    """Componentwise-ordered product; returns the poset and the element tuples.

    A tuple's lower cone is the AND over k of the tuples whose k-th
    coordinate lies below its own; that row is the OR of the coordinate
    classes (tuples with k-th coordinate v) over v in the component's
    ``below``.
    """
    if not components:
        return point_poset(), ((),)
    tuples = list(itertools.product(*[range(c.n) for c in components]))
    classes = [[0] * c.n for c in components]
    for i, t in enumerate(tuples):
        for k, v in enumerate(t):
            classes[k][v] |= 1 << i
    rows = []
    for c, cls in zip(components, classes):
        row = []
        for e in range(c.n):
            m = 0
            for v in _mask_bits(c.below[e]):
                m |= cls[v]
            row.append(m)
        rows.append(row)
    below = []
    for t in tuples:
        m = -1
        for row, v in zip(rows, t):
            m &= row[v]
        below.append(m)
    top = tuples.index(tuple(c.top for c in components))
    labels = ["(" + ",".join(components[k].labels[t[k]]
                             for k in range(len(components))) + ")" for t in tuples]
    return Poset(below, top, labels), tuple(tuples)
