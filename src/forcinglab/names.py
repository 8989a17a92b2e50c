"""Boolean-valued names over a regular-open algebra, and their semantics.

A name is a hereditarily finite set of (name, algebra element) pairs, where
an element is an atom set of the algebra's base poset (see
:mod:`forcinglab.boolalg`).  Canonical form: entries with element zero are
dropped and duplicate sub-names merge by joining their elements, neither of
which changes any truth value.  Truth values follow the atomic clauses

    ||x in y|| = Sum_{t in dom y} ||t = x|| * y(t)
    ||x = y||  = Prod_{t in dom x} (-x(t) + ||t in y||)
               * Prod_{t in dom y} (-y(t) + ||t in x||)

with connectives mapped to algebra operations and the existential quantifier
bounded over an explicitly supplied finite universe.  The recursion is
memoized on name pairs, mirroring the rank-pair induction that makes the
clauses well founded.

Names are hash-consed per algebra (Filliatre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): each :class:`BoolAlgebra` keeps an intern table for as
long as it lives, so building a name it already holds returns the existing
object, and each interned name carries a ``uid``, an integer unique in the
process and never reused.  The truth, evaluation and projection memos key on
``uid`` rather than on the nested ``key`` tuples.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .boolalg import AlgebraError, BoolAlgebra
from .config import CapExceeded, Value
from .formula import (And, Const, Equality, Exists, Formula,
                      FormulaError, Membership, Not, Or, Term,
                      eval_classical, free_variables)
from .hfset import HFSet

# the source of Name.uid
_uids = itertools.count()

# default bound on the names a universe materializes
UNIVERSE_CAP = 4096


class UniverseCapExceeded(CapExceeded):
    pass


class Name:
    """Canonical Boolean-valued name, interned in its algebra.

    ``key`` lists each entry as (sub-name key, its element's cut), read
    from the memo ``algebra.base.cuts``, so no element is listed.  The
    algebra's ``name_table`` maps each key to its one name, so within one
    algebra two names are the same object exactly when their keys are equal.
    ``tag`` is the algebra's ``name_tag``; a sub-name with another tag is
    rebuilt in this algebra, so duplicate sub-names merge by ``uid``.
    ``uid`` is unique in the process and never reused, so memos keyed on it
    stay sound after the name is gone.  Equality and hashing stay by
    ``key``, so names over two algebra objects of one poset compare equal.
    """

    __slots__ = ("entries", "key", "rank", "uid", "tag")

    def __new__(cls, entries: Iterable[tuple["Name", int]], algebra: BoolAlgebra):
        tag = algebra.name_tag
        merged: dict[int, tuple[Name, int]] = {}
        for sub, x in entries:
            if x == algebra.zero:
                continue
            if sub.tag is not tag:
                sub = cls(sub.entries, algebra)
            had = merged.get(sub.uid)
            merged[sub.uid] = (sub, x if had is None else had[1] | x)
        cuts = algebra.base.cuts
        es = tuple(sorted(merged.values(), key=lambda e: e[0].key))
        try:
            key = tuple((sub.key, cuts[x]) for sub, x in es)
        except KeyError as e:
            raise AlgebraError(f"{e.args[0]:#x} is not an element of this algebra")
        self = algebra.name_table.get(key)
        if self is None:
            self = object.__new__(cls)
            self.entries = es
            self.key = key
            self.rank = 0 if not es else 1 + max(sub.rank for sub, _ in es)
            self.uid = next(_uids)
            self.tag = tag
            algebra.name_table[key] = self
        return self

    def __init__(self, entries: Iterable[tuple["Name", int]], algebra: BoolAlgebra):
        """Nothing to do: ``__new__`` finds or builds the interned name.
        Kept in the class so constructions can be counted by wrapping it
        (``perfbench/tracer.py``)."""

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Name) and self.key == other.key

    def __repr__(self):
        if not self.entries:
            return "{}"
        return "{" + ", ".join(f"({sub!r},{x:#x})" for sub, x in self.entries) + "}"


def name_text(name: Name, algebra: BoolAlgebra) -> str:
    """The name with each entry's element written as its regular cut, the
    form report details use (``repr`` shows the stored atom sets)."""
    if not name.entries:
        return "{}"
    return "{" + ", ".join(f"({name_text(sub, algebra)},{algebra.cut(x):#x})"
                           for sub, x in name.entries) + "}"


def check_name(x: HFSet, algebra: BoolAlgebra,
               _memo: dict | None = None) -> Name:
    """The canonical ground name for x: entries {(y-check, one) : y in x}."""
    memo = _memo if _memo is not None else {}
    got = memo.get(x)
    if got is None:
        got = Name(((check_name(y, algebra, memo), algebra.one) for y in x.members),
                   algebra)
        memo[x] = got
    return got


def evaluate(name: Name, generic_mask: int, _memo: dict | None = None) -> HFSet:
    """i_G: a member enters the evaluation when its element meets the filter.

    For a generic filter (the upward closure of one atom) an atom set meets
    it exactly when its cut does.  A memo may be shared across calls, and
    across generics: it is keyed by (``name.uid``, generic_mask).
    """
    memo = _memo if _memo is not None else {}
    key = (name.uid, generic_mask)
    got = memo.get(key)
    if got is None:
        got = HFSet(evaluate(sub, generic_mask, memo)
                    for sub, x in name.entries if x & generic_mask)
        memo[key] = got
    return got


def mix_name(values: Sequence[tuple[int, Name]], algebra: BoolAlgebra) -> Name:
    """A name evaluating to values[i][1] under the generic of atom values[i][0].

    Classic mixing over the antichain of atoms: every entry of each branch
    name is restricted to that branch's principal element.
    """
    entries: list[tuple[Name, int]] = []
    for atom, branch in values:
        u = algebra.principal(atom)
        for sub, x in branch.entries:
            entries.append((sub, algebra.meet(u, x)))
    return Name(entries, algebra)


def pair_name(a: Name, b: Name, algebra: BoolAlgebra) -> Name:
    """Name of the Kuratowski pair of the denotations of a and b."""
    single = Name(((a, algebra.one),), algebra)
    double = Name(((a, algebra.one), (b, algebra.one)), algebra)
    return Name(((single, algebra.one), (double, algebra.one)), algebra)


class NameUniverse(Value):
    """All names of rank <= rank_bound over one algebra, canonically ordered."""

    def __init__(self, algebra: BoolAlgebra, rank_bound: int,
                 names: tuple[Name, ...], exhaustive: bool = True):
        self.algebra = algebra
        self.rank_bound = rank_bound
        self.names = names
        self.exhaustive = exhaustive

    def __len__(self):
        return len(self.names)

    def constant(self, k: int) -> Name:
        try:
            return self.names[k]
        except IndexError:
            raise FormulaError(f"constant ${k} outside the active universe")


def universe_size(algebra: BoolAlgebra, rank_bound: int, cap: int) -> int:
    """Size of the full rank-bounded universe, computed without listing a
    name or an element, or, where a lower rank's universe is above
    ``cap``, the size of the first such: each rank's universe outgrows the
    one below (an algebra has at least two elements), so the result is
    above the cap exactly when the full size is, and no tower of powers is
    computed past the cap."""
    count = 1
    options = len(algebra)
    for _ in range(rank_bound):
        if count > cap:
            break
        count = options ** count
    return count


def name_universe(algebra: BoolAlgebra, rank_bound: int,
                  cap: int | None = None) -> NameUniverse:
    """Materialize every canonical name of rank <= rank_bound.

    Sizes grow doubly exponentially; the configured cap aborts rather than
    thrash.
    """
    limit = UNIVERSE_CAP if cap is None else cap
    size = universe_size(algebra, rank_bound, limit)
    if size > limit:
        # the size is the full one exactly when the rank below fits
        raise UniverseCapExceeded(
            f"universe of rank {rank_bound} has {size} names, above the cap {limit}"
            if universe_size(algebra, rank_bound - 1, limit) <= limit else
            f"universe of rank {rank_bound} has more than {size} names, above "
            f"the cap {limit}")
    layer: list[Name] = [Name((), algebra)]
    for _ in range(rank_bound):
        # a canonical name of the next layer is a partial map layer -> nonzero,
        # and distinct maps give distinct names
        nxt: list[Name] = []
        els = algebra.elements
        for choice in itertools.product(range(len(els)), repeat=len(layer)):
            entries = [(sub, els[pick]) for sub, pick in zip(layer, choice)
                       if pick]
            nxt.append(Name(entries, algebra))
        layer = sorted(nxt, key=lambda n: n.key)
    return NameUniverse(algebra, rank_bound, tuple(layer))


def sampled_universe(algebra: BoolAlgebra, rank_bound: int,
                     cap: int | None = None) -> NameUniverse:
    """The full rank-bounded universe when it fits the cap, otherwise a
    deterministic structured sample flagged non-exhaustive.

    The sample takes the largest fully-materializable rank r < rank_bound,
    then extends it with every name of one or two entries over that layer,
    capped.
    """
    limit = UNIVERSE_CAP if cap is None else cap
    r = rank_bound
    while r > 0 and universe_size(algebra, r, limit) > limit:
        r -= 1
    base = name_universe(algebra, r, cap=limit)
    if r == rank_bound:
        return base
    names = {n.uid: n for n in base.names}
    nonzero = algebra.nonzero
    for count in (1, 2):
        for subs in itertools.combinations(base.names, count):
            for values in itertools.product(nonzero, repeat=count):
                if len(names) >= limit:
                    break
                nm = Name(tuple(zip(subs, values)), algebra)
                names[nm.uid] = nm
            if len(names) >= limit:
                break
        if len(names) >= limit:
            break
    ordered = tuple(sorted(names.values(), key=lambda n: (n.rank, n.key)))
    return NameUniverse(algebra, rank_bound, ordered, exhaustive=False)


# -- truth values ----------------------------------------------------------


class TruthSession:
    """Memoized truth-value computation over one algebra and universe.

    The atomic values are memoized on (x.uid, y.uid).  Sessions are
    independent unless made by :meth:`with_constants`; share nothing mutable
    between concurrent ones.
    """

    def __init__(self, universe: NameUniverse,
                 constants: Sequence[Name] | None = None):
        self.universe = universe
        self.algebra = universe.algebra
        self.constants = constants
        self._in: dict[tuple[int, int], int] = {}
        self._eq: dict[tuple[int, int], int] = {}

    def with_constants(self, constants: Sequence[Name]) -> "TruthSession":
        """A session over the same universe that reads ``$k`` from constants
        and shares this session's atomic memos, which no constant affects."""
        other = TruthSession(self.universe, constants)
        other._in, other._eq = self._in, self._eq
        return other

    def member_value(self, x: Name, y: Name) -> int:
        key = (x.uid, y.uid)
        got = self._in.get(key)
        if got is None:
            # the sum of (||t = x|| * y(t)) over the entries of y
            got = 0
            for t, v in y.entries:
                got |= self.equal_value(t, x) & v
            self._in[key] = got
        return got

    def equal_value(self, x: Name, y: Name) -> int:
        key = (x.uid, y.uid)
        got = self._eq.get(key)
        if got is None:
            # the product of (-v + ||t in other||) over the entries of both
            one = self.algebra.one
            got = one
            for t, v in x.entries:
                got &= (v ^ one) | self.member_value(t, y)
            for t, v in y.entries:
                got &= (v ^ one) | self.member_value(t, x)
            self._eq[key] = got
        return got

    def value(self, f: Formula, env: dict[str, Name] | None = None) -> int:
        env = env or {}
        A = self.algebra

        def term(t: Term) -> Name:
            if isinstance(t, Const):
                if self.constants is not None:
                    try:
                        return self.constants[t.index]
                    except IndexError:
                        raise FormulaError(f"constant ${t.index} outside the supplied tuple")
                return self.universe.constant(t.index)
            if t.name not in env:
                raise FormulaError(f"open formula: unbound variable {t.name!r}")
            return env[t.name]

        if isinstance(f, Membership):
            return self.member_value(term(f.left), term(f.right))
        if isinstance(f, Equality):
            return self.equal_value(term(f.left), term(f.right))
        if isinstance(f, Not):
            return A.complement(self.value(f.body, env))
        if isinstance(f, And):
            return A.meet(self.value(f.left, env), self.value(f.right, env))
        if isinstance(f, Or):
            return A.join(self.value(f.left, env), self.value(f.right, env))
        if isinstance(f, Exists):
            return A.sum(self.value(f.body, {**env, f.var: n})
                         for n in self.universe.names)
        raise TypeError(f"not a formula: {f!r}")


def truth_value(f: Formula, universe: NameUniverse) -> int:
    """||f|| as an algebra element; f must be closed over the universe."""
    free = free_variables(f)
    if free:
        raise FormulaError(f"open formula: unbound variables {sorted(free)}")
    return TruthSession(universe).value(f)


def holds_in_extension(f: Formula, universe: NameUniverse, generic_mask: int,
                       constants: Sequence[Name] | None = None) -> bool:
    """Two-valued truth of f over the evaluations of the universe under G."""
    memo: dict = {}
    pool = universe.names if constants is None else constants
    consts = [evaluate(n, generic_mask, memo) for n in pool]
    domain = sorted({evaluate(n, generic_mask, memo) for n in universe.names},
                    key=lambda h: h.code)
    return eval_classical(f, domain, consts)
