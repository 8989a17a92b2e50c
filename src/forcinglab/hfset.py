"""Hereditarily finite pure sets, hash-consed via the Ackermann coding.

code({}) = 0 and code(x) = sum of 2**code(y) over y in x, so extensionally
equal sets share one interned object and compare by a single int.
"""

from __future__ import annotations

import itertools
from typing import Iterable

_pool: dict[int, "HFSet"] = {}


class HFSet:
    __slots__ = ("code", "members", "rank")

    def __new__(cls, members: Iterable["HFSet"] = ()):
        ms = tuple(sorted(set(members), key=lambda m: m.code))
        code = 0
        for m in ms:
            code |= 1 << m.code
        cached = _pool.get(code)
        if cached is not None:
            return cached
        obj = object.__new__(cls)
        obj.code = code
        obj.members = ms
        obj.rank = 0 if not ms else 1 + max(m.rank for m in ms)
        _pool[code] = obj
        return obj

    def __contains__(self, other: "HFSet") -> bool:
        return bool((self.code >> other.code) & 1) if other.code < self.code.bit_length() else False

    def __len__(self) -> int:
        return len(self.members)

    def __hash__(self) -> int:
        return hash(self.code)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, HFSet) and self.code == other.code)

    def __repr__(self) -> str:
        if not self.members:
            return "{}"
        return "{" + ",".join(repr(m) for m in self.members) + "}"


EMPTY = HFSet()


def numeral(k: int) -> HFSet:
    """von Neumann numeral: k = {0, 1, ..., k-1}."""
    if k == 0:
        return EMPTY
    prev = numeral(k - 1)
    return HFSet(prev.members + (prev,))


def numeral_value(x: HFSet) -> int | None:
    """Inverse of :func:`numeral`, or None if x is not a numeral."""
    k = len(x.members)
    return k if x == numeral(k) else None


def chain(i: int) -> HFSet:
    """i-fold singleton over the empty set."""
    return EMPTY if i == 0 else HFSet((chain(i - 1),))


def element_code(e: int) -> HFSet:
    """Flat injective encoding of a small natural as a set of chains, one per
    set bit.  Unlike numerals this keeps Ackermann codes small (ids < 64)."""
    if e < 0 or e >= 64:
        raise ValueError(f"element id {e} out of encodable range")
    return HFSet(chain(i) for i in range(6) if (e >> i) & 1)


def kpair(a: HFSet, b: HFSet) -> HFSet:
    """Kuratowski ordered pair {{a},{a,b}}."""
    return HFSet((HFSet((a,)), HFSet((a, b))))


def kpair_value(x: HFSet) -> tuple[HFSet, HFSet] | None:
    """Decode a Kuratowski pair, or None."""
    ms = x.members
    if len(ms) == 1 and len(ms[0].members) == 1:
        a = ms[0].members[0]
        return a, a
    if len(ms) == 2:
        small, big = sorted(ms, key=lambda m: len(m.members))
        if len(small.members) == 1 and len(big.members) == 2:
            a = small.members[0]
            if a in big.members:
                b = big.members[0] if big.members[1] == a else big.members[1]
                return a, b
    return None


def encode_function(pairs: Iterable[tuple[HFSet, HFSet]]) -> HFSet:
    """An HF function as its set of Kuratowski pairs."""
    return HFSet(kpair(a, b) for a, b in pairs)


def rank_segment(r: int) -> tuple[HFSet, ...]:
    """V_r: every pure set of rank < r, in code order.  Grows as 2^2^...;
    keep r small."""
    if r <= 0:
        return ()
    out = [EMPTY]
    for _ in range(r - 1):
        nxt = set(out)
        for size in range(len(out) + 1):
            for combo in itertools.combinations(out, size):
                nxt.add(HFSet(combo))
        out = sorted(nxt, key=lambda m: m.code)
    return tuple(out)


def transitive_closure(xs: Iterable[HFSet]) -> tuple[HFSet, ...]:
    seen: set[HFSet] = set()
    stack = list(xs)
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(x.members)
    return tuple(sorted(seen, key=lambda m: m.code))
