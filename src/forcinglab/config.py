"""Default size caps for the exhaustive machinery, and the record helpers.

Everything in this library is enumerated in full, so every entry point that
could blow up combinatorially is guarded by one of these caps.  Suites may
override individual caps; a cap hit aborts the sub-instance, never the run.
Name universes, which only the test oracles build, take their default cap
from :data:`forcinglab.names.UNIVERSE_CAP`.

The library's record classes are plain classes: each stores every
``__init__`` argument as the attribute of the same name, and nothing else
is an argument.  :func:`fields` reads those names off ``__init__``, and
:func:`replace` copies a record through ``__init__``.  :class:`Value` gives
the records that are values (the caps, formula nodes, generic filters, name
universes and collapse specs) equality and hashing by their fields.
:class:`lazy` derives a record's state that is no field on first read.
"""

from __future__ import annotations

import functools


@functools.cache
def fields(cls: type) -> tuple[str, ...]:
    """The field names of a record class: its ``__init__`` parameters."""
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]


def replace(obj, /, **changes):
    """A new record like ``obj`` with ``changes``, built through
    ``__init__``, so state that ``__init__`` does not take (memos, :class:`lazy`
    attributes) starts fresh; a name that is no field raises TypeError."""
    kw = {name: getattr(obj, name) for name in fields(type(obj))}
    kw.update(changes)
    return type(obj)(**kw)


class lazy:
    """A method read as an attribute, computed on the first read and stored
    in the instance ``__dict__`` under its own name, which later reads find
    before this non-data descriptor; assigning the attribute plants a value.
    This is ``functools.cached_property`` as CPython 3.12 has it (gh-87634),
    without 3.11's lock, which every first read takes.  Two threads reading
    one attribute first may both compute it; the last write is kept."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Value:
    """A record that is a value: equal to a record of its class with equal
    fields, hashed by its fields, printed as ``Class(field=value, ...)``.
    Treat it as immutable, since its hash reads its fields."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in fields(type(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        items = (f"{name}={getattr(self, name)!r}" for name in fields(type(self)))
        return f"{type(self).__name__}({', '.join(items)})"


class CapExceeded(RuntimeError):
    """A configured enumeration cap would be exceeded."""


class Caps(Value):
    """One run's caps, part of the key of every cached projection context:
    ``max_stages`` bounds the iteration's stage count,
    ``max_stage_conditions`` the canonical conditions per stage poset,
    ``algebra_max_base`` the atoms of an algebra that lists its elements and
    ``hom_family_cap`` the subfamilies one completeness check enumerates.
    Caps are immutable, so the hash, read twice per ``make_context`` call,
    is computed once, here."""

    def __init__(self, max_stages: int = 4, max_stage_conditions: int = 64,
                 algebra_max_base: int = 12, hom_family_cap: int = 1 << 16):
        self.max_stages = max_stages
        self.max_stage_conditions = max_stage_conditions
        self.algebra_max_base = algebra_max_base
        self.hom_family_cap = hom_family_cap
        self._hash = hash(self._key())

    def __hash__(self):
        return self._hash

    def with_(self, **kw) -> "Caps":
        return replace(self, **kw)


DEFAULT_CAPS = Caps()
