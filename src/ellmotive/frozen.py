"""Immutable values: the one base class and the one refusal.

A value type subclasses `Frozen`.  Its instances refuse every attribute
write and delete with `FrozenError`; its `__init__` and its lazily filled
caches write through `_set` (`object.__setattr__`), past the refusal.

A subclass returns its constructor arguments from `_args`.  Equality (same
class, equal arguments), the hash of the arguments' tuple, copies and
pickles read them, so a copy rebuilds itself and recomputes every cache
(str hashes are per process).  The types built in bulk (points, point
expressions, cube coordinates, cycles) write out their own `__eq__` and
`__hash__`, and every class is written out by hand: importing the package
generates no code.
"""

from __future__ import annotations


class FrozenError(AttributeError):
    """An attribute of an immutable value was set or deleted."""


_set = object.__setattr__


class Frozen:
    """Base of the immutable value types."""

    __slots__ = ()

    def _args(self) -> tuple:
        return ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self) -> int:
        return hash(self._args())

    def __reduce__(self):
        return self.__class__, self._args()

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r} of {type(self).__name__}")
