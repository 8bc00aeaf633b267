"""One base class for the library's immutable value types.

A subclass lists its fields in ``__slots__`` and sets them once, in a
validating constructor, with ``object.__setattr__``.  Its value semantics
come from :class:`Value` alone: two values are equal when they have the
same class and equal fields, a copy is the value itself, and a pickle
stores only the fields, so unpickling runs the constructor's checks again.
A slot whose name starts with ``_`` is a cache (``IntMatrix._det``), which
equality, hashing, pickling and the repr ignore.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable value compared, hashed, pickled and printed by its public slots."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # called as self._key(self); a single field is read bare, which
        # compares and hashes as well as a 1-tuple and is quicker to build
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), tuple([getattr(self, name) for name in self._fields]))

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"


__all__ = ["Value"]
