"""The shared base of lndkit's value types.

A record lists its fields in `_fields`, in constructor order, and writes
its own `__init__`, which stores them (or what a field `property` reads)
in `self.__dict__`, where a `cached_property` also keeps its value, unseen
by ==, hash and repr. A record's key is the tuple of its fields, or its
one field's value if it has one. A record refuses assignment, compares
equal to a record of the same class with an equal key (NotImplemented
against any other class), hashes as its key (so one holding a dict is
unhashable) and shows as `Name(field=value, ...)`. Copy, deepcopy and
pickle restore `__dict__` and need nothing here.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """An immutable record."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # of two or more names attrgetter returns the tuple of fields, of
        # one name that field's value
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
