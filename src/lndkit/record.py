"""The shared base of lndkit's value types.

A record lists its fields, two or more, in `_fields`, in constructor
order, and writes its own `__init__`. It compares equal to a record of
the same class with equal fields (NotImplemented against any other
class) and shows as `Name(field=value, ...)`. A `Frozen` record also
hashes as the tuple of its fields and refuses assignment; its `__init__`
stores the fields straight into `self.__dict__`, where a
`cached_property` also keeps its value, unseen by ==, hash and repr.
Copy, deepcopy and pickle restore `__dict__` and need nothing here.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Field-wise == and repr; mutable and unhashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:
            # of two or more names, attrgetter returns the tuple of fields
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable, hashable record."""

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
