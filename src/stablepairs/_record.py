"""Value records: equality, hash and repr over a tuple of named fields.

A record class names its compared fields in ``_fields`` and sets them in its
own ``__init__``; any other attribute (a cache) takes no part in equality or
repr.  Equality holds between records of the same class only.  A Record is
mutable and unhashable; a FrozenRecord hashes its fields and refuses
assignment and deletion, so its ``__init__`` fills the instance ``__dict__``
and its caches are set through ``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:  # FrozenRecord names none
            # the tuple of the field values; the value itself for one field
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
