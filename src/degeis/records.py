"""Immutable record classes on ``__slots__``.

A record lists its fields in ``__slots__`` and sets each once in
``__init__``: through ``_fill``, or, on a hot path, through the slot
descriptors that ``setters`` returns, as ``forms.AffineForm`` does.  Its
other methods are written out here, so that defining a record compiles
nothing at import:

* ``==`` compares the fields named in ``_compared`` (all of ``__slots__``
  unless the class names fewer) with an instance of the same class only;
* ``hash`` is the hash of the tuple of those fields;
* the repr is ``Name(field=value, ...)`` over the compared fields;
* setting or deleting an attribute raises ``AttributeError``;
* an ``OrderedRecord`` orders as the tuple of its compared fields.

Equality, hash and order read one key per class: an ``operator.attrgetter``
over the compared fields, built once when the class is defined, so a
comparison gathers its fields in C.  A class built thousands of times per
command writes out only its ``__init__``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import total_ordering
from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]        # the class's __slots__, which a subclass inherits
    _compared: tuple[str, ...]
    _get: Callable[[Record], tuple]     # the compared fields of a record, as a tuple

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):
            cls._fields = cls.__slots__
            if "_compared" not in cls.__dict__:
                cls._compared = cls.__slots__
            get = attrgetter(*cls._compared)
            # attrgetter of one name returns the bare value; the key is still a 1-tuple
            cls._get = get if len(cls._compared) > 1 else staticmethod(lambda r: (get(r),))

    def _fill(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other: object):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        """Copy and pickle by the constructor, whose arguments are the fields in order."""
        return self.__class__, tuple([getattr(self, name) for name in self._fields])


@total_ordering
class OrderedRecord(Record):
    __slots__ = ()

    def __lt__(self, other: object):
        if other.__class__ is self.__class__:
            return self._get(self) < self._get(other)
        return NotImplemented


def setters(cls: type) -> tuple[Callable[[object, object], None], ...]:
    """The ``__set__`` of each of cls's slots, in ``__slots__`` order, for a hot ``__init__``."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)
