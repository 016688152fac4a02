"""Immutable value records: the behaviour every record type shares.

A record class lists its fields in ``__slots__`` and stores each one from its
own ``__init__`` with ``set_field``, after checking it.  The methods are
written out once here, not generated per class at import time: generating
them (and loading the code generator) costs more start-up time than a short
CLI call spends computing.
"""

from __future__ import annotations

import math
from numbers import Real
from operator import attrgetter
from typing import Any, TypeVar

_R = TypeVar("_R", bound="Record")

#: Stores a field on a record under construction (``Record.__setattr__`` refuses).
set_field = object.__setattr__


def check_real(value: object, what: str) -> float:
    """Return ``value`` as a float if it is a real number; ``bool`` and ``str`` are not.

    Strings become numbers only in the documents layer.  An ``int`` too large
    for a float becomes an infinity, which the caller's range check names.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class Record:
    """Base of the immutable records.

    Records are equal when they are of the same class and their fields are
    equal, and hash alike then.  ``repr`` reads ``Name(field=value, ...)`` in
    field order.  Assigning or deleting a field raises ``AttributeError``;
    ``replace`` returns a changed copy built through the class's
    ``__init__``, so every check runs again.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        # Pickle and copy rebuild through __init__: slot state cannot be set.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def replace(self: _R, **changes: Any) -> _R:
        """Return a copy with ``changes`` applied; an unknown field is a TypeError."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return type(self)(**values)
