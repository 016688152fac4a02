"""Immutable value records: the behaviour every record type shares, and the field rules.

A record class lists its fields in ``__slots__`` and stores each one from its
own ``__init__`` with ``set_field``, after checking it.  The methods are
written out once here, not generated per class at import time: generating
them (and loading the code generator) costs more start-up time than a short
CLI call spends computing.

Each field rule (real, fraction, mass, money, year, bool, one-of, name) is
stated once, as a ``check_*`` function here.  Records, the document parsers
and the CLI all call these, so one rule gives one message wherever a value
enters.  The numeric checkers take a ``float`` as it is and hand anything
else to ``check_real``, so a float field costs one call: scenario steps
rebuild an account, and run every mass check again, on each step.

The float-dust rule is stated here too.  Identities that hold exactly in
real arithmetic (energetic + structural = total, the categories summing to
GDP, mass conserved by a scenario step, a rate of at most 1) are judged with
``float_dust(scale)`` of slack, so that adding rounded floats cannot fail them.
"""

from __future__ import annotations

import math
from numbers import Real
from operator import attrgetter
from typing import Any, TypeVar

_R = TypeVar("_R", bound="Record")

#: Stores a field on a record under construction (``Record.__setattr__`` refuses).
set_field = object.__setattr__


def float_dust(scale: float) -> float:
    """The gap forgiven in an exact identity over quantities of size ``scale``."""
    return 1e-9 * max(scale, 1.0)


def check_real(value: object, what: str) -> float:
    """Return ``value`` as a float if it is a real number; ``bool`` and ``str`` are not.

    Strings become numbers only in the documents layer.  An ``int`` too large
    for a float becomes an infinity, which the caller's range check names.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_fraction(value: object, what: str) -> float:
    """Return ``value`` as a float in [0, 1]; the range check also rejects NaN and ±inf."""
    fraction = value if type(value) is float else check_real(value, what)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"{what} must be a fraction in [0, 1], got {fraction!r}")
    return fraction


def check_mass(value: object) -> float:
    """Return ``value`` as a float mass in Gt/yr, rejecting non-finite or negative values."""
    mass = value if type(value) is float else check_real(value, "mass")
    if not math.isfinite(mass):
        raise ValueError(f"mass must be finite, got {value!r}")
    if mass < 0:
        raise ValueError(f"mass must be non-negative, got {value!r}")
    return mass


def check_money(value: object, what: str, *, signed: bool = False) -> float:
    """Return ``value`` as a float in trillions/yr: finite, and non-negative unless ``signed``.

    Net capital formation is the signed case: it is negative in a year of
    stock depletion.
    """
    money = value if type(value) is float else check_real(value, "monetary value")
    if not math.isfinite(money):
        raise ValueError(f"monetary value must be finite, got {value!r}")
    if money < 0 and not signed:
        raise ValueError(f"{what} must be non-negative, got {money!r}")
    return money


def check_year(value: object) -> int:
    """Return ``value`` if it is an ``int`` (a ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"year must be an integer, got {value!r}")
    return value


def check_bool(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a bool, got {value!r}")
    return value


def check_choice(value: object, choices: tuple, what: str) -> Any:
    if value not in choices:
        raise ValueError(f"{what} must be one of {choices}, got {value!r}")
    return value


def check_name(name: object, what: str, forbidden: str = "#") -> str:
    """Return a name that a document would read back unchanged.

    Documents strip whitespace around values, start a comment at ``#`` and
    end an entry at any line break that ``str.splitlines`` recognises.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"{what} name must be a non-empty string, got {name!r}")
    if name != name.strip() or name.splitlines() != [name] or any(c in name for c in forbidden):
        raise ValueError(
            f"{what} name {name!r} must not start or end with whitespace, "
            f"nor contain a line break or any of {forbidden!r}"
        )
    return name


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
