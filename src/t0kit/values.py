"""The base of t0kit's immutable value classes.

A value class names its compared fields, in order, in `_fields`, lists
them (and any lazily filled slot) in `__slots__`, and writes its own
`__init__` through `object.__setattr__`.  Value gives it the rest, all
read from `_fields`: == holds only between two instances of one class
whose field tuples are equal, hash is the hash of that tuple, repr reads
`Class(field=value, ...)`, copying and pickling go through the
constructor, and assignment and deletion raise AttributeError.  A class
that compares often writes its own __eq__ and __hash__ over the same
tuple.  Nothing here generates code, so defining a class costs no more
than its body.
"""

from __future__ import annotations

from typing import Any


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return self.__class__, self._astuple()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
