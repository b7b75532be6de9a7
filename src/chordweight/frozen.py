"""Immutable value objects compared and hashed by their fields.

A subclass lists its fields in ``_fields`` and sets them in ``__init__``
with ``_set``; afterwards every assignment raises ``AttributeError``.  Two
instances are equal when they have the same class and equal fields, and
the hash is the hash of the field tuple, with a mapping field hashed as
the frozenset of its items.
"""

from __future__ import annotations

from collections.abc import Mapping


class Frozen:
    """Base of the package's immutable records."""

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, *values) -> None:
        """Set the fields, in the order of ``_fields``."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(tuple(frozenset(v.items()) if isinstance(v, Mapping) else v
                          for v in self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
