"""The base of the package's mutable and validating value types.

Value types come in two forms, both cheap to create when their module
is imported, which every fresh process does.  (A class decorator that
compiles ``__init__``/``__eq__``/``__repr__`` from generated source
costs about 1 ms per class there, and ``.pyc`` files do not cache it;
a 5-field NamedTuple costs about 0.2 ms, a ``__slots__`` class 0.02 ms.)

- a pure frozen record is a :class:`typing.NamedTuple`;
- a type that mutates, validates its fields, or gives a field a fresh
  container by default is a ``__slots__`` subclass of :class:`Record`
  whose explicit ``__init__`` sets every slot (and validates).

:class:`Record` gives the second form field-wise ``==``, the
``Name(a=1, b=2)`` repr, and the NamedTuple-style ``_fields`` and
``_replace``.  Records are unhashable unless declared ``frozen=True``,
which hashes the field values and makes assignment and deletion raise
:class:`FrozenRecordError`: a frozen record's ``__init__`` sets its
slots with ``object.__setattr__``, and it pickles (and copies) by
calling ``__init__`` again with the fields in slot order, so the
``__init__`` takes them positionally in that order.
"""

from __future__ import annotations

__all__ = ["FrozenRecordError", "Record"]


class FrozenRecordError(AttributeError):
    """A field of a ``frozen=True`` record was assigned or deleted."""


class Record:
    """``__slots__`` value type; ``_fields`` is the subclass's slots."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record type {cls.__qualname__} must declare __slots__")
        cls._fields = tuple(cls.__dict__["__slots__"])
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = cls.__delattr__ = Record._read_only
            cls.__reduce__ = Record._reduce

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None

    def _hash(self) -> int:
        return hash(self._astuple())

    def _read_only(self, name: str, *value) -> None:
        raise FrozenRecordError(
            f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}"
        )

    def _reduce(self):
        return type(self), self._astuple()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({inner})"

    def _replace(self, **changes):
        """A new record with ``changes`` applied, built (and validated)
        by ``__init__`` like the original."""
        values = {name: getattr(self, name) for name in self._fields}
        unknown = set(changes) - set(values)
        if unknown:
            raise TypeError(
                f"{type(self).__qualname__} has no field(s) {sorted(unknown)}"
            )
        values.update(changes)
        return type(self)(**values)
