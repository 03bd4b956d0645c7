"""The bases of the package's value types.

Value types come in two forms, both cheap to create when their module
is imported, which every fresh process does:

- a pure frozen record is a :class:`TupleRecord`: a tuple subclass
  with ``__slots__ = ()`` whose ``__new__`` is written in source and
  names the fields, e.g. ``def __new__(cls, node, edge=None): return
  tuple_new(cls, (node, edge))``;
- a type that mutates, validates its fields, or gives a field a fresh
  container by default is a ``__slots__`` subclass of :class:`Record`
  whose explicit ``__init__`` sets every slot (and validates).

Creating a six-field :class:`TupleRecord` class costs about 0.015 ms
and a ``__slots__`` :class:`Record` class 0.008 ms.  The class
generators they replace pay on every import, and ``.pyc`` files cache
neither: ``typing.NamedTuple`` compiles each annotation string and
``collections.namedtuple`` runs ``eval`` on a generated ``__new__``
(0.24 ms per six-field class together), and a class decorator that
compiles ``__init__``/``__eq__``/``__repr__`` from generated source
costs about 1 ms per class.  Instances cost the same as a
NamedTuple's to build, read, hash and compare.

:class:`TupleRecord` reads ``_fields`` from the ``__new__`` signature
and installs one read-only accessor per field, as
:func:`collections.namedtuple` does; it adds the ``Name(a=1, b=2)``
repr and ``_replace``, and pickles by calling ``__new__`` again with
the fields.  Its instances are real tuples: they unpack, index, order,
compare and hash as tuples, so records of two types with equal values
are equal.

:class:`Record` gives the second form field-wise ``==``, the same
repr, and the same ``_fields`` and ``_replace``.  Records are
unhashable unless declared ``frozen=True``, which hashes the field
values and makes assignment and deletion raise
:class:`FrozenRecordError`: a frozen record's ``__init__`` sets its
slots with ``object.__setattr__``, and it pickles (and copies) by
calling ``__init__`` again with the fields in slot order, so the
``__init__`` takes them positionally in that order.
"""

from __future__ import annotations

from operator import itemgetter

try:
    from _collections import _tuplegetter
except ImportError:  # another interpreter: a plain property instead
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

__all__ = ["FrozenRecordError", "Record", "TupleRecord", "tuple_new"]

#: ``tuple.__new__``, which a :class:`TupleRecord`'s ``__new__`` calls.
tuple_new = tuple.__new__

_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08


class TupleRecord(tuple):
    """Frozen tuple record; ``_fields`` is the subclass's ``__new__``
    parameters after ``cls``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        name = cls.__qualname__
        namespace = cls.__dict__
        if namespace.get("__slots__") != ():
            raise TypeError(f"record type {name} must declare __slots__ = ()")
        new = namespace.get("__new__")
        if new is None:
            raise TypeError(f"record type {name} must define __new__")
        code = new.__func__.__code__
        if code.co_kwonlyargcount or code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS):
            raise TypeError(
                f"record type {name}: __new__ takes its fields positionally"
            )
        cls._fields = code.co_varnames[1:code.co_argcount]
        for index, field in enumerate(cls._fields):
            setattr(cls, field, _tuplegetter(index, None))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)
        )
        return f"{type(self).__name__}({inner})"

    def _replace(self, **changes):
        """A new record with ``changes`` applied, built by ``__new__``."""
        values = [
            changes.pop(name, value) for name, value in zip(self._fields, self)
        ]
        if changes:
            raise TypeError(
                f"{type(self).__qualname__} has no field(s) {sorted(changes)}"
            )
        return type(self)(*values)

    def __getnewargs__(self) -> tuple:
        return tuple(self)


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
