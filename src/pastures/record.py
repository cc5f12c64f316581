"""Frozen value records, built without generated code.

A :class:`Record` subclass names its fields in ``_fields`` and behaves as a
frozen dataclass: construction by position or keyword (a class attribute
named like a field is its default), equality only with instances of the same
class, ``hash`` of the tuple of field values, the repr ``Name(field=value,
...)``, and :class:`FrozenError` on assignment.  Hot classes declare
``__slots__`` and write their constructor, equality and hash by hand.
"""


# Writes a field of a frozen instance, bypassing its ``__setattr__``.
set_field = object.__setattr__


class InternalError(Exception):
    """A check of the library's own invariants failed: a bug, not an answer
    about the input.  Each such exception also keeps its built-in base."""


class FrozenError(InternalError, AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Record:
    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        missing = [n for n in names
                   if n not in values and not hasattr(type(self), n)]
        if (len(args) > len(names) or missing
                or not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        self.__dict__.update(values)

    def _values(self):
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")
