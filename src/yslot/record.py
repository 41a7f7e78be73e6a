"""Records that are plain classes, since they hold a cache or a weak
reference, or change; value records are named tuples instead.

A record class lists its fields once, as the parameters of its
`__init__`, which stores each under its own name: `self.name = name`, or
`fix(self, locals())` in a frozen class.  It equals a record of its own
class whose fields are equal, shows them in its repr and is unhashable,
since its fields hold dicts or lists.  The class keyword `frozen=True`
rejects setting or deleting an attribute."""

from __future__ import annotations


def fix(record, values: dict) -> None:
    """Store a frozen record's fields from its `__init__`'s `locals()`.
    `object.__setattr__` passes the class's guard and, unlike an update
    of `__dict__`, keeps the instance's compact storage."""
    for name in record._fields:
        object.__setattr__(record, name, values[name])


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set "
                         f"or delete field {name!r}")


class Record:
    __hash__ = None

    def __init_subclass__(cls, frozen: bool = False):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"
