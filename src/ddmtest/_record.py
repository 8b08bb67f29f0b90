"""The base of the package's records: plain classes that list their fields
in ``__slots__`` and write their own ``__init__``.

``Record`` gives the ``repr``, ``==`` and pickling a dataclass would, over
the fields in ``__slots__`` order; defining ``__eq__`` leaves a record
unhashable, as a mutable dataclass is. ``FrozenRecord`` adds a hash over
the fields and refuses assignment and deletion, as a frozen dataclass
does, so its ``__init__`` sets the fields with ``object.__setattr__``.
Neither imports
``dataclasses``, whose class building ``exec``-compiles each generated
method and would weigh on every start of the command line.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
