"""``Record``, the base of the package's immutable value classes.

A subclass names its fields, in positional order, as ``__slots__`` and sets
them in its own ``__init__`` through ``_setters``, next to its construction
check: the ``__set__`` of each field's slot descriptor, in slot order, which
``__init_subclass__`` keeps per class.  A setter writes its slot directly,
past ``Record.__setattr__``, without the name lookup of
``object.__setattr__(self, name, value)``.  The base gives every record
equality only with an instance of the same class, a hash of the field
tuple, the repr ``Name(field=value, ...)``, and ``AttributeError`` on
assignment or deletion.  No instance has a ``__dict__``.  ``replace``,
pickling and copying build a record through ``__init__`` again, so its
check runs again.

Plain classes keep ``import hilbprod`` from loading ``inspect``, ``ast`` and
``dis``: the standard library's class-generating module imports all three.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, TypeVar

R = TypeVar("R", bound="Record")


class Record:
    __slots__ = ()
    _astuple: Callable[[Any], tuple[Any, ...]]  # set per subclass
    _setters: tuple[Callable[[Any, Any], None], ...]  # set per subclass

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])
        get = attrgetter(*cls.__slots__)
        # the field tuple in one call; attrgetter of one name gives the bare value
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._astuple(self)

    def replace(self: R, **changes: Any) -> R:
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        fields = dict(zip(self.__slots__, self._astuple(self)))
        return type(self)(**{**fields, **changes})
