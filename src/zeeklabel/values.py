"""Plain value classes, with ``==``, ``hash`` and ``repr`` written out by hand: unlike generated methods, they
cost a command's start-up no ``inspect`` import and no ``exec``.
"""


class Value:
    """Equal to an instance of its own class whose ``_fields`` are equal; mutable, so unhashable.

    ``_fields`` are the names of the class's ``__init__`` parameters, unless the class names them itself.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        init = vars(cls).get("__init__")
        if init and "_fields" not in vars(cls):
            cls._fields = init.__code__.co_varnames[1 : init.__code__.co_argcount]

    def _set(self, **fields: object) -> None:
        """For ``__init__``: stores each field as ``self.name = value`` does, among the instance's inline values;
        a dict of its own, as ``vars(self).update`` makes, would double a small instance's size."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class Frozen(Value):
    """A :class:`Value` that refuses assignment, and hashes."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
