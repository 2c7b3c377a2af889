"""Exception types, and the immutable record base, shared across the package."""

from operator import attrgetter


class Record:
    """Base of the package's value types: immutable, compared by value.

    A subclass lists its fields in `_fields`, in constructor order, and its
    `__init__` stores them past `__setattr__`: into `self.__dict__`, or with
    `object.__setattr__` in a slotted record. Records are equal when their
    types and field values are, hash like the tuple of field values, print as
    `Name(field=value, ...)` and raise AttributeError on assignment or
    deletion. They pickle and copy by calling the constructor again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)  # a tuple of values only for two or more fields
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other is self:  # QuadElement arithmetic checks that its operands share params
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


class MetallicError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MetallicError):
    """Invalid user-supplied parameters (bad counts, indices, ranges)."""


class ParamsMismatch(ValidationError):
    """Two field elements built over different (p, q) were combined."""


class InvalidRemovalCount(ValidationError):
    """Removal counts exceed the available tiles or leave nothing behind."""


class PolicyIndexMismatch(ValidationError):
    """Explicit removal indices do not name the declared tile kinds."""


class EmptyFractal(ValidationError):
    """A removal pattern that leaves no surviving tile."""


class CapExceeded(MetallicError):
    """A materialization would exceed the enumeration cap."""
