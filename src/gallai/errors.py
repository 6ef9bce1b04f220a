"""Exception types, input checks and the immutable record base shared
across the package."""

from operator import attrgetter

__all__ = ["PreconditionError"]


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold.

    Raised instead of silently returning a wrong answer, e.g. when a
    partition is requested for a coloring that contains a rainbow
    triangle, or when a vertex pair is not monochromatically complete
    to the rest of the graph.
    """


def exact_int(value: object, name: str) -> int:
    """``value`` if it is an int proper (no bool, float or str), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class _Record:
    """Base of the package's immutable records.

    A subclass lists its fields in ``__slots__``; a record has two or
    more fields, its parent's first.  The constructor takes them in that
    order, by position or by name, each exactly once, and raises
    TypeError for a missing, extra or repeated field, as a generated
    ``__init__`` would; it stores each with ``object.__setattr__``.  Fields
    passed by position are stored as given, so the thousands of records
    the detectors and searches build that way need no binding by name.
    A subclass that only stores lists its fields' types, in order, as
    class annotations; its signature, to ``inspect.signature``, ``help()``
    and type checkers, is ``(*args, **kwargs)``.  One that checks its
    arguments defines its own ``__init__``, typed, and ends it with one
    ``super().__init__`` call.

    Two records are equal when they are of the same class and their
    fields are equal; a record hashes as the tuple of its fields, prints
    as ``Name(field=value, ...)`` and raises AttributeError on
    assignment or deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        inherited = getattr(cls, "__match_args__", ())
        cls.__match_args__ = inherited + cls.__dict__.get("__slots__", ())
        # the tuple of all fields, read in one call
        cls._values = attrgetter(*cls.__match_args__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        where = type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{where}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        rest = names[len(args) :]
        for name in rest:
            if name not in kwargs:
                missing = ", ".join(repr(name) for name in rest if name not in kwargs)
                raise TypeError(f"{where}() missing fields {missing}")
            object.__setattr__(self, name, kwargs[name])
        if len(kwargs) > len(rest):
            name = next(name for name in kwargs if name not in rest)
            problem = "multiple values for" if name in names else "an unexpected"
            raise TypeError(f"{where}() got {problem} field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._values(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks again; the
        # default would set each slot through __setattr__, which refuses
        return type(self), self._values(self)
