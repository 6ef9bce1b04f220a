"""Exception types and input checks shared across the package."""

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
