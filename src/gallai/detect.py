"""Detectors: rainbow triangles and monochromatic patterns.

Everything here runs on the per-color adjacency rows kept by
:class:`EdgeColoring`, with small-integer set algebra instead of
explicit subset enumeration.  Scan orders are fixed and documented, so
each detector is deterministic: same input, same certificate.

The mask kernels live in :mod:`gallai.kernels`: `gallai_split` and
`rainbow_free` (Gallai splits over a worklist), which `_gallai_proof`
runs once per coloring for `find_rainbow_triangle` and
`find_gallai_partition` to show that there is no rainbow triangle, and
`rainbow_within` to name the least one when there is; `first_copy`,
which picks the full scan for a pattern's kind there, so `find_mono`
never looks at the kind; `path3_within` behind `has_mono_p3_in_color`
and `wheel_from_mono_pair`; and `mono_between` for
`mono_complete_between`.

Detectors return :class:`Embedding` certificates (or ``None``), never
bare booleans, so callers can re-validate any reported hit.
"""

from __future__ import annotations

from typing import Optional

from .coloring import EdgeColoring, _mask_of, _proved
from .errors import PreconditionError, exact_int
from .kernels import (
    color_classes,
    first_copy,
    gallai_split,
    mono_between,
    path3_within,
    rainbow_free,
    rainbow_within,
)
from .patterns import Embedding, PatternSpec

__all__ = [
    "find_rainbow_triangle",
    "find_mono",
    "has_mono_p3_in_color",
    "mono_complete_between",
    "wheel_from_mono_pair",
]

_TRIANGLE = PatternSpec.clique(3)
_WHEEL4 = PatternSpec.wheel(4)


def find_rainbow_triangle(c: EdgeColoring) -> Optional[Embedding]:
    """First triangle whose three edges carry three distinct colors.

    Returns None for Gallai colorings, which `_gallai_proof` proves by
    Gallai splits alone, once per coloring: a later call, or
    `find_gallai_partition` on the same coloring, reads the kept verdict.
    Otherwise the full `rainbow_within` scan over ordered triples
    u < v < w ascending names the lexicographically least rainbow
    triangle.
    """
    if _proved(c, _gallai_proof)[1]:
        return None
    return Embedding(_TRIANGLE, None, rainbow_within(c, c.vertex_mask))


def _gallai_proof(c: EdgeColoring) -> tuple[Optional[tuple[int, ...]], bool]:
    # (the top Gallai split of all of c, None with at most two colors or
    # when no color pair splits; True iff c has no rainbow triangle), which
    # `_proved` keeps on c.  The one place either kernel runs on a coloring
    classes = color_classes(c)
    if len(classes) <= 2:
        return None, True
    split = gallai_split(classes, c.vertex_mask)
    if split is None:
        return None, False
    return tuple(split), rainbow_free(classes, split)


def find_mono(
    c: EdgeColoring, pattern: PatternSpec, color: Optional[int] = None
) -> Optional[Embedding]:
    """First monochromatic copy of ``pattern``, or None.

    With ``color`` given, only that color class is searched; otherwise
    used colors are tried in ascending order and the first color with a
    hit wins.  Within one color `first_copy` runs the scan of the
    pattern's kind, whose order is fixed (hubs ascending for wheels,
    centers ascending for paths, and so on), so results are reproducible.
    """
    if color is not None and exact_int(color, "color") < 1:
        raise ValueError(f"colors are positive, got {color}")
    colors = [color] if color is not None else sorted(c.colors_used())
    for i in colors:
        if i in c.colors_used():
            vm = first_copy(pattern, c.rows(i), c.vertex_mask)
            if vm is not None:
                return Embedding(pattern, i, vm)
    return None


def has_mono_p3_in_color(c: EdgeColoring, color: int) -> bool:
    """True iff some vertex has two neighbors in the given color: the
    same answer as ``find_mono(c, PatternSpec.path3(), color) is not None``."""
    if exact_int(color, "color") < 1:
        raise ValueError(f"colors are positive, got {color}")
    return path3_within(c.rows(color), c.vertex_mask) is not None


def mono_complete_between(c: EdgeColoring, side_a, side_b) -> Optional[int]:
    """The single color joining all of A to all of B, or None.

    A and B must be disjoint nonempty vertex sets.  Returns the shared
    color when every A-B edge agrees, else None.
    """
    ma = _mask_of(c, side_a, "A")
    mb = _mask_of(c, side_b, "B")
    if ma & mb:
        raise ValueError("A and B overlap")
    return mono_between(c, ma, mb)


def wheel_from_mono_pair(
    c: EdgeColoring, x: int, y: int, color: int
) -> Optional[Embedding]:
    """Wheel built from a pair joined to everything else in one color.

    Precondition (else :class:`PreconditionError`): with A = V minus
    {x, y}, both x and y are joined to all of A in ``color``.  Then any
    path v1-v2-v3 of that color inside A closes a wheel: rim v1, x, v3,
    y and hub v2.  Returns the wheel for the first such path (triples
    scanned ascending), or None when A spans no such path.
    """
    x, y = exact_int(x, "x"), exact_int(y, "y")
    if x == y or not (0 <= x < c.n and 0 <= y < c.n):
        raise ValueError(f"need two distinct vertices, got {x} and {y}")
    if exact_int(color, "color") < 1:
        raise ValueError(f"colors are positive, got {color}")
    rest = c.vertex_mask & ~(1 << x) & ~(1 << y)
    adj = c.rows(color)
    for z in (x, y):
        if adj[z] & rest != rest:
            raise PreconditionError(
                f"vertex {z} is not joined to the rest in color {color}"
            )
    path = path3_within(adj, rest)
    if path is None:
        return None
    v1, v2, v3 = path
    return Embedding(_WHEEL4, color, (v1, x, v3, y, v2))
