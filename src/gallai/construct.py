"""Lower-bound witness constructions for even-wheel Gallai-Ramsey numbers.

The recursive scheme: start from a fixed 2-colored base with no
monochromatic target wheel, then alternate two Gallai-ness-preserving
steps.  Going from k-1 to an odd k joins two copies of the previous
witness with a fresh color.  Going from k-2 to an even k substitutes
five copies of the previous witness into a pentagon quotient colored
with two fresh colors.  Both steps are blow-ups whose quotient colors
are new to every block, and the trace records both as such: a join is
the blow-up of K2.  Neither step can create a rainbow triangle or a
new monochromatic wheel, so the base property propagates.

`f_value` gives the resulting vertex counts in closed form, and
the Gallai-Ramsey lower bound they certify is one more than that.
"""

from __future__ import annotations

import random
from importlib import resources

from .coloring import (
    EdgeColoring,
    canonical_digest,
    join,
    recolor,
    substitute,
)
from .detect import find_mono
from .errors import PreconditionError, exact_int
from .patterns import PatternSpec
from .trace import BaseTrace, BlowupTrace, ConstructionTrace

__all__ = [
    "f_value",
    "pentagon_coloring",
    "build_lower_bound_witness",
    "random_gallai",
    "BASE14_DIGEST",
    "load_base14",
]

# sha256 of the bundled 14-vertex base witness (data/base14.grc)
BASE14_DIGEST = "a80daa3d37265d9b9bc4ce3f812e723a15394fbb625d1b573052fa7ac966ab41"


def f_value(s: int, coeff: int = 14) -> int:
    """Vertex count of the level-s witness over a base of size coeff.

    Doubles at each odd level and picks up a factor 5 per even level:
    ``coeff * 5**((s-2)/2)`` for even s, twice that of level s-1 for
    odd s >= 3.  Level 1 is a special case that only exists for the
    default coefficient 14, where the value is 4.
    """
    if exact_int(s, "level") < 1:
        raise ValueError(f"level must be positive, got {s}")
    if exact_int(coeff, "coefficient") < 1:
        raise ValueError(f"coefficient must be positive, got {coeff}")
    if s == 1:
        if coeff != 14:
            raise ValueError("level 1 is defined only for coefficient 14")
        return 4
    if s % 2 == 0:
        return coeff * 5 ** ((s - 2) // 2)
    return 2 * coeff * 5 ** ((s - 3) // 2)


def pentagon_coloring() -> EdgeColoring:
    """K5 with color 1 on the cycle 0-1-2-3-4-0 and color 2 on the rest.

    Both color classes are 5-cycles, so neither contains a triangle,
    and no triangle can be rainbow in a 2-coloring.
    """
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    colors = [
        1 if (u, v) in cycle else 2 for u in range(5) for v in range(u + 1, 5)
    ]
    return EdgeColoring(5, 2, colors)


def _check_base(base: EdgeColoring, rim: int) -> None:
    if base.k != 2 or base.colors_used() != frozenset((1, 2)):
        raise ValueError("base must be a 2-coloring using exactly colors 1 and 2")
    wheel = PatternSpec.wheel(rim)
    for color in (1, 2):
        hit = find_mono(base, wheel, color)
        if hit is not None:
            raise PreconditionError(
                f"base contains a monochromatic {wheel.label} in color {color} "
                f"at vertices {hit.vertex_map}"
            )


def build_lower_bound_witness(
    k: int,
    base: EdgeColoring,
    rim: int = 4,
    base_label: str = "base",
) -> tuple[EdgeColoring, ConstructionTrace]:
    """Level-k witness coloring over ``base``, with its construction trace.

    ``base`` must be a 2-coloring on colors {1, 2} containing no
    monochromatic wheel with the given (even) rim length; violations
    raise :class:`PreconditionError` with the offending embedding.
    The result uses exactly colors 1..k on ``f_value(k, base.n)``
    vertices and inherits the base's two guarantees: no rainbow
    triangle and no monochromatic rim-wheel in any color.
    """
    if exact_int(k, "k") < 2:
        raise ValueError(f"witness levels start at 2, got {k}")
    if exact_int(rim, "rim length") < 4 or rim % 2 != 0:
        raise ValueError(f"rim length must be even and at least 4, got {rim}")
    _check_base(base, rim)
    # even levels blow up the level two below; an odd level only ever
    # joins the even level under it, so it is built once, at the end
    col = base
    tr: ConstructionTrace = BaseTrace(base_label, canonical_digest(base), base.n, (1, 2))
    for kk in range(4, k + 1, 2):
        quotient = recolor(pentagon_coloring(), {1: kk - 1, 2: kk}, k=kk)
        col = substitute(quotient, [col] * 5)
        tr = BlowupTrace(quotient, (tr,) * 5, col.n, tuple(range(1, kk + 1)))
    if k % 2:
        col = join(col, col, k)
        quotient = EdgeColoring(2, k, (k,))  # K2 in the fresh color, as join uses
        tr = BlowupTrace(quotient, (tr, tr), col.n, tuple(range(1, k + 1)))
    return col, tr


def random_gallai(n: int, k: int, seed: int) -> EdgeColoring:
    """Seeded random coloring of K_n with no rainbow triangle.

    Built by recursive substitution: split the vertices into 2..5
    near-equal blocks, color the quotient with at most two colors drawn
    from 1..k, and recurse into each block.  Any coloring assembled
    this way is rainbow-triangle-free, because a triangle either sits
    inside one block or meets at most the two quotient colors.
    Deterministic for a given (n, k, seed).
    """
    if exact_int(n, "n") < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if exact_int(k, "k") < 1:
        raise ValueError(f"palette must have at least one color, got k={k}")
    return _random_block(random.Random(seed), k, n)


def _random_block(rng: random.Random, k: int, size: int) -> EdgeColoring:
    # one block of random_gallai, its quotient drawn before its blocks.  A
    # module function, not a closure over rng: a recursive closure refers
    # to itself, and the cycle would keep rng until the cyclic collector ran
    if size == 1:
        return EdgeColoring(1, k, ())
    p = rng.randint(2, min(5, size))
    c1 = rng.randint(1, k)
    c2 = rng.randint(1, k)
    qcolors = [rng.choice((c1, c2)) for _ in range(p * (p - 1) // 2)]
    quotient = EdgeColoring(p, k, qcolors)
    small, extra = divmod(size, p)
    sizes = [small + 1] * extra + [small] * (p - extra)
    return substitute(quotient, [_random_block(rng, k, s) for s in sizes])


def load_base14() -> EdgeColoring:
    """The bundled 14-vertex base witness.

    A 2-coloring of K14 with no monochromatic 4-rim wheel, produced by
    the search engine (n=14, k=2, forbid wheel:4, colorSwap symmetry,
    seed 0) and pinned as package data.  Verified against
    ``BASE14_DIGEST`` on load.
    """
    from .formats import parse_text

    text = resources.files("gallai").joinpath("data/base14.grc").read_text("ascii")
    coloring = parse_text(text).coloring
    if canonical_digest(coloring) != BASE14_DIGEST:
        raise RuntimeError("bundled base witness does not match its pinned digest")
    return coloring
