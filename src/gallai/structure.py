"""Structure of rainbow-triangle-free colorings.

A Gallai partition splits the vertices into at least two parts so that
any two parts are joined monochromatically and at most two colors
appear between parts in total.  Every rainbow-triangle-free coloring
of a complete graph on two or more vertices has one; `find_gallai_partition`
constructs it, `verify_gallai_partition` checks a claimed one, and
`reduced_graph` contracts parts to single vertices.

`peel_apex_sequence` and friends analyze apex vertices: vertices
joined to everything below them in a single color.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .coloring import EdgeColoring, _mask_of, _proved
from .detect import _gallai_proof, find_mono, find_rainbow_triangle
from .errors import PreconditionError, _Record, exact_int
from .formats import _write_payload
from .kernels import bits, joined_to_all, mono_between, path3_within
from .patterns import PatternSpec

__all__ = [
    "GallaiPartition",
    "PartitionCheck",
    "ApexSequence",
    "verify_gallai_partition",
    "find_gallai_partition",
    "reduced_graph",
    "peel_apex_sequence",
    "check_apex_color_distinctness",
    "cross_color_profile",
]

_WHEEL4 = PatternSpec.wheel(4)


class GallaiPartition(_Record):
    """Parts (largest first, ties by least vertex), their cross colors,
    and the reduced coloring with one vertex per part."""

    __slots__ = ("parts", "cross_colors", "reduced")
    parts: tuple[tuple[int, ...], ...]
    cross_colors: frozenset[int]
    reduced: EdgeColoring

    @property
    def p(self) -> int:
        return len(self.parts)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "parts": [list(part) for part in self.parts],
            "cross_colors": sorted(self.cross_colors),
            "reduced": _write_payload(self.reduced),
        }


class PartitionCheck(_Record):
    """Outcome of verifying a claimed partition."""

    __slots__ = ("ok", "violations")
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


class ApexSequence(_Record):
    """Vertices peeled one at a time, each monochromatically complete
    to everything not yet peeled; ``remainder`` is what is left."""

    __slots__ = ("entries", "remainder")
    entries: tuple[tuple[int, int], ...]
    remainder: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "entries": [[v, c] for v, c in self.entries],
            "remainder": list(self.remainder),
        }


def _normalize_parts(
    c: EdgeColoring, partition: GallaiPartition | Sequence[Iterable[int]]
):
    if isinstance(partition, GallaiPartition):
        partition = partition.parts
    parts = []
    seen = 0
    for idx, raw in enumerate(partition):
        members = tuple(raw)  # read once: it may be an iterator
        mask = _mask_of(c, members, f"part {idx}")
        if mask.bit_count() < len(members):
            raise ValueError(f"part {idx} lists a vertex twice")
        if mask & seen:
            raise ValueError(f"part {idx} overlaps an earlier part")
        seen |= mask
        parts.append((tuple(bits(mask)), mask))
    # an empty partition fails here too: n >= 1, so the mask is nonzero
    if seen != c.vertex_mask:
        raise ValueError("parts do not cover every vertex")
    return parts


def _check_pairs(c: EdgeColoring, parts):
    # (violations, cross colors, {(i, j): color} of the pairs joined in one
    # color): one edge names the color, part j must lie in what all of
    # part i is joined to in it; the full color set is read only to report
    color_of = c.color_of
    violations: list[str] = []
    if len(parts) < 2:
        violations.append(f"a Gallai partition needs at least two parts, got {len(parts)}")
    cross: set[int] = set()
    pair_color: dict[tuple[int, int], int] = {}
    for i, (xs, xmask) in enumerate(parts):
        joined: dict[int, int] = {}  # color -> joined_to_all of part i in it
        for j in range(i + 1, len(parts)):
            ys, ymask = parts[j]
            col = color_of(xs[0], ys[0])
            to_all = joined.get(col)
            if to_all is None:
                to_all = joined[col] = joined_to_all(c.rows(col), xmask)
            if ymask & ~to_all:
                between = sorted({color_of(a, b) for a in xs for b in ys})
                cross.update(between)
                violations.append(
                    f"parts {i} and {j} are joined in colors {between}"
                )
            else:
                cross.add(col)
                pair_color[(i, j)] = col
    if len(cross) > 2:
        violations.append(
            f"{len(cross)} colors appear between parts ({sorted(cross)}), at most 2 allowed"
        )
    return violations, cross, pair_color


def verify_gallai_partition(
    c: EdgeColoring, partition: GallaiPartition | Sequence[Iterable[int]]
) -> PartitionCheck:
    """Check a claimed Gallai partition; malformed input raises ValueError.

    Violations reported: fewer than two parts, a pair of parts joined in
    more than one color, more than two colors across parts in total, and
    (when a full :class:`GallaiPartition` is given) reduced-graph or
    cross-color fields that disagree with the coloring.
    """
    parts = _normalize_parts(c, partition)
    violations, cross, pair_color = _check_pairs(c, parts)
    if isinstance(partition, GallaiPartition):
        if partition.cross_colors != frozenset(cross):
            violations.append(
                f"claimed cross colors {sorted(partition.cross_colors)} "
                f"but found {sorted(cross)}"
            )
        red = partition.reduced
        if red.n != len(parts):
            violations.append(f"reduced graph has {red.n} vertices for {len(parts)} parts")
        else:
            for (i, j), col in pair_color.items():
                if red.color_of(i, j) != col:
                    violations.append(
                        f"reduced edge ({i},{j}) is color {red.color_of(i, j)}, "
                        f"parts are joined in {col}"
                    )
    return PartitionCheck(not violations, tuple(violations))


def _build_partition(c: EdgeColoring, clusters: list[int]) -> GallaiPartition:
    # clusters are joined pairwise in one color, so one edge per pair
    # names the reduced coloring
    parts = sorted(
        (tuple(bits(m)) for m in clusters),
        key=lambda part: (-len(part), part[0]),
    )
    reps = [part[0] for part in parts]
    colors = [c.color_of(a, b) for i, a in enumerate(reps) for b in reps[i + 1 :]]
    reduced = EdgeColoring(len(reps), c.k, colors)
    return GallaiPartition(tuple(parts), reduced.colors_used(), reduced)


def find_gallai_partition(c: EdgeColoring) -> GallaiPartition:
    """Construct a Gallai partition of a rainbow-triangle-free coloring.

    Raises :class:`PreconditionError` if the coloring has a rainbow
    triangle (naming the one `find_rainbow_triangle` reports), and
    ValueError for a single vertex.  With at most two used colors the
    singleton partition is returned.  Otherwise the partition comes
    from the components left after deleting two color classes,
    coarsened until all pairs are monochromatic; color pairs are tried
    in ascending order and the first that yields two or more parts
    wins, which makes the output deterministic.

    The partition is the top split of `detect._gallai_proof`, which
    checks it for rainbow triangles afterwards, inside one cluster at a
    time, with the same `gallai_split` run over a worklist
    (`rainbow_free`).  The proof is made once per coloring and kept on
    it, so after `find_rainbow_triangle` (or a first call here) on the
    same coloring no split runs again.  The check is enough:
    after deleting a and b, an edge between two clusters has color a or
    b, and `coarsen` leaves any two clusters joined in one color.  A
    triangle on three clusters then has only the colors a and b, and
    one with two vertices in a cluster has two edges of the same color
    to its third vertex; neither is rainbow, so the coloring has a
    rainbow triangle iff some cluster does.

    A coloring without one always has a pair that yields two parts, so
    it gets past the top split; no split, like a rainbow cluster,
    proves a rainbow triangle.  By Gallai's theorem (Gallai
    1967; Gyárfás–Simonyi 2004) such a coloring has a Gallai partition
    P with at least two parts whose cross colors lie in some pair
    {a, b} of used colors (with three or more colors used, a single
    cross color can be paired with any other).  An edge of another
    color never joins two parts of P, so the components left after
    deleting a and b each lie inside one part: they refine P, and there
    are at least two of them.  `coarsen` only merges two clusters that
    are not joined in one color, while clusters inside different parts
    of P always are, so every merge stays inside a part of P and at
    least two clusters remain.
    """
    if c.n < 2:
        raise ValueError("partition needs at least two vertices")
    clusters, free = _proved(c, _gallai_proof)
    if free:
        return _build_partition(c, clusters or [1 << v for v in range(c.n)])
    rainbow = find_rainbow_triangle(c)
    raise PreconditionError(f"rainbow triangle at vertices {rainbow.vertex_map}")


def reduced_graph(
    c: EdgeColoring, partition: GallaiPartition | Sequence[Iterable[int]]
) -> EdgeColoring:
    """Contract each part to one vertex, keeping the cross colors.

    Part i of the partition becomes vertex i.  The partition must be a
    valid Gallai partition of ``c``; otherwise ValueError.
    """
    parts = _normalize_parts(c, partition)
    violations, _, pair_color = _check_pairs(c, parts)
    if violations:
        raise ValueError("not a Gallai partition: " + "; ".join(violations))
    # every pair is joined in one color, in row-major order
    return EdgeColoring(len(parts), c.k, list(pair_color.values()))


def peel_apex_sequence(c: EdgeColoring) -> ApexSequence:
    """Greedily peel apex vertices until none is left or one vertex remains.

    At each step the least vertex that is joined to all remaining
    others in a single color is removed, recording that color.  The
    scan order makes the sequence deterministic.
    """
    remaining = c.vertex_mask
    entries: list[tuple[int, int]] = []
    while remaining.bit_count() >= 2:
        for x in bits(remaining):
            col = mono_between(c, 1 << x, remaining & ~(1 << x))
            if col is not None:
                entries.append((x, col))
                remaining &= ~(1 << x)
                break
        else:
            break
    return ApexSequence(tuple(entries), tuple(bits(remaining)))


def check_apex_color_distinctness(c: EdgeColoring, seq: ApexSequence) -> bool:
    """Test whether repeated apex colors are consistent with having no
    monochromatic 4-rim wheel.

    If two peeled vertices share a color i and the set remaining after
    the later peel spans an i-colored path on three vertices, those
    five vertices form an i-colored wheel; in a wheel-free coloring
    this cannot happen, so all apex colors must be distinct there.
    Returns False when such a forced wheel is missed by the detector,
    i.e. the premise fails; True otherwise.  An inconsistent sequence
    raises ValueError.
    """
    remaining = c.vertex_mask
    suffix_after: list[int] = []
    for x, col in seq.entries:
        if not 0 <= x < c.n or not remaining & (1 << x):
            raise ValueError(f"apex sequence repeats or misplaces vertex {x}")
        remaining &= ~(1 << x)
        if remaining & ~c.rows(col)[x]:
            raise ValueError(
                f"vertex {x} is not joined to the remainder in color {col}"
            )
        suffix_after.append(remaining)
    if tuple(bits(remaining)) != seq.remainder:
        raise ValueError("remainder does not match the peeled entries")
    earlier: set[int] = set()
    for (_, color), rest in zip(seq.entries, suffix_after):
        # a color seen before: the earlier apex, this one and a path in
        # the rest make a wheel
        if color in earlier and path3_within(c.rows(color), rest) is not None:
            if find_mono(c, _WHEEL4, color) is None:
                return False
        earlier.add(color)
    return True


def cross_color_profile(
    c: EdgeColoring, group: Iterable[int], colors: tuple[int, int]
) -> tuple[tuple[int, ...], ...]:
    """Split outside vertices by how they attach to ``group``.

    ``colors`` is the ordered pair (red, blue).  Returns three sorted
    tuples: vertices joined to all of the group in blue, in red, and
    the rest.  The group must be nonempty and the two colors distinct.
    """
    red, blue = (exact_int(col, "color") for col in colors)
    if red == blue or red < 1 or blue < 1:
        raise ValueError(f"need two distinct positive colors, got {colors}")
    gmask = _mask_of(c, group, "group")
    blue_side = joined_to_all(c.rows(blue), gmask)
    red_side = joined_to_all(c.rows(red), gmask)
    other = c.vertex_mask & ~(gmask | blue_side | red_side)
    return tuple(bits(blue_side)), tuple(bits(red_side)), tuple(bits(other))
