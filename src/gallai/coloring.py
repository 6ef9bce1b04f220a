"""Edge-colored complete graphs.

The central object is :class:`EdgeColoring`: a complete graph on
vertices ``0..n-1`` whose edges each carry one color from a declared
palette ``1..k``.  Colorings are immutable; the construction operators
(`restrict`, `join`, `substitute`, `recolor`) return new objects.

Vertex labels are significant.  Two colorings are equal only if they
agree edge by edge, and `canonical_digest` hashes the labeled object.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import exact_int

__all__ = [
    "EdgeColoring",
    "edge_index",
    "restrict",
    "join",
    "substitute",
    "recolor",
    "canonical_digest",
]

_DIGEST_HEADER = "grc1"
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # colour byte -> digit


def edge_index(n: int, u: int, v: int) -> int:
    """Position of edge (u, v), u < v, in row-major upper-triangular order.

    Row u lists edges (u, u+1), (u, u+2), ..., (u, n-1).
    """
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class EdgeColoring:
    """An edge coloring of the complete graph K_n with palette 1..k.

    ``colors`` lists edge colors in row-major upper-triangular order,
    the same order `edges()` iterates in.  The declared palette may be
    wider than the set of colors actually used; `colors_used()` reports
    the latter.

    Per-color adjacency is exposed as vertex bitmasks, one vertex at a
    time via `neighbors` or one color at a time via `rows`, which is
    what every detector in this package is built on.  The rows are built
    on the first call to `neighbors`, `rows` or `colors_used` and kept.
    Every argument of these accessors and of `color_of` is an int proper.

    The colors are held once: as ``bytes``, one per edge, when k < 256,
    and as a tuple of ints above that.  The digest, the ``.grc`` rows,
    the dense row build and the rainbow scan (a row slice at a time)
    read this store, and `edge_colors` copies it.
    Each color is checked once, where it enters the package.  The
    constructor checks ``bytes`` (which `parse_text` passes for rows of
    one-digit colors) by one ``translate`` that deletes 1..k, anything
    else by type, ``min`` and ``max``.  A failure scans the edges to name
    the first bad one.  `restrict`, `join` and `substitute` skip the
    checks and build their result's store directly: their colors come
    from checked colorings, within the widest palette among their
    operands.

    The rows come from one of two builds with the same result.  The
    per-edge loop sets two bits per edge in Python.  The dense build
    writes the colors into an n x n byte matrix by slices, then for each
    color used makes one ``translate`` of the whole matrix and one
    ``int(row, 2)`` per vertex, so its cost grows with the number of
    colors.  On random colorings it is faster while at most about n / 10
    colors are used (about 30 at large n), and takes a fifth of the
    loop's time at n = 350 with six.
    It runs when at most ``min(n - 20, 150) // 10`` colors are used, a
    margin below that, and k < 256, where the store is bytes.
    Below n = 30 the loop always runs: there the choice would cost about
    as much as the dense build can save.

    Besides the rows, a coloring keeps what is made from it on first use,
    which never goes stale: the digest and the Gallai proof (the top split
    and whether there is a rainbow triangle) that `find_rainbow_triangle`
    and `find_gallai_partition` share.
    """

    __slots__ = ("n", "k", "_colors", "_masks", "_digest", "_proof")

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        # ints proper: the checks below would let a float n or k through
        if exact_int(n, "n") < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if exact_int(k, "k") < 1:
            raise ValueError(f"palette must have at least one color, got k={k}")
        m = n * (n - 1) // 2
        if type(colors) not in (bytes, list, tuple):
            colors = tuple(colors)
        if len(colors) != m:
            raise ValueError(f"expected {m} edge colors for n={n}, got {len(colors)}")
        # bytes hold ints: deleting 1..k leaves only the bad colours.
        # Otherwise type before range: bool is an int subclass, not a
        # color, and min/max over mixed types would raise TypeError.  The
        # edge scan runs only to name the first offending edge
        if type(colors) is bytes:
            bad = bool(colors.translate(None, bytes(range(1, min(k, 255) + 1))))
        else:
            bad = bool(colors) and (
                set(map(type, colors)) != {int} or min(colors) < 1 or max(colors) > k
            )
        if bad:
            pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
            (u, v), c = next(
                (e, c)
                for e, c in zip(pairs, colors)
                if type(c) is not int or not 1 <= c <= k
            )
            raise ValueError(f"edge ({u},{v}) has color {c!r}, not in 1..{k}")
        _fill(self, n, k, colors)

    def _rows_by_color(self) -> dict[int, tuple[int, ...]]:
        if self._masks is None:
            n, k, colors = self.n, self.k, self._colors
            few = min(n - 20, 150) // 10  # see the class docstring
            used: list[int] = []
            # the store is bytes for k < 256; vertex 0's edges are a cheap
            # first look at whether too many colours are used
            if few > 0 and k < 256 and len(set(colors[: n - 1])) <= few:
                used = [c for c in range(1, k + 1) if c in colors]
            if 0 < len(used) <= few:
                self._masks = _dense_rows(n, colors, used)
            else:
                self._masks = _edge_rows(n, colors)
        return self._masks

    # -- basic queries -------------------------------------------------

    def color_of(self, u: int, v: int) -> int:
        # ints proper; exact_int only on a miss, to keep this call cheap
        if type(u) is not int or type(v) is not int:
            exact_int(u, "vertex")
            exact_int(v, "vertex")
        if u == v:
            raise ValueError(f"no self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n:
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        return self._colors[edge_index(self.n, u, v)]

    def neighbors(self, color: int, v: int) -> int:
        """Bitmask of vertices joined to v by an edge of the given color."""
        if type(color) is not int or type(v) is not int:  # as in color_of
            exact_int(color, "color")
            exact_int(v, "vertex")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        row = self._rows_by_color().get(color)
        return row[v] if row is not None else 0

    def rows(self, color: int) -> tuple[int, ...]:
        """``neighbors(color, v)`` for every vertex v, as one tuple (zeros
        for an unused color): the shape :mod:`gallai.kernels` runs on."""
        if type(color) is not int:  # as in color_of
            exact_int(color, "color")
        row = self._rows_by_color().get(color)
        return row if row is not None else (0,) * self.n

    def colors_used(self) -> frozenset[int]:
        return frozenset(self._rows_by_color())

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, color) with u < v, ascending in (u, v)."""
        n, colors = self.n, iter(self._colors)
        return ((u, v, next(colors)) for u in range(n) for v in range(u + 1, n))

    @property
    def edge_colors(self) -> tuple[int, ...]:
        """The colors as a tuple of ints in `edges()` order, built per call: O(m)."""
        return tuple(self._colors)

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return (self.n, self.k, self._colors) == (other.n, other.k, other._colors)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._colors))

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n}, k={self.k})"


# the colour store of palette 1..k and the join of a list of its pieces,
# indexed by k >= 256: one byte per edge while every colour fits in a byte
_STORES = (bytes, b"".join), (tuple, lambda pieces: tuple(chain.from_iterable(pieces)))


def _fill(c: EdgeColoring, n: int, k: int, colors: Sequence[int]) -> EdgeColoring:
    # the one place that converts to the store: bytes() and tuple() keep an
    # object of their own type as it is.  The colour -> rows map, the digest
    # and the Gallai proof are built on first use
    c.n, c.k, c._colors = n, k, _STORES[k >= 256][0](colors)
    c._masks = c._digest = c._proof = None
    return c


def _unchecked(n: int, k: int, colors: Sequence[int]) -> EdgeColoring:
    # a coloring without the checks: only for operator results, whose
    # colors all come from checked colorings with palettes within 1..k
    return _fill(object.__new__(EdgeColoring), n, k, colors)


def _edge_rows(n: int, colors: Sequence[int]) -> dict[int, tuple[int, ...]]:
    # the per-edge loop: two row bits per edge.  Iterating reads a bytes
    # store as fast as a tuple; indexing it is slower
    masks: dict[int, list[int]] = {}
    colors = iter(colors)
    for u in range(n):
        bit_u = 1 << u
        for v, c in zip(range(u + 1, n), colors):
            row = masks.get(c)
            if row is None:
                row = masks[c] = [0] * n
            row[u] |= 1 << v
            row[v] |= bit_u
    return {c: tuple(row) for c, row in masks.items()}


def _dense_rows(n: int, data: bytes, used: list[int]) -> dict[int, tuple[int, ...]]:
    # the symmetric n x n matrix of colours (0 on the diagonal), reversed
    # so that int(..., 2), which reads its most significant digit first,
    # puts vertex v at bit v of every row; each colour translates the whole
    # matrix once and cuts its rows from that copy
    grid = bytearray(n * n)
    start = 0
    for u in range(n - 1):
        seg = data[start : start + n - 1 - u]
        grid[u * n + u + 1 : u * n + n] = seg  # row u, right of the diagonal
        grid[u * n + n + u :: n] = seg  # column u, below it
        start += n - 1 - u
    grid.reverse()
    rows = {}
    for c in used:
        table = b"0" * c + b"1" + b"0" * (255 - c)
        starts = range(n * n - n, -1, -n)  # row u starts at (n - 1 - u) * n
        # int(..., 2) sizes its result by the string's length and keeps the
        # leading zeros' room; "| 0" makes a right-sized copy
        ones = grid.translate(table)
        rows[c] = tuple(int(ones[i : i + n], 2) | 0 for i in starts)
    return rows


def _row_colors(c: EdgeColoring, u: int) -> Sequence[int]:
    # the colours of (u, u+1), ..., (u, n-1): one slice of the store, so a
    # row scan need not copy every colour
    start = edge_index(c.n, u, u + 1)
    return c._colors[start : start + c.n - u - 1]


def _mask_of(c: EdgeColoring, vertices: Iterable[int], name: str) -> int:
    # the bitmask of a nonempty set of vertices of c, each an int proper
    mask = 0
    for v in vertices:
        if not 0 <= exact_int(v, "vertex") < c.n:
            raise ValueError(f"{name} contains vertex {v}, out of range")
        mask |= 1 << v
    if mask == 0:
        raise ValueError(f"{name} must be nonempty")
    return mask


def _operands(*colorings: EdgeColoring) -> None:
    # the operators read the checked colours of their operands directly
    for c in colorings:
        if not isinstance(c, EdgeColoring):
            raise TypeError(f"expected an EdgeColoring, got {type(c).__name__}")


def restrict(c: EdgeColoring, vertices: Iterable[int]) -> EdgeColoring:
    """Induced subcoloring on the given vertices, relabeled 0..len-1.

    Relabeling preserves the ascending order of the chosen vertices.
    The declared palette is kept even if fewer colors survive.
    """
    _operands(c)
    mask = _mask_of(c, vertices, "vertex set")
    vs = [v for v in range(c.n) if mask >> v & 1]
    colors = c._colors
    at = [edge_index(c.n, u, u + 1) - u - 1 for u in vs]  # at[i] + v is (vs[i], v)
    out = [colors[a + v] for i, a in enumerate(at) for v in vs[i + 1 :]]
    return _unchecked(len(vs), c.k, out)


def join(c1: EdgeColoring, c2: EdgeColoring, fresh_color: int) -> EdgeColoring:
    """Disjoint union of c1 and c2 with every cross edge in a fresh color.

    The second operand is shifted up by c1.n.  ``fresh_color`` must not
    occur in either operand; reusing a color would merge structure
    across the two halves and is rejected.  This is `substitute` of
    (c1, c2) into the two-vertex quotient colored ``fresh_color``.
    """
    _operands(c1, c2)
    if exact_int(fresh_color, "fresh_color") < 1:
        raise ValueError(f"colors are positive, got {fresh_color}")
    if fresh_color in c1.colors_used() or fresh_color in c2.colors_used():
        raise ValueError(f"color {fresh_color} already used by an operand")
    return substitute(EdgeColoring(2, fresh_color, (fresh_color,)), (c1, c2))


def substitute(quotient: EdgeColoring, parts: Sequence[EdgeColoring]) -> EdgeColoring:
    """Blow up each quotient vertex i into the coloring parts[i].

    Edges inside part i keep their color; edges between parts i and j
    all take the quotient color of (i, j).  Quotient colors may recur
    inside parts: `join` refuses that for colorings, and
    `validate_trace` for the blow-ups of a construction trace.
    """
    _operands(quotient, *parts)
    p = quotient.n
    if len(parts) != p:
        raise ValueError(f"quotient has {p} vertices but {len(parts)} parts given")
    k = max(quotient.k, max(part.k for part in parts))
    store, cat = _STORES[k >= 256]  # built in the type _fill keeps
    qcolors = iter(quotient._colors)  # row-major: (i, j) for j > i in turn
    pieces = []
    for i, part in enumerate(parts):
        # each output row: a slice of its part's row, then this cross tail
        runs = []  # quotient colour (i, j), once per vertex of part j
        for later in parts[i + 1 :]:
            runs.append(store((next(qcolors),)) * later.n)
        tail = cat(runs)
        colors = part._colors  # bytes in a tuple result too: chain reads ints
        start = 0
        for width in range(part.n - 1, -1, -1):  # row u holds part.n-1-u edges
            pieces += (colors[start : start + width], tail)
            start += width
    return _unchecked(sum(part.n for part in parts), k, cat(pieces))


def recolor(
    c: EdgeColoring, mapping: Mapping[int, int], k: int | None = None
) -> EdgeColoring:
    """Rename colors through ``mapping``; colors not mapped are kept.

    ``k`` sets the declared palette of the result and defaults to the
    smallest palette containing every resulting color and c.k.
    """
    # ints proper on both sides: True and 1.0 are equal to 1 as keys too
    for key, value in mapping.items():
        exact_int(key, "renamed color")
        exact_int(value, "mapped color")
    out = [mapping.get(col, col) for col in c._colors]
    if any(col < 1 for col in out):
        raise ValueError("recoloring must keep colors positive")
    if k is None:
        k = max(c.k, max(out, default=1))
    return EdgeColoring(c.n, k, out)


def canonical_digest(c: EdgeColoring) -> str:
    """SHA-256 hex digest of the labeled coloring.

    Stable across processes and releases: hashes the versioned text
    ``grc1\\n{n} {k}\\n{edge colors in row-major order}``.  Vertex
    labels matter; isomorphic but differently labeled colorings hash
    differently.  Computed once per coloring and kept on it, which is
    safe because a coloring never changes.
    """
    if c._digest is None:
        digest = hashlib.sha256(f"{_DIGEST_HEADER}\n{c.n} {c.k}\n".encode("ascii"))
        last = b""  # each piece hashed when the next comes: the last ends in " "
        for piece in _color_pieces(c, " "):
            digest.update(last)
            last = piece
        digest.update(memoryview(last)[:-1])
        c._digest = digest.hexdigest()
    return c._digest


def _proved(c: EdgeColoring, prove: Callable[[EdgeColoring], tuple]) -> tuple:
    # prove(c), made once and kept on c: detect._gallai_proof is the one prove
    if c._proof is None:
        c._proof = prove(c)
    return c._proof


def _color_text(c: EdgeColoring, row_end: str) -> str:
    # the edge colours in row-major order, with a space after each edge of
    # a row but its last and row_end after that: the .grc rows.  For k <= 9
    # the one piece is decoded once, and join hands that str back as it is
    return "".join([piece.decode("ascii") for piece in _color_pieces(c, row_end)])


def _color_pieces(c: EdgeColoring, row_end: str) -> Iterator[bytes | bytearray]:
    # the text of _color_text as ASCII pieces, which the digest hashes as
    # they come: the whole text at once for k <= 9, a row at a time above
    n, colors = c.n, c._colors
    if c.k <= 9:
        # one digit per colour: the digits go at the even bytes of a
        # template whose odd bytes are the separators
        out = bytearray(b" ") * (2 * len(colors))
        out[::2] = colors.translate(_DIGITS)
        end = ord(row_end)
        pos = -1
        for width in range(n - 1, 0, -1):
            pos += 2 * width
            out[pos] = end
        yield out
        return
    text = {col: str(col) for col in set(colors)}  # each colour written once
    end = row_end.encode("ascii")
    start = 0
    for width in range(n - 1, 0, -1):
        row = " ".join(map(text.__getitem__, colors[start : start + width]))
        yield row.encode("ascii")  # once per row: a bytes join would hold more
        yield end
        start += width
