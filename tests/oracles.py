"""Independent reference implementations used to cross-check the fast
detectors, the search's conflict checks and its witnesses, plus small
helpers for building test colorings and search states, and for
replaying construction traces.

Everything here enumerates vertex subsets and arrangements directly
with `itertools` and `color_of` lookups.  No bitmask logic is shared
with the package code; agreement between the two routes is the point.

Arrangement counts per subset, one per automorphism class of the
pattern: a path on 3 vertices has 3 (choice of center), a 4-cycle has
3 (choice of the vertex opposite the least one), a 4-rim wheel has
15 (5 hubs times 3 rim cycles), a clique has 1.
"""

from itertools import combinations, permutations, product
import random

from gallai import BaseTrace, EdgeColoring, canonical_digest, substitute


def arbitrary_coloring(n: int, k: int, seed: int) -> EdgeColoring:
    """Uniform random coloring; generally full of rainbow triangles."""
    rng = random.Random(seed)
    return EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])


def rainbow_triangles(c):
    out = []
    for u, v, w in combinations(range(c.n), 3):
        if len({c.color_of(u, v), c.color_of(u, w), c.color_of(v, w)}) == 3:
            out.append((u, v, w))
    return out


def _cycle_mono(c, i, cyc) -> bool:
    m = len(cyc)
    return all(c.color_of(cyc[j], cyc[(j + 1) % m]) == i for j in range(m))


def has_mono_p3(c, i) -> bool:
    for trio in combinations(range(c.n), 3):
        for center in trio:
            a, b = [x for x in trio if x != center]
            if c.color_of(center, a) == i and c.color_of(center, b) == i:
                return True
    return False


def has_mono_c4(c, i) -> bool:
    for a, b, d, e in combinations(range(c.n), 4):
        for cyc in ((a, b, d, e), (a, b, e, d), (a, d, b, e)):
            if _cycle_mono(c, i, cyc):
                return True
    return False


def has_mono_clique(c, i, t) -> bool:
    for sub in combinations(range(c.n), t):
        if all(c.color_of(u, v) == i for u, v in combinations(sub, 2)):
            return True
    return False


def has_mono_w4(c, i) -> bool:
    for five in combinations(range(c.n), 5):
        for hub in five:
            rim = [x for x in five if x != hub]
            if any(c.color_of(hub, x) != i for x in rim):
                continue
            a, b, d, e = rim
            for cyc in ((a, b, d, e), (a, b, e, d), (a, d, b, e)):
                if _cycle_mono(c, i, cyc):
                    return True
    return False


def has_mono_wheel(c, i, m) -> bool:
    """Generic wheel oracle by rim permutation; tiny n only."""
    for sub in combinations(range(c.n), m + 1):
        for hub in sub:
            rim = [x for x in sub if x != hub]
            if any(c.color_of(hub, x) != i for x in rim):
                continue
            first = rim[0]
            for perm in permutations(rim[1:]):
                if _cycle_mono(c, i, (first,) + perm):
                    return True
    return False


def has_mono_pattern(c, i, pattern) -> bool:
    """Fully generic oracle over all injections; tiny inputs only."""
    for sub in combinations(range(c.n), pattern.order):
        for perm in permutations(sub):
            if all(c.color_of(perm[u], perm[v]) == i for u, v in pattern.edges):
                return True
    return False


def oracle_for(pattern):
    """Dispatch a pattern spec to its dedicated oracle."""
    if pattern.kind == "path3":
        return has_mono_p3
    if pattern.kind == "cycle4":
        return has_mono_c4
    if pattern.kind == "clique":
        return lambda c, i, t=pattern.order: has_mono_clique(c, i, t)
    if pattern.kind == "wheel" and pattern.order == 5:
        return has_mono_w4
    if pattern.kind == "wheel":
        return lambda c, i, m=pattern.order - 1: has_mono_wheel(c, i, m)
    return lambda c, i, p=pattern: has_mono_pattern(c, i, p)


class PartialAssignment(dict):
    """A partial coloring of K_n: a dict from edge (u, v), u < v, to its
    color.  An edge not in it is open, color 0 to `color_at`."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def color_at(self, u: int, v: int) -> int:
        return self.get((min(u, v), max(u, v)), 0)


def fill(pc, assignment):
    """Write ``assignment`` into the fresh search state ``pc`` (a
    `PartialColoring`) and return it.  Each edge is written as the search
    loop writes a move: its color at the position of the step that
    assigns it (edges go column by column, so (u, v), u < v, is at
    v(v-1)/2 + u) and a bit in each end's row of that color.  That is
    all the state there is: the search keeps its rainbow rule in its
    column domains, not in ``pc``.
    """
    for (u, v), color in assignment.items():
        pc.colors[v * (v - 1) // 2 + u] = color
        pc.masks[color][u] |= 1 << v
        pc.masks[color][v] |= 1 << u
    return pc


def canonical_column(assignment, w) -> bool:
    """Is the coloring of K_{w+1} in ``assignment`` (a dict from (u, v),
    u < v, to a color) no larger, read column by column, than each copy
    with labels j and w swapped, j < w, and its colors renamed 1, 2, ...
    in order of first appearance?  The check `vertexOrder` makes when
    column w completes."""
    edges = [(u, v) for v in range(1, w + 1) for u in range(v)]
    current = [assignment[e] for e in edges]
    for j in range(w):
        swap = {j: w, w: j}
        names = {}
        swapped = []
        for u, v in edges:
            a, b = sorted((swap.get(u, u), swap.get(v, v)))
            swapped.append(names.setdefault(assignment[a, b], len(names) + 1))
        if swapped < current:
            return False
    return True


def conflict_through_edge(c, pattern, color, edge) -> bool:
    """Does some embedding of ``pattern`` in class ``color`` use ``edge``?

    ``c`` may be a `PartialAssignment`; open edges never match.  Used
    to cross-check the search's through-edge conflicts by full rescan.
    """
    eu, ev = min(edge), max(edge)
    for sub in combinations(range(c.n), pattern.order):
        if eu not in sub or ev not in sub:
            continue
        for perm in permutations(sub):
            uses_edge = False
            ok = True
            for pu, pv in pattern.edges:
                a, b = perm[pu], perm[pv]
                if c.color_at(a, b) != color:
                    ok = False
                    break
                if {a, b} == {eu, ev}:
                    uses_edge = True
            if ok and uses_edge:
                return True
    return False


def first_valid_coloring(n, k, forbidden, rainbow):
    """The first k-coloring of K_n, read column by column ((0,1), (0,2),
    (1,2), (0,3), ...) with colors ascending, that has no forbidden
    pattern (``forbidden`` as in a `SearchTask`) and, when ``rainbow``
    is set, no rainbow triangle; None when there is none.

    Each column's colors are enumerated whole, in order, and a prefix
    K_{v+1} is dropped when it already holds a forbidden structure,
    which every extension would keep.
    """

    def coloring(cols):  # cols[v - 1][u] is the color of (u, v)
        size = len(cols) + 1
        return EdgeColoring(
            size, k, [cols[v - 1][u] for u in range(size) for v in range(u + 1, size)]
        )

    def valid(c):
        if rainbow and rainbow_triangles(c):
            return False
        return not any(
            oracle_for(pattern)(c, i)
            for pattern, scope in forbidden
            for i in (range(1, k + 1) if scope is None else (scope,))
        )

    def extend(cols):
        if len(cols) == n - 1:
            return coloring(cols)
        for column in product(range(1, k + 1), repeat=len(cols) + 1):
            cols.append(column)
            if valid(coloring(cols)):
                found = extend(cols)
                if found is not None:
                    return found
            cols.pop()
        return None

    return extend([])


def color_text(c, row_end):
    """The edge colours as text, one ``str`` per colour: a space after
    each edge inside a row and ``row_end`` after each row's last edge."""
    colors = c.edge_colors
    text, start = [], 0
    for width in range(c.n - 1, 0, -1):
        text.append(" ".join(str(col) for col in colors[start : start + width]))
        text.append(row_end)
        start += width
    return "".join(text)


def replay(trace, base):
    """Rebuild a traced coloring by `substitute` alone: each leaf is
    ``base``, which must have the digest the leaf names, and each blow-up
    substitutes its rebuilt children into its quotient."""
    if isinstance(trace, BaseTrace):
        assert canonical_digest(base) == trace.digest, trace.label
        return base
    return substitute(trace.quotient, [replay(child, base) for child in trace.children])
