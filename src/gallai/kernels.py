"""Bitset kernels shared by the detectors, the search engine and the
structure tools.  Private to the package; standard library only.

A vertex set is an ``int`` with bit v set for vertex v.  Most kernels
take ``adj``, one color class as adjacency rows (``adj[v]`` is the mask
of v's neighbors in that color): `EdgeColoring.rows` and
`PartialColoring.masks[color]` both have this shape.  Kernels trust
their arguments.  The full scans return the first copy of a pattern
inside a mask in a documented order, which decides the certificates
the detectors promise; the through-edge checks tell the search whether
the edge (u, v) completes a copy.  Only here does a `PatternSpec`'s kind
pick its kernels: `first_copy` the full scan (`find_mono` runs it per
color), `through_check` the check (`PartialColoring` keeps one per
forbidden pattern).  `rainbow_thirds` is the one
rainbow-triangle test: `rainbow_within` scans a mask of an
`EdgeColoring` with it, the search probes one edge with it.
`joined_to_all`, the AND of a mask's rows, is the one "joined in one
color" test: `mono_between` is built on it, `coarsen` keeps each
cluster's two masks with it, `structure` tests the pairs of parts in
`verify_gallai_partition` and the groups of `cross_color_profile`.

`gallai_split` is the Gallai partition step on a mask: for the first
color pair that gives two or more clusters, the `components_avoiding`
the pair, merged by `coarsen` until every two are joined in one color.
`rainbow_free` runs it over a worklist of masks and so decides whether
a coloring has a rainbow triangle without looking at any triangle.
`detect._gallai_proof` runs the top split and `rainbow_free` on its
clusters once per coloring, which keeps the result:
`find_rainbow_triangle` scans with `rainbow_within` only when the proof
fails, to name the triangle, and `find_gallai_partition` takes the top
split as its partition.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .coloring import edge_index

Rows = Sequence[int]
Slots = tuple[tuple[int, tuple[int, ...]], ...]
Classes = list[tuple[int, Rows]]  # (color, rows), colors ascending


def bits(x: int) -> Iterator[int]:
    """The set bits of a nonnegative x, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def least(x: int) -> int:
    """The lowest set bit of a nonzero x."""
    return (x & -x).bit_length() - 1


def above(v: int) -> int:
    """Mask of all vertices strictly greater than v."""
    return ~((1 << (v + 1)) - 1)


# -- full scans: the first copy inside a mask --------------------------------


def path3_within(adj: Rows, mask: int) -> Optional[tuple[int, int, int]]:
    """First path (v1, v2, v3) with center v2, v1 < v3, inside ``mask``.

    v1 ascends over the mask, then v2 over v1's neighbors; v3 is the
    least that fits.  None when the mask spans no such path.
    """
    for v1 in bits(mask):
        for v2 in bits(adj[v1] & mask):
            cand = adj[v2] & mask & above(v1)
            if cand:
                return v1, v2, least(cand)
    return None


def cycle4_within(adj: Rows, mask: int) -> Optional[tuple[int, int, int, int]]:
    """First 4-cycle (a, x, b, y) inside ``mask``, or None.

    Opposite corners a < b ascend as pairs; x < y are the two least
    common neighbors of a and b in the mask.  A corner's partner is found
    in one pass over its neighbors x in the mask: ``seen`` collects the
    vertices above a that some x sees, ``twice`` those that two or more
    see, so the least vertex of ``twice`` is the least b with two common
    neighbors.  The work per corner is its degree in the mask.
    """
    rest = mask
    while rest:
        ba = rest & -rest
        a = ba.bit_length() - 1
        rest ^= ba  # now the mask above a
        na = adj[a] & mask
        if not na & (na - 1):  # common is inside na: no cycle has a here
            continue
        seen = twice = 0
        xs = na
        while xs:
            bx = xs & -xs
            t = adj[bx.bit_length() - 1] & rest
            twice |= seen & t
            seen |= t
            xs ^= bx
        if twice:
            b = least(twice)
            common = na & adj[b]
            return a, least(common), b, least(common & (common - 1))
    return None


def clique_within(adj: Rows, cand: int, need: int) -> Optional[tuple[int, ...]]:
    """The lexicographically least ``need`` pairwise adjacent vertices
    of ``cand``, ascending, or None.  ``need`` <= 0 gives ()."""
    if need <= 0:
        return ()
    while cand:
        b = cand & -cand
        w = b.bit_length() - 1
        cand ^= b
        if need == 1:
            return (w,)
        # members above w only; lower ones were already tried as lead
        rest = clique_within(adj, cand & adj[w], need - 1)
        if rest is not None:
            return (w, *rest)
    return None


def plan(order: int, edges: Iterable[tuple[int, int]], start: Sequence[int]) -> Slots:
    """Slots for `embed`: vertices of a pattern on 0..order-1, breadth
    first from ``start`` (neighbors ascending), each paired with its
    neighbors placed before it.  Covers every vertex iff the pattern is
    connected."""
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seq = list(start)
    for p in seq:  # seq grows while it is scanned: a BFS queue
        for q in sorted(nbrs[p]):
            if q not in seq:
                seq.append(q)
    return tuple(
        (p, tuple(q for q in nbrs[p] if q in seq[:i])) for i, p in enumerate(seq)
    )


def embed(
    adj: Rows, slots: Slots, host: list[int], used: int, allowed: int, si: int = 0
) -> bool:
    """Extend ``host`` (pattern vertex -> host vertex) along ``slots[si:]``.

    Slot (p, preds) puts p on a vertex of ``allowed`` outside ``used``
    adjacent to the hosts of ``preds``, least first, backtracking depth
    first.  On True ``host`` holds the first embedding in slot order.
    """
    if si == len(slots):
        return True
    p, preds = slots[si]
    cand = allowed & ~used
    for t in preds:
        cand &= adj[host[t]]
    for w in bits(cand):
        host[p] = w
        if embed(adj, slots, host, used | (1 << w), allowed, si + 1):
            return True
    return False


def wheel_within(adj: Rows, mask: int, m: int) -> Optional[tuple[int, ...]]:
    """First wheel (rim..., hub) with an m-vertex rim inside ``mask``, or
    None.  Hubs ascend, then the first m-cycle in the hub's neighborhood:
    for m = 4 by `cycle4_within`, else the least closed path from the
    cycle's least vertex s, all others above s.

    A hub whose ring (its neighborhood in the mask) was already shown to
    hold no m-cycle is skipped.  That is exact: whether a ring holds an
    m-cycle, and which one is first, depends on ``adj`` and the ring
    alone, and a ring that holds one returns at once, so only cycle-free
    rings are kept.  In a blow-up every vertex of a block has the same
    ring, so each block is searched once.
    """
    rim = plan(m, [(j, (j + 1) % m) for j in range(m)], range(m))[1:]
    host = [0] * m
    free: set[int] = set()  # rings that hold no m-cycle
    hubs = mask
    while hubs:
        bh = hubs & -hubs
        hubs ^= bh
        hub = bh.bit_length() - 1
        ring = adj[hub] & mask
        if ring.bit_count() < m or ring in free:
            continue
        if m == 4:
            cyc = cycle4_within(adj, ring)
            if cyc:
                return (*cyc, hub)
        else:
            for s in bits(ring):
                host[0] = s
                if embed(adj, rim, host, 0, ring & above(s)):
                    return (*host, hub)
        free.add(ring)
    return None


def first_copy(pattern, adj: Rows, mask: int) -> Optional[tuple[int, ...]]:
    """The vertex map of the first copy of the `PatternSpec` ``pattern``
    inside ``mask`` by the scan of its kind, or None.  Explicit patterns
    go breadth first from vertex 0; they are connected, so every later
    slot has a placed neighbor to anchor on."""
    kind, order = pattern.kind, pattern.order
    if kind == "path3":
        return path3_within(adj, mask)
    if kind == "cycle4":
        return cycle4_within(adj, mask)
    if kind == "wheel":
        return wheel_within(adj, mask, order - 1)
    if kind == "clique":
        return clique_within(adj, mask, order)
    host = [0] * order
    slots = plan(order, pattern.edges, (0,))
    return tuple(host) if embed(adj, slots, host, 0, mask) else None


def joined_to_all(adj: Rows, xmask: int) -> int:
    """The vertices joined to every vertex of ``xmask`` in the color whose
    rows are ``adj``: the AND of those rows (-1 for an empty mask)."""
    joined = -1
    while xmask:
        b = xmask & -xmask
        joined &= adj[b.bit_length() - 1]
        xmask ^= b
    return joined


def mono_between(c, xmask: int, ymask: int) -> Optional[int]:
    """The one color joining every vertex of ``xmask`` to every vertex of
    ``ymask`` (disjoint, nonempty) in the `EdgeColoring` c, or None."""
    color = c.color_of(least(xmask), least(ymask))
    return None if ymask & ~joined_to_all(c.rows(color), xmask) else color


def rainbow_thirds(classes: Iterable[Rows], adj: Rows, u: int, v: int, cand: int) -> int:
    """The w of ``cand`` (which excludes u and v) that make (u, v, w) rainbow when
    (u, v) has the color whose rows are ``adj``; ``classes`` has every color's rows."""
    bad = adj[u] | adj[v]
    for rows in classes:
        bad |= rows[u] & rows[v]
    return cand & ~bad


def rainbow_within(c, mask: int) -> Optional[tuple[int, int, int]]:
    """First rainbow triangle (u, v, w) inside ``mask`` of the `EdgeColoring`
    c, or None.

    u < v ascend as pairs over the mask; w is the least vertex of the mask
    above v that fits.
    """
    classes = {col: c.rows(col) for col in c.colors_used()}
    every = tuple(classes.values())
    colors = c.edge_colors
    n = c.n
    for u in bits(mask):
        row = edge_index(n, u, u + 1) - u - 1  # colors[row + v] is (u, v)
        rest = mask & above(u)
        while rest & (rest - 1):  # room for v and a w above it
            b = rest & -rest
            v = b.bit_length() - 1
            rest ^= b  # now the mask above v: the candidates for w
            cand = rainbow_thirds(every, classes[colors[row + v]], u, v, rest)
            if cand:
                return u, v, least(cand)
    return None


# -- Gallai splits ------------------------------------------------------------


def color_classes(c) -> Classes:
    """Every used color of the `EdgeColoring` c with its rows, ascending."""
    return [(col, c.rows(col)) for col in sorted(c.colors_used())]


def classes_within(classes: Classes, mask: int) -> Classes:
    """The classes that have an edge inside ``mask``, in the same order."""
    kept = []
    for entry in classes:
        adj = entry[1]
        rest = mask
        while rest:
            b = rest & -rest
            if adj[b.bit_length() - 1] & mask:
                kept.append(entry)
                break
            rest ^= b
    return kept


def components_avoiding(adj_a: Rows, adj_b: Rows, mask: int) -> list[int]:
    """Components of ``mask`` joined by edges of neither color a nor b,
    by least vertex; each grows one frontier mask at a time.  In a
    complete graph the other colors join v to everything outside its a-
    and b-rows, so the number of colors never enters.

    The walk stops early.  ``joined`` starts as the vertices of ``mask``
    not yet reached and each frontier vertex narrows it to those it sees
    in a or b.  Once it is empty, every vertex not reached has an edge of
    another color into the component, so the component is all that is
    left: the full walk would build the same last component."""
    left = mask
    comps: list[int] = []
    while left:
        comp = frontier = left & -left
        while frontier:
            rest = left & ~comp
            joined = rest  # what every frontier vertex sees in a or b
            while frontier:
                b = frontier & -frontier
                v = b.bit_length() - 1
                joined &= adj_a[v] | adj_b[v]
                if not joined:
                    comps.append(left)
                    return comps
                frontier ^= b
            frontier = rest & ~joined
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def coarsen(adj_a: Rows, adj_b: Rows, mask: int, clusters: list[int]) -> list[int]:
    """Merge ``clusters`` (a partition of ``mask`` whose cross edges all
    have color a or b) until every two are joined in one color.

    The result is the finest such coarsening, so the order of merges does
    not matter.  Call a coarsening good when every two of its blocks are
    joined in one color.  The meet of two good coarsenings Q1 and Q2 is
    good: blocks X1 & X2 and Y1 & Y2 lie inside the different blocks X1
    and Y1 of Q1, or else inside X2 and Y2 of Q2, which are joined in one
    color.  The one-block coarsening is good, so a finest good coarsening
    F exists and is unique.  A merge below joins two unions of clusters
    that are not joined in one color, so they lie inside one block of F;
    the result refines F and is good, so it is F.

    Per cluster X it keeps A and B, the vertices joined to all of X in
    color a, resp. b, which for a merged cluster are the intersections.
    Y is joined to X in one color iff Y lies inside A or B.  If it does
    not, some vertex of Y lies outside X, A and B, or (a vertex of Y in A
    and one in B) every vertex of X lies outside Y and its A and B.  So
    the vertices outside X, A and B name every cluster X must merge with,
    and the merged cluster is checked again; no pair of clusters is
    tested.
    """
    work = [
        (x, mask & joined_to_all(adj_a, x), mask & joined_to_all(adj_b, x))
        for x in clusters
    ]
    done: list[tuple[int, int, int]] = []
    while work:
        x, ja, jb = work.pop()
        bad = mask & ~(x | ja | jb)
        if not bad:
            done.append((x, ja, jb))
            continue
        for group in (work, done):
            kept = []
            for entry in group:
                if entry[0] & bad:
                    x |= entry[0]
                    ja &= entry[1]
                    jb &= entry[2]
                else:
                    kept.append(entry)
            group[:] = kept
        work.append((x, ja, jb))
    return [x for x, _, _ in done]


def gallai_split(classes: Classes, mask: int) -> Optional[list[int]]:
    """The first split of ``mask`` into two or more clusters, every two
    joined in one color, or None.

    Color pairs a < b of ``classes`` (the colors used inside the mask)
    are tried ascending; a pair's clusters are its `components_avoiding`
    under `coarsen`.  A triangle across clusters is never rainbow, and
    None with three or more colors proves a rainbow triangle inside the
    mask (Gallai's theorem; both proved at `find_gallai_partition`).
    """
    for i, (_, adj_a) in enumerate(classes):
        for _, adj_b in classes[i + 1 :]:
            comps = components_avoiding(adj_a, adj_b, mask)
            if len(comps) >= 2:
                clusters = coarsen(adj_a, adj_b, mask, comps)
                if len(clusters) >= 2:
                    return clusters
    return None


def rainbow_free(classes: Classes, masks: Iterable[int]) -> bool:
    """True iff no mask of ``masks`` spans a rainbow triangle, decided by
    `gallai_split` over a worklist: a mask with at most two colors is
    done, a split one is replaced by its clusters, and one that does not
    split has a rainbow triangle.  ``classes`` holds at least every color
    used inside the masks."""
    work = [(m, classes) for m in masks]
    while work:
        mask, classes = work.pop()
        classes = classes_within(classes, mask)
        if len(classes) < 3:
            continue
        split = gallai_split(classes, mask)
        if split is None:
            return False
        work.extend((m, classes) for m in split)
    return True


# -- through-edge checks on (u, v) in its color's rows `adj` ----------------
# None reads the bit of (u, v) itself, so the edge may still be open.
# They run on every search probe, so they walk masks with inline
# ``x & -x`` loops instead of the `bits` generator.


def path3_through(adj: Rows, u: int, v: int) -> bool:
    return bool(adj[u] & ~(1 << v) or adj[v] & ~(1 << u))


def cycle4_through(adj: Rows, u: int, v: int) -> bool:
    nu = adj[u] & ~(1 << v)
    rest = adj[v] & ~(1 << u)
    while rest:  # a 4-cycle u-v-a-x-u
        b = rest & -rest
        if adj[b.bit_length() - 1] & nu:
            return True
        rest ^= b
    return False


def wheel4_through(adj: Rows, u: int, v: int) -> bool:
    nu = adj[u] & ~(1 << v)
    nv = adj[v] & ~(1 << u)
    both = nu & nv
    if not both:  # every copy through (u, v) has a vertex seeing both
        return False
    if both & (both - 1):
        # u as hub: rim v-a-x-b-v with a < b in `both` and x in N(u) - v;
        # v as hub the same with x in N(v) - u.  So a hub copy needs two
        # vertices in `both`, and one pass over a < b serves both hubs
        hubs = nu | nv
        rest = both
        while rest:
            ba = rest & -rest
            rest ^= ba  # now the rim candidates above a
            opp = adj[ba.bit_length() - 1] & hubs
            if opp:
                later = rest
                while later:
                    bb = later & -later
                    if opp & adj[bb.bit_length() - 1]:
                        return True
                    later ^= bb
    # (u, v) as a rim edge: hub h in `both`, rim u-v-w-x-u with w, x in
    # N(h); a row has no bit of its own vertex, so N(h) leaves h out
    while both:
        bh = both & -both
        both ^= bh
        ring = adj[bh.bit_length() - 1]
        ws = nv & ring
        if ws:
            tail = nu & ring
            while ws:
                bw = ws & -ws
                if adj[bw.bit_length() - 1] & tail:
                    return True
                ws ^= bw
    return False


def through_check(pattern):
    """The check ``chk(adj, u, v)``: does the edge (u, v) complete a copy of
    the `PatternSpec` ``pattern`` in the color whose rows are ``adj``?  The
    kernel above for its kind, a clique in the common neighborhood, or else
    `embed` along a `plan` per pattern edge put on (u, v), both ways round."""
    kind, order = pattern.kind, pattern.order
    if kind == "path3":
        return path3_through
    if kind == "cycle4":
        return cycle4_through
    if kind == "wheel" and order == 5:
        return wheel4_through
    if kind == "clique":
        need = order - 2

        def chk(adj: Rows, u: int, v: int) -> bool:
            return clique_within(adj, adj[u] & adj[v], need) is not None

        return chk

    plans = [
        (a0, a1, plan(order, pattern.edges, (a0, a1))[2:])
        for p, q in pattern.edges
        for a0, a1 in ((p, q), (q, p))
    ]

    def chk(adj: Rows, u: int, v: int) -> bool:
        host = [-1] * order
        used = (1 << u) | (1 << v)
        for a0, a1, slots in plans:
            host[a0], host[a1] = u, v
            if embed(adj, slots, host, used, ~used):
                return True
        return False

    return chk
