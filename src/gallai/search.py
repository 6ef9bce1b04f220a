"""Backtracking search for edge colorings avoiding forbidden structures.

A :class:`SearchTask` asks for a coloring of K_n with k colors that
contains none of the listed monochromatic patterns (each either in one
specific color or in every color) and, optionally, no rainbow triangle.
`search_witness` either produces such a coloring, proves none exists,
or gives up at a node budget.

Design notes, fixed for reproducibility:

* Edges are assigned in column order (0,1), (0,2), (1,2), (0,3), ...,
  one new vertex at a time, so early decisions close triangles early
  and conflicts surface near the root.  This is the one edge order of
  the engine: `PartialColoring` stores the color of (u, v), u < v, at
  position v(v-1)/2 + u, the step at which it is assigned.  The witness
  is put in the row-major order of `EdgeColoring` once, at the end.
* A "node" is one attempted color assignment, counted against both the
  per-restart budget and the task's ``node_limit``; the budget is tested
  only when an untried color is left, so a tree of exactly
  ``node_limit`` nodes still ends ``exhausted``.
* Pattern conflicts are detected incrementally: only copies through the
  newly colored edge are checked, by the kernels of :mod:`gallai.kernels`:
  per color, one callable over the checks `through_check` picks for the
  kinds of the patterns forbidden there.  None of them reads the edge's
  own bit, so the forward check probes the later edges of the column
  while they are open.  Every probe that runs goes through
  `PartialColoring.conflict`, which checks patterns only.
* The forward check keeps, per color c, a domain over the edges (j, v)
  of the open column: the bitmask of the j for which (j, v) colored c
  completes no forbidden structure.  The loop opens column v on its
  first arrival at (0, v) going forward, and only there.  After a move
  (u, v) = c only color c's rows have changed, so each later (j, v) is
  probed in c alone, and only while c is in its domain; the rainbow
  constraint sees one new triangle (j, u, v), which narrows the domain
  of (j, v) to {c, color(u, j)} when those differ, with no probe.  A
  move that leaves a later edge without a color is pruned, and the
  probes stop at the first such edge.
* The domains are the engine's only rainbow rule.  Take a triangle
  (j, w, v) with j < w < v: its edge (w, v) is colored last, and the
  move that colors (j, v), after (j, w), narrows the domain of (w, v)
  to the colors that leave the triangle non-rainbow.  So an edge's
  domain alone decides whether its own color closes a rainbow triangle,
  and no probe needs the rainbow test.
* Two rules skip probes whose answer is known to be False, each from a
  property of the patterns forbidden in the probed color c.  A probe is
  of (j, w) at the opening of column w, where w has no edge yet, or of
  a later (j, v) after a move (u, v) = c while c is still in its
  domain, so that it completed nothing before the move.

  - Rule A: let every pattern forbidden in c have minimum degree at
    least d.  A copy through (j, w) gives w at least d edges in c, one
    of them (j, w) itself, so a probe of (j, w) in c can fire only when
    w has d - 1 neighbors in c.  At a column's opening w has none, so
    only the colors with d = 1 are probed (p3, K2, explicit patterns
    with a leaf); after a move into v, no color c is probed while v has
    fewer than d - 1 neighbors in it (d = 3 for every wheel and K4).
  - Rule B: let every pattern forbidden in c have each edge in a
    triangle (K_t for t >= 3, every wheel).  After a move (u, v) = c,
    a later (j, v) whose domain still holds c had no copy through it
    before the move, so a new copy uses (u, v), and the copy's triangle
    on (u, v) has a third vertex w.  Either w = j, and (u, j) is colored
    c, or w is a common neighbor of u and v in c.  So when u and v have
    no common neighbor in c, only the j adjacent to u in c are probed.

  A color with no pattern forbidden in it has both properties.  A
  skipped probe would have returned False, so the domains, and the node
  and prune counts, are those of probing every color of every later
  edge after each move.  A color outside its own edge's domain is still
  a counted node and a prune, decided without a probe.
* The walk is one loop over an explicit stack (colors tried, the
  largest color allowed and the column's domains per position); it
  never recurses.  It writes each move straight into the
  `PartialColoring`'s lists (the color and two row bits in that color).
  A move is held, pruned or not, until the loop comes back to its
  position, to try the next color or to backtrack past it, and is
  taken back there, in one place.  The domains are one list per
  position, copied on each move, so backtracking drops them.
* ``colorSwap`` symmetry allows a new color only when all smaller ones
  already occur (first edge gets color 1, and so on): ``tops[pos]``,
  the largest color the edge at ``pos`` may take, is set once per move,
  one above the move's color when that color was new, and is k
  throughout without the symmetry.  It is rejected for color-scoped
  forbidden patterns, which color relabeling would not preserve.
  ``vertexOrder`` adds a canonical-form prune on vertex transpositions,
  checked each time a column completes.
* Restarts follow a doubling node budget; restart 0 tries colors in
  ascending order, later restarts permute the per-depth color order
  with a stream seeded by (seed, restart).  Each restart starts from a
  fresh `PartialColoring`.  A restart that exhausts the tree proves
  unsatisfiability regardless of its order.

Outcomes are deterministic functions of the task (the seed is part of
it).  Witnesses are re-validated with the detectors from
:mod:`gallai.detect` before being returned; the search kernel is not
trusted for the final answer.
"""

from __future__ import annotations

import random
import time
from itertools import count
from typing import Any, Callable, Optional

from .coloring import EdgeColoring
from .detect import find_mono, find_rainbow_triangle
from .errors import _Record, exact_int
from .kernels import through_check
from .patterns import PatternSpec

__all__ = [
    "DEFAULT_NODE_LIMIT",
    "SearchTask",
    "SearchStats",
    "SearchOutcome",
    "UnavoidableOutcome",
    "PartialColoring",
    "search_witness",
    "verify_unavoidable",
]

DEFAULT_NODE_LIMIT = 20_000_000
_RESTART_BASE = 250_000

_SYMMETRIES = ("none", "colorSwap", "vertexOrder")


class SearchTask(_Record):
    """What to search for.  Immutable and JSON-serializable.

    ``forbidden`` lists (pattern, color) pairs; color None means the
    pattern is forbidden in every color.  ``seed`` only influences the
    color try-order of restarts, never the meaning of the outcome.
    Fields are type-checked, never coerced.
    """

    __slots__ = (
        "n",
        "k",
        "forbidden",
        "forbid_rainbow_triangle",
        "symmetry",
        "node_limit",
        "seed",
    )

    def __init__(
        self,
        n: int,
        k: int,
        forbidden: tuple[tuple[PatternSpec, Optional[int]], ...] = (),
        forbid_rainbow_triangle: bool = False,
        symmetry: str = "colorSwap",
        node_limit: int = DEFAULT_NODE_LIMIT,
        seed: int = 0,
    ):
        exact_int(n, "n")
        exact_int(k, "k")
        exact_int(node_limit, "node_limit")
        exact_int(seed, "seed")
        if type(forbid_rainbow_triangle) is not bool:
            raise ValueError("forbid_rainbow_triangle must be a bool")
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if k < 1:
            raise ValueError(f"palette must have at least one color, got k={k}")
        if node_limit < 1:
            raise ValueError(f"node limit must be positive, got {node_limit}")
        if symmetry not in _SYMMETRIES:
            raise ValueError(f"symmetry must be one of {_SYMMETRIES}")
        norm = []
        for pattern, scope in forbidden:
            if not isinstance(pattern, PatternSpec):
                raise ValueError(f"not a pattern: {pattern!r}")
            if scope is not None:
                if not 1 <= exact_int(scope, "pattern color") <= k:
                    raise ValueError(f"pattern color {scope} outside 1..{k}")
                if symmetry != "none":
                    raise ValueError(
                        "color-scoped patterns need symmetry='none'; color "
                        "relabeling does not preserve them"
                    )
            norm.append((pattern, scope))
        super().__init__(
            n, k, tuple(norm), forbid_rainbow_triangle, symmetry, node_limit, seed
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "k": self.k,
            "forbidden": [
                {"pattern": pat.to_json(), "color": scope}
                for pat, scope in self.forbidden
            ],
            "forbid_rainbow_triangle": self.forbid_rainbow_triangle,
            "symmetry": self.symmetry,
            "node_limit": self.node_limit,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SearchTask":
        try:
            forbidden = tuple(
                (PatternSpec.from_json(item["pattern"]), item.get("color"))
                for item in data.get("forbidden", ())
            )
            # a key left out takes its default from __init__, which refuses a null
            optional = ("forbid_rainbow_triangle", "symmetry", "node_limit", "seed")
            given = {key: data[key] for key in optional if key in data}
            return cls(data["n"], data["k"], forbidden, **given)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed task JSON: {exc}") from exc


class SearchStats(_Record):
    """Node accounting.  ``nodes`` counts attempted color assignments;
    ``prunes`` the attempts rejected, by cause: the edge's own color
    completes a forbidden structure (``prunes_conflict``), a later edge
    of the column is left without a color (``prunes_lookahead``), or the
    completed column is not in canonical form (``prunes_canonical``).
    All are deterministic per task; ``elapsed`` (seconds) is not."""

    __slots__ = (
        "nodes",
        "prunes_conflict",
        "prunes_lookahead",
        "prunes_canonical",
        "restarts",
        "elapsed",
    )
    nodes: int
    prunes_conflict: int
    prunes_lookahead: int
    prunes_canonical: int
    restarts: int
    elapsed: float

    @property
    def prunes(self) -> int:
        return self.prunes_conflict + self.prunes_lookahead + self.prunes_canonical


class SearchOutcome(_Record):
    """What `search_witness` found, and the effort it took."""

    __slots__ = ("status", "witness", "stats")
    status: str  # "witness" | "exhausted" | "limit_reached"
    witness: Optional[EdgeColoring]
    stats: SearchStats


class UnavoidableOutcome(_Record):
    """What `verify_unavoidable` concluded, and the search effort behind it."""

    __slots__ = ("status", "counterexample", "stats")
    status: str  # "confirmed" | "counterexample" | "too_large"
    counterexample: Optional[EdgeColoring]
    stats: SearchStats


class PartialColoring:
    """Mutable assignment state over a task; the engine's working object.

    Color 0 means unassigned.  Tracks per-color neighbor bitmasks, which
    is all the pattern kernels need; the rainbow rule is kept by the
    search's column domains, not here.  Only `search_witness` writes the
    lists, unchecked; ``masks`` and `conflict` are what others may read.
    """

    __slots__ = ("k", "colors", "masks", "_through", "_need", "_triangular")

    def __init__(self, task: SearchTask):
        self.k = task.k
        self.colors = [0] * (task.n * (task.n - 1) // 2)
        self.masks = [[0] * task.n for _ in range(task.k + 1)]
        # per color c: _through[c] checks every pattern forbidden in c; a
        # probe of (j, w) in c can fire only when w has _need[c] neighbors
        # in c (rule A), and bit c of _triangular is set when each of those
        # patterns has each edge in a triangle (rule B).  With no pattern
        # forbidden in c both hold, since no probe in c can fire
        checks = [(scope, through_check(p), *_shape(p)) for p, scope in task.forbidden]
        self._through, self._need, self._triangular = [], [], 0
        for c in range(task.k + 1):
            mine = [(chk, low, tri) for sc, chk, low, tri in checks if sc in (None, c)]
            self._through.append(_any_check([chk for chk, _, _ in mine]))
            self._need.append(min((low - 1 for _, low, _ in mine), default=task.n))
            self._triangular |= all(tri for _, _, tri in mine) << c

    def conflict(self, u: int, v: int, color: int) -> bool:
        """Does the edge (u, v), colored ``color``, complete a forbidden
        monochromatic pattern?  Only copies through it count; it may be
        open.  Rainbow triangles are not checked here."""
        return self._through[color](self.masks[color], u, v)


def _shape(pattern: PatternSpec) -> tuple[int, bool]:
    # the pattern's minimum degree, and whether each edge is in a triangle
    nbrs = [0] * pattern.order
    for a, b in pattern.edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    return (
        min(x.bit_count() for x in nbrs),
        all(nbrs[a] & nbrs[b] for a, b in pattern.edges),
    )


def _any_check(checks: list) -> Callable[[list[int], int, int], bool]:
    # one callable for a color's through-edge checks; none is never a copy
    if len(checks) == 1:
        return checks[0]

    def chk(adj: list[int], u: int, v: int) -> bool:
        for one in checks:
            if one(adj, u, v):
                return True
        return False

    return chk


def _canonical_ok(pc: PartialColoring, order, vv: int) -> bool:
    # completed column vv: prefix covers K_{vv+1}; prune if swapping
    # labels (j, vv) and re-canonicalizing colors gives a smaller prefix.
    # colors[pos] is the edge order[pos]
    prefix_len = (vv + 1) * vv // 2
    colors = pc.colors
    for j in range(vv):
        relabel = [0] * (pc.k + 1)
        next_id = 1
        for pos in range(prefix_len):  # stop on the first difference
            a, b = order[pos]
            a2 = vv if a == j else (j if a == vv else a)
            b2 = vv if b == j else (j if b == vv else b)
            if a2 > b2:
                a2, b2 = b2, a2
            col = colors[b2 * (b2 - 1) // 2 + a2]
            rc = relabel[col]
            if rc == 0:
                rc = relabel[col] = next_id
                next_id += 1
            cur = colors[pos]
            if rc != cur:
                if rc < cur:
                    return False
                break
    return True


def _column_domains(conflict, need: list[int], w: int) -> list[int]:
    # each color's domain over the (j, w) before column w has an edge: w has
    # no neighbor yet, so by rule A only a color with need 0 is probed
    every = (1 << w) - 1
    return [0] + [
        every if need[c] else sum(1 << j for j in range(w) if not conflict(j, w, c))
        for c in range(1, len(need))
    ]


def search_witness(task: SearchTask) -> SearchOutcome:
    """Run the backtracking engine on ``task``.

    Returns a witness (re-validated with the detectors), a proof of
    exhaustion, or ``limit_reached`` once ``node_limit`` assignment
    attempts are spent.  Single-threaded and deterministic.

    The forward check keeps the edges of the open column that can still
    take each color, as one bitmask per color; a color outside its edge's
    domain is still a counted node and a prune, decided without a
    kernel call.
    """
    t_start = time.perf_counter()
    n, k = task.n, task.k
    m = n * (n - 1) // 2
    order = [(u, v) for v in range(1, n) for u in range(v)]  # edge at pc.colors[pos]
    colorswap = task.symmetry in ("colorSwap", "vertexOrder")
    vertexorder = task.symmetry == "vertexOrder"
    rainbow = task.forbid_rainbow_triangle
    limit = task.node_limit

    nodes = 0
    prunes_conflict = prunes_lookahead = prunes_canonical = 0
    base_order = list(range(1, k + 1))
    color_orders: list[list[int]] = [base_order] * m

    for restart in count():
        if restart:
            rng = random.Random(f"{task.seed}:{restart}")
            color_orders = [rng.sample(base_order, k) for _ in range(m)]
        stop_at = min(limit, nodes + (_RESTART_BASE << restart))
        pc = PartialColoring(task)
        conflict, need, triangular = pc.conflict, pc._need, pc._triangular
        edge_colors, masks = pc.colors, pc.masks
        tried = [0] * m  # colors of color_orders[pos] tried at pos
        tops = [1 if colorswap else k] * (m + 1)  # largest color allowed at pos
        # domains[pos][c]: bit j set iff (j, v) colored c completes no
        # forbidden structure, given the edges before pos; (u, v) = order[pos]
        domains: list[list[int]] = [[]] * m
        pos = 0
        while 0 <= pos < m:
            u, v = order[pos]
            bu, bv = 1 << u, 1 << v
            c = edge_colors[pos]
            if c:  # back at a held move: take it back
                row = masks[c]
                edge_colors[pos] = 0
                row[u] ^= bv
                row[v] ^= bu
            i = tried[pos]
            if i == 0 and u == 0:  # first arrival at (0, v): open column v
                domains[pos] = _column_domains(conflict, need, v)
            colors = color_orders[pos]
            top = tops[pos]
            while i < k and colors[i] > top:
                i += 1
            if i == k:  # every color tried: back to the previous edge
                tried[pos] = 0
                pos -= 1
                continue
            if nodes >= stop_at:
                break
            c = colors[i]
            tried[pos] = i + 1
            nodes += 1
            dom = domains[pos]
            if not dom[c] >> u & 1:
                prunes_conflict += 1
                continue
            row = masks[c]
            edge_colors[pos] = c
            row[u] |= bv
            row[v] |= bu
            if u + 1 < v:
                # forward check: every later edge into v must keep an
                # option.  Only color c's rows changed, so the patterns
                # need probing in c alone, and by rules A and B only at
                # the j of fire; the new triangle (j, u, v) narrows (j, v)
                # to {c, color(u, j)} for rainbow
                nxt = dom[:]
                later = bv - (bu << 1)  # u < j < v: the later edges (j, v)
                free = 0  # the later j with a color other than c left
                for y in base_order:
                    if y != c:
                        if rainbow:
                            nxt[y] &= masks[y][u] | row[u] | ~later
                        free |= nxt[y]
                empty = later & ~(free | nxt[c])
                fire = -1  # the j where a probe in c can fire
                if row[v].bit_count() < need[c]:  # rule A
                    fire = 0
                elif triangular >> c & 1 and not row[u] & row[v]:  # rule B
                    fire = row[u]
                todo = fire & nxt[c] & later & ((empty & -empty) - 1)
                while todo:  # up to the first j left without a color
                    b = todo & -todo
                    todo ^= b
                    if conflict(b.bit_length() - 1, v, c):
                        nxt[c] ^= b
                        if not free & b:
                            empty = b
                            break
                if empty:  # pruned; the move is taken back on return
                    prunes_lookahead += 1
                    continue
                domains[pos + 1] = nxt
            elif vertexorder and not _canonical_ok(pc, order, v):
                prunes_canonical += 1
                continue
            tops[pos + 1] = top + 1 if c == top < k else top
            pos += 1
        if pos == m or pos < 0 or nodes >= limit:
            break

    elapsed = time.perf_counter() - t_start
    stats = SearchStats(
        nodes, prunes_conflict, prunes_lookahead, prunes_canonical, restart, elapsed
    )
    if pos == m:
        # the positions of the edges in row-major order, that of EdgeColoring
        at = [v * (v - 1) // 2 + u for u in range(n) for v in range(u + 1, n)]
        witness = EdgeColoring(n, k, [pc.colors[i] for i in at])
        _revalidate(task, witness)
        return SearchOutcome("witness", witness, stats)
    if pos < 0:
        return SearchOutcome("exhausted", None, stats)
    return SearchOutcome("limit_reached", None, stats)


def _revalidate(task: SearchTask, witness: EdgeColoring) -> None:
    # the detectors, not the search kernel, get the last word
    if task.forbid_rainbow_triangle and find_rainbow_triangle(witness) is not None:
        raise RuntimeError("engine returned a coloring with a rainbow triangle")
    for pattern, scope in task.forbidden:
        hit = find_mono(witness, pattern, scope)
        if hit is not None:
            raise RuntimeError(
                f"engine returned a coloring containing {pattern.label} "
                f"at {hit.vertex_map} in color {hit.color}"
            )


def verify_unavoidable(
    n: int, k: int, pattern: PatternSpec, cap: int = DEFAULT_NODE_LIMIT
) -> UnavoidableOutcome:
    """Decide whether every k-coloring of K_n contains a monochromatic
    ``pattern``, by exhaustive search for a pattern-free coloring.

    ``cap`` bounds the number of search nodes; hitting it yields
    ``too_large`` rather than an answer.
    """
    task = SearchTask(n=n, k=k, forbidden=((pattern, None),), node_limit=cap)
    out = search_witness(task)
    if out.status == "witness":
        return UnavoidableOutcome("counterexample", out.witness, out.stats)
    if out.status == "exhausted":
        return UnavoidableOutcome("confirmed", None, out.stats)
    return UnavoidableOutcome("too_large", None, out.stats)
