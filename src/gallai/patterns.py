"""Target subgraph patterns and embedding certificates.

A :class:`PatternSpec` names a small graph to look for inside one color
class: wheels, the 3-vertex path, the 4-cycle, cliques, or an explicit
edge list.  An :class:`Embedding` is a checkable certificate that a
pattern occurs at specific host vertices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from .errors import _Record, exact_int
from .kernels import plan

if TYPE_CHECKING:
    from .coloring import EdgeColoring

__all__ = ["PatternSpec", "Embedding"]

_EXPLICIT_MAX = 8


def _edges_of(kind: str, order: int, edges: Iterable[tuple[int, int]] = ()):
    """The sorted edges the classmethod of ``kind`` gives a pattern on
    ``order`` vertices (``edges`` is read for explicit ones only), or
    ValueError when it builds none."""
    order = exact_int(order, "pattern order")
    if kind == "wheel":
        m = order - 1
        if m < 3:
            raise ValueError(f"wheel rim needs at least 3 vertices, got {m}")
        rim = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
        return tuple(sorted(rim + [(i, m) for i in range(m)]))
    if kind == "clique":
        if order < 2:
            raise ValueError(f"clique needs at least 2 vertices, got {order}")
        return tuple((u, v) for u in range(order) for v in range(u + 1, order))
    if (kind, order) == ("path3", 3):
        return ((0, 1), (1, 2))
    if (kind, order) == ("cycle4", 4):
        return ((0, 1), (0, 3), (1, 2), (2, 3))
    if kind != "explicit":
        raise ValueError(f"no {kind!r} pattern on {order} vertices")
    if not 2 <= order <= _EXPLICIT_MAX:
        raise ValueError(f"explicit pattern order must be 2..{_EXPLICIT_MAX}")
    seen = set()
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ValueError(f"pattern edge {edge!r} is not a pair")
        u, v = (exact_int(end, "pattern edge end") for end in edge)
        if u == v:
            raise ValueError(f"pattern edge ({u},{v}) is a loop")
        if u > v:
            u, v = v, u
        if not (0 <= u and v < order):
            raise ValueError(f"pattern edge ({u},{v}) out of range for order {order}")
        if (u, v) in seen:
            raise ValueError(f"duplicate pattern edge ({u},{v})")
        seen.add((u, v))
    if len(plan(order, seen, (0,))) < order:
        raise ValueError("explicit pattern must be connected")
    return tuple(sorted(seen))


class PatternSpec(_Record):
    """A small target graph on vertices 0..order-1.

    ``kind`` is one of ``wheel``, ``path3``, ``cycle4``, ``clique``,
    ``explicit``.  Wheels place the rim on 0..m-1 (in cycle order) and
    the hub on vertex m.  Use the classmethod constructors; they pin
    the vertex conventions the detectors rely on.  The kind alone picks
    the kernels (`kernels.first_copy`, `kernels.through_check`), so the
    constructor accepts exactly what a classmethod builds.
    """

    __slots__ = ("kind", "order", "edges")

    def __init__(self, kind: str, order: int, edges: tuple[tuple[int, int], ...]):
        try:
            want = _edges_of(kind, order, edges)
        except TypeError as exc:
            raise ValueError(f"malformed pattern edges: {exc!r}") from exc
        if want != edges:
            raise ValueError(f"not the edges of {kind!r} on {order} vertices")
        super().__init__(kind, order, edges)

    @classmethod
    def wheel(cls, m: int) -> "PatternSpec":
        """Wheel with an m-vertex rim cycle plus a hub joined to all of it."""
        order = exact_int(m, "wheel rim size") + 1
        return cls("wheel", order, _edges_of("wheel", order))

    @classmethod
    def path3(cls) -> "PatternSpec":
        return cls("path3", 3, _edges_of("path3", 3))

    @classmethod
    def cycle4(cls) -> "PatternSpec":
        return cls("cycle4", 4, _edges_of("cycle4", 4))

    @classmethod
    def clique(cls, t: int) -> "PatternSpec":
        return cls("clique", t, _edges_of("clique", exact_int(t, "clique order")))

    @classmethod
    def explicit(cls, order: int, edges: Iterable[tuple[int, int]]) -> "PatternSpec":
        """Arbitrary connected pattern on at most 8 vertices."""
        return cls("explicit", order, _edges_of("explicit", order, edges))

    @property
    def label(self) -> str:
        if self.kind == "wheel":
            return f"wheel:{self.order - 1}"
        if self.kind == "path3":
            return "p3"
        if self.kind == "cycle4":
            return "c4"
        if self.kind == "clique":
            return f"kt:{self.order}"
        return "explicit"

    def to_json(self) -> dict[str, Any]:
        if self.kind == "wheel":
            return {"kind": "wheel", "m": self.order - 1}
        if self.kind == "clique":
            return {"kind": "clique", "t": self.order}
        if self.kind in ("path3", "cycle4"):
            return {"kind": self.kind}
        return {
            "kind": "explicit",
            "order": self.order,
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "PatternSpec":
        try:
            kind = data.get("kind")
            if kind == "wheel":
                return cls.wheel(data["m"])
            if kind == "clique":
                return cls.clique(data["t"])
            if kind == "path3":
                return cls.path3()
            if kind == "cycle4":
                return cls.cycle4()
            if kind == "explicit":
                return cls.explicit(data["order"], data["edges"])
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed pattern JSON: {exc!r}") from exc
        raise ValueError(f"unknown pattern kind {kind!r}")


class Embedding(_Record):
    """Where a pattern sits in a host coloring.

    ``vertex_map[i]`` is the host vertex playing pattern vertex i.
    ``color`` is the color class containing every pattern edge, or None
    for the rainbow-triangle certificate (pattern K3, three distinct
    edge colors).
    """

    __slots__ = ("pattern", "color", "vertex_map")
    pattern: PatternSpec
    color: Optional[int]
    vertex_map: tuple[int, ...]

    def check(self, c: "EdgeColoring") -> bool:
        """Re-validate against the host from scratch."""
        vm = self.vertex_map
        if len(vm) != self.pattern.order or len(set(vm)) != len(vm):
            return False
        if any(not 0 <= x < c.n for x in vm):
            return False
        if self.color is None:
            if self.pattern.order != 3 or len(self.pattern.edges) != 3:
                return False
            found = {c.color_of(vm[u], vm[v]) for u, v in self.pattern.edges}
            return len(found) == 3
        return all(
            c.color_of(vm[u], vm[v]) == self.color for u, v in self.pattern.edges
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "pattern": self.pattern.to_json(),
            "color": self.color,
            "vertices": list(self.vertex_map),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Embedding":
        try:
            color = data["color"]
            return cls(
                pattern=PatternSpec.from_json(data["pattern"]),
                color=None if color is None else exact_int(color, "color"),
                vertex_map=tuple(exact_int(x, "vertex") for x in data["vertices"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed embedding JSON: {exc!r}") from exc
