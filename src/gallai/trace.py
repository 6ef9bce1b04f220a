"""Construction traces: reproducible recipes for built colorings.

A trace records how a coloring was assembled from a base witness by
blow-ups, enough to audit size and color bookkeeping without
rebuilding the object.  A join is the blow-up of a two-vertex
quotient, so a trace has one composition node and one fresh-color
rule.  Traces serialize to plain JSON dicts; the ``join`` nodes that
earlier builds wrote still read, as two-part blow-ups.
"""

from __future__ import annotations

from typing import Any

from .coloring import EdgeColoring
from .errors import _Record, exact_int
from .formats import _read_payload, _write_payload

__all__ = [
    "BaseTrace",
    "BlowupTrace",
    "ConstructionTrace",
    "validate_trace",
    "trace_to_json",
    "trace_from_json",
]


class BaseTrace(_Record):
    """A leaf: a concrete coloring identified by its digest."""

    __slots__ = ("label", "digest", "size", "colors")
    label: str
    digest: str
    size: int
    colors: tuple[int, ...]


class BlowupTrace(_Record):
    """Children substituted into the vertices of a small quotient coloring."""

    __slots__ = ("quotient", "children", "size", "colors")
    quotient: EdgeColoring
    children: tuple[ConstructionTrace, ...]
    size: int
    colors: tuple[int, ...]


ConstructionTrace = BaseTrace | BlowupTrace


def validate_trace(trace: ConstructionTrace) -> None:
    """Check size and color arithmetic of a trace tree; raise ValueError.

    A blow-up needs one child per quotient vertex and sizes that add up.
    Its quotient may use at most two colors, which keeps the result free
    of rainbow triangles whenever the children are, and none of them may
    occur in a child, which keeps every old color inside one block.  A
    join is the blow-up of a two-vertex quotient in its fresh color.
    """
    if isinstance(trace, BaseTrace):
        if trace.size < 1:
            raise ValueError(f"base {trace.label!r} has size {trace.size}")
        return
    if not isinstance(trace, BlowupTrace):
        raise ValueError(f"not a construction trace: {trace!r}")
    if len(trace.children) != trace.quotient.n:
        raise ValueError(
            f"quotient on {trace.quotient.n} vertices but "
            f"{len(trace.children)} children"
        )
    cross = trace.quotient.colors_used()
    if len(cross) > 2:
        raise ValueError(f"quotient uses {len(cross)} colors, at most 2 allowed")
    below = set()
    want = 0
    for child in trace.children:
        validate_trace(child)
        below |= set(child.colors)
        want += child.size
    if trace.size != want:
        raise ValueError(f"blow-up size {trace.size} != {want}")
    if cross & below:
        raise ValueError(f"quotient colors {sorted(cross & below)} occur in a child")
    if set(trace.colors) != below | cross:
        raise ValueError("blow-up color set does not match children plus quotient")


def trace_to_json(trace: ConstructionTrace) -> dict[str, Any]:
    if isinstance(trace, BaseTrace):
        return {
            "op": "base",
            "label": trace.label,
            "digest": trace.digest,
            "size": trace.size,
            "colors": list(trace.colors),
        }
    if isinstance(trace, BlowupTrace):
        return {
            "op": "blowup",
            "quotient": _write_payload(trace.quotient),
            "children": [trace_to_json(child) for child in trace.children],
            "size": trace.size,
            "colors": list(trace.colors),
        }
    raise ValueError(f"not a construction trace: {trace!r}")


def _text(value: object, name: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def trace_from_json(data: dict[str, Any]) -> ConstructionTrace:
    try:
        op = data["op"]
        if op not in ("base", "join", "blowup"):
            raise ValueError(f"unknown trace op {op!r}")
        size = exact_int(data["size"], "size")
        colors = tuple(exact_int(c, "color") for c in data["colors"])
        if op == "base":
            return BaseTrace(
                label=_text(data["label"], "label"),
                digest=_text(data["digest"], "digest"),
                size=size,
                colors=colors,
            )
        if op == "join":  # as earlier builds wrote a two-part blow-up
            fresh = exact_int(data["fresh_color"], "fresh_color")
            quotient = EdgeColoring(2, fresh, (fresh,))
            children = (trace_from_json(data["left"]), trace_from_json(data["right"]))
        else:
            quotient = _read_payload(data["quotient"])
            children = tuple(trace_from_json(ch) for ch in data["children"])
        return BlowupTrace(quotient, children, size, colors)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace JSON: {exc}") from exc
    except RecursionError as exc:  # a tree nested past the interpreter's limit
        raise ValueError("malformed trace JSON: nested too deeply") from exc
