"""Construction traces: reproducible recipes for built colorings.

A trace records how a coloring was assembled from a base witness by
joins and blow-ups, enough to audit size and color bookkeeping without
rebuilding the object.  Traces serialize to plain JSON dicts.
"""

from __future__ import annotations

from typing import Any

from .coloring import EdgeColoring
from .errors import _Record, exact_int
from .formats import _read_payload, _write_payload

__all__ = [
    "BaseTrace",
    "JoinTrace",
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


class JoinTrace(_Record):
    """Two subconstructions joined with a fresh cross color."""

    __slots__ = ("left", "right", "fresh_color", "size", "colors")
    left: ConstructionTrace
    right: ConstructionTrace
    fresh_color: int
    size: int
    colors: tuple[int, ...]


class BlowupTrace(_Record):
    """Children substituted into the vertices of a small quotient coloring."""

    __slots__ = ("quotient", "children", "size", "colors")
    quotient: EdgeColoring
    children: tuple[ConstructionTrace, ...]
    size: int
    colors: tuple[int, ...]


ConstructionTrace = BaseTrace | JoinTrace | BlowupTrace


def validate_trace(trace: ConstructionTrace) -> None:
    """Check size and color arithmetic of a trace tree; raise ValueError.

    Join sizes must add up and the fresh color must be new to both
    operands.  Blow-up children must match the quotient vertex count,
    and the quotient may use at most two colors, which keeps the result
    free of rainbow triangles whenever the children are.
    """
    if isinstance(trace, BaseTrace):
        if trace.size < 1:
            raise ValueError(f"base {trace.label!r} has size {trace.size}")
        return
    if isinstance(trace, JoinTrace):
        validate_trace(trace.left)
        validate_trace(trace.right)
        want = trace.left.size + trace.right.size
        if trace.size != want:
            raise ValueError(f"join size {trace.size} != {want}")
        below = set(trace.left.colors) | set(trace.right.colors)
        if trace.fresh_color in below:
            raise ValueError(f"join color {trace.fresh_color} is not fresh")
        if set(trace.colors) != below | {trace.fresh_color}:
            raise ValueError("join color set does not match operands plus fresh color")
        return
    if isinstance(trace, BlowupTrace):
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
        if set(trace.colors) != below | cross:
            raise ValueError("blow-up color set does not match children plus quotient")
        return
    raise ValueError(f"not a construction trace: {trace!r}")


def trace_to_json(trace: ConstructionTrace) -> dict[str, Any]:
    if isinstance(trace, BaseTrace):
        return {
            "op": "base",
            "label": trace.label,
            "digest": trace.digest,
            "size": trace.size,
            "colors": list(trace.colors),
        }
    if isinstance(trace, JoinTrace):
        return {
            "op": "join",
            "left": trace_to_json(trace.left),
            "right": trace_to_json(trace.right),
            "fresh_color": trace.fresh_color,
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
        if op == "join":
            return JoinTrace(
                left=trace_from_json(data["left"]),
                right=trace_from_json(data["right"]),
                fresh_color=exact_int(data["fresh_color"], "fresh_color"),
                size=size,
                colors=colors,
            )
        return BlowupTrace(
            quotient=_read_payload(data["quotient"]),
            children=tuple(trace_from_json(ch) for ch in data["children"]),
            size=size,
            colors=colors,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace JSON: {exc}") from exc
    except RecursionError as exc:  # a tree nested past the interpreter's limit
        raise ValueError("malformed trace JSON: nested too deeply") from exc
