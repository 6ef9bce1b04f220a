"""Spans around calls into gallai's layers, for the benchmark's traced passes.

A traced pass replaces the public functions listed in `WRAPPED` with
wrappers that record one span per call: ``[name, start, end, parent,
item]``.  ``parent`` is the index of the enclosing span (-1 at the top)
and ``item`` the workload item being processed.  Spans stay in memory;
the benchmark writes the last traced pass's spans out when it ends.
``PartialColoring.conflict`` is called about a million times per search
pass, so it is only counted, never spanned.

Functions are wrapped as bound in the module that calls them, because
each gallai module imports its collaborators by name.  Entries on a
defining module (``gallai.detect``, ``gallai.structure``, ...) catch
the benchmark's own calls and calls made inside that module.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name)
WRAPPED = (
    ("gallai.cli", "main", "cli.main"),
    ("gallai.cli", "build_lower_bound_witness", "construct.build"),
    ("gallai.cli", "load_base14", "construct.load_base14"),
    ("gallai.cli", "random_gallai", "construct.random"),
    ("gallai.cli", "find_mono", "detect.mono"),
    ("gallai.cli", "find_rainbow_triangle", "detect.rainbow"),
    ("gallai.cli", "find_gallai_partition", "structure.partition"),
    ("gallai.cli", "peel_apex_sequence", "structure.peel"),
    ("gallai.cli", "search_witness", "search.search_witness"),
    ("gallai.cli", "trace_to_json", "trace.to_json"),
    ("gallai.cli", "canonical_digest", "coloring.digest"),
    ("gallai.cli", "read_document", "formats.read_document"),
    ("gallai.cli", "write_document", "formats.write_document"),
    ("gallai.cli", "render_json", "formats.render_json"),
    ("gallai.cli", "render_text", "formats.render_text"),
    ("gallai.construct", "join", "coloring.compose"),
    ("gallai.construct", "substitute", "coloring.compose"),
    ("gallai.construct", "recolor", "coloring.compose"),
    ("gallai.construct", "canonical_digest", "coloring.digest"),
    ("gallai.construct", "find_mono", "detect.mono"),
    ("gallai.construct", "random_gallai", "construct.random"),
    ("gallai.formats", "parse_text", "formats.parse_text"),
    ("gallai.formats", "parse_json", "formats.parse_json"),
    ("gallai.formats", "render_text", "formats.render_text"),
    ("gallai.formats", "render_json", "formats.render_json"),
    ("gallai.formats", "canonical_digest", "coloring.digest"),
    ("gallai.detect", "find_mono", "detect.mono"),
    ("gallai.detect", "find_rainbow_triangle", "detect.rainbow"),
    ("gallai.structure", "find_rainbow_triangle", "detect.rainbow"),
    ("gallai.structure", "find_gallai_partition", "structure.partition"),
    ("gallai.structure", "verify_gallai_partition", "structure.verify_partition"),
    ("gallai.structure", "peel_apex_sequence", "structure.peel"),
    ("gallai.search", "search_witness", "search.search_witness"),
    ("gallai.search", "find_mono", "detect.mono"),
    ("gallai.search", "find_rainbow_triangle", "detect.rainbow"),
)

# Counters that must repeat exactly between passes and runs on the same inputs.
DETERMINISTIC = (
    "cli.calls",
    "coloring.compose_calls",
    "detect.mono_calls",
    "detect.mono_hits",
    "detect.rainbow_calls",
    "formats.bytes_parsed",
    "search.conflict_calls",
    "search.nodes",
    "search.prunes",
    "search.restarts",
    "structure.partition_parts",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            label = name
            if name == "detect.mono":
                pattern = args[1] if len(args) > 1 else kwargs["pattern"]
                label = f"{name}:{pattern.label}"
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "detect.mono" and result is not None:
                counts["detect.mono_hits"] += 1
            elif name == "structure.partition":
                counts["structure.partition_parts"] += result.p
            elif name in ("formats.parse_text", "formats.parse_json"):
                if isinstance(args[0], str):
                    counts["formats.bytes_parsed"] += len(args[0])
            elif name == "search.search_witness":
                counts["search.nodes"] += result.stats.nodes
                counts["search.prunes"] += result.stats.prunes
                counts["search.restarts"] += result.stats.restarts
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass; every time is a self time
        (span duration minus the time covered by its child spans)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        precheck = revalidate = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent_name == "structure.partition" and name == "detect.rainbow":
                precheck += end - start
            elif parent_name == "search.search_witness":
                revalidate += end - start
        mono = [name for name in calls if name.startswith("detect.mono:")]
        mono_calls = sum(calls[name] for name in mono)
        c = self.counts
        busy = self_s["search.search_witness"]
        return {
            "detect.mono_s": sum(self_s[name] for name in mono),
            "detect.mono_w4_s": self_s["detect.mono:wheel:4"],
            "detect.mono_calls": mono_calls,
            "detect.mono_hits": c["detect.mono_hits"],
            "detect.mono_hit_ratio": _ratio(c["detect.mono_hits"], mono_calls),
            "detect.rainbow_s": self_s["detect.rainbow"],
            "detect.rainbow_calls": calls["detect.rainbow"],
            "structure.partition_self_s": self_s["structure.partition"],
            "structure.partition_precheck_s": precheck,
            "structure.partition_parts": c["structure.partition_parts"],
            "structure.verify_partition_s": self_s["structure.verify_partition"],
            "structure.peel_s": self_s["structure.peel"],
            "formats.parse_text_s": self_s["formats.parse_text"],
            "formats.render_text_s": self_s["formats.render_text"],
            "formats.parse_json_s": self_s["formats.parse_json"],
            "formats.render_json_s": self_s["formats.render_json"],
            "formats.bytes_parsed": c["formats.bytes_parsed"],
            "coloring.compose_s": self_s["coloring.compose"],
            "coloring.compose_calls": calls["coloring.compose"],
            "coloring.digest_s": self_s["coloring.digest"],
            "construct.build_s": self_s["construct.build"]
            + self_s["construct.load_base14"],
            "construct.random_s": self_s["construct.random"],
            "trace.to_json_s": self_s["trace.to_json"],
            "cli.self_s": self_s["cli.main"],
            "cli.calls": calls["cli.main"],
            "search.busy_s": busy,
            "search.nodes": c["search.nodes"],
            "search.prunes": c["search.prunes"],
            "search.restarts": c["search.restarts"],
            "search.prune_ratio": _ratio(c["search.prunes"], c["search.nodes"]),
            "search.nodes_per_s": _ratio(c["search.nodes"], busy),
            "search.conflict_calls": c["search.conflict_calls"],
            "search.conflict_calls_per_node": _ratio(
                c["search.conflict_calls"], c["search.nodes"]
            ),
            "search.revalidate_s": revalidate,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in `WRAPPED` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        partial = sys.modules["gallai.search"].PartialColoring
        conflict = partial.conflict
        saved.append((partial, "conflict", conflict))

        def counted_conflict(self, u, v, color):
            tracer.counts["search.conflict_calls"] += 1
            return conflict(self, u, v, color)

        partial.conflict = counted_conflict
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
