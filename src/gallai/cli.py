"""Command line interface.

Exit codes, uniform across subcommands: 0 for success (checks pass, a
witness exists), 1 for a definite negative (violation found, search
space exhausted), 2 for malformed input or failed validation, 3 for a
resource limit reached before an answer.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .coloring import canonical_digest
from .construct import build_lower_bound_witness, load_base14, random_gallai
from .detect import find_mono, find_rainbow_triangle
from .formats import (
    ColoringDocument,
    _json_text,
    _write_text,
    read_document,
    render_json,
    render_text,
    write_document,
)
from .patterns import PatternSpec
from .search import _SYMMETRIES, DEFAULT_NODE_LIMIT, SearchTask, search_witness
from .structure import find_gallai_partition, peel_apex_sequence
from .trace import trace_to_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def integer(text: str) -> int:
    """An integer in ASCII digits with an optional leading ``-``; `int`
    alone also takes ``+``, ``_``, spaces and the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _read_json(path: str):
    # json.loads raises RecursionError, a RuntimeError, on deep nesting;
    # main reports RuntimeError as an engine fault, so it becomes bad input
    text = Path(path).read_text(encoding="ascii")
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"bad JSON in {path}: {exc}") from exc


def parse_pattern(token: str) -> PatternSpec:
    """Pattern names accepted on the command line.

    ``w4``, ``p3``, ``c4``, ``k3``, ``kt:N``, ``wheel:M``, or
    ``explicit:FILE`` where FILE is JSON {"order": int, "edges": [[u, v], ...]}.
    """
    # spaces and tabs only, the .grc blanks: str.strip() would also drop
    # Unicode spaces and the separators \x1c-\x1f
    t = token.strip(" \t")
    if t == "w4":
        return PatternSpec.wheel(4)
    if t == "p3":
        return PatternSpec.path3()
    if t == "c4":
        return PatternSpec.cycle4()
    if t == "k3":
        return PatternSpec.clique(3)
    if t.startswith("kt:"):
        return PatternSpec.clique(integer(t[3:]))
    if t.startswith("wheel:"):
        return PatternSpec.wheel(integer(t[6:]))
    if t.startswith("explicit:"):
        raw = _read_json(t[len("explicit:") :])
        if not isinstance(raw, dict):
            raise ValueError("explicit pattern file must hold a JSON object")
        return PatternSpec.from_json({**raw, "kind": "explicit"})
    raise ValueError(f"unknown pattern {token!r}")


def _emit(doc: ColoringDocument, out: Optional[str], fmt: Optional[str]) -> None:
    if out:
        write_document(out, doc, fmt)
    elif (fmt or "grc") == "json":
        sys.stdout.write(_json_text(render_json(doc)))
    else:
        sys.stdout.write(render_text(doc))


def _print_json(obj) -> None:
    sys.stdout.write(_json_text(obj))


def cmd_construct(args) -> int:
    if args.base:
        base = read_document(args.base).coloring
        label = args.label or Path(args.base).name
    else:
        base = load_base14()
        label = args.label or "base14"
    coloring, trace = build_lower_bound_witness(
        args.k, base, rim=args.rim, base_label=label
    )
    trace_json = trace_to_json(trace)
    provenance = {"kind": "construction", "rim": args.rim, "trace": trace_json}
    doc = ColoringDocument.sealed(coloring, provenance=provenance)
    _emit(doc, args.out, args.format)
    if args.out:
        print(f"n={coloring.n} k={coloring.k} digest={doc.digest}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.color is not None and not args.pattern:
        raise ValueError("--color needs --pattern")
    # every argument is read before any check runs
    pattern = parse_pattern(args.pattern) if args.pattern else None
    doc = read_document(args.input, args.format)
    c = doc.coloring
    if args.color is not None and not 1 <= args.color <= c.k:
        raise ValueError(f"--color {args.color} is outside the palette 1..{c.k}")
    used = c.colors_used()
    if len(used) < c.k:
        print(
            f"note: declares k={c.k} but uses {len(used)} colors",
            file=sys.stderr,
        )
    checks = []
    if args.gallai:
        hit = find_rainbow_triangle(c)
        if hit is not None:
            _print_json({"ok": False, "check": "rainbow", "violation": hit.to_json()})
            return EXIT_VIOLATION
        checks.append({"check": "rainbow", "ok": True})
    if pattern is not None:
        hit = find_mono(c, pattern, args.color)
        if hit is not None:
            _print_json(
                {
                    "ok": False,
                    "check": "mono",
                    "pattern": pattern.label,
                    "violation": hit.to_json(),
                }
            )
            return EXIT_VIOLATION
        checks.append(
            {"check": "mono", "pattern": pattern.label, "color": args.color, "ok": True}
        )
    if not checks:
        raise ValueError("nothing to verify: give --pattern and/or --gallai")
    _print_json({"ok": True, "n": c.n, "k": c.k, "checks": checks})
    return EXIT_OK


def cmd_partition(args) -> int:
    doc = read_document(args.input, args.format)
    part = find_gallai_partition(doc.coloring)
    payload = _json_text(part.to_json())
    if args.out:
        _write_text(args.out, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_peel(args) -> int:
    doc = read_document(args.input, args.format)
    seq = peel_apex_sequence(doc.coloring)
    _print_json(seq.to_json())
    return EXIT_OK


def _task_from_args(args) -> SearchTask:
    if args.task:
        return SearchTask.from_json(_read_json(args.task))
    if args.n is None or args.k is None:
        raise ValueError("search needs --task or both --n and --k")
    forbidden = []
    for token in args.pattern or ():
        if "@" in token:
            name, _, col = token.rpartition("@")
            forbidden.append((parse_pattern(name), integer(col)))
        else:
            forbidden.append((parse_pattern(token), None))
    return SearchTask(
        n=args.n,
        k=args.k,
        forbidden=tuple(forbidden),
        forbid_rainbow_triangle=args.forbid_rainbow,
        symmetry=args.symmetry,
        node_limit=args.node_limit,
        seed=args.seed,
    )


def cmd_search(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    task = _task_from_args(args)
    outcome = search_witness(task)
    stats = outcome.stats
    report = {
        **{name: getattr(stats, name) for name in stats.__slots__},
        "status": outcome.status,
        "prunes": stats.prunes,
        "elapsed": round(stats.elapsed, 6),
        "witness_digest": None,
    }
    if outcome.witness is not None:
        report["witness_digest"] = canonical_digest(outcome.witness)
        if args.out:
            doc = ColoringDocument.sealed(
                outcome.witness,
                provenance={"kind": "search", "task": task.to_json()},
            )
            write_document(args.out, doc, args.format)
    _print_json(report)
    if outcome.status == "witness":
        return EXIT_OK
    if outcome.status == "exhausted":
        return EXIT_VIOLATION
    return EXIT_LIMIT


def cmd_random(args) -> int:
    c = random_gallai(args.n, args.k, args.seed)
    doc = ColoringDocument.sealed(
        c, provenance={"kind": "random", "n": args.n, "k": args.k, "seed": args.seed}
    )
    _emit(doc, args.out, args.format)
    return EXIT_OK


def cmd_convert(args) -> int:
    doc = read_document(args.input, args.in_format)
    _emit(doc, args.out, args.format)
    return EXIT_OK


def cmd_digest(args) -> int:
    doc = read_document(args.input, args.format)
    print(canonical_digest(doc.coloring))
    return EXIT_OK


# one parser per process, built by the first call and not at import:
# building it costs about 30 times what parsing a command line does
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gallai",
        description="Edge colorings of complete graphs: build lower-bound "
        "witnesses, verify properties, partition, and search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build a recursive lower-bound witness")
    sp.add_argument("--k", type=integer, required=True, help="number of colors (>= 2)")
    sp.add_argument("--base", help="base 2-coloring file (default: bundled base14)")
    sp.add_argument("--rim", type=integer, default=4, help="even wheel rim length")
    sp.add_argument("--label", help="label for the base in the trace")
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="check a coloring against properties")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--pattern", help="monochromatic pattern to reject (e.g. w4)")
    sp.add_argument("--color", type=integer, help="restrict the pattern to one color")
    sp.add_argument(
        "--gallai", action="store_true", help="also reject rainbow triangles"
    )
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("partition", help="find a Gallai partition")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", help="output JSON file (default: stdout)")
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("peel", help="peel apex vertices greedily")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_peel)

    sp = sub.add_parser("search", help="search for a constraint-satisfying coloring")
    sp.add_argument("--task", help="task JSON file (overrides the flags below)")
    sp.add_argument("--n", type=integer)
    sp.add_argument("--k", type=integer)
    sp.add_argument(
        "--pattern",
        action="append",
        help="forbid a monochromatic pattern, e.g. w4 or k3@2 (repeatable)",
    )
    sp.add_argument("--forbid-rainbow", action="store_true")
    sp.add_argument("--symmetry", choices=_SYMMETRIES, default="colorSwap")
    sp.add_argument("--node-limit", type=integer, default=DEFAULT_NODE_LIMIT)
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument(
        "--threads",
        type=integer,
        default=1,
        help="accepted for compatibility; the engine is single-threaded and "
        "results do not depend on this value",
    )
    sp.add_argument("--out", help="write the witness coloring here if found")
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("random", help="sample a rainbow-triangle-free coloring")
    sp.add_argument("--n", type=integer, required=True)
    sp.add_argument("--k", type=integer, required=True)
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_random)

    sp = sub.add_parser("convert", help="convert between the text and JSON formats")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--in-format", choices=("grc", "json"))
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("digest", help="print the canonical digest of a coloring")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--format", choices=("grc", "json"))
    sp.set_defaults(func=cmd_digest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # FormatError and json.JSONDecodeError are caught here as ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
