"""Reading and writing colorings: text rows and a JSON mirror.

Text format (extension ``.grc``)::

    # free-form comments start with '#'
    n k
    <n-1 colors>      row for vertex 0: edges (0,1) .. (0,n-1)
    <n-2 colors>      row for vertex 1: edges (1,2) .. (1,n-1)
    ...
    <1 color>         row for vertex n-2: edge (n-2, n-1)
    # digest: <sha256 of the payload>
    # provenance: <one-line JSON>

The ``digest:`` and ``provenance:`` comments are structured: they are
parsed back, so documents round-trip losslessly.  The JSON mirror
carries the same payload as explicit ``[u, v, color]`` triples.

Any malformed input raises :class:`FormatError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .coloring import EdgeColoring, _color_text, canonical_digest, edge_index
from .errors import _Record

__all__ = [
    "FORMAT_VERSION",
    "FormatError",
    "ColoringDocument",
    "render_text",
    "parse_text",
    "render_json",
    "parse_json",
    "read_document",
    "write_document",
]

FORMAT_VERSION = 1

# what json.loads raises on bad input: JSONDecodeError is a ValueError, as
# is an integer literal over the int-to-str digit limit; deep nesting
# raises RecursionError
_JSON_ERRORS = (ValueError, RecursionError)

# the only characters that separate .grc tokens
_BLANKS = " \t"
# ASCII digit -> its value, the inverse of coloring._DIGITS
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


class FormatError(ValueError):
    """Input that does not satisfy the documented file format."""


def _reads_back(value: Any) -> bool:
    # whether json.loads(json.dumps(value)) == value.  json.dumps refuses a
    # set or another object (TypeError), a cycle and an int past the
    # int-to-str digit limit (ValueError), and deep nesting (RecursionError).
    # Each NaN reads back as a new float: json.loads' one shared NaN object
    # would pass the identity check that list and dict == make first
    try:
        return json.loads(json.dumps(value), parse_constant=float) == value
    except (TypeError, ValueError, RecursionError):
        return False


def _loads(text: str) -> tuple[Any, bool]:
    # json.loads(text), and whether it met a NaN: a value json.loads built
    # reads back unless it holds a NaN, so without one _reads_back is not
    # needed
    nan = []

    def constant(name: str) -> float:
        if name == "NaN":
            nan.append(name)
        return float(name)

    return json.loads(text, parse_constant=constant), bool(nan)


class ColoringDocument(_Record):
    """A coloring plus optional integrity digest and provenance record.

    ``provenance`` is a JSON object (a construction trace or a search
    task reference) that reads back unchanged.  When ``digest`` is set it
    must match the payload.  The constructor enforces both.
    """

    __slots__ = ("coloring", "digest", "provenance", "version")

    def __init__(
        self,
        coloring: EdgeColoring,
        digest: Optional[str] = None,
        provenance: Optional[dict[str, Any]] = None,
        version: int = FORMAT_VERSION,
    ):
        # what the readers reject: True == 1 and 1.0 == 1, but neither is
        # version 1, and provenance is written as a JSON object
        if type(version) is not int or version != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {version!r}")
        if provenance is not None:
            if not isinstance(provenance, dict):
                raise FormatError("provenance must be an object")
            if not _reads_back(provenance):
                raise FormatError("provenance does not read back unchanged from JSON")
        if digest is not None and digest != canonical_digest(coloring):
            raise FormatError("digest does not match payload")
        super().__init__(coloring, digest, provenance, version)

    @classmethod
    def sealed(
        cls, coloring: EdgeColoring, provenance: Optional[dict[str, Any]] = None
    ) -> "ColoringDocument":
        """Document with the digest filled in."""
        return cls(coloring, canonical_digest(coloring), provenance)


def _loaded(coloring, digest, provenance, version, walk: bool) -> ColoringDocument:
    # a reader's document.  A dict that _loads built without meeting a NaN
    # reads back unchanged, so it is stored after the other checks without
    # the _reads_back round trip
    if walk or not isinstance(provenance, dict):
        return ColoringDocument(coloring, digest, provenance, version)
    doc = ColoringDocument(coloring, digest, None, version)
    object.__setattr__(doc, "provenance", provenance)
    return doc


def render_text(doc: ColoringDocument) -> str:
    c = doc.coloring
    parts = [f"# gallai coloring v{doc.version}\n{c.n} {c.k}\n", _color_text(c, "\n")]
    if doc.digest is not None:
        parts.append(f"# digest: {doc.digest}\n")
    if doc.provenance is not None:
        blob = json.dumps(doc.provenance, sort_keys=True, separators=(",", ":"))
        parts.append(f"# provenance: {blob}\n")
    return "".join(parts)


def _digit_tokens(line: str, lineno: int) -> tuple[list[str], str]:
    # ASCII digits separated by spaces and tabs: int() alone also takes a
    # sign, "_" and the digits of other scripts, and str.split() also
    # splits on the other Unicode spaces, which the count below catches.
    # One test per line keeps parsing cheap
    tokens = line.split()
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        bad = next(t for t in tokens if not (t.isascii() and t.isdigit()))
        raise FormatError(f"line {lineno}: {bad!r} is not an integer")
    if len(line) - len(joined) != line.count(" ") + line.count("\t"):
        raise FormatError(f"line {lineno}: tokens must be separated by spaces or tabs")
    return tokens, joined


def _ints(tokens: list[str], lineno: int) -> list[int]:
    # the values of the digit tokens read from one line, one int() per
    # distinct token; int() raises ValueError past the interpreter's limit
    # on digits (4,300 by default, leading zeros included), so the longest
    # token is one it refused
    distinct = set(tokens)
    try:
        value = {t: int(t) for t in distinct}
    except ValueError as exc:
        bad = max(distinct, key=len)
        raise FormatError(f"line {lineno}: {len(bad)}-digit integer is too long") from exc
    return list(map(value.__getitem__, tokens))


def parse_text(text: str) -> ColoringDocument:
    digest: Optional[str] = None
    provenance: Optional[dict[str, Any]] = None
    walk = False  # whether the provenance must be walked: it held a NaN
    data_lines: list[tuple[int, str]] = []
    # a line ends at "\n" only, after at most one "\r"; spaces and tabs
    # are the only blanks, so any other character fails a test below
    lines = text.split("\n")
    if "\r" in text:
        lines = [raw[:-1] if raw.endswith("\r") else raw for raw in lines]
    for lineno, raw in enumerate(lines, start=1):
        data = raw.strip(_BLANKS)
        if data.startswith("#"):
            body = data[1:].strip(_BLANKS)
            if body.startswith("digest:"):
                if digest is not None:
                    raise FormatError(f"line {lineno}: duplicate digest comment")
                digest = body[len("digest:") :].strip(_BLANKS)
            elif body.startswith("provenance:"):
                if provenance is not None:
                    raise FormatError(f"line {lineno}: duplicate provenance comment")
                blob = body[len("provenance:") :].strip(_BLANKS)
                try:
                    provenance, walk = _loads(blob)
                except _JSON_ERRORS as exc:
                    raise FormatError(f"line {lineno}: bad provenance JSON") from exc
                if not isinstance(provenance, dict):
                    raise FormatError(f"line {lineno}: provenance must be an object")
            continue
        if "#" in data:
            data = data.split("#", 1)[0].rstrip(_BLANKS)
        if data:
            data_lines.append((lineno, data))
    if not data_lines:
        raise FormatError("no header line")
    head_no, head = data_lines[0]
    dims, _ = _digit_tokens(head, head_no)
    if len(dims) != 2:
        raise FormatError(f"line {head_no}: header must be 'n k'")
    n, k = _ints(dims, head_no)
    if n < 1 or k < 1:
        raise FormatError(f"line {head_no}: need n >= 1 and k >= 1, got {n} {k}")
    rows = data_lines[1:]
    if len(rows) != n - 1:
        raise FormatError(f"expected {n - 1} rows of colors, found {len(rows)}")
    # each row's digits, joined, while every token is one digit
    pieces: Optional[list[str]] = []
    for u, (lineno, line) in enumerate(rows):
        # one digit, one space, ...: the row render_text writes for k <= 9,
        # whose digits are its even characters.  Any other row is split
        digits, seps = line[::2], line[1::2]
        if seps.count(" ") == len(seps) and digits.isascii() and digits.isdigit():
            count = len(digits)
        else:
            tokens, digits = _digit_tokens(line, lineno)
            count = len(tokens)
            if len(digits) != count:
                pieces = None  # a multi-digit token: the rows are read below
        if count != n - 1 - u:
            raise FormatError(
                f"line {lineno}: row {u} must list {n - 1 - u} colors, got {count}"
            )
        if pieces is not None:
            pieces.append(digits)
    if pieces is not None:
        # each token is one digit, as render_text writes for k <= 9, and
        # the colours are those digits as bytes
        colors = "".join(pieces).encode("ascii").translate(_DIGIT_VALUES)
    else:
        # a row at a time into the store EdgeColoring keeps, bytes for
        # k < 256.  A colour past 255 is past k there: the rest goes to a
        # list, and the constructor names the first bad edge
        store: Union[bytearray, list[int]] = bytearray() if k < 256 else []
        for lineno, line in rows:
            values = _ints(line.split(), lineno)
            try:
                store.extend(values)
            except ValueError:
                store = [*store, *values]
        colors = bytes(store) if type(store) is bytearray else store
    del lines, data_lines, rows, pieces  # free the text's rows before the digest check
    try:
        coloring = EdgeColoring(n, k, colors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return _loaded(coloring, digest, provenance, FORMAT_VERSION, walk)


def render_json(doc: ColoringDocument) -> dict[str, Any]:
    return {
        "format": "gallai-coloring",
        "version": doc.version,
        **_write_payload(doc.coloring),
        "digest": doc.digest,
        "provenance": doc.provenance,
    }


def parse_json(data: Union[str, dict[str, Any]]) -> ColoringDocument:
    walk = True  # a dict from the caller; in a text, only a NaN forces it
    if isinstance(data, str):
        try:
            data, walk = _loads(data)
        except _JSON_ERRORS as exc:
            raise FormatError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top-level JSON value must be an object")
    if data.get("format") != "gallai-coloring":
        raise FormatError("missing or wrong 'format' tag")
    coloring = _read_payload(data)
    provenance, version = data.get("provenance"), data.get("version")
    return _loaded(coloring, data.get("digest"), provenance, version, walk)


def _write_payload(c: EdgeColoring) -> dict[str, Any]:
    # the {"n", "k", "edges"} payload, also nested in traces and partitions
    return {"n": c.n, "k": c.k, "edges": [[u, v, col] for u, v, col in c.edges()]}


def _read_payload(data: dict[str, Any]) -> EdgeColoring:
    try:
        n, k, edges = data["n"], data["k"], data["edges"]
    except KeyError as exc:
        raise FormatError(f"malformed payload: missing {exc}") from exc
    # exact ints only: json gives floats, bools and strings their own types
    if type(n) is not int or type(k) is not int:
        raise FormatError(f"'n' and 'k' must be integers, got {n!r} {k!r}")
    if n < 1 or k < 1:
        raise FormatError(f"need n >= 1 and k >= 1, got {n} {k}")
    if not isinstance(edges, list):
        raise FormatError("'edges' must be a list")
    # check the count before allocating anything sized by the header
    m = n * (n - 1) // 2
    if len(edges) != m:
        raise FormatError(f"expected {m} edges for n={n}, got {len(edges)}")
    # None marks an edge not yet listed; the colors themselves are checked
    # by EdgeColoring, which also rejects a None left by a null color
    colors: list[Any] = [None] * m
    for item in edges:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise FormatError(f"bad edge entry {item!r}")
        u, v, col = item
        if type(u) is not int or type(v) is not int:
            raise FormatError(f"bad edge entry {item!r}")
        if not (0 <= u < v < n):
            raise FormatError(f"edge ({u},{v}) out of range or misordered")
        idx = edge_index(n, u, v)
        if colors[idx] is not None:
            raise FormatError(f"edge ({u},{v}) listed twice")
        colors[idx] = col
    try:
        return EdgeColoring(n, k, colors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _pick_format(path: Union[str, Path], fmt: Optional[str]) -> str:
    if fmt is not None:
        if fmt not in ("grc", "json"):
            raise FormatError(f"unknown format {fmt!r}")
        return fmt
    return "json" if str(path).endswith(".json") else "grc"


def read_document(path: Union[str, Path], fmt: Optional[str] = None) -> ColoringDocument:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:  # a non-ASCII byte
        raise FormatError(str(exc)) from exc
    if _pick_format(path, fmt) == "json":
        return parse_json(text)
    return parse_text(text)


def write_document(
    path: Union[str, Path], doc: ColoringDocument, fmt: Optional[str] = None
) -> None:
    if _pick_format(path, fmt) == "json":
        payload = json.dumps(render_json(doc), indent=2, sort_keys=True) + "\n"
    else:
        payload = render_text(doc)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(payload)
