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
carries the same payload with the rows as strings, ``"rows": [...]``,
where ``rows[u]`` is the text row for vertex u without its newline, read
by the same row reader.  A JSON document that lists the colours as
``"edges": [[u, v, color], ...]``, as JSON documents were once written,
still reads; a partition's reduced graph and a trace's quotients are
written that way.

Any malformed input raises :class:`FormatError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

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


def _digit_tokens(line: str, where: str) -> tuple[list[str], str]:
    # ASCII digits separated by spaces and tabs: int() alone also takes a
    # sign, "_" and the digits of other scripts, and str.split() also
    # splits on the other Unicode spaces, which the count below catches.
    # One test per line keeps parsing cheap.  A JSON row may be empty
    tokens = line.split()
    joined = "".join(tokens)
    if joined and not (joined.isascii() and joined.isdigit()):
        bad = next(t for t in tokens if not (t.isascii() and t.isdigit()))
        raise FormatError(f"{where}: {bad!r} is not an integer")
    if len(line) - len(joined) != line.count(" ") + line.count("\t"):
        raise FormatError(f"{where}: tokens must be separated by spaces or tabs")
    return tokens, joined


def _ints(tokens: list[str], where: str) -> list[int]:
    # the values of the digit tokens read from one row, one int() per
    # distinct token; int() raises ValueError past the interpreter's limit
    # on digits (4,300 by default, leading zeros included), so the longest
    # token is one it refused
    distinct = set(tokens)
    try:
        value = {t: int(t) for t in distinct}
    except ValueError as exc:
        bad = max(distinct, key=len)
        raise FormatError(f"{where}: {len(bad)}-digit integer is too long") from exc
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
    at = f"line {head_no}"
    dims, _ = _digit_tokens(head, at)
    if len(dims) != 2:
        raise FormatError(f"{at}: header must be 'n k'")
    n, k = _ints(dims, at)
    if n < 1 or k < 1:
        raise FormatError(f"{at}: need n >= 1 and k >= 1, got {n} {k}")
    rows = data_lines[1:]
    colors = _read_rows([line for _, line in rows], n, k, [no for no, _ in rows])
    del lines, data_lines, rows  # free the text's rows before the digest check
    return _loaded(_colored(n, k, colors), digest, provenance, FORMAT_VERSION, walk)


def _read_rows(
    rows: list[str], n: int, k: int, linenos: Optional[list[int]] = None
) -> bytes | list[int]:
    # the colour store of the n - 1 rows of a .grc file or a JSON document,
    # each stripped of its surrounding blanks.  A .grc row is named in
    # messages by its line number, a JSON row (no linenos) by its index
    if len(rows) != n - 1:
        raise FormatError(f"expected {n - 1} rows of colors, found {len(rows)}")

    def where(u: int) -> str:
        return f"row {u}" if linenos is None else f"line {linenos[u]}"

    # each row's digits, joined, while every token is one digit
    pieces: Optional[list[str]] = []
    for u, line in enumerate(rows):
        # one digit, one space, ...: the row render_text writes for k <= 9,
        # whose digits are its even characters.  Any other row is split
        digits, seps = line[::2], line[1::2]
        if seps.count(" ") == len(seps) and digits.isascii() and digits.isdigit():
            count = len(digits)
        else:
            tokens, digits = _digit_tokens(line, where(u))
            count = len(tokens)
            if len(digits) != count:
                pieces = None  # a multi-digit token: the rows are read below
        if count != n - 1 - u:
            head = "" if linenos is None else f"{where(u)}: "
            raise FormatError(f"{head}row {u} must list {n - 1 - u} colors, got {count}")
        if pieces is not None:
            pieces.append(digits)
    if pieces is not None:
        # each token is one digit, as render_text writes for k <= 9, and
        # the colours are those digits as bytes
        return "".join(pieces).encode("ascii").translate(_DIGIT_VALUES)
    # a row at a time into the store EdgeColoring keeps, bytes for
    # k < 256.  A colour past 255 is past k there: the rest goes to a
    # list, and the constructor names the first bad edge
    store: bytearray | list[int] = bytearray() if k < 256 else []
    for u, line in enumerate(rows):
        values = _ints(line.split(), where(u))
        try:
            store.extend(values)
        except ValueError:
            store = [*store, *values]
    return bytes(store) if type(store) is bytearray else store


def _colored(n: int, k: int, colors: Any) -> EdgeColoring:
    # a bad colour is named by EdgeColoring's ValueError
    try:
        return EdgeColoring(n, k, colors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def render_json(doc: ColoringDocument) -> dict[str, Any]:
    c = doc.coloring
    return {
        "format": "gallai-coloring",
        "version": doc.version,
        "n": c.n,
        "k": c.k,
        # row u is the .grc row u without its newline
        "rows": _color_text(c, "\n").split("\n")[:-1],
        "digest": doc.digest,
        "provenance": doc.provenance,
    }


def parse_json(data: str | dict[str, Any]) -> ColoringDocument:
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
    # the colours are the .grc rows, or an edge list as written before
    if ("rows" in data) == ("edges" in data):
        raise FormatError("need exactly one of 'rows' and 'edges'")
    if "edges" in data:
        coloring = _read_payload(data)
    else:
        n, k = _dims(data)
        coloring = _colored(n, k, _read_rows(_json_rows(data["rows"]), n, k))
    provenance, version = data.get("provenance"), data.get("version")
    return _loaded(coloring, data.get("digest"), provenance, version, walk)


def _json_rows(rows: Any) -> list[str]:
    # a JSON document's rows, stripped of their blanks as .grc rows are.
    # The row reader passes only digits, spaces and tabs, so a line break
    # or a '#', which a .grc file would read as a comment, is refused
    if not isinstance(rows, list):
        raise FormatError("'rows' must be a list of strings")
    try:
        return [str.strip(row, _BLANKS) for row in rows]
    except TypeError:
        u = next(u for u, row in enumerate(rows) if not isinstance(row, str))
        raise FormatError(f"row {u}: {rows[u]!r} is not a string") from None


def _write_payload(c: EdgeColoring) -> dict[str, Any]:
    # the {"n", "k", "edges"} payload nested in traces and partitions
    return {"n": c.n, "k": c.k, "edges": [[u, v, col] for u, v, col in c.edges()]}


def _dims(data: dict[str, Any]) -> tuple[int, int]:
    # a payload's n and k, exact ints: json gives floats, bools and
    # strings their own types
    try:
        n, k = data["n"], data["k"]
    except KeyError as exc:
        raise FormatError(f"malformed payload: missing {exc}") from exc
    if type(n) is not int or type(k) is not int:
        raise FormatError(f"'n' and 'k' must be integers, got {n!r} {k!r}")
    if n < 1 or k < 1:
        raise FormatError(f"need n >= 1 and k >= 1, got {n} {k}")
    return n, k


def _read_payload(data: dict[str, Any]) -> EdgeColoring:
    # an {"n", "k", "edges"} payload: a trace's quotient, or the colours of
    # a JSON document written before documents carried rows
    n, k = _dims(data)
    edges = data.get("edges")
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
    return _colored(n, k, colors)


def _json_text(obj: Any) -> str:
    # how every JSON file and JSON report of the package is written
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _pick_format(path: str | Path, fmt: Optional[str]) -> str:
    if fmt is not None:
        if fmt not in ("grc", "json"):
            raise FormatError(f"unknown format {fmt!r}")
        return fmt
    return "json" if str(path).endswith(".json") else "grc"


def read_document(path: str | Path, fmt: Optional[str] = None) -> ColoringDocument:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:  # a non-ASCII byte
        raise FormatError(str(exc)) from exc
    if _pick_format(path, fmt) == "json":
        return parse_json(text)
    return parse_text(text)


def write_document(
    path: str | Path, doc: ColoringDocument, fmt: Optional[str] = None
) -> None:
    if _pick_format(path, fmt) == "json":
        payload = _json_text(render_json(doc))
    else:
        payload = render_text(doc)
    _write_text(path, payload)


def _write_text(path: str | Path, text: str) -> None:
    # how every file of the package is written: ASCII, with "\n" line ends
    # on every platform, where Path.write_text would translate them
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
