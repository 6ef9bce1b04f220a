import copy
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gallai import (
    ColoringDocument,
    EdgeColoring,
    FormatError,
    build_lower_bound_witness,
    canonical_digest,
    parse_json,
    parse_text,
    pentagon_coloring,
    read_document,
    render_json,
    render_text,
    write_document,
)
from gallai import cli
from gallai import formats as formats_module
from gallai.trace import trace_to_json

PENTAGON_EDGES = [list(edge) for edge in pentagon_coloring().edges()]


def edge_list(doc):
    # the JSON document in the spelling written before documents carried
    # .grc rows: one [u, v, colour] list per edge
    payload = render_json(doc)
    del payload["rows"]
    payload["edges"] = [list(edge) for edge in doc.coloring.edges()]
    return payload


def first_edge_as(entry):
    return [entry] + PENTAGON_EDGES[1:]


def round_trip_text(doc):
    return parse_text(render_text(doc))


def round_trip_json(doc):
    return parse_json(render_json(doc))


def test_pentagon_text_round_trip(pentagon):
    doc = ColoringDocument.sealed(pentagon, provenance={"kind": "handmade"})
    back = round_trip_text(doc)
    assert back.coloring == pentagon
    assert back.digest == canonical_digest(pentagon)
    assert back.provenance == {"kind": "handmade"}


def test_base14_both_formats(base14):
    doc = ColoringDocument.sealed(base14)
    assert round_trip_text(doc).coloring == base14
    assert round_trip_json(doc).coloring == base14


def test_text_layout_is_stable(pentagon):
    text = render_text(ColoringDocument(pentagon))
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "5 2"
    assert lines[2] == "1 2 2 1"
    assert lines[3] == "1 2 2"
    assert lines[4] == "1 2"
    assert lines[5] == "1"


def test_single_vertex_has_no_rows():
    doc = ColoringDocument.sealed(EdgeColoring(1, 1, []))
    assert round_trip_text(doc).coloring.n == 1
    assert round_trip_json(doc).coloring.n == 1


def test_fuzz_round_trips_both_formats():
    rng = random.Random(2024)
    for trial in range(1000):
        n = rng.randint(1, 12)
        k = rng.randint(1, 5)
        c = oracles.arbitrary_coloring(n, k, seed=rng.randint(0, 10**9))
        prov = {"kind": "fuzz", "trial": trial} if trial % 3 == 0 else None
        doc = ColoringDocument.sealed(c, provenance=prov)
        for back in (round_trip_text(doc), round_trip_json(doc)):
            assert back.coloring == c
            assert back.digest == doc.digest
            assert back.provenance == prov


def test_crlf_lines_and_tabs_accepted():
    doc = parse_text("3 2\n1 2\n1\n")
    for text in (
        "3 2\r\n1 2\r\n1\r\n",
        "3\t2\n\t1 \t 2  \n1\t# tail\r\n",
        "# note\r\n3 2\n1 2\n1",
    ):
        assert parse_text(text) == doc


def test_wide_palettes_and_loose_rows_round_trip():
    # k >= 10 writes multi-digit colours; the reader takes leading zeros
    # and any run of spaces and tabs between tokens
    rng = random.Random(10)
    for n, k in ((2, 10), (3, 12), (9, 300)):
        c = oracles.arbitrary_coloring(n, k, seed=rng.randint(0, 10**9))
        doc = ColoringDocument.sealed(c, provenance={"k": k})
        assert round_trip_text(doc) == doc
        lines = render_text(doc).split("\n")
        for i in range(1, n + 1):  # the header and the rows
            lines[i] = "\t0" + lines[i].replace(" ", " \t  0") + " "
        assert parse_text("\n".join(lines)) == doc
    doc = parse_text("3 12\n01 \t 12\n0010\n")
    assert doc.coloring.edge_colors == (1, 12, 10)
    assert render_text(doc) == "# gallai coloring v1\n3 12\n1 12\n10\n"


def test_both_row_readers_agree():
    # rows of one-digit tokens become the colours' bytes in one pass; any
    # other token (a leading zero, a colour of 10 or more) goes through the
    # per-token table.  Either way the coloring holds one store: bytes for
    # k < 256, a tuple of ints above that
    rng = random.Random(13)
    low = oracles.arbitrary_coloring(12, 6, seed=1)
    wide_low = EdgeColoring(12, 12, [rng.randint(1, 9) for _ in range(66)])
    wide = EdgeColoring(12, 12, [rng.randint(1, 12) for _ in range(66)])
    past_byte_low = EdgeColoring(12, 300, [rng.randint(1, 9) for _ in range(66)])
    past_byte = EdgeColoring(12, 300, [rng.randint(1, 300) for _ in range(66)])
    canonical = render_text(ColoringDocument(low))
    loose = canonical.replace(" ", "  \t ")
    first = canonical.split("\n")[2].split(" ")[0]
    zero = canonical.replace(f"\n{first} ", f"\n0{first} ", 1)
    for text, c in (
        (canonical, low),
        (loose, low),
        (zero, low),
        (render_text(ColoringDocument(wide_low)), wide_low),
        (render_text(ColoringDocument(wide)), wide),
        (render_text(ColoringDocument(past_byte_low)), past_byte_low),
        (render_text(ColoringDocument(past_byte)), past_byte),
    ):
        got = parse_text(text).coloring
        assert type(got._colors) is (bytes if c.k < 256 else tuple)
        assert got == c and got.edge_colors == c.edge_colors
        assert canonical_digest(got) == canonical_digest(c)
        doc = parse_text(text + f"# digest: {canonical_digest(c)}\n")
        assert render_text(doc) == render_text(ColoringDocument.sealed(c))
    # a colour out of range is named the same way by either reader
    for text, edge, color, k in (
        ("3 2\n1 0\n1\n", "(0,2)", 0, 2),
        ("3 2\n1 00\n1\n", "(0,2)", 0, 2),
        ("3 2\n1 2\n3\n", "(1,2)", 3, 2),
        ("3 2\n1 2\n03\n", "(1,2)", 3, 2),
        ("3 12\n1 2\n0\n", "(1,2)", 0, 12),
        ("3 12\n1 13\n0\n", "(0,2)", 13, 12),
    ):
        with pytest.raises(FormatError) as exc:
            parse_text(text)
        assert str(exc.value) == f"edge {edge} has color {color}, not in 1..{k}"


def test_multi_digit_rows_are_read_one_row_at_a_time(monkeypatch):
    # a document with a colour of 10 or more is converted row by row into
    # one store, with no list of the whole file's tokens or ints
    calls = []
    real = formats_module._ints
    monkeypatch.setattr(
        formats_module, "_ints", lambda tokens, no: calls.append(tokens) or real(tokens, no)
    )
    rng = random.Random(23)
    for n, k in ((20, 10), (20, 12), (20, 300)):
        c = EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])
        text = render_text(ColoringDocument(c))
        calls.clear()
        got = parse_text(text).coloring
        assert got == c and canonical_digest(got) == canonical_digest(c)
        assert type(got._colors) is (bytes if k < 256 else tuple)
        rows = text.split("\n")[2:-1]
        assert calls == [[str(n), str(k)]] + [row.split() for row in rows]


def test_multi_digit_rows_keep_their_messages():
    # the messages of the whole-file reader: the first bad edge in
    # row-major order, a row count before any colour, the too-long token
    long = "1" * 5000
    for text, message in (
        ("4 12\n10 11 12\n1 2\n0\n", "edge (2,3) has color 0, not in 1..12"),
        ("4 12\n10 11 12\n1 256\n3\n", "edge (1,3) has color 256, not in 1..12"),
        ("4 12\n10 0 12\n1 2\n13\n", "edge (0,2) has color 0, not in 1..12"),
        ("4 12\n10 0 12\n1 2\n256\n", "edge (0,2) has color 0, not in 1..12"),
        ("4 300\n10 11 301\n1 2\n0\n", "edge (0,3) has color 301, not in 1..300"),
        ("5 12\n10 11 12 1\n0 1 2\n1 2\n1 1\n", "line 5: row 3 must list 1 colors, got 2"),
        ("5 12\n10 11 12 1\n300 1 2\n1 2\n1 1\n", "line 5: row 3 must list 1 colors, got 2"),
        (f"3 12\n10 {long}\n1\n", "line 2: 5000-digit integer is too long"),
        (f"4 12\n10 300 1\n1 {long}\n1\n", "line 3: 5000-digit integer is too long"),
    ):
        with pytest.raises(FormatError) as exc:
            parse_text(text)
        assert str(exc.value) == message


def test_integers_past_the_digit_limit_are_format_errors():
    # int() refuses strings of more than 4,300 digits with a ValueError;
    # leading zeros count
    long = "1" * 5000
    for text, line in (
        (f"2 1\n{long}\n", 2),
        (f"{long} 1\n", 1),
        (f"2 {long}\n1\n", 1),
        ("# note\n3 2\n1 " + "0" * 4400 + "1\n1\n", 3),
    ):
        with pytest.raises(FormatError, match=f"^line {line}: .* too long"):
            parse_text(text)


def test_read_document_non_ascii_is_a_format_error(tmp_path):
    path = tmp_path / "bad.grc"
    path.write_bytes("# caf\u00e9\n3 2\n1 2\n1\n".encode("utf-8"))
    with pytest.raises(FormatError):
        read_document(path)


def test_comments_and_blank_lines_tolerated():
    ok = "# note\n\n3 2\n# between\n1 2   # inline tail dropped\n\n1\n"
    doc = parse_text(ok)
    assert doc.coloring.n == 3
    assert doc.coloring.color_of(0, 2) == 2
    assert doc.digest is None and doc.provenance is None


def test_one_digit_rows_read_like_loose_rows(monkeypatch):
    # a row of one digit, one space, ... is read without splitting it into
    # tokens; the same rows with tabs and runs of spaces are split, and
    # both give the same document and the same messages
    split = []
    real = formats_module._digit_tokens
    monkeypatch.setattr(
        formats_module, "_digit_tokens", lambda line, no: split.append(no) or real(line, no)
    )
    rng = random.Random(17)
    for n, k in ((2, 1), (3, 2), (8, 5), (30, 9)):
        c = oracles.arbitrary_coloring(n, k, rng.randint(0, 99))
        doc = ColoringDocument.sealed(c)
        text = render_text(doc)
        lines = text.split("\n")
        for i in range(2, n + 1):  # the rows
            lines[i] = lines[i].replace(" ", rng.choice(("  ", "\t", " \t ")))
        split.clear()
        assert parse_text(text) == doc
        assert split == ["line 2"]  # the header only
        split.clear()
        assert parse_text("\n".join(lines)) == doc
        assert len(split) == n - 1  # the header and the n - 2 rows of two or more
    for one, loose, message in (
        ("3 2\n1 2 1\n1\n", "3 2\n1  2\t1\n1\n", "row 0 must list 2 colors, got 3"),
        ("3 2\n1\n1\n", "3 2\n\t1  \n1\n", "row 0 must list 2 colors, got 1"),
        ("3 2\n1 x\n1\n", "3 2\n1\tx\n1\n", "'x' is not an integer"),
    ):
        for text in (one, loose):
            with pytest.raises(FormatError) as exc:
                parse_text(text)
            assert str(exc.value) == f"line 2: {message}"
    # a multi-digit token keeps the token path, whatever its row looks like
    split.clear()
    doc = parse_text("3 12\n12 1\n1\n")
    assert doc.coloring.edge_colors == (12, 1, 1)
    assert split == ["line 1", "line 2"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n1 2\n1\n",
        "3 2 9\n1 2\n1\n",
        "x y\n1 2\n1\n",
        "0 2\n",
        "3 0\n1 2\n1\n",
        "3 2\n1 2\n",  # missing row
        "3 2\n1 2\n1\n1\n",  # extra row
        "3 2\n1 2 2\n1\n",  # row too wide
        "3 2\n1\n1\n",  # row too narrow
        "3 2\n1 q\n1\n",
        "3 2\n1 3\n1\n",  # color above k
        "3 2\n1 0\n1\n",  # color below 1
        "3 2\n# digest: deadbeef\n1 2\n1\n",  # wrong digest
        "3 2\n# digest: x\n# digest: x\n1 2\n1\n",
        "3 2\n# provenance: [1, 2]\n1 2\n1\n",  # not an object
        "3 2\n# provenance: {broken\n1 2\n1\n",
        "3 2\n# provenance: {}\n# provenance: {}\n1 2\n1\n",
        # tokens are ASCII digits only; int() would read each of these
        # as a valid document
        "0_3 2\n1 2\n1\n",
        "3 +2\n1 2\n1\n",
        "3 2\n+1 2\n1\n",
        "3 2\n1 \u0662\n1\n",  # Arabic-Indic digit two
        "3 2\n1 2\n\uff11\n",  # fullwidth digit one
        # lines end with "\n" (after at most one "\r") and tokens are
        # separated by spaces and tabs; str.splitlines() and str.split()
        # would break on each of these
        "3 2\x0c1 2\n1\n",  # form feed
        "3 2\x1c1 2\n1\n",  # file separator
        "3\x1f2\n1 2\n1\n",  # unit separator
        "3\x0b2\n1 2\n1\n",  # vertical tab
        "3\u20032\n1 2\n1\n",  # em space
        "3\xa02\n1 2\n1\n",  # no-break space
        "3 2\x851 2\n1\n",  # next line (NEL)
        "3 2\u20281 2\n1\n",  # line separator
        "3 2\r1 2\n1\n",  # a lone carriage return
        "3 2\r\r\n1 2\n1\n",  # two before one newline
        "3 2\n1\xa0 2\n1\n",  # beside an ASCII space
    ],
)
def test_malformed_text_rejected(text):
    with pytest.raises(FormatError):
        parse_text(text)


def sealed_payload(pentagon, **overrides):
    payload = edge_list(ColoringDocument.sealed(pentagon))
    payload.update(overrides)
    return payload


@pytest.mark.parametrize(
    "overrides",
    [
        {"format": "something-else"},
        {"version": 2},
        {"n": 0},
        {"k": 0},
        {"edges": []},
        {"edges": "nope"},
        {"digest": "00" * 32},
        {"provenance": "a string"},
        # the header is checked against the edge count before allocating
        {"n": 2**40},
        {"n": 10**6},
        # exact integers only: no floats, bools or numeric strings
        {"n": 5.0},
        {"n": 5.7},
        {"n": True},
        {"n": "5"},
        {"k": 2.0},
        {"k": True},
        {"k": "2"},
        {"n": None},
        {"edges": first_edge_as([0, 1, 1.9])},
        {"edges": first_edge_as([0, 1, 1.0])},
        {"edges": first_edge_as([0, 1, True])},
        {"edges": first_edge_as([0, 1, "1"])},
        {"edges": first_edge_as([0.0, 1, 1])},
        {"edges": first_edge_as([0, "1", 1])},
        {"edges": first_edge_as([0, 1])},
        {"edges": first_edge_as([0, 1, 1, 1])},
        {"edges": first_edge_as("011")},
        {"edges": first_edge_as(None)},
        # the version too: True == 1 and 1.0 == 1, but neither is version 1
        {"version": True},
        {"version": 1.0},
        # edge ends are ints proper, in range and ordered, each edge once
        {"edges": first_edge_as([False, 1, 1])},
        {"edges": first_edge_as([0, True, 1])},
        {"edges": first_edge_as([0, 1.0, 1])},
        {"edges": first_edge_as(["0", 1, 1])},
        {"edges": first_edge_as([0, 5, 1])},  # out of range
        {"edges": first_edge_as([1, 0, 1])},  # swapped
        {"edges": first_edge_as([-1, 1, 1])},
        {"edges": first_edge_as(PENTAGON_EDGES[1])},  # duplicate
        # colors are left to EdgeColoring, which must still end in FormatError
        {"edges": first_edge_as([0, 1, 0])},
        {"edges": first_edge_as([0, 1, 3])},  # k + 1
        {"edges": first_edge_as([0, 1, None])},
        # a null color does not hide the duplicate after it
        {"edges": [[0, 1, None], [0, 1, 1]] + PENTAGON_EDGES[2:]},
    ],
)
def test_malformed_json_rejected(pentagon, overrides):
    with pytest.raises(FormatError):
        parse_json(sealed_payload(pentagon, **overrides))


def test_json_edge_list_must_cover_each_edge_once(pentagon):
    payload = edge_list(ColoringDocument(pentagon))
    edges = payload["edges"]
    with pytest.raises(FormatError):
        parse_json({**payload, "edges": edges[:-1] + [edges[0]]})  # duplicate
    with pytest.raises(FormatError):
        parse_json({**payload, "edges": edges[:-1]})  # one missing
    flipped = [[v, u, c] for u, v, c in edges]
    with pytest.raises(FormatError):
        parse_json({**payload, "edges": flipped})  # misordered endpoints


def test_json_top_level_must_be_object():
    with pytest.raises(FormatError):
        parse_json("[]")
    with pytest.raises(FormatError):
        parse_json("{nope")


def test_parse_json_accepts_string_or_dict(pentagon):
    payload = render_json(ColoringDocument.sealed(pentagon))
    assert parse_json(payload).coloring == pentagon
    assert parse_json(json.dumps(payload)).coloring == pentagon


def test_json_rows_are_the_grc_rows():
    # rows[u] is .grc row u without its newline, for one-digit colours,
    # multi-digit ones and past a byte; a single vertex has no rows
    rng = random.Random(29)
    for n, k in ((1, 1), (2, 1), (5, 2), (9, 9), (9, 12), (7, 300)):
        c = oracles.arbitrary_coloring(n, k, seed=rng.randint(0, 10**9))
        doc = ColoringDocument.sealed(c, provenance={"k": k})
        payload = render_json(doc)
        assert "edges" not in payload
        assert payload["rows"] == render_text(doc).split("\n")[2 : n + 1]
        assert round_trip_json(doc) == doc
    # a row is stripped and split as a .grc row is
    pentagon = pentagon_coloring()
    payload = render_json(ColoringDocument(pentagon))
    payload["rows"] = [" 1 2\t2  1\t", "1 2 2", "01 2", "1"]
    assert parse_json(payload).coloring == pentagon


# a JSON document as written before documents carried .grc rows, byte for
# byte, and the same document as it is written now
EDGE_LIST_DOCUMENT = """{
  "digest": "8c3537696af08e4511adf0adf05d993c75b84e1814a9a472e23fa2ddc53467c3",
  "edges": [
    [
      0,
      1,
      1
    ],
    [
      0,
      2,
      2
    ],
    [
      0,
      3,
      3
    ],
    [
      1,
      2,
      2
    ],
    [
      1,
      3,
      2
    ],
    [
      2,
      3,
      1
    ]
  ],
  "format": "gallai-coloring",
  "k": 3,
  "n": 4,
  "provenance": {
    "kind": "handmade"
  },
  "version": 1
}
"""
ROWS_DOCUMENT = """{
  "digest": "8c3537696af08e4511adf0adf05d993c75b84e1814a9a472e23fa2ddc53467c3",
  "format": "gallai-coloring",
  "k": 3,
  "n": 4,
  "provenance": {
    "kind": "handmade"
  },
  "rows": [
    "1 2 3",
    "2 2",
    "1"
  ],
  "version": 1
}
"""


def test_edge_list_documents_read_as_their_rows_form(tmp_path):
    doc = ColoringDocument.sealed(
        EdgeColoring(4, 3, [1, 2, 3, 2, 2, 1]), {"kind": "handmade"}
    )
    assert parse_json(EDGE_LIST_DOCUMENT) == parse_json(ROWS_DOCUMENT) == doc
    path = tmp_path / "doc.json"
    write_document(path, parse_json(EDGE_LIST_DOCUMENT))
    assert path.read_text() == ROWS_DOCUMENT


ROWS = ["1 2 2 1", "1 2 2", "1 2", "1"]  # the pentagon's


def rows_with(u, row):
    return ROWS[:u] + [row] + ROWS[u + 1 :]


# each a change to the pentagon's sealed rows document, and what the
# refusal says
MALFORMED_ROWS = [
    ({"edges": PENTAGON_EDGES}, "exactly one of 'rows' and 'edges'"),
    ({"rows": None}, "exactly one of 'rows' and 'edges'"),  # None: no key
    ({"rows": "\n".join(ROWS)}, "'rows' must be a list of strings"),
    ({"rows": rows_with(1, 3)}, "row 1: 3 is not a string"),
    ({"rows": rows_with(2, None)}, "row 2: None is not a string"),
    ({"rows": rows_with(0, ["1", "2", "2", "1"])}, "is not a string"),
    ({"rows": ["1 2 2 1\n1 2 2", "1 2", "1"]}, "expected 4 rows of colors, found 3"),
    ({"rows": rows_with(0, "1 2\n2 1")}, "row 0: tokens must be separated"),
    ({"rows": rows_with(0, "1 2 2 1\r")}, "row 0: tokens must be separated"),
    ({"rows": rows_with(0, "1 2 2 1 # note")}, "row 0: '#' is not an integer"),
    ({"rows": rows_with(3, "1#")}, "row 3: '1#' is not an integer"),
    ({"rows": rows_with(0, "1 2\u20032 1")}, "row 0: tokens must be separated"),
    ({"rows": rows_with(0, "+1 2 2 1")}, "row 0: '\\+1' is not an integer"),
    ({"rows": ROWS[:-1]}, "expected 4 rows of colors, found 3"),
    ({"rows": ROWS + ["1"]}, "expected 4 rows of colors, found 5"),
    ({"rows": []}, "expected 4 rows of colors, found 0"),
    ({"rows": rows_with(1, "1 2")}, "^row 1 must list 3 colors, got 2$"),
    ({"rows": rows_with(3, "")}, "^row 3 must list 1 colors, got 0$"),
    ({"rows": rows_with(0, "1 2 2 1 1")}, "^row 0 must list 4 colors, got 5$"),
    ({"rows": rows_with(0, "0 2 2 1")}, "edge \\(0,1\\) has color 0, not in 1..2"),
    ({"rows": rows_with(2, "1 3")}, "edge \\(2,4\\) has color 3, not in 1..2"),
    ({"rows": rows_with(2, "1 10")}, "edge \\(2,4\\) has color 10, not in 1..2"),
    ({"rows": rows_with(1, "1 2 " + "1" * 5000)}, "row 1: 5000-digit integer"),
    ({"digest": "00" * 32}, "digest does not match"),
    ({"n": 4}, "expected 3 rows of colors, found 4"),
    ({"n": 5.0}, "'n' and 'k' must be integers"),
    ({"k": 0}, "need n >= 1 and k >= 1"),
]


@pytest.mark.parametrize("overrides, message", MALFORMED_ROWS)
def test_malformed_json_rows_rejected(tmp_path, pentagon, overrides, message):
    payload = render_json(ColoringDocument.sealed(pentagon))
    assert payload["rows"] == ROWS
    payload.update(overrides)
    if payload["rows"] is None:
        del payload["rows"]
    with pytest.raises(FormatError, match=message):
        parse_json(payload)
    with pytest.raises(FormatError, match=message):
        parse_json(json.dumps(payload))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="ascii")
    assert cli.main(["verify", "--in", str(path)]) == 2


@st.composite
def row_lists(draw):
    # n, k and a mutated list of rows: the rendered rows, joined by
    # newlines, mutated as a .grc text is, and split again
    c = draw(documents()).coloring
    text = draw(text_mutations("\n".join(render_json(ColoringDocument(c))["rows"])))
    return c.n, c.k, text.split("\n") if text else []


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_json_rows_read_like_grc_rows(case):
    # a .grc file drops blank lines, and '#' and '\r' mean something there
    n, k, rows = case
    assume(all(row.strip(" \t") and "#" not in row and "\r" not in row for row in rows))

    def read(parse, data):
        try:
            return parse(data).coloring
        except FormatError:
            return None

    payload = {"format": "gallai-coloring", "version": 1, "n": n, "k": k, "rows": rows}
    text = f"{n} {k}\n" + "".join(row + "\n" for row in rows)
    assert read(parse_json, payload) == read(parse_text, text)


def test_json_documents_stay_near_the_grc_size(tmp_path, base14):
    # one string per row, not one [u, v, colour] list per edge: the k = 5
    # tower's JSON document was about 20 times its .grc file
    coloring, trace = build_lower_bound_witness(5, base14)
    doc = ColoringDocument.sealed(
        coloring, {"kind": "construction", "trace": trace_to_json(trace)}
    )
    grc, jsn = tmp_path / "t.grc", tmp_path / "t.json"
    write_document(grc, doc)
    write_document(jsn, doc)
    assert coloring.n == 140
    assert jsn.stat().st_size <= 1.5 * grc.stat().st_size
    assert read_document(jsn) == read_document(grc) == doc


def test_read_write_extension_sniffing(tmp_path, pentagon):
    doc = ColoringDocument.sealed(pentagon)
    grc = tmp_path / "a.grc"
    jsn = tmp_path / "a.json"
    write_document(grc, doc)
    write_document(jsn, doc)
    assert grc.read_text().startswith("#")
    assert jsn.read_text().startswith("{")
    assert read_document(grc).coloring == pentagon
    assert read_document(jsn).coloring == pentagon
    # explicit fmt wins over extension
    odd = tmp_path / "a.dat"
    write_document(odd, doc, fmt="json")
    assert read_document(odd, fmt="json").coloring == pentagon
    with pytest.raises(FormatError):
        read_document(odd)  # sniffed as text
    with pytest.raises(FormatError):
        write_document(odd, doc, fmt="xml")


def test_digest_tamper_detected(tmp_path, base14):
    path = tmp_path / "b.grc"
    write_document(path, ColoringDocument.sealed(base14))
    lines = path.read_text().splitlines()
    row = lines[-1].split()
    row[0] = "2" if row[0] == "1" else "1"
    lines[-1] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_document(path)


def test_document_constructor_validates_digest(pentagon):
    with pytest.raises(FormatError):
        ColoringDocument(pentagon, digest="f" * 64)
    sealed = ColoringDocument.sealed(pentagon)
    assert sealed.digest == canonical_digest(pentagon)


def test_document_constructor_rejects_what_the_readers_reject(pentagon):
    # a version other than the int 1 and a provenance that is not an
    # object would be written out and then refused on reading
    for version in (1.0, True, 2, "1", None):
        with pytest.raises(FormatError, match="unsupported format version"):
            ColoringDocument(pentagon, version=version)
    for provenance in ([1, 2], "a string", 5, ()):
        with pytest.raises(FormatError, match="provenance must be an object"):
            ColoringDocument(pentagon, provenance=provenance)
        with pytest.raises(FormatError, match="provenance must be an object"):
            ColoringDocument.sealed(pentagon, provenance)
    doc = ColoringDocument(pentagon, provenance={}, version=1)
    assert round_trip_text(doc) == doc and round_trip_json(doc) == doc


def test_document_provenance_must_read_back_unchanged(pentagon):
    # an int key would read back as a string and a tuple as a list; a set
    # or a cycle cannot be written, and NaN does not equal itself
    cycle = []
    cycle.append(cycle)
    for provenance in (
        {1: "x"},
        {"a": {1, 2}},
        {"a": (1, 2)},
        {"a": [{"b": float("nan")}]},
        {"a": cycle},
        {"a": {"b": [None, object()]}},
    ):
        with pytest.raises(FormatError, match="does not read back unchanged"):
            ColoringDocument(pentagon, provenance=provenance)
        with pytest.raises(FormatError, match="does not read back unchanged"):
            ColoringDocument.sealed(pentagon, provenance)
    with pytest.raises(FormatError, match="does not read back unchanged"):
        parse_text('2 1\n1\n# provenance: {"a": NaN}\n')
    # json.loads gives every NaN as one shared object, which a list or dict
    # compares equal to itself by identity
    loaded_nan = json.loads('{"a": [NaN]}')
    with pytest.raises(FormatError, match="does not read back unchanged"):
        ColoringDocument(pentagon, provenance=loaded_nan)
    with pytest.raises(FormatError, match="does not read back unchanged"):
        parse_json({**render_json(ColoringDocument(pentagon)), "provenance": loaded_nan})
    provenance = {
        "s": "x",
        "i": -3,
        "f": 1.5,
        "inf": float("inf"),
        "b": True,
        "none": None,
        "nested": [{"a": [1, [2.0]]}, []],
    }
    doc = ColoringDocument.sealed(pentagon, provenance)
    assert round_trip_text(doc) == doc
    assert parse_json(json.dumps(render_json(doc))) == doc


def test_document_provenance_ints_must_be_writable(pentagon):
    # an int past the int-to-str digit limit was accepted, and then
    # render_text raised a bare ValueError from json.dumps
    big = {"a": 10**5000}
    with pytest.raises(FormatError, match="does not read back unchanged"):
        ColoringDocument(pentagon, provenance=big)
    with pytest.raises(FormatError, match="does not read back unchanged"):
        parse_json({**render_json(ColoringDocument(pentagon)), "provenance": big})
    doc = ColoringDocument.sealed(pentagon, {"a": 10**4000, "b": [-(2**64)]})
    assert round_trip_text(doc) == doc and round_trip_json(doc) == doc


def test_readers_walk_a_provenance_only_when_it_may_not_read_back(
    pentagon, monkeypatch
):
    # what json.loads builds from a text reads back unless it holds a NaN,
    # so the readers skip the constructor's walk then; a dict handed to
    # parse_json is walked, and a NaN is refused with the same message
    walks = []
    reads_back = formats_module._reads_back
    monkeypatch.setattr(
        formats_module, "_reads_back", lambda v: walks.append(v) or reads_back(v)
    )
    provenance = {"f": 1.5, "inf": float("-inf"), "nested": [{"a": [1, None]}]}
    doc = ColoringDocument.sealed(pentagon, provenance)
    walks.clear()
    assert parse_text(render_text(doc)) == doc
    assert parse_json(json.dumps(render_json(doc))) == doc
    assert walks == []
    assert parse_json(render_json(doc)) == doc
    assert walks
    with pytest.raises(FormatError, match="does not read back unchanged"):
        parse_json({**render_json(doc), "provenance": {1: "x"}})
    nan_doc = json.dumps({**render_json(doc), "provenance": {"a": [float("nan")]}})
    for text in (nan_doc, render_text(doc).replace("1.5", "NaN")):
        parse = parse_json if text is nan_doc else parse_text
        with pytest.raises(FormatError, match="does not read back unchanged"):
            parse(text)
    # a NaN outside the provenance is no provenance error
    blob = json.dumps({**render_json(doc), "extra": float("nan")})
    assert parse_json(blob) == doc
    blob = json.dumps({**edge_list(doc), "edges": first_edge_as([0, 1, float("nan")])})
    with pytest.raises(FormatError) as exc:
        parse_json(blob)
    assert "read back" not in str(exc.value)
    # the checks keep their order: the walk before the digest, rows first
    bad_digest = render_text(doc).replace(doc.digest, "0" * 64).replace("1.5", "NaN")
    with pytest.raises(FormatError, match="does not read back unchanged"):
        parse_text(bad_digest)
    with pytest.raises(FormatError, match="digest does not match"):
        parse_text(bad_digest.replace("NaN", "1.5"))
    with pytest.raises(FormatError, match="must list"):
        parse_text(bad_digest.replace("\n1 2 2 1\n", "\n1 2 2\n"))


def test_json_the_decoder_rejects_is_a_format_error():
    # json.loads raises ValueError (not JSONDecodeError) past the int digit
    # limit, and RecursionError on deep nesting
    huge, deep = "1" * 5000, "[" * 100_000 + "]" * 100_000
    for blob in (huge, deep):
        with pytest.raises(FormatError):
            parse_json(blob)
        with pytest.raises(FormatError):
            parse_text(f"2 1\n1\n# provenance: {blob}\n")
    with pytest.raises(FormatError):
        parse_json('{"format": "gallai-coloring", "n": ' + huge + "}")


# -- mutations of valid documents: parse and round-trip, or FormatError ----


@st.composite
def documents(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    m = n * (n - 1) // 2
    c = EdgeColoring(n, k, draw(st.lists(st.integers(1, k), min_size=m, max_size=m)))
    provenance = draw(
        st.none()
        | st.just({"kind": "fuzz"})
        | st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2)
    )
    digest = canonical_digest(c) if draw(st.booleans()) else None
    return ColoringDocument(c, digest, provenance)


# pieces that are likely to make a document almost valid
_SNIPPETS = ["0", "1", "2", "3", "9", "-", " ", "\n", "\t", "#", "x", ".", ":", ",",
             "{", "}", "[", "]", '"', "\u00e9", "# digest: ", "# provenance: ", "null"]
_VALUES = [None, True, False, 0, 1, -1, 2, 7, 1.0, 1.5, 2**40, "", "1", "x",
           [], {}, [0, 1], [0, 1, 1], [0, 1, 1.0], {"kind": "fuzz"}]
_KEYS = ["n", "k", "edges", "digest", "provenance", "format", "version", "extra"]


@st.composite
def text_mutations(draw, text):
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "line"]))
        i = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:i] + draw(st.sampled_from(_SNIPPETS)) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 3)):]
        elif kind == "replace":
            text = text[:i] + draw(st.sampled_from(_SNIPPETS)) + text[i + 1:]
        else:
            lines = text.split("\n")
            j = draw(st.integers(0, len(lines) - 1))
            if draw(st.booleans()):
                lines.insert(j, lines[j])
            else:
                del lines[j]
            text = "\n".join(lines)
    return text


@st.composite
def value_mutations(draw, value):
    value = copy.deepcopy(value)
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(value, (dict, list)) or draw(st.integers(0, 19)) == 0:
            value = copy.deepcopy(draw(st.sampled_from(_VALUES)))
            continue
        node = value  # walk down to a container, then change one slot of it
        while True:
            slots = node.keys() if isinstance(node, dict) else range(len(node))
            inner = [s for s in slots if isinstance(node[s], (dict, list))]
            if not inner or draw(st.booleans()):
                break
            node = node[draw(st.sampled_from(inner))]
        slots = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        new = copy.deepcopy(draw(st.sampled_from(_VALUES)))
        kind = draw(st.sampled_from(["set", "delete", "add"]))
        if kind != "add" and slots:
            slot = draw(st.sampled_from(slots))
            if kind == "set":
                node[slot] = new
            else:
                del node[slot]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = new
        else:
            node.insert(draw(st.integers(0, len(node))), new)
    return value


@st.composite
def text_inputs(draw):
    return draw(text_mutations(render_text(draw(documents()))))


@st.composite
def json_inputs(draw):
    doc = draw(documents())
    payload = render_json(doc) if draw(st.booleans()) else edge_list(doc)
    if draw(st.booleans()):
        return draw(text_mutations(json.dumps(payload)))
    value = draw(value_mutations(payload))
    return json.dumps(value) if draw(st.booleans()) else value


def assert_round_trips(doc):
    # doc was read from either JSON spelling; it is written as rows
    text = render_text(doc)
    assert render_text(parse_text(text)) == text
    blob = json.dumps(render_json(doc), sort_keys=True)
    assert json.dumps(render_json(parse_json(blob)), sort_keys=True) == blob
    assert parse_json(blob) == doc


@settings(max_examples=300, deadline=None)
@given(text_inputs())
def test_mutated_text_round_trips_or_raises_format_error(text):
    try:
        doc = parse_text(text)
    except FormatError:
        return
    assert_round_trips(doc)


@settings(max_examples=300, deadline=None)
@given(json_inputs())
def test_mutated_json_round_trips_or_raises_format_error(data):
    try:
        doc = parse_json(data)
    except FormatError:
        return
    assert_round_trips(doc)
