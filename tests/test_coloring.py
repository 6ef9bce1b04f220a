import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gallai import (
    BaseTrace,
    BlowupTrace,
    ColoringDocument,
    EdgeColoring,
    FormatError,
    build_lower_bound_witness,
    canonical_digest,
    edge_index,
    join,
    load_base14,
    random_gallai,
    recolor,
    restrict,
    substitute,
    trace_from_json,
    trace_to_json,
    validate_trace,
)
from gallai.coloring import _color_text, _dense_rows, _edge_rows
from gallai.formats import parse_text, render_text

# pinned once from the documented digest preimage; guards format drift
PENTAGON_DIGEST = "52557dc8cdf3a20c40c582fdc5caa4e1f6b8f6b55831ac20cfd23ff4d45cd93b"


@st.composite
def colorings(draw, max_n=9, max_k=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    m = n * (n - 1) // 2
    cols = draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    return EdgeColoring(n, k, cols)


def test_edge_index_enumerates_upper_triangle():
    n = 7
    idx = [edge_index(n, u, v) for u in range(n) for v in range(u + 1, n)]
    assert idx == list(range(n * (n - 1) // 2))


def test_constructor_validates():
    with pytest.raises(ValueError):
        EdgeColoring(0, 1, [])
    with pytest.raises(ValueError):
        EdgeColoring(3, 0, [1, 1, 1])
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 1])  # wrong length
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 0, 1])  # color below 1
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, [1, 3, 1])  # color above k
    # n and k are ints proper
    for n, k, colors in [
        (3.0, 2, [1, 1, 1]),
        (True, 1, []),
        (3, 2.0, [1, 1, 1]),
        ("3", 2, [1, 1, 1]),
        (3, None, [1, 1, 1]),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            EdgeColoring(n, k, colors)
    # a color must be an int: a type check, not a failed compare
    for bad in (1.9, 1.0, True, "1", None):
        with pytest.raises(ValueError):
            EdgeColoring(3, 2, [1, bad, 1])


def first_bad_color(n, k, colors):
    # the reference: each edge in row-major order, type before range
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            c = colors[i]
            i += 1
            if type(c) is not int or not 1 <= c <= k:
                return f"edge ({u},{v}) has color {c!r}, not in 1..{k}"
    return None


def test_constructor_names_first_bad_edge():
    k = 3
    for bad, shown in [(True, "True"), (1.0, "1.0"), (0, "0"), (k + 1, "4")]:
        colors = [1, 2, 3, 2, bad, 1]  # index 4 is edge (1, 3) of K_4
        with pytest.raises(ValueError) as exc:
            EdgeColoring(4, k, colors)
        assert str(exc.value) == f"edge (1,3) has color {shown}, not in 1..3"
    # an out-of-range int before a str: the first edge is named, and the
    # mixed types do not surface as a TypeError from min/max
    with pytest.raises(ValueError) as exc:
        EdgeColoring(4, k, [1, 9, "x", 1, 2, 3])
    assert str(exc.value) == "edge (0,2) has color 9, not in 1..3"
    with pytest.raises(ValueError) as exc:
        EdgeColoring(4, k, [1, 2, "x", 0, 2, 3])
    assert str(exc.value) == "edge (0,3) has color 'x', not in 1..3"
    one = EdgeColoring(1, k, [])
    assert one.edge_colors == () and one.colors_used() == frozenset()


@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.data(),
)
def test_constructor_matches_per_edge_checker(n, k, data):
    m = n * (n - 1) // 2
    color = st.one_of(
        st.integers(-1, k + 2),
        st.sampled_from([True, False, 1.0, 2.5, "1", None]),
    )
    colors = data.draw(st.lists(color, min_size=m, max_size=m))
    want = first_bad_color(n, k, colors)
    if want is None:
        assert EdgeColoring(n, k, colors).edge_colors == tuple(colors)
        # any other iterable is read into a tuple first
        assert EdgeColoring(n, k, iter(colors)).edge_colors == tuple(colors)
    else:
        for form in (colors, iter(colors)):
            with pytest.raises(ValueError) as exc:
                EdgeColoring(n, k, form)
            assert str(exc.value) == want


@given(st.integers(1, 7), st.integers(1, 6), st.data())
@example(1, 1, None)
def test_constructor_from_bytes_matches_list(n, k, data):
    # bytes are checked by one translate; a leftover byte falls back to the
    # edge scan, which names the same first bad edge as for a list
    m = n * (n - 1) // 2
    if data is None:
        colors = []
    else:
        color = st.integers(1, k) | st.integers(0, k + 1) | st.just(255)
        colors = data.draw(st.lists(color, min_size=m, max_size=m))
    want = first_bad_color(n, k, colors)
    if want is not None:
        for form in (colors, bytes(colors)):
            with pytest.raises(ValueError) as exc:
                EdgeColoring(n, k, form)
            assert str(exc.value) == want
        return
    c = EdgeColoring(n, k, bytes(colors))
    ref = EdgeColoring(n, k, colors)
    assert c == ref and type(c.edge_colors) is tuple
    assert canonical_digest(c) == canonical_digest(ref)
    assert _color_text(c, "\n") == _color_text(ref, "\n")
    assert all(c.rows(i) == ref.rows(i) for i in range(k + 1))


def test_constructor_from_bytes_past_255_colors():
    assert EdgeColoring(3, 300, bytes([1, 255, 7])).edge_colors == (1, 255, 7)
    with pytest.raises(ValueError, match=r"^edge \(0,2\) has color 0, not in 1..300$"):
        EdgeColoring(3, 300, bytes([255, 0, 1]))


def assert_as_checked(r):
    # an operator result is built without the colour checks; it must be the
    # coloring the checked constructor builds from the same colours
    again = EdgeColoring(r.n, r.k, list(r.edge_colors))
    assert again == r and canonical_digest(again) == canonical_digest(r)


def test_color_of_lookup_and_errors():
    c = EdgeColoring(3, 3, [1, 2, 3])
    assert c.color_of(0, 1) == 1
    assert c.color_of(2, 0) == 2
    assert c.color_of(1, 2) == 3
    with pytest.raises(ValueError):
        c.color_of(1, 1)
    with pytest.raises(ValueError):
        c.color_of(0, 3)
    # vertices and colours are ints proper: no bool standing for 1, no
    # float index escaping as TypeError
    for call in (
        lambda: c.rows(1.0),
        lambda: c.rows(True),
        lambda: c.neighbors(True, 0),
        lambda: c.neighbors(1, 1.0),
        lambda: c.neighbors("1", 0),
        lambda: c.color_of(True, 2),
        lambda: c.color_of(0.0, 1),
        lambda: c.color_of(0, "1"),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert c.rows(1) == (2, 1, 0) and c.rows(4) == (0, 0, 0)
    assert c.neighbors(1, 0) == 2 and c.neighbors(0, 0) == 0
    for v in (-1, 3):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=3"):
            c.neighbors(1, v)


def test_single_vertex_has_no_colors():
    c = EdgeColoring(1, 2, [])
    assert c.colors_used() == frozenset()
    assert list(c.edges()) == []


@given(colorings())
def test_neighbor_masks_partition_the_edges(c):
    for u, v, col in c.edges():
        for i in range(1, c.k + 1):
            present_u = bool(c.neighbors(i, u) & (1 << v))
            present_v = bool(c.neighbors(i, v) & (1 << u))
            assert present_u == present_v == (i == col)


@given(colorings())
def test_colors_used_matches_edge_list(c):
    assert c.colors_used() == {col for _, _, col in c.edges()}


def test_restrict_pentagon_triangle(pentagon):
    sub = restrict(pentagon, [0, 1, 2])
    assert sub.n == 3 and sub.k == 2
    assert sub.color_of(0, 1) == pentagon.color_of(0, 1)
    assert sub.color_of(0, 2) == pentagon.color_of(0, 2)
    assert sub.color_of(1, 2) == pentagon.color_of(1, 2)


@given(colorings())
def test_restrict_full_set_is_identity(c):
    assert restrict(c, range(c.n)) == c


@given(colorings(max_n=8), st.data())
def test_restrict_relabels_ascending(c, data):
    verts = data.draw(
        st.lists(
            st.integers(0, c.n - 1), min_size=1, max_size=c.n, unique=True
        ).map(sorted)
    )
    sub = restrict(c, verts)
    assert_as_checked(sub)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            assert sub.color_of(i, j) == c.color_of(verts[i], verts[j])


def test_restrict_rejects_bad_sets(pentagon):
    with pytest.raises(ValueError):
        restrict(pentagon, [])
    with pytest.raises(ValueError, match="vertex set contains vertex 5, out of range"):
        restrict(pentagon, [0, 5])
    with pytest.raises(ValueError):
        restrict(pentagon, [-1])
    for bad in (True, 1.0, 0.5):
        with pytest.raises(ValueError, match="must be an integer"):
            restrict(pentagon, [bad, 2])


def test_join_two_single_vertices():
    k1 = EdgeColoring(1, 1, [])
    k2 = join(k1, k1, 1)
    assert k2.n == 2 and k2.color_of(0, 1) == 1


def test_join_rejects_used_color(pentagon):
    with pytest.raises(ValueError):
        join(pentagon, pentagon, 2)
    with pytest.raises(ValueError):
        join(pentagon, pentagon, 0)


def test_composition_colors_are_ints(pentagon):
    # checked before any comparison: no TypeError, and 2.0 is not "used"
    for bad in ("x", 2.0, 3.0, True, None):
        with pytest.raises(ValueError, match="fresh_color must be an integer"):
            join(pentagon, pentagon, bad)
    for bad in ("x", 3.0, True, None):
        with pytest.raises(ValueError, match="mapped color must be an integer"):
            recolor(pentagon, {1: bad})
    # an unused key is checked too
    with pytest.raises(ValueError, match="mapped color must be an integer"):
        recolor(pentagon, {7: "x"})
    # and so are the keys: True and 1.0 look up as color 1
    for bad in (True, 1.0, "x", None):
        with pytest.raises(ValueError, match="renamed color must be an integer"):
            recolor(pentagon, {bad: 2})


def test_join_layout(pentagon):
    j = join(pentagon, pentagon, 3)
    assert j.n == 10 and j.k == 3
    assert j.colors_used() == {1, 2, 3}
    for u in range(5):
        for v in range(5, 10):
            assert j.color_of(u, v) == 3
    for u in range(5):
        for v in range(u + 1, 5):
            assert j.color_of(u, v) == pentagon.color_of(u, v)
            assert j.color_of(u + 5, v + 5) == pentagon.color_of(u, v)


@given(colorings(max_n=6), colorings(max_n=6))
def test_join_size_and_palette(c1, c2):
    fresh = max(c1.k, c2.k) + 1
    j = join(c1, c2, fresh)
    assert_as_checked(j)
    assert j.n == c1.n + c2.n
    assert j.k == fresh
    assert j.colors_used() == c1.colors_used() | c2.colors_used() | {fresh}


def test_substitute_singleton_parts_is_identity(pentagon):
    parts = [EdgeColoring(1, pentagon.k, [])] * 5
    assert substitute(pentagon, parts) == pentagon


@given(colorings())
def test_substitute_into_one_vertex_is_identity(c):
    assert substitute(EdgeColoring(1, c.k, ()), [c]) == c


def test_substitute_matches_join(pentagon):
    quotient = EdgeColoring(2, 3, [3])
    assert substitute(quotient, [pentagon, pentagon]) == join(pentagon, pentagon, 3)


def test_substitute_validates(pentagon):
    with pytest.raises(ValueError):
        substitute(pentagon, [pentagon] * 4)
    # a quotient color may recur inside a part: join refuses that for
    # colorings, validate_trace for the blow-ups of a trace
    substitute(EdgeColoring(2, 2, [1]), [pentagon, pentagon])


@given(st.data())
def test_substitute_blocks_and_cross_edges(data):
    quotient = data.draw(colorings(max_n=4, max_k=3))
    parts = [data.draw(colorings(max_n=4, max_k=3)) for _ in range(quotient.n)]
    whole = substitute(quotient, parts)
    assert_as_checked(whole)
    sizes = [p.n for p in parts]
    assert whole.n == sum(sizes)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    # blocks reproduce the parts
    for i, part in enumerate(parts):
        block = restrict(whole, range(offsets[i], offsets[i] + sizes[i]))
        assert block.edge_colors == part.edge_colors
    # cross edges take the quotient color
    for i in range(quotient.n):
        for j in range(i + 1, quotient.n):
            want = quotient.color_of(i, j)
            assert all(
                whole.color_of(u, v) == want
                for u in range(offsets[i], offsets[i] + sizes[i])
                for v in range(offsets[j], offsets[j] + sizes[j])
            )


@pytest.mark.parametrize("seed", range(4))
def test_operator_results_on_gallai_inputs_match_checked(seed):
    rng = random.Random(seed)
    c1, c2, c3 = (
        random_gallai(rng.randint(1, 40), rng.randint(1, 7), seed * 3 + i)
        for i in range(3)
    )
    quotient = EdgeColoring(3, 9, [rng.randint(1, 9) for _ in range(3)])
    whole = substitute(quotient, [c1, c2, c3])
    for r in (
        whole,
        join(c1, c2, 8),
        restrict(whole, sorted(rng.sample(range(whole.n), rng.randint(1, whole.n)))),
    ):
        assert_as_checked(r)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_operator_results_on_the_tower_match_checked(k, base14):
    tower, _ = build_lower_bound_witness(k, base14)  # substitute and join
    assert_as_checked(tower)
    assert_as_checked(restrict(tower, range(0, tower.n, 3)))
    assert_as_checked(join(tower, base14, k + 1))
    assert_as_checked(substitute(EdgeColoring(2, 1, [1]), [base14, tower]))


def colors_by_edges(quotient, parts):
    # the colours of substitute(quotient, parts), written edge by edge from
    # the operands: a part's own colour inside it, the quotient's across
    where = [(i, v) for i, part in enumerate(parts) for v in range(part.n)]
    out = []
    for a, (i, u) in enumerate(where):
        for j, v in where[a + 1 :]:
            out.append(parts[i].color_of(u, v) if i == j else quotient.color_of(i, j))
    return out


def some_coloring(rng, n, k, top):
    # colours drawn from 1..top under the declared palette 1..k
    return EdgeColoring(n, k, [rng.randint(1, top) for _ in range(n * (n - 1) // 2)])


@pytest.mark.parametrize("seed", range(3))
def test_operator_results_switch_store_at_256_colors(seed):
    # bytes for k < 256, a tuple above that: operands of one kind, of the
    # other and mixed, whichever palette the result takes
    rng = random.Random(seed)
    low, low2 = some_coloring(rng, 6, 7, 7), some_coloring(rng, 5, 255, 255)
    high, high2 = some_coloring(rng, 5, 300, 300), some_coloring(rng, 4, 260, 9)
    cases = []
    for quotient, parts in (
        (EdgeColoring(3, 9, [8, 9, 8]), [low, low2, low]),
        (EdgeColoring(2, 400, [400]), [high, high2]),
        (EdgeColoring(3, 300, [300, 299, 1]), [low, low2, low]),  # low parts
        (EdgeColoring(3, 9, [9, 8, 9]), [low, high, low2]),  # a high part
    ):
        cases.append((substitute(quotient, parts), colors_by_edges(quotient, parts)))
    for c1, c2, fresh in (
        (low, low, 8),
        (low, low2, 256),  # low operands, a fresh colour past a byte
        (low, high2, 10),
        (high, high2, 301),
    ):
        fresh_quotient = EdgeColoring(2, fresh, [fresh])
        cases.append((join(c1, c2, fresh), colors_by_edges(fresh_quotient, [c1, c2])))
    for c in (low, low2, high, high2):
        vs = sorted(rng.sample(range(c.n), 3))
        want = [c.color_of(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
        cases.append((restrict(c, vs), want))
    for r, want in cases:
        checked = EdgeColoring(r.n, r.k, want)
        assert r == checked
        assert (type(r._colors) is bytes) == (r.k < 256)
        assert type(r.edge_colors) is tuple and r.edge_colors == tuple(want)
        assert canonical_digest(r) == canonical_digest(checked)
    assert {r.k < 256 for r, _ in cases} == {True, False}


def test_operators_take_colorings_only(pentagon):
    # they read their operands' colours unchecked, so nothing else will do
    for call in (
        lambda: restrict([1], [0]),
        lambda: substitute(pentagon, [pentagon, "x", pentagon, pentagon, pentagon]),
        lambda: substitute(object(), [pentagon]),
        lambda: join(pentagon, None, 3),
    ):
        with pytest.raises(TypeError, match="expected an EdgeColoring"):
            call()


def test_recolor_renames_and_merges(pentagon):
    swapped = recolor(pentagon, {1: 3, 2: 4}, k=4)
    assert swapped.colors_used() == {3, 4}
    assert swapped.color_of(0, 1) == 3
    merged = recolor(pentagon, {2: 1})
    assert merged.colors_used() == {1}
    with pytest.raises(ValueError):
        recolor(pentagon, {1: 0})
    with pytest.raises(ValueError):
        recolor(pentagon, {1: 5}, k=4)  # 5 outside declared palette


def test_digest_pinned_and_label_sensitive(pentagon):
    assert canonical_digest(pentagon) == PENTAGON_DIGEST
    assert canonical_digest(recolor(pentagon, {1: 2, 2: 1})) != PENTAGON_DIGEST
    # k is part of the identity
    wide = EdgeColoring(5, 3, pentagon.edge_colors)
    assert canonical_digest(wide) != PENTAGON_DIGEST


def digest_preimage(c):
    # the documented preimage, written out from the public edge list
    body = " ".join(map(str, c.edge_colors))
    return hashlib.sha256(f"grc1\n{c.n} {c.k}\n{body}".encode("ascii")).hexdigest()


def test_wide_digest_hashes_the_same_bytes_row_by_row():
    # k >= 10 hashes one row at a time; the bytes are those of the one-line
    # preimage, and at most a few rows of text are held at once
    rng = random.Random(53)
    for n, k in ((1, 10), (2, 10), (40, 10), (33, 12), (25, 300), (12, 9), (30, 2)):
        c = EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])
        assert canonical_digest(c) == digest_preimage(c), (n, k)
    c = EdgeColoring(400, 12, [rng.randint(1, 12) for _ in range(400 * 399 // 2)])
    text = len(_color_text(c, " "))
    tracemalloc.start()
    try:
        canonical_digest(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < text / 8, (peak, text)


def test_k10_tower_reads_back_to_its_digest():
    # a k = 10 witness tower over a 3-vertex base (n = 1,875): its .grc
    # text carries the digest, which the reader checks on the way in
    base = EdgeColoring(3, 2, (1, 1, 2))
    tower, _ = build_lower_bound_witness(10, base)
    doc = ColoringDocument.sealed(tower)
    assert doc.digest == digest_preimage(tower)
    back = parse_text(render_text(doc))
    assert back == doc and canonical_digest(back.coloring) == doc.digest


@given(colorings())
def test_digest_matches_on_equal_objects(c):
    clone = EdgeColoring(c.n, c.k, list(c.edge_colors))
    assert clone == c and canonical_digest(clone) == canonical_digest(c)


def brute_rows(c):
    # from color_of alone: every colour met, plus 1, k and k + 1 (zeros
    # unless used; k + 1 is past the palette)
    want = {col: [0] * c.n for col in (1, c.k, c.k + 1)}
    for u in range(c.n):
        for v in range(c.n):
            if u != v:
                want.setdefault(c.color_of(u, v), [0] * c.n)[u] |= 1 << v
    return {col: tuple(rows) for col, rows in want.items()}


ACCESSORS = ("rows", "neighbors", "colors_used", "digest")


def touch(c, accessor):
    if accessor == "rows":
        c.rows(1)
    elif accessor == "neighbors":
        c.neighbors(1, c.n - 1)
    elif accessor == "colors_used":
        c.colors_used()
    else:
        canonical_digest(c)


@st.composite
def row_colorings(draw):
    # EdgeColoring picks its row build from n, k and the colours used:
    # the dense build from n = 30 with at most (n - 20) // 10 colours
    # below 256, the per-edge loop otherwise; these reach both
    n = draw(st.integers(1, 70))
    k = draw(st.sampled_from([1, 2, 3, 5, 6, 40, 255, 256, 300]))
    used = draw(
        st.lists(st.integers(1, k), min_size=1, max_size=min(k, 24), unique=True)
    )
    rnd = draw(st.randoms(use_true_random=False))
    return EdgeColoring(n, k, [rnd.choice(used) for _ in range(n * (n - 1) // 2)])


def spread(n, k, used, seed=0):
    rnd = random.Random(seed)
    return EdgeColoring(n, k, [rnd.choice(used) for _ in range(n * (n - 1) // 2)])


def tower(k):
    return build_lower_bound_witness(k, load_base14())[0]


@settings(deadline=None)  # the n = 350 tower takes about half a second
@given(row_colorings(), st.sampled_from(ACCESSORS))
@example(spread(1, 3, [1]), "rows")
@example(spread(2, 3, [3]), "neighbors")
@example(spread(31, 2, [1]), "colors_used")  # dense, one colour
@example(spread(45, 6, [2, 6]), "digest")  # dense, n not a multiple of 8
@example(spread(50, 255, [1, 255, 17]), "rows")  # dense, the top byte value
@example(spread(70, 6, [1, 2, 3, 4, 5]), "neighbors")  # dense, at its limit
@example(spread(70, 6, list(range(1, 7))), "colors_used")  # loop, one past it
@example(spread(69, 40, list(range(1, 41))), "rows")  # loop, many colours
@example(spread(45, 300, [3, 256, 299]), "digest")  # loop, wider than a byte
@example(spread(60, 256, [5]), "neighbors")
@example(tower(4), "rows")  # n = 70, 140, 350: dense
@example(tower(5), "colors_used")
@example(tower(6), "neighbors")
def test_rows_match_color_of_whichever_accessor_runs_first(c, first):
    clone = EdgeColoring(c.n, c.k, c.edge_colors)
    touch(clone, first)
    want = brute_rows(c)
    for col, rows in want.items():
        assert clone.rows(col) == rows
        assert [clone.neighbors(col, v) for v in range(c.n)] == list(rows)
    assert clone.colors_used() == {col for col, rows in want.items() if any(rows)}


@given(colorings())
def test_digest_is_the_grc1_body_and_repeats(c):
    body = f"grc1\n{c.n} {c.k}\n" + " ".join(str(col) for col in c.edge_colors)
    want = hashlib.sha256(body.encode("ascii")).hexdigest()
    assert canonical_digest(c) == want
    assert canonical_digest(c) == want


@pytest.mark.parametrize("k", [1, 2, 9, 10, 12, 255, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 29])
def test_color_text_matches_per_token_join(n, k):
    # k <= 9 writes digits into a byte template, k >= 10 joins tokens
    rnd = random.Random(n * 1000 + k)
    c = EdgeColoring(n, k, [rnd.randint(1, k) for _ in range(n * (n - 1) // 2)])
    for row_end in (" ", "\n"):
        assert _color_text(c, row_end) == oracles.color_text(c, row_end)


@pytest.mark.parametrize("k", [2, 4, 5, 6])
def test_color_text_of_the_tower(k):
    c = tower(k)
    for row_end in (" ", "\n"):
        assert _color_text(c, row_end) == oracles.color_text(c, row_end)
    c10 = recolor(c, {1: 10})  # the same rows through the per-token join
    assert _color_text(c10, "\n") == oracles.color_text(c10, "\n")


def test_dense_rows_are_right_sized():
    # int(bits, 2) sizes its int by the string's length, leading zeros
    # included; the dense rows must hold no more than the per-edge loop's
    c = tower(5)  # n = 140, dense
    data = bytes(c.edge_colors)
    used = sorted(set(data))
    sizes = []
    for build in (lambda: _dense_rows(c.n, data, used), lambda: _edge_rows(c.n, data)):
        tracemalloc.start()
        try:
            rows = build()
            sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del rows
    dense, loop = sizes
    assert dense <= loop * 1.02, sizes


@given(colorings(), st.sets(st.sampled_from(ACCESSORS)))
def test_equality_ignores_filled_caches(c, filled):
    fresh = EdgeColoring(c.n, c.k, c.edge_colors)
    warm = EdgeColoring(c.n, c.k, list(c.edge_colors))
    for accessor in sorted(filled):
        touch(warm, accessor)
    assert fresh == warm and warm == fresh
    assert hash(fresh) == hash(warm)
    # not equal to its own colours: only a coloring compares
    assert fresh.__eq__(c.edge_colors) is NotImplemented and fresh != c.edge_colors
    assert len({fresh, warm}) == 1


def test_document_checks_a_cached_digest(pentagon):
    c = EdgeColoring(5, 2, pentagon.edge_colors)
    assert ColoringDocument.sealed(c).digest == PENTAGON_DIGEST  # now cached
    with pytest.raises(FormatError, match="digest does not match payload"):
        ColoringDocument(c, "0" * 64)
    with pytest.raises(FormatError, match="digest does not match payload"):
        ColoringDocument(c, canonical_digest(recolor(c, {1: 2, 2: 1})))
    assert ColoringDocument(c, PENTAGON_DIGEST).digest == PENTAGON_DIGEST


# -- construction traces -------------------------------------------------


def _base_trace(c, label="b"):
    return BaseTrace(label, canonical_digest(c), c.n, tuple(sorted(c.colors_used())))


def _join_trace(left, right, fresh, size, colors):
    # a join as a trace records it: the blow-up of K2 in its fresh color
    return BlowupTrace(EdgeColoring(2, fresh, (fresh,)), (left, right), size, colors)


def test_trace_validation_accepts_good_join(pentagon):
    bt = _base_trace(pentagon)
    validate_trace(_join_trace(bt, bt, 3, 10, (1, 2, 3)))


def test_trace_validation_rejects_bad_arithmetic(pentagon):
    bt = _base_trace(pentagon)
    for join_trace, why in [
        (_join_trace(bt, bt, 3, 11, (1, 2, 3)), "blow-up size 11 != 10"),
        (_join_trace(bt, bt, 2, 10, (1, 2)), r"quotient colors \[2\] occur in a child"),
        (_join_trace(bt, bt, 3, 10, (1, 2)), "color set does not match"),
    ]:
        with pytest.raises(ValueError, match=why):
            validate_trace(join_trace)
    quotient = EdgeColoring(2, 3, [3])
    validate_trace(BlowupTrace(quotient, (bt, bt), 10, (1, 2, 3)))
    for bad in [
        BaseTrace("b", bt.digest, 0, (1, 2)),  # empty base
        BlowupTrace(quotient, (bt, bt, bt), 15, (1, 2, 3)),  # one child too many
        BlowupTrace(quotient, (bt, bt), 11, (1, 2, 3)),  # size off by one
        BlowupTrace(quotient, (bt, bt), 10, (1, 2)),  # quotient color missing
        BlowupTrace(quotient, (bt, bt), 10, (1, 2, 3, 4)),  # color never used
    ]:
        with pytest.raises(ValueError):
            validate_trace(bad)
    for not_a_trace in (None, pentagon, {"op": "base"}):
        with pytest.raises(ValueError, match="not a construction trace"):
            validate_trace(not_a_trace)
        with pytest.raises(ValueError, match="not a construction trace"):
            trace_to_json(not_a_trace)


def test_trace_validation_rejects_a_quotient_color_used_in_a_child(pentagon):
    # the fresh-color rule of a join holds for every blow-up: an old color
    # must stay inside one block, or the wheel argument does not hold
    bt = _base_trace(pentagon)
    other = BaseTrace("c", bt.digest, 5, (1, 3))
    five = recolor(pentagon, {1: 2, 2: 3}, k=3)  # colors 2 and 3
    validate_trace(BlowupTrace(EdgeColoring(2, 3, [3]), (bt, bt), 10, (1, 2, 3)))
    for bad, reused in [
        (BlowupTrace(EdgeColoring(2, 2, [2]), (bt, bt), 10, (1, 2)), r"\[2\]"),
        (BlowupTrace(EdgeColoring(2, 3, [3]), (bt, other), 10, (1, 2, 3)), r"\[3\]"),
        (BlowupTrace(five, (bt,) * 5, 25, (1, 2, 3)), r"\[2\]"),
    ]:
        with pytest.raises(ValueError, match=f"^quotient colors {reused} occur"):
            validate_trace(bad)
    # in a child below a blow-up of fresh colors, too
    inner = _join_trace(bt, bt, 2, 10, (1, 2))
    with pytest.raises(ValueError, match="occur in a child"):
        validate_trace(BlowupTrace(EdgeColoring(2, 3, [3]), (inner, bt), 15, (1, 2, 3)))


def test_trace_validation_rejects_wide_quotient(pentagon):
    bt = _base_trace(pentagon)
    rainbow = EdgeColoring(3, 3, [1, 2, 3])
    with pytest.raises(ValueError):
        validate_trace(BlowupTrace(rainbow, (bt, bt, bt), 15, (1, 2, 3)))


def test_trace_json_round_trip(pentagon):
    bt = _base_trace(pentagon, label="pentagon")
    quotient = EdgeColoring(2, 4, [4])
    tr = BlowupTrace(quotient, (_join_trace(bt, bt, 3, 10, (1, 2, 3)),) * 2, 20, (1, 2, 3, 4))
    validate_trace(tr)
    again = trace_from_json(trace_to_json(tr))
    assert again == tr
    with pytest.raises(ValueError):
        trace_from_json({"op": "nope"})
    data = trace_to_json(tr)
    # a quotient header is checked against its edge list before allocating
    with pytest.raises(ValueError):
        trace_from_json({**data, "quotient": {"n": 10**6, "k": 2, "edges": []}})
    # exact integers only, as in the coloring formats
    for key, bad in [
        ("size", 2.7),
        ("size", 20.0),
        ("colors", [1, 2, 3.0]),
        ("colors", [1, 2, True]),
    ]:
        with pytest.raises(ValueError):
            trace_from_json({**data, key: bad})
    # a join node, as earlier builds wrote the inner blow-ups, reads as one
    join_data = data["children"][0]
    base_data = join_data["children"][0]
    legacy = {
        "op": "join",
        "left": base_data,
        "right": base_data,
        "fresh_color": 3,
        "size": 10,
        "colors": [1, 2, 3],
    }
    assert trace_from_json(legacy) == trace_from_json(join_data) == tr.children[0]
    for bad in (3.0, True, "3", 0, None):
        with pytest.raises(ValueError):
            trace_from_json({**legacy, "fresh_color": bad})
    for key in ("left", "right", "fresh_color"):
        with pytest.raises(ValueError, match="malformed trace JSON"):
            trace_from_json({k: v for k, v in legacy.items() if k != key})
    # a base leaf's label and digest are strings, never coerced
    assert trace_from_json(base_data) == bt
    for key, bad in [
        ("digest", None),
        ("digest", 5),
        ("digest", ["ab"]),
        ("label", 5),
        ("label", None),
        ("label", True),
    ]:
        with pytest.raises(ValueError):
            trace_from_json({**base_data, key: bad})
    for key in ("label", "digest"):
        with pytest.raises(ValueError):
            trace_from_json({k: v for k, v in base_data.items() if k != key})


def test_trace_json_nested_past_the_recursion_limit_is_malformed(pentagon):
    # a join chain deeper than the interpreter's recursion limit is refused
    # with the ValueError of any other malformed trace, not RecursionError
    leaf = trace_to_json(_base_trace(pentagon))
    join = {"op": "join", "right": leaf, "fresh_color": 3, "size": 10, "colors": [1, 2, 3]}
    node = leaf
    for _ in range(3000):
        node = {**join, "left": node}
    with pytest.raises(ValueError, match="^malformed trace JSON: nested too deeply$"):
        trace_from_json(node)
