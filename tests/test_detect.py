import random
import tracemalloc

import pytest

import oracles
from gallai import kernels
from gallai import (
    EdgeColoring,
    Embedding,
    PatternSpec,
    PreconditionError,
    build_lower_bound_witness,
    find_mono,
    find_rainbow_triangle,
    has_mono_p3_in_color,
    join,
    mono_complete_between,
    random_gallai,
    restrict,
    substitute,
    wheel_from_mono_pair,
)
from gallai.kernels import (
    classes_within,
    color_classes,
    cycle4_within,
    gallai_split,
    rainbow_free,
    rainbow_within,
    wheel_within,
)

W4 = PatternSpec.wheel(4)
P3 = PatternSpec.path3()
C4 = PatternSpec.cycle4()
K3 = PatternSpec.clique(3)


def mono(n, color=1, k=None):
    return EdgeColoring(n, k or color, [color] * (n * (n - 1) // 2))


def test_rainbow_on_rainbow_triangle():
    c = EdgeColoring(3, 3, [1, 2, 3])
    hit = find_rainbow_triangle(c)
    assert hit is not None and hit.vertex_map == (0, 1, 2)
    assert hit.color is None and hit.check(c)


def test_rainbow_never_in_two_colors():
    for seed in range(30):
        c = oracles.arbitrary_coloring(8, 2, seed)
        assert find_rainbow_triangle(c) is None


def test_rainbow_agrees_with_oracle():
    for seed in range(120):
        c = oracles.arbitrary_coloring(4 + seed % 7, 4, seed)
        expected = oracles.rainbow_triangles(c)
        hit = find_rainbow_triangle(c)
        assert (hit is None) == (not expected)
        if hit is not None:
            assert tuple(hit.vertex_map) in expected  # sorted triples both sides
            assert hit.check(c)


def test_rainbow_returns_lex_least_triangle():
    for seed in range(40):
        c = oracles.arbitrary_coloring(7, 3, seed * 13 + 1)
        expected = oracles.rainbow_triangles(c)
        hit = find_rainbow_triangle(c)
        if expected:
            assert hit is not None and tuple(hit.vertex_map) == min(expected)


def _random_masks(rng, n):
    # dense, sparse and empty masks, plus the full vertex set
    yield (1 << n) - 1
    yield 0
    for p in (0.15, 0.35, 0.6, 0.9):
        yield sum(1 << v for v in range(n) if rng.random() < p)


def test_rainbow_within_is_least_oracle_triangle_inside_mask():
    rng = random.Random(41)
    hits = 0
    for trial in range(120):
        n = rng.randint(1, 11)
        c = oracles.arbitrary_coloring(n, rng.randint(2, 5), trial * 31 + 7)
        every = oracles.rainbow_triangles(c)
        for mask in _random_masks(rng, n):
            inside = [t for t in every if all(mask >> v & 1 for v in t)]
            got = rainbow_within(c, mask)
            assert got == (min(inside) if inside else None)
            hits += got is not None
    assert hits > 100


def test_rainbow_within_copies_no_color_store():
    # the scan reads the colors one row slice at a time; a copy of all m
    # colors as a tuple would take 8 bytes per edge.  Two colors have no
    # rainbow triangle, so every pair is scanned
    n = 300
    m = n * (n - 1) // 2
    c = oracles.arbitrary_coloring(n, 2, seed=5)
    c.colors_used()  # the rows are built on first use, outside the count
    tracemalloc.start()
    try:
        assert rainbow_within(c, c.vertex_mask) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m // 4, (peak, m)


def test_rainbow_on_near_gallai_colorings(near_gallai):
    # the decomposition must reach the defect wherever it sits, and the
    # scan then names the least triangle
    found = 0
    for c, least in near_gallai:
        hit = find_rainbow_triangle(c)
        if least is None:
            assert hit is None
        else:
            assert hit is not None and tuple(hit.vertex_map) == least
            found += 1
    assert 20 <= found <= len(near_gallai) - 20
    assert all(least is not None for _, least in near_gallai[-3:])


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_gallai_split_decides_rainbow_inside_masks(near_gallai):
    rng = random.Random(47)
    cases = [c for c, _ in near_gallai if c.n <= 16]
    cases += [oracles.arbitrary_coloring(rng.randint(3, 10), 4, t + 600) for t in range(40)]
    seen = {"free": 0, "rainbow": 0, "unsplit": 0}
    for c in cases:
        every = oracles.rainbow_triangles(c)
        for mask in _random_masks(rng, c.n):
            inside = any(all(mask >> v & 1 for v in t) for t in every)
            assert rainbow_free(color_classes(c), [mask]) == (not inside)
            seen["rainbow" if inside else "free"] += 1
            classes = classes_within(color_classes(c), mask)
            split = gallai_split(classes, mask)
            if split is None:
                # with three or more colors, no split proves a rainbow triangle
                assert len(classes) < 2 or inside
                seen["unsplit"] += len(classes) >= 3
                continue
            assert len(split) >= 2 and sum(split) == mask
            assert all(x & y == 0 for i, x in enumerate(split) for y in split[i + 1 :])
            cross = set()
            for i, x in enumerate(split):
                for y in split[i + 1 :]:
                    between = {c.color_of(u, v) for u in _members(x) for v in _members(y)}
                    assert len(between) == 1
                    cross |= between
            assert len(cross) <= 2
            in_cluster = any(
                any(all(m >> v & 1 for v in t) for t in every) for m in split
            )
            assert in_cluster == inside
    assert min(seen.values()) >= 30, seen


def _color_nbrs(c, color):
    # v -> the set of v's neighbors in color, by color_of
    nbrs = {v: set() for v in range(c.n)}
    for u in range(c.n):
        for v in range(u + 1, c.n):
            if c.color_of(u, v) == color:
                nbrs[u].add(v)
                nbrs[v].add(u)
    return nbrs


def _first_cycle4(nbrs, mask):
    # documented order: a < b ascending, then the two least common neighbors
    vs = [v for v in sorted(nbrs) if mask >> v & 1]
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            common = sorted(nbrs[a] & nbrs[b] & set(vs))
            if len(common) >= 2:
                return a, common[0], b, common[1]
    return None


def _first_wheel4(nbrs, mask):
    # documented order: hubs ascending, then the first 4-cycle in the ring
    for hub in sorted(nbrs):
        if mask >> hub & 1:
            ring = sum(1 << v for v in nbrs[hub] if mask >> v & 1)
            cyc = _first_cycle4(nbrs, ring)
            if cyc is not None:
                return (*cyc, hub)
    return None


def test_cycle4_within_returns_first_cycle_in_documented_order():
    # up to n = 24 and three colors, so that a corner often has several
    # partners b with two common neighbors, and the least must be taken
    rng = random.Random(43)
    hits = misses = several = 0
    for trial in range(120):
        n = rng.randint(1, 24)
        k = rng.randint(1, 3)
        c = oracles.arbitrary_coloring(n, k, trial * 53 + 11)
        for color in range(1, k + 1):
            nbrs = _color_nbrs(c, color)
            for mask in _random_masks(rng, n):
                want = _first_cycle4(nbrs, mask)
                assert cycle4_within(c.rows(color), mask) == want
                hits += want is not None
                misses += want is None
                if want is not None:
                    a = want[0]
                    inside = {v for v in nbrs if mask >> v & 1}
                    partners = [
                        b for b in inside if b > a and len(nbrs[a] & nbrs[b] & inside) >= 2
                    ]
                    several += len(partners) >= 2
    assert hits > 100 and misses > 100 and several > 100


def test_wheel_within_w4_matches_brute_force():
    rng = random.Random(59)
    hits = misses = 0
    for trial in range(100):
        n = rng.randint(1, 20)
        k = rng.randint(1, 3)
        c = oracles.arbitrary_coloring(n, k, trial * 37 + 5)
        for color in range(1, k + 1):
            nbrs = _color_nbrs(c, color)
            for mask in _random_masks(rng, n):
                want = _first_wheel4(nbrs, mask)
                assert wheel_within(c.rows(color), mask, 4) == want
                hits += want is not None
                misses += want is None
    assert hits > 100 and misses > 100


def _blowups(rng, biggest, trials):
    # colorings in which many vertices share a ring: substitutions into a
    # quotient in colors 1 and 2 of small parts, arbitrary in colors 1..3
    # or all in color 3 (such a block has one ring in colors 1 and 2), and
    # random_gallai, which substitutes recursively
    for trial in range(trials):
        q = oracles.arbitrary_coloring(rng.randint(2, 4), 2, trial + 700)
        parts, left = [], biggest
        for i in range(q.n):
            size = rng.randint(1, max(1, min(4, left - (q.n - 1 - i))))
            left -= size
            if rng.random() < 0.5:
                parts.append(mono(size, 3))
            else:
                parts.append(oracles.arbitrary_coloring(size, 3, trial * 7 + i))
        yield substitute(q, parts)
        yield random_gallai(rng.randint(2, biggest), rng.randint(2, 3), trial + 900)


def _ring_repeats(c, color, mask, hit, m):
    # hubs before the hit (all hubs on a miss) whose ring of m or more
    # vertices an earlier hub already had: the hubs wheel_within skips
    rows = c.rows(color)
    last = hit[-1] if hit is not None else c.n
    rings = [rows[h] & mask for h in range(last) if mask >> h & 1]
    rings = [r for r in rings if r.bit_count() >= m]
    return len(rings) - len(set(rings))


def test_wheel_within_on_blowups_where_hubs_share_rings(base14):
    # the rings wheel_within has shown to be cycle-free are skipped; on
    # blow-ups that skip is taken often, and the answers must not change
    rng = random.Random(67)
    tower, _ = build_lower_bound_witness(4, base14)
    counts = {m: [0, 0, 0] for m in (4, 5, 6)}  # hits, misses, skipped hubs
    for m, biggest, trials in ((4, 12, 40), (5, 10, 100), (6, 10, 200)):
        cases = list(_blowups(rng, biggest, trials))
        if m == 4:
            cases.append(tower)
        wheel = PatternSpec.wheel(m)
        for c in cases:
            for color in sorted(c.colors_used()):
                nbrs = _color_nbrs(c, color)
                for mask in _random_masks(rng, c.n):
                    hit = wheel_within(c.rows(color), mask, m)
                    if m == 4:
                        assert hit == _first_wheel4(nbrs, mask)
                    else:
                        vs = [v for v in range(c.n) if mask >> v & 1]
                        expected = len(vs) > m and oracles.has_mono_wheel(
                            restrict(c, vs), color, m
                        )
                        assert (hit is not None) == expected
                    if hit is not None:
                        assert all(mask >> v & 1 for v in hit)
                        assert Embedding(wheel, color, hit).check(c)
                    counts[m][hit is None] += 1
                    counts[m][2] += _ring_repeats(c, color, mask, hit, m)
    for m, (hits, misses, skipped) in counts.items():
        assert hits >= 30 and misses >= 30 and skipped >= 100, (m, counts[m])


def test_w4_scan_runs_one_cycle_search_per_distinct_ring(base14, monkeypatch):
    # a cost guard: in the k = 5 tower, a blow-up, the vertices of a block
    # share their ring in every color that joins the block to the rest, and
    # find_mono(W4) searches each distinct ring of 4 or more vertices once
    tower, _ = build_lower_bound_witness(5, base14)
    assert tower.n == 140
    searched = []
    real = kernels.cycle4_within
    monkeypatch.setattr(
        kernels, "cycle4_within", lambda adj, mask: searched.append(mask) or real(adj, mask)
    )
    shared = 0
    for color in sorted(tower.colors_used()):
        searched.clear()
        assert find_mono(tower, W4, color) is None
        rings = [row for row in tower.rows(color) if row.bit_count() >= 4]
        assert sorted(searched) == sorted(set(rings))
        shared += len(rings) - len(searched)
    assert shared > tower.n


def test_embedding_json_round_trip_and_strict(pentagon):
    certs = [
        find_mono(join(pentagon, pentagon, 3), C4, 3),
        find_mono(mono(5), W4),
        find_rainbow_triangle(EdgeColoring(3, 3, [1, 2, 3])),
    ]
    for emb in certs:
        assert Embedding.from_json(emb.to_json()) == emb
    # once read as a colour-1 triangle on (0, 1, 2)
    with pytest.raises(ValueError):
        Embedding.from_json({"pattern": {"kind": "clique", "t": 3}, "color": 1.9,
                             "vertices": [0.7, 1, "2"]})
    data = certs[0].to_json()
    bad = [
        {"color": 1.9},
        {"color": 3.0},
        {"color": True},
        {"color": "3"},
        {"vertices": [0.7, 1, "2", 3]},
        {"vertices": [0, 1, 2, 3.0]},
        {"vertices": [0, 1, 2, False]},
        {"vertices": 5},
        {"vertices": None},
        {"pattern": "c4"},
        {"pattern": {"kind": "clique", "t": 3.0}},
    ]
    for override in bad:
        with pytest.raises(ValueError):
            Embedding.from_json({**data, **override})
    for key in ("color", "pattern", "vertices"):
        with pytest.raises(ValueError):
            Embedding.from_json({k: v for k, v in data.items() if k != key})
    for shape in (None, [], "c4", 7):
        with pytest.raises(ValueError):
            Embedding.from_json(shape)
    # maps that parse but that no host can certify
    c = join(pentagon, pentagon, 3)
    assert certs[0].check(c)
    # wrong length, a repeated vertex, out of range
    for vertices in (
        [0, 5, 1], [0, 5, 1, 6, 2], [0, 5, 0, 6], [0, 5, 1, 10], [-1, 5, 1, 6]
    ):
        assert not Embedding.from_json({**data, "vertices": vertices}).check(c)
    # a rainbow certificate names a triangle, never another pattern
    rainbow = EdgeColoring(4, 3, [1, 2, 3, 3, 1, 2])
    assert Embedding(K3, None, (0, 1, 2)).check(rainbow)
    for pattern in (P3, C4, PatternSpec.clique(4)):
        vm = tuple(range(pattern.order))
        assert not Embedding(pattern, None, vm).check(rainbow)


def test_pattern_spec_is_exactly_what_a_classmethod_builds():
    built = [W4, P3, C4, K3, PatternSpec.wheel(3), PatternSpec.clique(2),
             PatternSpec.explicit(4, [(2, 3), (0, 1), (1, 2)])]
    for p in built:
        assert PatternSpec(p.kind, p.order, p.edges) == p
        assert PatternSpec.from_json(p.to_json()) == p
    # kind, order and edges that disagree: once read as a triangle with no
    # edges to check, a K4 labelled wheel:3, and an "explicit" path whose
    # JSON round trip gave another object
    for kind, order, edges in [
        ("clique", 3, ()),
        ("wheel", 4, ((0, 1),)),
        ("bogus", 3, ((0, 1), (1, 2))),
        ("path3", 4, ((0, 1), (1, 2))),
        ("cycle4", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),  # unsorted
        ("explicit", 3, ((1, 2), (0, 1))),
        ("explicit", 3, [(0, 1), (1, 2)]),
        ("explicit", 3, 5),
        ("explicit", 3.0, ((0, 1), (1, 2))),
        (None, 3, ((0, 1), (1, 2))),
    ]:
        with pytest.raises(ValueError):
            PatternSpec(kind, order, edges)
    # the classmethods' own errors keep their messages
    for call, message in [
        (lambda: PatternSpec.explicit(3, [(1, 1), (1, 2)]), "is a loop"),
        (lambda: PatternSpec.explicit(3, [(0, 1), (1, 3)]), "out of range"),
        (lambda: PatternSpec.explicit(3, [(0, 1), (1, 0)]), "duplicate"),
        (lambda: PatternSpec.wheel(2), "at least 3 vertices"),
        (lambda: PatternSpec.clique(1), "at least 2 vertices"),
        (lambda: PatternSpec.explicit(1, []), "order must be 2..8"),
        (lambda: PatternSpec.explicit(9, [(0, 1)]), "order must be 2..8"),
        (lambda: PatternSpec.explicit(4, [(0, 1), (2, 3)]), "must be connected"),
        (lambda: PatternSpec.from_json({"kind": "bogus"}), "unknown pattern kind"),
    ]:
        with pytest.raises(ValueError, match=message):
            call()


def test_pattern_larger_than_host():
    # the scans themselves find nothing: find_mono has no size shortcut
    assert find_mono(mono(4), W4) is None
    assert find_mono(mono(2), K3) is None
    assert find_mono(mono(2), P3) is None
    assert find_mono(mono(3), C4, 1) is None
    assert find_mono(mono(4), PatternSpec.wheel(5)) is None
    assert find_mono(mono(3), PatternSpec.explicit(4, [(0, 1), (1, 2), (2, 3)])) is None


def test_mono_k5_contains_w4_deterministically():
    hit = find_mono(mono(5), W4)
    assert hit is not None
    # documented scan: hubs ascending, then rim pairs; frozen as regression
    assert hit.vertex_map == (1, 3, 2, 4, 0)
    assert hit.color == 1 and hit.check(mono(5))


def test_pentagon_color_classes_are_triangle_and_c4_free(pentagon):
    for color in (1, 2):
        assert find_mono(pentagon, K3, color) is None
        assert find_mono(pentagon, C4, color) is None
        assert find_mono(pentagon, P3, color) is not None


def test_join_of_pentagons_has_no_mono_w4(pentagon):
    j = join(pentagon, pentagon, 3)
    assert find_rainbow_triangle(j) is None
    assert find_mono(j, W4) is None
    for color in (1, 2, 3):
        assert not oracles.has_mono_w4(j, color)
    # but the cross color is rich in smaller patterns
    assert find_mono(j, C4, 3) is not None
    assert find_mono(j, K3) is None  # color 3 is bipartite, 1 and 2 are 5-cycles


def test_find_mono_color_validation(pentagon):
    with pytest.raises(ValueError):
        find_mono(pentagon, P3, 0)
    assert find_mono(pentagon, P3, 7) is None  # unused color, nothing to find


def test_color_and_vertex_arguments_are_ints():
    # a bool or float color once reached the certificate, which
    # Embedding.from_json rejects, and a float vertex escaped as TypeError
    c = mono(5)
    for hit in (find_mono(c, K3, 1), wheel_from_mono_pair(c, 3, 4, 1)):
        assert Embedding.from_json(hit.to_json()) == hit
    for bad in (True, 1.0, 0.5):
        for call in (
            lambda: find_mono(c, K3, bad),
            lambda: has_mono_p3_in_color(c, bad),
            lambda: wheel_from_mono_pair(c, 3, 4, bad),
            lambda: wheel_from_mono_pair(c, bad, 4, 1),
            lambda: wheel_from_mono_pair(c, 3, bad, 1),
            lambda: mono_complete_between(c, [bad], [2]),
            lambda: mono_complete_between(c, [0], [2, bad]),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                call()
    with pytest.raises(ValueError, match="colors are positive, got 0"):
        wheel_from_mono_pair(c, 3, 4, 0)


def test_find_mono_agrees_with_oracle_on_all_patterns():
    rng = random.Random(71)
    patterns = {P3: oracles.has_mono_p3, C4: oracles.has_mono_c4,
                K3: lambda c, i: oracles.has_mono_clique(c, i, 3),
                W4: oracles.has_mono_w4}
    for trial in range(60):
        n = rng.randint(4, 10)
        k = rng.randint(1, 4)
        c = oracles.arbitrary_coloring(n, k, trial * 977 + 5)
        for pattern, oracle in patterns.items():
            per_color = {i: oracle(c, i) for i in range(1, k + 1)}
            for i, want in per_color.items():
                hit = find_mono(c, pattern, i)
                assert (hit is not None) == want
                if hit is not None:
                    assert hit.color == i and hit.check(c)
            hit_any = find_mono(c, pattern)
            assert (hit_any is not None) == any(per_color.values())
            if hit_any is not None:
                assert hit_any.check(c)


def test_explicit_pattern_matches_named_equivalents():
    rng = random.Random(9)
    explicit_p3 = PatternSpec.explicit(3, [(0, 1), (1, 2)])
    explicit_c4 = PatternSpec.explicit(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for trial in range(25):
        c = oracles.arbitrary_coloring(rng.randint(4, 9), 3, trial + 400)
        for i in range(1, 4):
            assert (find_mono(c, explicit_p3, i) is None) == (
                find_mono(c, P3, i) is None
            )
            assert (find_mono(c, explicit_c4, i) is None) == (
                find_mono(c, C4, i) is None
            )
            hit = find_mono(c, explicit_c4, i)
            if hit is not None:
                assert hit.check(c)


def test_larger_wheel_against_generic_oracle():
    rng = random.Random(23)
    w6 = PatternSpec.wheel(6)
    for trial in range(12):
        c = oracles.arbitrary_coloring(rng.randint(7, 8), 2, trial + 60)
        for i in (1, 2):
            assert (find_mono(c, w6, i) is not None) == oracles.has_mono_wheel(c, i, 6)
            hit = find_mono(c, w6, i)
            if hit is not None:
                assert hit.check(c)


def test_clique_sizes():
    c = mono(6)
    for t in range(2, 7):
        hit = find_mono(c, PatternSpec.clique(t), 1)
        assert hit is not None and hit.vertex_map == tuple(range(t))
    assert find_mono(c, PatternSpec.clique(7), 1) is None


def test_has_mono_p3_matches_find_mono():
    rng = random.Random(5)
    for trial in range(80):
        c = oracles.arbitrary_coloring(rng.randint(2, 9), 3, trial + 900)
        for i in range(1, 4):
            assert has_mono_p3_in_color(c, i) == (find_mono(c, P3, i) is not None)
    with pytest.raises(ValueError):
        has_mono_p3_in_color(c, 0)


def test_perfect_matching_has_no_p3():
    # disjoint color-1 edges (0,1) and (2,3), everything else color 2
    c = EdgeColoring(4, 2, [1, 2, 2, 2, 2, 1])
    assert not has_mono_p3_in_color(c, 1)
    assert find_mono(c, P3, 1) is None


def test_mono_complete_between(pentagon):
    j = join(pentagon, pentagon, 3)
    assert mono_complete_between(j, range(5), range(5, 10)) == 3
    assert mono_complete_between(pentagon, [0], [1, 2]) is None  # colors 1 and 2
    assert mono_complete_between(pentagon, [0], [1]) == 1
    with pytest.raises(ValueError):
        mono_complete_between(j, [0, 5], [5, 6])
    with pytest.raises(ValueError):
        mono_complete_between(j, [], [1])


def test_wheel_from_mono_pair_example():
    c = mono(5)
    hit = wheel_from_mono_pair(c, 3, 4, 1)
    assert hit is not None
    assert hit.vertex_map == (0, 3, 2, 4, 1)  # rim v1 x v3 y, hub v2
    assert hit.check(c)


def test_wheel_from_mono_pair_precondition():
    c = EdgeColoring(4, 2, [1, 1, 1, 1, 2, 1])  # edge (1,2) breaks completeness
    with pytest.raises(PreconditionError):
        wheel_from_mono_pair(c, 0, 3, 1)
    with pytest.raises(ValueError):
        wheel_from_mono_pair(c, 0, 0, 1)


def test_wheel_from_mono_pair_without_path():
    # rest of the graph holds no color-1 path on three vertices
    c = EdgeColoring(4, 2, [1, 1, 1, 1, 1, 2])  # only edge (2,3) differs
    assert wheel_from_mono_pair(c, 0, 1, 1) is None
    # two vertices only: the rest is empty, trivially complete, no path
    assert wheel_from_mono_pair(EdgeColoring(2, 1, [1]), 0, 1, 1) is None


def test_wheel_from_mono_pair_agrees_with_detector():
    rng = random.Random(17)
    found_both_ways = 0
    for trial in range(60):
        n = rng.randint(3, 9)
        k = rng.randint(1, 3)
        inner = oracles.arbitrary_coloring(n, k, trial + 3000)
        color = rng.randint(1, k)
        # plant x, y joined to everything (and each other) in `color`
        flat = []
        for u in range(n + 2):
            for v in range(u + 1, n + 2):
                flat.append(inner.color_of(u, v) if v < n else color)
        c = EdgeColoring(n + 2, k, flat)
        x, y = n, n + 1
        emb = wheel_from_mono_pair(c, x, y, color)
        rest = restrict(c, range(n))
        if has_mono_p3_in_color(rest, color):
            assert emb is not None and emb.check(c)
            assert find_mono(c, W4, color) is not None
            found_both_ways += 1
        else:
            assert emb is None
    assert found_both_ways > 10
