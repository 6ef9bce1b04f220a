import random
import sys
from itertools import combinations

import pytest

import gallai.detect
import oracles
from gallai import (
    ApexSequence,
    EdgeColoring,
    GallaiPartition,
    PartitionCheck,
    PatternSpec,
    PreconditionError,
    build_lower_bound_witness,
    canonical_digest,
    check_apex_color_distinctness,
    cross_color_profile,
    find_gallai_partition,
    find_mono,
    find_rainbow_triangle,
    join,
    load_base14,
    peel_apex_sequence,
    pentagon_coloring,
    random_gallai,
    recolor,
    reduced_graph,
    restrict,
    substitute,
    verify_gallai_partition,
)
from gallai.kernels import (
    classes_within,
    coarsen,
    color_classes,
    components_avoiding,
    gallai_split,
    joined_to_all,
    least,
)

W4 = PatternSpec.wheel(4)


def mono(n, color=1):
    return EdgeColoring(n, color, [color] * (n * (n - 1) // 2))


@pytest.fixture(scope="module")
def witness4():
    w, _ = build_lower_bound_witness(4, load_base14())
    return w


def test_verify_accepts_join_halves(pentagon):
    j = join(pentagon, pentagon, 3)
    check = verify_gallai_partition(j, [range(5), range(5, 10)])
    assert check.ok and check.violations == ()
    assert bool(check) is True


def test_verify_singletons_of_two_coloring(pentagon):
    check = verify_gallai_partition(pentagon, [[v] for v in range(5)])
    assert check.ok


def test_verify_flags_rainbow_singletons():
    rainbow = EdgeColoring(3, 3, [1, 2, 3])
    check = verify_gallai_partition(rainbow, [[0], [1], [2]])
    assert not check.ok
    assert any("3 colors" in v for v in check.violations)


def test_verify_flags_bichromatic_pair(pentagon):
    check = verify_gallai_partition(pentagon, [[0, 1], [2, 3, 4]])
    assert not check.ok and bool(check) is False
    assert any("joined in colors" in v for v in check.violations)


def test_one_part_is_not_a_gallai_partition():
    c = random_gallai(12, 3, 5)
    check = verify_gallai_partition(c, [range(12)])
    assert check == PartitionCheck(
        False, ("a Gallai partition needs at least two parts, got 1",)
    )
    assert not verify_gallai_partition(EdgeColoring(1, 1, []), [[0]]).ok
    with pytest.raises(ValueError, match="at least two parts"):
        reduced_graph(c, [range(12)])


def test_verify_rejects_malformed(pentagon):
    with pytest.raises(ValueError):
        verify_gallai_partition(pentagon, [[0, 1], [1, 2, 3, 4]])  # overlap
    with pytest.raises(ValueError):
        verify_gallai_partition(pentagon, [[0, 1], [2, 3]])  # missing vertex
    with pytest.raises(ValueError):
        verify_gallai_partition(pentagon, [[0, 1, 2, 3, 4], []])  # empty part
    with pytest.raises(ValueError):
        verify_gallai_partition(pentagon, [[0, 1], [2, 3, 9]])  # out of range


def test_verify_checks_claimed_fields(pentagon):
    j = join(pentagon, pentagon, 3)
    good = find_gallai_partition(j)
    assert verify_gallai_partition(j, good).ok
    bad_reduced = GallaiPartition(
        good.parts, good.cross_colors, EdgeColoring(2, 3, [1])
    )
    check = verify_gallai_partition(j, bad_reduced)
    assert not check.ok
    bad_cross = GallaiPartition(good.parts, frozenset({1}), good.reduced)
    assert not verify_gallai_partition(j, bad_cross).ok


def test_find_partition_of_join(pentagon):
    j = join(pentagon, pentagon, 3)
    part = find_gallai_partition(j)
    assert part.p == 2
    assert part.parts == (tuple(range(5)), tuple(range(5, 10)))
    assert part.cross_colors == {3}
    assert part.reduced == EdgeColoring(2, 3, [3])


def test_find_partition_two_colors_gives_singletons(base14):
    part = find_gallai_partition(base14)
    assert part.p == 14
    assert all(len(p) == 1 for p in part.parts)
    # contracting singletons reproduces the coloring exactly
    assert part.reduced == base14
    assert canonical_digest(part.reduced) == canonical_digest(base14)


def test_find_partition_witness4_recovers_pentagon(witness4):
    part = find_gallai_partition(witness4)
    assert part.p == 5
    assert [len(p) for p in part.parts] == [14] * 5
    assert part.cross_colors == {3, 4}
    expected = recolor(pentagon_coloring(), {1: 3, 2: 4}, k=4)
    assert canonical_digest(part.reduced) == canonical_digest(expected)


def test_find_partition_preconditions():
    with pytest.raises(PreconditionError):
        find_gallai_partition(EdgeColoring(3, 3, [1, 2, 3]))
    with pytest.raises(ValueError):
        find_gallai_partition(EdgeColoring(1, 1, []))


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_find_partition_precondition_on_both_routes():
    rng = random.Random(808)
    triangle = EdgeColoring(3, 3, [1, 2, 3])
    cases = [triangle, join(triangle, EdgeColoring(1, 1, []), 4)]
    for trial in range(40):
        # arbitrary colorings, and arbitrary parts blown up into a
        # two-colored quotient whose colors they do not use
        cases.append(oracles.arbitrary_coloring(rng.randint(4, 9), 4, trial + 70))
        quotient = oracles.arbitrary_coloring(rng.randint(2, 4), 2, trial + 90)
        parts = [
            oracles.arbitrary_coloring(rng.randint(1, 5), 3, trial * 7 + j)
            for j in range(quotient.n)
        ]
        cases.append(substitute(recolor(quotient, {1: 4, 2: 5}), parts))
    routes = {"rainbow cluster": 0, "no split": 0}
    for c in cases:
        if find_rainbow_triangle(c) is None:
            continue
        split = gallai_split(color_classes(c), c.vertex_mask)
        if split is None:
            routes["no split"] += 1
        else:
            assert any(oracles.rainbow_triangles(restrict(c, _members(m))) for m in split)
            routes["rainbow cluster"] += 1
        with pytest.raises(PreconditionError) as exc:
            find_gallai_partition(c)
        want = f"rainbow triangle at vertices {find_rainbow_triangle(c).vertex_map}"
        assert str(exc.value) == want
    assert min(routes.values()) >= 10, routes


def test_find_partition_on_near_gallai_colorings(near_gallai):
    routes = {"valid": 0, "rainbow cluster": 0, "no split": 0}
    for c, least in near_gallai:
        if least is None:
            assert verify_gallai_partition(c, find_gallai_partition(c)).ok
            routes["valid"] += 1
            continue
        with pytest.raises(PreconditionError) as exc:
            find_gallai_partition(c)
        assert str(exc.value) == f"rainbow triangle at vertices {least}"
        split = gallai_split(color_classes(c), c.vertex_mask)
        routes["no split" if split is None else "rainbow cluster"] += 1
    assert min(routes.values()) >= 10, routes


def test_each_coloring_is_proved_once(near_gallai, monkeypatch):
    # the top split runs where the proof helper looks gallai_split up;
    # the splits below it run inside kernels.rainbow_free
    tops = []

    def counted(classes, mask):
        tops.append(mask)
        return gallai_split(classes, mask)

    monkeypatch.setattr(gallai.detect, "gallai_split", counted)
    routes = {"valid": 0, "rainbow": 0}
    for c0, least in near_gallai:
        # fresh copies: the fixture's colorings may already hold a proof
        c, again = (EdgeColoring(c0.n, c0.k, c0.edge_colors) for _ in range(2))
        tops.clear()
        hit = find_rainbow_triangle(c)
        assert (hit and hit.vertex_map) == least
        assert tops == [c.vertex_mask] * (len(c.colors_used()) >= 3)
        tops.clear()
        if least is None:
            part = find_gallai_partition(c)
            assert tops == []
            assert part == find_gallai_partition(again)
            routes["valid"] += 1
        else:
            with pytest.raises(PreconditionError) as exc:
                find_gallai_partition(c)
            assert tops == []
            assert str(exc.value) == f"rainbow triangle at vertices {least}"
            with pytest.raises(PreconditionError):
                find_gallai_partition(again)
            routes["rainbow"] += 1
        # and the other way round: the partition's proof serves the detector
        tops.clear()
        assert find_rainbow_triangle(again) == hit
        assert tops == []
    assert min(routes.values()) >= 10, routes


def _coarsen_all_pairs(c, clusters):
    # the former all-pairs coarsening: merge the first two clusters not
    # joined in one color, then start again from the first pair
    work = list(clusters)
    while True:
        for i, j in combinations(range(len(work)), 2):
            pairs = [(u, v) for u in _members(work[i]) for v in _members(work[j])]
            if len({c.color_of(u, v) for u, v in pairs}) > 1:
                work[i] |= work.pop(j)
                break
        else:
            return work


def _components_brute(c, a, b, mask):
    # components of the mask under edges colored neither a nor b
    comps = []
    left = set(_members(mask))
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            u = todo.pop()
            if u not in comp:
                comp.add(u)
                todo += [v for v in left - comp if c.color_of(u, v) not in (a, b)]
        comps.append(sum(1 << v for v in comp))
        left -= comp
    return comps


def test_coarsen_matches_all_pairs_oracle():
    # components_avoiding stops once every vertex left is reached: on a
    # full mask with three or more colors most pairs leave one component,
    # and with several the stop ends the last one
    rng = random.Random(5150)
    cases = [random_gallai(rng.randint(2, 14), rng.randint(2, 5), t + 61_000) for t in range(40)]
    cases += [oracles.arbitrary_coloring(rng.randint(2, 10), rng.randint(3, 5), t + 62_000) for t in range(40)]
    cases += [random_gallai(rng.randint(15, 30), rng.randint(3, 6), t + 63_000) for t in range(10)]
    merged = many = whole = several = 0
    for c in cases:
        used = sorted(c.colors_used())
        for a, b in combinations(used, 2):
            for trial in range(4):
                mask = c.vertex_mask if trial == 0 else rng.getrandbits(c.n) or 1
                comps = components_avoiding(c.rows(a), c.rows(b), mask)
                assert comps == _components_brute(c, a, b, mask)
                whole += trial == 0 and len(used) >= 3 and len(comps) == 1
                several += len(comps) >= 2
                got = coarsen(c.rows(a), c.rows(b), mask, comps)
                want = _coarsen_all_pairs(c, comps)
                assert sorted(got) == sorted(want)
                merged += len(got) < len(comps)
                many += len(got) >= 4
    assert merged >= 100 and many >= 100, (merged, many)
    assert whole >= 100 and several >= 100, (whole, several)


class _CountingRows(tuple):
    # rows that count how often a kernel reads them
    reads = 0

    def __getitem__(self, i):
        _CountingRows.reads += 1
        return tuple.__getitem__(self, i)


def test_components_walk_stops_once_it_reaches_every_vertex():
    # the k = 6 tower (n = 350): 14 of its 15 color pairs leave one
    # component, where the full walk read two rows per vertex (9,800)
    w, _ = build_lower_bound_witness(6, load_base14())
    one = reads = 0
    for a, b in combinations(sorted(w.colors_used()), 2):
        _CountingRows.reads = 0
        rows_a, rows_b = _CountingRows(w.rows(a)), _CountingRows(w.rows(b))
        comps = components_avoiding(rows_a, rows_b, w.vertex_mask)
        if comps == [w.vertex_mask]:
            one += 1
            reads += _CountingRows.reads
    assert one == 14
    assert reads <= 3_000, reads


def _chain(n):
    # color(i, j) = 1 + i mod 3 for i < j: each Gallai split peels off a
    # vertex or two, so the splits nest about 2n/3 deep
    return EdgeColoring(n, 3, [1 + i % 3 for i in range(n) for _ in range(i + 1, n)])


def _split_depth(c):
    deepest = 0
    work = [(c.vertex_mask, 0)]
    while work:
        mask, depth = work.pop()
        deepest = max(deepest, depth)
        classes = classes_within(color_classes(c), mask)
        if len(classes) >= 3:
            work += [(m, depth + 1) for m in gallai_split(classes, mask)]
    return deepest


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_decomposition_runs_without_recursion():
    c = _chain(150)
    margin = 40
    assert _split_depth(c) > 2 * margin
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + margin)
    try:
        hit = find_rainbow_triangle(c)
        part = find_gallai_partition(c)
    finally:
        sys.setrecursionlimit(old)
    assert hit is None
    assert verify_gallai_partition(c, part).ok


def test_find_partition_fuzz_valid_and_narrow():
    rng = random.Random(3021)
    for trial in range(60):
        n = rng.randint(2, 40)
        k = rng.randint(1, 6)
        c = random_gallai(n, k, trial + 50_000)
        part = find_gallai_partition(c)
        assert part.p >= 2
        assert verify_gallai_partition(c, part).ok
        assert len(part.cross_colors) <= 2
        assert part.reduced.colors_used() == part.cross_colors


def test_reduced_graph_matches_partition(witness4):
    part = find_gallai_partition(witness4)
    red = reduced_graph(witness4, part.parts)
    assert red == part.reduced
    with pytest.raises(ValueError):
        reduced_graph(witness4, [range(35), range(35, 70)])  # not monochromatic


def test_reduced_graph_rejects_invalid(pentagon):
    with pytest.raises(ValueError):
        reduced_graph(pentagon, [[0, 1], [2, 3, 4]])


def test_partition_part_listing_a_vertex_twice_is_rejected():
    c = random_gallai(12, 3, 5)
    parts = [list(part) for part in find_gallai_partition(c).parts]
    assert verify_gallai_partition(c, parts).ok
    # a part may be any iterable, read once
    assert verify_gallai_partition(c, [iter(part) for part in parts]).ok
    parts[0].append(parts[0][0])
    for check in (verify_gallai_partition, reduced_graph):
        with pytest.raises(ValueError, match="part 0 lists a vertex twice"):
            check(c, parts)


def test_peel_monochromatic_clique():
    seq = peel_apex_sequence(mono(6))
    assert seq.entries == tuple((v, 1) for v in range(5))
    assert seq.remainder == (5,)


def test_peel_pentagon_has_no_apex(pentagon):
    seq = peel_apex_sequence(pentagon)
    assert seq.entries == ()
    assert seq.remainder == (0, 1, 2, 3, 4)


def test_peel_single_apex_then_pentagon(pentagon):
    c = join(EdgeColoring(1, 2, []), pentagon, 3)
    seq = peel_apex_sequence(c)
    assert seq.entries == ((0, 3),)
    assert seq.remainder == (1, 2, 3, 4, 5)


def test_peel_is_maximal():
    rng = random.Random(77)
    for trial in range(40):
        c = random_gallai(rng.randint(2, 25), rng.randint(1, 4), trial + 7_000)
        seq = peel_apex_sequence(c)
        rest = set(seq.remainder)
        if len(rest) < 2:
            continue
        for x in seq.remainder:
            others = rest - {x}
            colors = {c.color_of(x, y) for y in others}
            assert len(colors) > 1  # no leftover apex


def test_peel_replays_consistently():
    rng = random.Random(78)
    for trial in range(30):
        c = random_gallai(rng.randint(2, 20), rng.randint(1, 4), trial + 8_000)
        seq = peel_apex_sequence(c)
        assert check_apex_color_distinctness(c, seq) in (True, False)


def test_apex_distinctness_on_wheel_free_samples():
    rng = random.Random(80)
    checked = 0
    for trial in range(200):
        c = random_gallai(rng.randint(3, 14), rng.randint(1, 4), trial + 9_000)
        if find_mono(c, W4) is not None:
            continue
        seq = peel_apex_sequence(c)
        assert check_apex_color_distinctness(c, seq)
        checked += 1
    assert checked > 50


def test_apex_distinctness_with_wheel_present():
    # repeated apex colors and paths galore, but the wheel is there, so
    # the implication holds
    c = mono(6)
    seq = peel_apex_sequence(c)
    assert check_apex_color_distinctness(c, seq)


def test_apex_distinctness_rejects_bogus_sequences(pentagon):
    with pytest.raises(ValueError):
        check_apex_color_distinctness(pentagon, ApexSequence(((0, 1),), (1, 2, 3, 4)))
    c = mono(4)
    with pytest.raises(ValueError):
        check_apex_color_distinctness(c, ApexSequence(((0, 1), (0, 1)), (2, 3)))
    with pytest.raises(ValueError):
        check_apex_color_distinctness(c, ApexSequence(((0, 1),), (1, 2)))  # bad rest


def test_cross_color_profile_on_witness(witness4):
    # relative to the first block, the pentagon row fixes who is joined
    # in color 3 and who in color 4
    block = range(14)
    blue, red, other = cross_color_profile(witness4, block, (4, 3))
    assert blue == tuple(range(14, 28)) + tuple(range(56, 70))  # color 3 complete
    assert red == tuple(range(28, 56))  # color 4 complete
    assert other == ()


def test_cross_color_profile_mixed(pentagon):
    j = join(pentagon, pentagon, 3)
    blue, red, other = cross_color_profile(j, range(5), (1, 3))
    assert blue == tuple(range(5, 10)) and red == () and other == ()
    # inside the pentagon nobody is complete to a 3-set in one color
    blue, red, other = cross_color_profile(pentagon, [0, 1, 2], (1, 2))
    assert blue == () and red == () and other == (3, 4)


def test_cross_color_profile_validation(pentagon):
    with pytest.raises(ValueError):
        cross_color_profile(pentagon, [], (1, 2))
    with pytest.raises(ValueError):
        cross_color_profile(pentagon, [0], (2, 2))
    with pytest.raises(ValueError):
        cross_color_profile(pentagon, [9], (1, 2))
    for bad in (True, 1.0, 0.5):
        with pytest.raises(ValueError, match="must be an integer"):
            cross_color_profile(pentagon, [0], (bad, 2))
        with pytest.raises(ValueError, match="must be an integer"):
            cross_color_profile(pentagon, [bad], (1, 2))


# -- the joined_to_all checks against color_of references --------------------


def _old_colors_between(c, xs, ymask):
    found = set()
    for a in xs:
        rest = ymask
        while rest:
            col = c.color_of(a, least(rest))
            found.add(col)
            rest &= ~c.neighbors(col, a)
    return found


def _old_verify(c, partition):
    # reference for verify_gallai_partition on well-formed partitions: at
    # least two parts, and every color between two parts, found vertex by
    # vertex with color_of
    expected = partition if isinstance(partition, GallaiPartition) else None
    raw = partition.parts if expected is not None else partition
    parts = [(tuple(sorted(set(p))), sum(1 << v for v in set(p))) for p in raw]
    violations = []
    if len(parts) < 2:
        violations.append(f"a Gallai partition needs at least two parts, got {len(parts)}")
    cross = set()
    pair_color = {}
    for i, j in combinations(range(len(parts)), 2):
        between = _old_colors_between(c, parts[i][0], parts[j][1])
        cross |= between
        if len(between) > 1:
            violations.append(f"parts {i} and {j} are joined in colors {sorted(between)}")
        else:
            pair_color[(i, j)] = next(iter(between))
    if len(cross) > 2:
        violations.append(
            f"{len(cross)} colors appear between parts ({sorted(cross)}), at most 2 allowed"
        )
    if expected is not None:
        if expected.cross_colors != frozenset(cross):
            violations.append(
                f"claimed cross colors {sorted(expected.cross_colors)} "
                f"but found {sorted(cross)}"
            )
        red = expected.reduced
        if red.n != len(parts):
            violations.append(f"reduced graph has {red.n} vertices for {len(parts)} parts")
        else:
            for (i, j), col in pair_color.items():
                if red.color_of(i, j) != col:
                    violations.append(
                        f"reduced edge ({i},{j}) is color {red.color_of(i, j)}, "
                        f"parts are joined in {col}"
                    )
    return PartitionCheck(not violations, tuple(violations))


def _random_coloring(rng, n, k):
    return EdgeColoring(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])


def _random_partition(rng, n):
    # 1..n nonempty parts in random order, each vertex list shuffled
    p = rng.randint(1, n)
    vs = list(range(n))
    rng.shuffle(vs)
    parts = [[v] for v in vs[:p]]
    for v in vs[p:]:
        rng.choice(parts).append(v)
    for part in parts:
        rng.shuffle(part)
    return parts


def _blowup(rng, k):
    # a 2-colored quotient blown up: its blocks are a valid partition
    p = rng.randint(2, 6)
    quotient = _random_coloring(rng, p, 2)
    sizes = [rng.randint(1, 5) for _ in range(p)]
    parts = [random_gallai(size, k, rng.randrange(10**6)) for size in sizes]
    blocks, start = [], 0
    for part in parts:
        blocks.append(list(range(start, start + part.n)))
        start += part.n
    return substitute(quotient, parts), blocks


def _partition_cases():
    rng = random.Random(2026)
    cases = []
    for trial in range(80):
        n, k = rng.randint(1, 30), rng.randint(1, 5)
        for c in (random_gallai(n, k, trial + 60_000), _random_coloring(rng, n, k)):
            cases.append((c, _random_partition(rng, n)))
    for trial in range(40):
        c, blocks = _blowup(rng, rng.randint(1, 4))
        cases.append((c, blocks))
        v = rng.randrange(c.n)  # one vertex moved to another block
        moved = [[u for u in b if u != v] for b in blocks]
        rng.choice(moved).append(v)
        cases.append((c, [b for b in moved if b]))
    for trial in range(40):
        c = random_gallai(rng.randint(2, 30), rng.randint(1, 5), trial + 61_000)
        part = find_gallai_partition(c)
        cases.append((c, part))
        cases.append((c, part.parts))
        cross = set(part.cross_colors) ^ {rng.randint(1, c.k + 1)}
        cases.append((c, GallaiPartition(part.parts, frozenset(cross), part.reduced)))
        if part.p >= 2:
            i, j = sorted(rng.sample(range(part.p), 2))
            old = part.reduced.color_of(i, j)
            wrong = recolor(part.reduced, {old: old % c.k + 1}, c.k)
            cases.append((c, GallaiPartition(part.parts, part.cross_colors, wrong)))
        wrong = EdgeColoring(part.p + 1, c.k, [1] * ((part.p + 1) * part.p // 2))
        cases.append((c, GallaiPartition(part.parts, part.cross_colors, wrong)))
    return cases


def test_verify_matches_old_checker_and_reduced_graph_contracts():
    cases = _partition_cases()
    assert len(cases) >= 200
    outcomes = set()
    for c, partition in cases:
        check = verify_gallai_partition(c, partition)
        assert check == _old_verify(c, partition)
        outcomes.add(check.ok)
        if isinstance(partition, GallaiPartition):
            continue
        reps = [min(part) for part in partition]
        if _old_verify(c, partition).ok:
            want = [c.color_of(a, b) for a, b in combinations(reps, 2)]
            assert reduced_graph(c, partition) == EdgeColoring(len(reps), c.k, want)
        else:
            with pytest.raises(ValueError):
                reduced_graph(c, partition)
    assert outcomes == {True, False}


def test_joined_to_all_and_cross_profile_match_color_of_loops():
    rng = random.Random(2027)
    for trial in range(150):
        n, k = rng.randint(1, 20), rng.randint(1, 4)
        if trial % 2:
            c = random_gallai(n, k, trial + 62_000)
        else:
            c = _random_coloring(rng, n, k)
        group = rng.sample(range(n), rng.randint(0, n))
        gmask = sum(1 << v for v in group)
        for col in range(1, k + 2):
            joined = [
                v for v in range(n)
                if v not in group and all(c.color_of(v, g) == col for g in group)
            ]
            got = joined_to_all(c.rows(col), gmask)
            assert got == (-1 if not group else sum(1 << v for v in joined))
        if not group:
            continue
        red, blue = rng.sample(range(1, k + 2), 2)
        sides = ([], [], [])
        for v in range(n):
            if v not in group:
                cols = {c.color_of(v, g) for g in group}
                sides[0 if cols == {blue} else 1 if cols == {red} else 2].append(v)
        assert cross_color_profile(c, group, (red, blue)) == tuple(map(tuple, sides))
