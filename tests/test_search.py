import random
from itertools import combinations

import pytest

import oracles
from gallai import (
    PartialColoring,
    PatternSpec,
    SearchTask,
    find_mono,
    find_rainbow_triangle,
    incremental_conflict,
    search_witness,
    verify_unavoidable,
)

W4 = PatternSpec.wheel(4)
P3 = PatternSpec.path3()
C4 = PatternSpec.cycle4()
K3 = PatternSpec.clique(3)
# a triangle 0-1-2 with the path 2-3-4 hanging off it
TRIANGLE_WITH_TAIL = PatternSpec.explicit(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
PATTERN_MENU = [
    ((W4, None),),
    ((K3, None),),
    ((C4, None), (P3, None)),
    ((PatternSpec.clique(4), None),),
    # wheel:3 and explicit patterns take the generic through-edge path
    ((PatternSpec.wheel(3), None),),
    ((TRIANGLE_WITH_TAIL, None),),
]


def test_task_validation():
    with pytest.raises(ValueError):
        SearchTask(n=0, k=2)
    with pytest.raises(ValueError):
        SearchTask(n=3, k=0)
    with pytest.raises(ValueError):
        SearchTask(n=3, k=2, symmetry="mirror")
    with pytest.raises(ValueError):
        SearchTask(n=3, k=2, node_limit=0)
    with pytest.raises(ValueError):
        SearchTask(n=3, k=2, forbidden=((K3, 3),))  # color outside palette
    with pytest.raises(ValueError):
        # scoped pattern under color symmetry is rejected outright
        SearchTask(n=3, k=2, forbidden=((K3, 1),), symmetry="colorSwap")
    SearchTask(n=3, k=2, forbidden=((K3, 1),), symmetry="none")
    # fields are type-checked, never coerced
    for bad in (
        {"n": 5.0},
        {"k": True},
        {"node_limit": 100.0},
        {"seed": "1"},
        {"forbid_rainbow_triangle": 1},
        {"forbidden": ((K3, 1.0),), "symmetry": "none"},
    ):
        with pytest.raises(ValueError):
            SearchTask(**{"n": 3, "k": 2, **bad})
    # JSON is taken as written: {"n": 5.9} is not n = 5, and the string
    # "false" does not switch the rainbow check on
    explicit_p3 = {"kind": "explicit", "order": 3, "edges": [[0, 1], [1, 2]]}
    for override in (
        {"n": 5.9},
        {"n": "5"},
        {"n": True},
        {"k": 2.0},
        {"forbid_rainbow_triangle": "false"},
        {"forbid_rainbow_triangle": 0},
        {"symmetry": 5},
        {"symmetry": None},
        {"node_limit": 1e6},
        {"seed": 1.5},
        {"forbidden": [{"pattern": {"kind": "clique", "t": 3}, "color": 1.0}]},
        {"forbidden": [{"pattern": {"kind": "wheel", "m": 4.0}, "color": None}]},
        {"forbidden": [{"pattern": {"kind": "clique", "t": "3"}, "color": None}]},
        {"forbidden": [{"pattern": explicit_p3 | {"order": 3.0}}]},
        {"forbidden": [{"pattern": explicit_p3 | {"edges": [[0, 1.0], [1, 2]]}}]},
        {"forbidden": [{"pattern": explicit_p3 | {"edges": [[0, 1, 2]]}}]},
        {"forbidden": [{"pattern": "k3"}]},
        {"forbidden": ["k3"]},
        {"forbidden": 3},
    ):
        with pytest.raises(ValueError):
            SearchTask.from_json({"n": 5, "k": 2, "symmetry": "none", **override})
    ok = {"n": 5, "k": 2, "symmetry": "none", "forbidden": [{"pattern": explicit_p3}]}
    assert SearchTask.from_json(ok).forbidden[0][0].kind == "explicit"


def test_task_json_round_trip():
    task = SearchTask(
        n=6,
        k=3,
        forbidden=((K3, None), (P3, 2)),
        forbid_rainbow_triangle=True,
        symmetry="none",
        node_limit=123,
        seed=9,
    )
    assert SearchTask.from_json(task.to_json()) == task


def test_triangle_free_two_coloring_of_k5():
    out = search_witness(SearchTask(n=5, k=2, forbidden=((K3, None),)))
    assert out.status == "witness"
    w = out.witness
    assert find_mono(w, K3) is None
    assert w.color_of(0, 1) == 1  # colorSwap normalization


def test_k6_two_colors_always_has_triangle():
    out = search_witness(SearchTask(n=6, k=2, forbidden=((K3, None),)))
    assert out.status == "exhausted" and out.witness is None


def test_single_vertex_task_is_trivial():
    out = search_witness(SearchTask(n=1, k=3, forbidden=((K3, None),)))
    assert out.status == "witness" and out.witness.n == 1


def test_forbidden_everywhere_is_unsatisfiable():
    out = search_witness(SearchTask(n=2, k=2, forbidden=((PatternSpec.clique(2), None),)))
    assert out.status == "exhausted"


def test_budget_is_tested_only_before_an_untried_color():
    # R(3,3) = 6: the tree is exhausted after exactly 183 nodes, so a
    # limit of 183 still proves it and one node less does not
    task = dict(n=6, k=2, forbidden=((K3, None),))
    out = search_witness(SearchTask(**task))
    assert (out.status, out.stats.nodes) == ("exhausted", 183)
    out = search_witness(SearchTask(**task, node_limit=183))
    assert (out.status, out.stats.nodes) == ("exhausted", 183)
    out = search_witness(SearchTask(**task, node_limit=182))
    assert (out.status, out.stats.nodes) == ("limit_reached", 182)


def test_node_limit_reached():
    out = search_witness(
        SearchTask(n=10, k=2, forbidden=((K3, None),), node_limit=5)
    )
    assert out.status == "limit_reached"
    assert out.stats.nodes == 5


def test_rainbow_flag_enforced():
    task = SearchTask(n=6, k=3, forbid_rainbow_triangle=True, symmetry="none", seed=1)
    out = search_witness(task)
    assert out.status == "witness"
    assert find_rainbow_triangle(out.witness) is None


def test_determinism_same_task_same_stats():
    task = SearchTask(n=10, k=2, forbidden=((W4, None),), seed=4)
    a = search_witness(task)
    b = search_witness(task)
    assert a.status == b.status == "witness"
    assert a.witness == b.witness
    assert (a.stats.nodes, a.stats.prunes) == (b.stats.nodes, b.stats.prunes)


def test_symmetry_modes_agree_on_verdicts():
    cases = [
        (5, 2, K3, "witness"),
        (6, 2, K3, "exhausted"),
        (4, 3, P3, "witness"),  # proper edge coloring of K4
        (3, 2, P3, "exhausted"),  # K3 has chromatic index 3
        (3, 1, P3, "exhausted"),
        (5, 1, W4, "exhausted"),
    ]
    for n, k, pattern, expected in cases:
        for symmetry in ("none", "colorSwap", "vertexOrder"):
            out = search_witness(
                SearchTask(n=n, k=k, forbidden=((pattern, None),), symmetry=symmetry)
            )
            assert out.status == expected, (n, k, pattern.label, symmetry)


def test_symmetry_prunes_reduce_work():
    def nodes(symmetry):
        return search_witness(
            SearchTask(n=6, k=2, forbidden=((K3, None),), symmetry=symmetry)
        ).stats.nodes

    assert nodes("vertexOrder") <= nodes("colorSwap") <= nodes("none")


def test_verify_unavoidable_statuses():
    assert verify_unavoidable(6, 2, K3).status == "confirmed"
    got = verify_unavoidable(5, 2, K3)
    assert got.status == "counterexample"
    assert find_mono(got.counterexample, K3) is None
    assert verify_unavoidable(6, 2, K3, cap=3).status == "too_large"


def test_verify_unavoidable_recovers_base14(base14):
    got = verify_unavoidable(14, 2, W4)
    assert got.status == "counterexample"
    assert got.counterexample == base14


def test_scoped_color_task():
    # forbid triangles only in color 1: fill with color 1 elsewhere fails,
    # but anything triangle-free in class 1 passes
    out = search_witness(
        SearchTask(n=6, k=2, forbidden=((K3, 1),), symmetry="none")
    )
    assert out.status == "witness"
    assert find_mono(out.witness, K3, 1) is None


def test_partial_coloring_api():
    task = SearchTask(n=4, k=2, forbidden=((K3, None),))
    pc = PartialColoring(task)
    assert pc.color_at(0, 1) == 0
    pc.assign(0, 1, 1)
    assert pc.color_at(1, 0) == 1
    with pytest.raises(ValueError):
        pc.assign(0, 1, 2)  # already colored
    with pytest.raises(ValueError):
        pc.assign(0, 2, 3)  # color out of range
    with pytest.raises(ValueError):
        pc.unassign(2, 3)  # not colored
    pc.unassign(0, 1)
    assert pc.color_at(0, 1) == 0


def test_incremental_conflict_triangle():
    task = SearchTask(n=3, k=2, forbidden=((K3, None),))
    pc = PartialColoring(task)
    pc.assign(0, 1, 1)
    assert not incremental_conflict(pc, (0, 1))
    pc.assign(0, 2, 1)
    assert not incremental_conflict(pc, (0, 2))
    pc.assign(1, 2, 1)
    assert incremental_conflict(pc, (1, 2))
    pc.unassign(1, 2)
    pc.assign(1, 2, 2)
    assert not incremental_conflict(pc, (1, 2))
    with pytest.raises(ValueError):
        incremental_conflict(pc, (0, 1)) if pc.color_at(0, 1) == 0 else None
        pc2 = PartialColoring(task)
        incremental_conflict(pc2, (0, 1))


def test_incremental_conflict_scoped_color():
    task = SearchTask(n=4, k=2, forbidden=((P3, 1),), symmetry="none")
    pc = PartialColoring(task)
    pc.assign(0, 1, 1)
    pc.assign(0, 2, 1)
    assert incremental_conflict(pc, (0, 2))  # path 1-0-2 in color 1
    pc.unassign(0, 2)
    pc.assign(0, 2, 2)
    pc.assign(0, 3, 2)
    assert not incremental_conflict(pc, (0, 3))  # color 2 paths are allowed


def test_incremental_conflict_vs_rescan_oracle():
    rng = random.Random(4242)
    checked = 0
    for trial in range(120):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        forbidden = PATTERN_MENU[trial % len(PATTERN_MENU)]
        task = SearchTask(n=n, k=k, forbidden=forbidden, symmetry="none")
        pc = PartialColoring(task)
        edges = list(combinations(range(n), 2))
        rng.shuffle(edges)
        filled = []
        for u, v in edges[: rng.randint(2, len(edges))]:
            pc.assign(u, v, rng.randint(1, k))
            filled.append((u, v))
        for edge in filled:
            fast = incremental_conflict(pc, edge)
            color = pc.color_at(*edge)
            slow = any(
                oracles.conflict_through_edge(pc, pat, color, edge)
                for pat, scope in forbidden
                if scope is None or scope == color
            )
            assert fast == slow, (n, k, edge, forbidden)
            checked += 1
    assert checked >= 1000


def test_conflict_on_open_edge_equals_conflict_after_assign():
    # the forward check probes open edges; this pins that no check reads
    # the bit of the edge itself
    rng = random.Random(777)
    checked = 0
    for trial in range(96):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        task = SearchTask(
            n=n,
            k=k,
            forbidden=PATTERN_MENU[trial % len(PATTERN_MENU)],
            forbid_rainbow_triangle=trial // len(PATTERN_MENU) % 2 == 1,
            symmetry="none",
        )
        pc = PartialColoring(task)
        edges = list(combinations(range(n), 2))
        rng.shuffle(edges)
        cut = rng.randint(1, len(edges) - 1)
        for u, v in edges[:cut]:
            pc.assign(u, v, rng.randint(1, k))
        for u, v in edges[cut:]:
            for color in range(1, k + 1):
                open_answer = pc.conflict(u, v, color)
                pc.assign(u, v, color)
                assert pc.conflict(u, v, color) == open_answer, (task, u, v, color)
                pc.unassign(u, v)
                checked += 1
    assert checked >= 1000


def test_incremental_rainbow_vs_rescan():
    rng = random.Random(515)
    task = SearchTask(n=7, k=4, forbid_rainbow_triangle=True, symmetry="none")
    for trial in range(60):
        pc = PartialColoring(task)
        edges = list(combinations(range(7), 2))
        rng.shuffle(edges)
        filled = edges[: rng.randint(3, len(edges))]
        for u, v in filled:
            pc.assign(u, v, rng.randint(1, 4))
        for edge in filled:
            assert incremental_conflict(pc, edge) == oracles.rainbow_through_edge(
                pc, edge
            )


def test_restarts_engage_and_stay_deterministic():
    # a budget small enough to force a few restarts on an unsatisfiable task
    task = SearchTask(n=6, k=2, forbidden=((K3, None),), symmetry="none",
                      node_limit=100_000, seed=3)
    out = search_witness(task)
    assert out.status == "exhausted"
    # same outcome and accounting when rerun
    again = search_witness(task)
    assert (out.stats.nodes, out.stats.prunes, out.stats.restarts) == (
        again.stats.nodes,
        again.stats.prunes,
        again.stats.restarts,
    )


def test_witnesses_are_revalidated_by_detectors():
    # spot check: every witness the engine hands back survives the
    # independent oracles too
    rng = random.Random(99)
    for trial in range(10):
        n = rng.randint(4, 9)
        task = SearchTask(n=n, k=2, forbidden=((W4, None),), seed=trial)
        out = search_witness(task)
        assert out.status == "witness"
        for color in (1, 2):
            assert not oracles.has_mono_w4(out.witness, color)
