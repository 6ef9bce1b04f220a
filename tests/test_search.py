import hashlib
import json
import random
from itertools import combinations, permutations, product

import pytest

import oracles
from gallai import (
    PartialColoring,
    PatternSpec,
    SearchTask,
    find_mono,
    find_rainbow_triangle,
    search_witness,
    verify_unavoidable,
)
from gallai import search as search_module
from gallai.coloring import canonical_digest
from gallai.kernels import cycle4_through, wheel4_through

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
# a triangle 0-1-2 with the edge 2-3 hanging off it: minimum degree 1,
# and the edge 2-3 in no triangle, so neither skip rule holds for it
TRIANGLE_WITH_PENDANT = PatternSpec.explicit(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
# SHA-256 of the search trees of _pinned_matrix's tasks: status, node
# count, prunes by cause, restart count and witness digest of each
PINNED_TREE_DIGEST = (
    "67b9aaec27e1f099d4c9863e9ee8d5e79ba077f12464b95ecef4f675b38b7c69"
)
# SHA-256 of the same rows with each task's PartialColoring.conflict
# probes appended, when every probe runs (the engine before the skip rules)
PINNED_PROBE_ALL_DIGEST = (
    "da2742e4ca8f2f16868ebeab3c1c0a64f9a9903a8d5972bcc6ca6b4b4ce8f939"
)
# SHA-256 of the probe count of each task under the skip rules
PINNED_PROBES_DIGEST = (
    "6d138b0fe3c312c1e70dde95353460c51d76abbfeac24ba550de440bc1076dbc"
)


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
    with pytest.raises(ValueError, match="not a pattern: 'k3'"):
        SearchTask(n=3, k=2, forbidden=(("k3", None),))
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
        {"forbid_rainbow_triangle": None},
        {"node_limit": None},
        {"seed": None},
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
    # a key left out takes the constructor's default
    assert SearchTask.from_json({"n": 5, "k": 2}) == SearchTask(5, 2)


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


def test_incremental_conflict_triangle():
    task = SearchTask(n=3, k=2, forbidden=((K3, None),))
    partial = oracles.PartialAssignment(3)
    partial[0, 1] = 1
    assert not oracles.fill(PartialColoring(task), partial).conflict(0, 1, 1)
    partial[0, 2] = 1
    assert not oracles.fill(PartialColoring(task), partial).conflict(0, 2, 1)
    partial[1, 2] = 1
    assert oracles.fill(PartialColoring(task), partial).conflict(1, 2, 1)
    partial[1, 2] = 2
    assert not oracles.fill(PartialColoring(task), partial).conflict(1, 2, 2)
    # an edge of the empty coloring completes nothing, in either color
    empty = PartialColoring(task)
    assert not empty.conflict(0, 1, 1) and not empty.conflict(0, 1, 2)


def test_incremental_conflict_scoped_color():
    task = SearchTask(n=4, k=2, forbidden=((P3, 1),), symmetry="none")
    partial = oracles.PartialAssignment(4)
    partial[0, 1] = 1
    partial[0, 2] = 1
    pc = oracles.fill(PartialColoring(task), partial)
    assert pc.conflict(0, 2, 1)  # path 1-0-2 in color 1
    partial[0, 2] = 2
    partial[0, 3] = 2
    pc = oracles.fill(PartialColoring(task), partial)
    assert not pc.conflict(0, 3, 2)  # color 2 paths are allowed


def test_incremental_conflict_vs_rescan_oracle():
    rng = random.Random(4242)
    checked = 0
    for trial in range(120):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        forbidden = PATTERN_MENU[trial % len(PATTERN_MENU)]
        task = SearchTask(n=n, k=k, forbidden=forbidden, symmetry="none")
        partial = oracles.PartialAssignment(n)
        edges = list(combinations(range(n), 2))
        rng.shuffle(edges)
        for edge in edges[: rng.randint(2, len(edges))]:
            partial[edge] = rng.randint(1, k)
        pc = oracles.fill(PartialColoring(task), partial)
        for edge, color in partial.items():
            fast = pc.conflict(*edge, color)
            slow = any(
                oracles.conflict_through_edge(partial, pat, color, edge)
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
        partial = oracles.PartialAssignment(n)
        edges = list(combinations(range(n), 2))
        rng.shuffle(edges)
        cut = rng.randint(1, len(edges) - 1)
        for edge in edges[:cut]:
            partial[edge] = rng.randint(1, k)
        pc = oracles.fill(PartialColoring(task), partial)
        for u, v in edges[cut:]:
            for color in range(1, k + 1):
                open_answer = pc.conflict(u, v, color)
                partial[u, v] = color
                closed = oracles.fill(PartialColoring(task), partial)
                assert closed.conflict(u, v, color) == open_answer, (task, u, v, color)
                del partial[u, v]
                checked += 1
    assert checked >= 1000


def _brute_wheel4_cases(adj, u, v):
    """Which of the three ways a 4-wheel can pass through the edge (u, v)
    exist when (u, v) is added to the graph ``adj``: u the hub, v the
    hub, (u, v) a rim edge."""

    def e(a, b):
        return {a, b} == {u, v} or bool(adj[a] >> b & 1)

    others = [w for w in range(len(adj)) if w not in (u, v)]

    def hub_at(h, x):  # hub h, rim x-a-b-c-x
        return any(
            e(x, a) and e(a, b) and e(b, c) and e(c, x) and e(h, a) and e(h, b)
            and e(h, c)
            for a, b, c in permutations(others, 3)
        )

    rim = any(
        e(h, u) and e(h, v) and e(h, w) and e(h, x) and e(v, w) and e(w, x)
        and e(x, u)
        for h in others
        for w, x in permutations([o for o in others if o != h], 2)
    )
    return hub_at(u, v), hub_at(v, u), rim


def test_through_edge_kernels_vs_brute_force():
    # the search-only kernels against an enumeration of every copy through
    # (u, v), on random dense rows and on sparse rows with one planted
    # wheel of each kind; the bit of (u, v) is random, since the kernels
    # must not read it.  Each branch of wheel4_through is sampled: a wheel
    # with one hub alone (each hub's neighbors found in the shared pass),
    # and a rim wheel with one common neighbor of u and v, where no hub
    # wheel fits and the hub pass is skipped
    rng = random.Random(2024)
    seen = {"hub u": 0, "hub v": 0, "rim": 0, "rim, one common": 0, "none": 0}
    c4_answers = set()
    for trial in range(360):
        n = rng.randint(5, 12)
        density = (0.25, 0.4, 0.55, 0.7)[trial % 4]
        adj = [0] * n

        def link(a, b):
            adj[a] |= 1 << b
            adj[b] |= 1 << a

        for a, b in combinations(range(n), 2):
            if rng.random() < density:
                link(a, b)
        u, v, *rest = rng.sample(range(n), 5)
        if density == 0.25:  # hub u, hub v, or a rim through (u, v)
            hub, x, *rim = (
                (u, v, *rest[:3]), (v, u, *rest[:3]), (rest[0], u, v, *rest[1:3])
            )[trial // 4 % 3]
            ring = [x, *rim]
            for i, a in enumerate(ring):
                link(hub, a)
                link(a, ring[i - 1])
        if rng.random() < 0.5:
            link(u, v)
        else:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        cases = _brute_wheel4_cases(adj, u, v)
        assert wheel4_through(adj, u, v) == any(cases), (adj, u, v)
        if bin(adj[u] & adj[v]).count("1") == 1:
            assert cases[:2] == (False, False), (adj, u, v)
            seen["rim, one common"] += cases[2]
        # count the samples where one case alone gives the wheel
        if sum(cases) == 1:
            seen[("hub u", "hub v", "rim")[cases.index(True)]] += 1
        seen["none"] += not any(cases)
        others = [w for w in range(n) if w not in (u, v)]
        c4 = any(
            adj[v] >> a & 1 and adj[a] >> x & 1 and adj[x] >> u & 1
            for a, x in permutations(others, 2)
        )
        assert cycle4_through(adj, u, v) == c4, (adj, u, v)
        c4_answers.add(c4)
    assert min(seen.values()) >= 5, seen
    assert c4_answers == {True, False}


def test_every_probe_is_a_partial_coloring_conflict_call(monkeypatch, base14):
    # the benchmark counts probes by wrapping PartialColoring.conflict on
    # the class; a probe that went round it would not be counted
    calls = 0
    conflict = PartialColoring.conflict

    def counted(self, u, v, color):
        nonlocal calls
        calls += 1
        return conflict(self, u, v, color)

    monkeypatch.setattr(PartialColoring, "conflict", counted)
    out = search_witness(SearchTask(n=14, k=2, forbidden=((W4, None),), seed=0))
    assert out.witness == base14
    assert (out.stats.nodes, calls) == (5147, 11620)


def test_incremental_rainbow_vs_rescan():
    rng = random.Random(515)
    task = SearchTask(n=7, k=4, forbid_rainbow_triangle=True, symmetry="none")
    for trial in range(60):
        partial = oracles.PartialAssignment(7)
        edges = list(combinations(range(7), 2))
        rng.shuffle(edges)
        for edge in edges[: rng.randint(3, len(edges))]:
            partial[edge] = rng.randint(1, 4)
        pc = oracles.fill(PartialColoring(task), partial)
        for edge, color in partial.items():
            assert pc.conflict(*edge, color) == oracles.rainbow_through_edge(
                partial, edge
            )


def test_canonical_check_matches_relabel_oracle():
    # the vertexOrder check reads the colors where oracles.fill writes
    # them, the positions at which the search assigns each edge
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        w = rng.randint(1, n - 1)
        edges = [(u, v) for v in range(1, w + 1) for u in range(v)]
        assignment = {e: rng.randint(1, k) for e in edges}
        task = SearchTask(n=n, k=k, symmetry="vertexOrder")
        pc = oracles.fill(PartialColoring(task), assignment)
        order = [(u, v) for v in range(1, n) for u in range(v)]
        want = oracles.canonical_column(assignment, w)
        assert search_module._canonical_ok(pc, order, w) == want, (assignment, w)
        seen.add(want)
    assert seen == {False, True}


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


def test_prunes_by_cause_sum_and_repeat():
    # base14, and GR3(K3) = 11 exhausted under vertexOrder, which prunes
    # for all three causes
    tasks = {
        SearchTask(n=14, k=2, forbidden=((W4, None),)): (5147, 1473, 1076, 0),
        SearchTask(
            n=11,
            k=3,
            forbidden=((K3, None),),
            forbid_rainbow_triangle=True,
            symmetry="vertexOrder",
        ): (10079, 5471, 900, 348),
    }
    for task, pinned in tasks.items():
        runs = []
        for _ in range(2):
            s = search_witness(task).stats
            causes = (s.prunes_conflict, s.prunes_lookahead, s.prunes_canonical)
            assert sum(causes) == s.prunes
            runs.append((s.nodes, *causes))
        assert runs == [pinned, pinned]


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


def _pinned_matrix():
    # every menu entry, k = 2..4, rainbow off and on, all three
    # symmetries, plus color-scoped tasks; n grows with k so that every
    # status occurs
    for forbidden in PATTERN_MENU:
        for k in (2, 3, 4):
            for rainbow in (False, True):
                for symmetry in ("none", "colorSwap", "vertexOrder"):
                    yield SearchTask(
                        n=5 + k,
                        k=k,
                        forbidden=forbidden,
                        forbid_rainbow_triangle=rainbow,
                        symmetry=symmetry,
                        node_limit=4000,
                    )
    for k in (2, 3):
        yield SearchTask(
            n=7,
            k=k,
            forbidden=((K3, 1), (C4, k)),
            forbid_rainbow_triangle=k == 3,
            symmetry="none",
            node_limit=4000,
        )


def _count_probes(monkeypatch):
    # wrap PartialColoring.conflict on the class, as the benchmark does;
    # returns the list whose one item counts the calls
    calls = [0]
    conflict = PartialColoring.conflict

    def counted(self, u, v, color):
        calls[0] += 1
        return conflict(self, u, v, color)

    monkeypatch.setattr(PartialColoring, "conflict", counted)
    return calls


def _probe_everything(monkeypatch):
    # the engine with neither rule: no color may skip a probe
    init = PartialColoring.__init__

    def probing_all(self, task):
        init(self, task)
        self._need = [0] * len(self._need)
        self._triangular = 0

    monkeypatch.setattr(PartialColoring, "__init__", probing_all)


def _tree_rows(monkeypatch, tasks):
    # [status, nodes, prunes by cause, restarts, witness digest] and the
    # probe count of each task
    calls = _count_probes(monkeypatch)
    rows, probes = [], []
    for task in tasks:
        calls[0] = 0
        out = search_witness(task)
        s = out.stats
        witness = out.witness and canonical_digest(out.witness)
        causes = [s.prunes_conflict, s.prunes_lookahead, s.prunes_canonical]
        rows.append([out.status, s.nodes, causes, s.restarts, witness])
        probes.append(calls[0])
    return rows, probes


RESTART_BASES = (search_module._RESTART_BASE, 50)


def _pinned_rows(monkeypatch):
    # each task of _pinned_matrix at the default restart budget and at one
    # small enough to restart most tasks many times
    rows, probes = [], []
    for restart_base in RESTART_BASES:
        monkeypatch.setattr(search_module, "_RESTART_BASE", restart_base)
        more_rows, more_probes = _tree_rows(monkeypatch, _pinned_matrix())
        rows += more_rows
        probes += more_probes
    return rows, probes


def _sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_search_counts_match_pinned_digest(monkeypatch):
    # status, node count, prunes by cause, restart count and witness
    # digest of each task; the digest is the one the engine gave before the
    # skip rules, so skipping probes has left every search tree as it was
    rows, _ = _pinned_rows(monkeypatch)
    assert {row[0] for row in rows} == {"witness", "exhausted", "limit_reached"}
    assert sum(row[3] for row in rows) > 100
    assert _sha256(rows) == PINNED_TREE_DIGEST


def test_search_probe_counts_match_pinned_digest(monkeypatch):
    # the probes of each task are pinned, and no task probes more than
    # with every probe run, which reproduces the pinned rows of the
    # engine before the skip rules, probe counts included
    rows, probes = _pinned_rows(monkeypatch)
    assert _sha256(probes) == PINNED_PROBES_DIGEST
    _probe_everything(monkeypatch)
    all_rows, all_probes = _pinned_rows(monkeypatch)
    assert all_rows == rows
    old = [
        [status, nodes, sum(causes), restarts, witness, calls]
        for (status, nodes, causes, restarts, witness), calls in zip(
            all_rows, all_probes
        )
    ]
    assert _sha256(old) == PINNED_PROBE_ALL_DIGEST
    assert all(new <= before for new, before in zip(probes, all_probes))
    assert sum(probes) < sum(all_probes) // 2


# the patterns of the skip-rule tests: each kind, K2, W5 (a generic
# through-edge check) and both explicit shapes
RULE_PATTERNS = [
    P3,
    PatternSpec.clique(2),
    C4,
    K3,
    PatternSpec.clique(4),
    PatternSpec.wheel(3),
    W4,
    PatternSpec.wheel(5),
    TRIANGLE_WITH_TAIL,
    TRIANGLE_WITH_PENDANT,
]


def test_pattern_shapes():
    # (minimum degree, every edge in a triangle), read from the edges
    assert [search_module._shape(p) for p in RULE_PATTERNS] == [
        (1, False),
        (1, False),
        (2, False),
        (2, True),
        (3, True),
        (3, True),
        (3, True),
        (3, True),
        (1, False),
        (1, False),
    ]


def _random_forbidden(rng, k, scoped):
    # one to three (pattern, color) pairs, for the menu tasks and more
    picks = rng.sample(RULE_PATTERNS, rng.randint(1, 3))
    if not scoped:
        return tuple((p, None) for p in picks)
    return tuple((p, rng.choice([None, *range(1, k + 1)])) for p in picks)


def _rule_task(rng, trial):
    # a task of the skip-rule tests: on odd trials a menu entry or the
    # pendant pattern alone, on even ones random color-scoped patterns
    n, k = rng.randint(4, 8), rng.randint(1, 3)
    menu = PATTERN_MENU + [((TRIANGLE_WITH_PENDANT, None),)]
    if trial % 2:
        forbidden = menu[trial % len(menu)]
    else:
        forbidden = _random_forbidden(rng, k, scoped=True)
    return SearchTask(
        n=n,
        k=k,
        forbidden=forbidden,
        forbid_rainbow_triangle=trial % 3 == 0,
        symmetry="none",
    )


def test_rule_a_skips_only_probes_that_cannot_fire():
    # an edge (j, w) whose end w has fewer than need[c] neighbors in c
    # completes no pattern in c, and with w free of edges no rainbow
    # triangle either; the pendant pattern shows the minimum degree
    # matters
    rng = random.Random(31)
    skipped = fired = pendant_fires = 0
    for trial in range(400):
        task = _rule_task(rng, trial)
        n, k = task.n, task.k
        fresh = rng.randrange(n)  # a vertex with no edge, as at a column opening
        partial = oracles.PartialAssignment(n)
        for u, v in combinations(range(n), 2):
            if fresh not in (u, v) and rng.random() < 0.7:
                partial[u, v] = rng.randint(1, k)
        pc = oracles.fill(PartialColoring(task), partial)
        pendant = task.forbidden == ((TRIANGLE_WITH_PENDANT, None),)
        for w in range(n):
            for j in range(n):
                if j == w or (min(j, w), max(j, w)) in partial:
                    continue
                for c in range(1, k + 1):
                    fires = pc.conflict(j, w, c)
                    if w != fresh and task.forbid_rainbow_triangle:
                        continue  # rule A's rainbow part needs w free
                    if pc.masks[c][w].bit_count() < pc._need[c]:
                        assert not fires, (task, partial, j, w, c)
                        skipped += 1
                    else:
                        fired += fires
                        pendant_fires += fires and w == fresh and pendant
    assert skipped > 3000 and fired > 1000 and pendant_fires > 10


def test_rule_b_skips_only_probes_that_cannot_fire():
    # after a move (u, v) = c in a color whose patterns have each edge in
    # a triangle, with no common neighbor of u and v in c, an open (j, v)
    # that completed nothing in c before the move still does, unless
    # (u, j) is colored c; the pendant pattern shows the triangles matter
    rng = random.Random(32)
    skipped = fired = pendant_fires = 0
    for trial in range(400):
        task = _rule_task(rng, trial)
        n, k = task.n, task.k
        edges = list(combinations(range(n), 2))
        partial = oracles.PartialAssignment(n)
        density = rng.choice((0.3, 0.5, 0.7))
        for edge in edges:
            if rng.random() < density:
                partial[edge] = rng.randint(1, k)
        before = oracles.fill(PartialColoring(task), partial)
        pendant = task.forbidden == ((TRIANGLE_WITH_PENDANT, None),)
        for edge in [e for e in edges if e not in partial]:
            for (u, v), c in product((edge, edge[::-1]), range(1, k + 1)):
                candidates = [
                    j
                    for j in range(n)
                    if j not in (u, v)
                    and (min(j, v), max(j, v)) not in partial
                    and not before.conflict(j, v, c)
                ]
                partial[edge] = c
                after = oracles.fill(PartialColoring(task), partial)
                del partial[edge]
                row = after.masks[c]
                rule_b = after._triangular >> c & 1 and not row[u] & row[v]
                for j in candidates:
                    fires = after.conflict(j, v, c)
                    if rule_b and not row[u] >> j & 1:
                        assert not fires, (task, partial, u, v, j, c)
                        skipped += 1
                    else:
                        fired += fires
                        pendant_fires += fires and pendant and not row[u] >> j & 1
    assert skipped > 5000 and fired > 1000 and pendant_fires > 10


def test_skip_rules_leave_the_search_tree_unchanged(monkeypatch):
    # with the per-pattern helper saying "no property" every pattern probe
    # runs; the pinned matrix and random tasks must give the same trees,
    # with at least as many probes
    rng = random.Random(2718)
    tasks = list(_pinned_matrix())
    for _ in range(240):
        k = rng.randint(1, 3)
        symmetry = rng.choice(["none", "colorSwap", "vertexOrder"])
        tasks.append(
            SearchTask(
                n=rng.randint(3, 9),
                k=k,
                forbidden=_random_forbidden(rng, k, scoped=symmetry == "none"),
                forbid_rainbow_triangle=rng.random() < 0.5,
                symmetry=symmetry,
                node_limit=3000,
                seed=rng.randrange(4),
            )
        )
    monkeypatch.setattr(search_module, "_RESTART_BASE", 200)
    rows, probes = _tree_rows(monkeypatch, tasks)
    monkeypatch.setattr(search_module, "_shape", lambda pattern: (1, False))
    all_rows, all_probes = _tree_rows(monkeypatch, tasks)
    assert all_rows == rows
    assert all(new <= before for new, before in zip(probes, all_probes))
    assert sum(probes) < sum(all_probes)
    assert {row[0] for row in rows[-240:]} == {"witness", "exhausted", "limit_reached"}
