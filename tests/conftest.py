import random

import pytest

import oracles
from gallai import (
    EdgeColoring,
    build_lower_bound_witness,
    load_base14,
    pentagon_coloring,
    random_gallai,
)
from gallai.coloring import edge_index


@pytest.fixture(scope="session")
def pentagon():
    return pentagon_coloring()


@pytest.fixture(scope="session")
def base14():
    return load_base14()


def _recolored(c, changes, k=None):
    colors = list(c.edge_colors)
    for (u, v), col in changes.items():
        colors[edge_index(c.n, min(u, v), max(u, v))] = col
    return EdgeColoring(c.n, k or c.k, colors)


@pytest.fixture(scope="session")
def near_gallai(base14):
    """(coloring, least rainbow triangle or None) for Gallai colorings
    with one or two edges changed, and for the k = 4 tower (five base14
    blocks) with a rainbow triangle planted inside one block: a rainbow
    triangle there sits below the first Gallai split, not at the top."""
    rng = random.Random(2024)
    cases = []
    for trial in range(150):
        c = random_gallai(rng.randint(3, 16), rng.randint(2, 5), trial + 31_000)
        pairs = [(u, v) for u in range(c.n) for v in range(u + 1, c.n)]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(1, 2)))
        cases.append(_recolored(c, {e: rng.randint(1, c.k + 1) for e in edges}, c.k + 1))
    tower, _ = build_lower_bound_witness(4, base14)
    pairs = [(u, v) for u in range(tower.n) for v in range(u + 1, tower.n)]
    for _ in range(3):
        edges = rng.sample(pairs, rng.randint(1, 2))
        cases.append(_recolored(tower, {e: rng.randint(1, 4) for e in edges}))
    for block in (0, 2, 4):
        u, v, w = sorted(rng.sample(range(14 * block, 14 * block + 14), 3))
        cases.append(_recolored(tower, {(u, v): 1, (u, w): 2, (v, w): 3}))
    return [(c, min(oracles.rainbow_triangles(c), default=None)) for c in cases]
