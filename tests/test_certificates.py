"""Pinned certificates: the exact outputs of the detectors and the
structure tools on a small fixed corpus, hashed.

The detectors promise a fixed scan order, so the same input must give
the same certificate byte for byte.  A refactor of the bitset kernels
may change how a certificate is found but never which one; this digest
catches any change in scan order that the oracle tests, which compare
only yes/no answers, cannot see.
"""

import hashlib
import json
import random

import oracles
from gallai import (
    EdgeColoring,
    PatternSpec,
    build_lower_bound_witness,
    find_gallai_partition,
    find_mono,
    find_rainbow_triangle,
    load_base14,
    mono_complete_between,
    pentagon_coloring,
    peel_apex_sequence,
    random_gallai,
    wheel_from_mono_pair,
)

DOMINO = ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))
PATTERNS = (
    PatternSpec.path3(),
    PatternSpec.cycle4(),
    PatternSpec.clique(3),
    PatternSpec.clique(4),
    PatternSpec.wheel(4),
    PatternSpec.wheel(3),
    PatternSpec.wheel(5),
    PatternSpec.explicit(6, DOMINO),
)

PINNED_SHA256 = "6df85f8ad134e4ff0fea11b6d4974c06491b361b9d0c93bc1e1aade4f80ca495"


def gallai_corpus():
    base14 = load_base14()
    out = [pentagon_coloring(), base14, build_lower_bound_witness(3, base14)[0]]
    rng = random.Random(1905)
    for _ in range(30):
        n = rng.randint(6, 40)
        out.append(random_gallai(n, rng.randint(2, 5), seed=rng.randint(0, 10**9)))
    return out


def arbitrary_corpus():
    rng = random.Random(1313)
    return [
        oracles.arbitrary_coloring(rng.randint(5, 14), rng.randint(1, 4), seed)
        for seed in range(20)
    ]


def plant_pair(a, color):
    # two new vertices x = a.n, y = a.n + 1, joined to everything in color
    n = a.n
    flat = []
    for u in range(n + 2):
        for v in range(u + 1, n + 2):
            flat.append(a.color_of(u, v) if v < n else color)
    return EdgeColoring(n + 2, max(a.k, color), flat)


def emb(hit):
    return None if hit is None else hit.to_json()


def certificates():
    rng = random.Random(77)
    gallai = gallai_corpus()
    out = []
    for c in gallai + arbitrary_corpus():
        out.append(["rainbow", emb(find_rainbow_triangle(c))])
        for pattern in PATTERNS:
            out.append(["mono", emb(find_mono(c, pattern))])
            for color in range(1, c.k + 1):
                out.append(["mono@", color, emb(find_mono(c, pattern, color))])
        out.append(["peel", peel_apex_sequence(c).to_json()])
        for _ in range(4):
            verts = rng.sample(range(c.n), rng.randint(2, min(c.n, 8)))
            cut = rng.randint(1, len(verts) - 1)
            side_a, side_b = verts[:cut], verts[cut:]
            out.append(["between", mono_complete_between(c, side_a, side_b)])
    for c in gallai:
        if c.n >= 2:
            partition = find_gallai_partition(c)
            out.append(["partition", partition.to_json()])
            parts = partition.parts
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    out.append(["between", mono_complete_between(c, parts[i], parts[j])])
    for a in gallai[3:] + arbitrary_corpus():
        for color in range(1, a.k + 1):
            c = plant_pair(a, color)
            out.append(["pair", emb(wheel_from_mono_pair(c, a.n, a.n + 1, color))])
    return out


def test_certificates_match_pinned_digest():
    certs = certificates()
    blob = json.dumps(certs, sort_keys=True)
    assert hashlib.sha256(blob.encode("ascii")).hexdigest() == PINNED_SHA256
    # the digest only means something if the corpus produces hits
    hits = {}
    for entry in certs:
        cert = entry[-1]
        if entry[0] in ("mono", "mono@") and cert is not None:
            label = PatternSpec.from_json(cert["pattern"]).label
            hits[label] = hits.get(label, 0) + 1
    assert set(hits) == {p.label for p in PATTERNS}
    assert any(e[0] == "pair" and e[1] is not None for e in certs)
    assert any(e[0] == "pair" and e[1] is None for e in certs)
    assert any(e[0] == "between" and e[1] is not None for e in certs)
    assert any(e[0] == "between" and e[1] is None for e in certs)
