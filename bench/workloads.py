"""The benchmark's workloads.

Each workload builds its items from the seed during set-up, runs one
item in the timed pass (`run`), and afterwards checks the item's verdict
against a known answer (`check`, untimed).  `certificate` renders a
verdict as text; the benchmark hashes the ordered certificates of a pass
so that passes, runs and commits can be compared byte for byte.

The workloads reach gallai only through attribute lookups on its modules
(``gallai.detect.find_mono`` and so on), so that a traced pass sees
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

# explicit 6-vertex pattern for the random workload: the 2x3 grid graph
DOMINO = ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Tower:
    """The user's CLI path on the witness tower: construct, verify, partition.

    Each item is one command, so the time to a verdict is what the user
    waits for one ``gallai`` invocation.  Every detector call scans the
    whole coloring and finds nothing, so full-scan detection and
    partitioning dominate; no search runs.  At k = 6 (n = 350) ``verify``
    checks the wheel in colour 3 only: all colours would take one 5-second
    call, too long to time steadily on a shared machine, while colour 3
    keeps the large-n path at 0.1 s.
    """

    name = "tower"
    pinned = None  # certificate digest of a whole pass; see RandomColorings
    one_color = {6: 3}  # k -> the only colour verify checks for the wheel

    def __init__(self, gallai, seed: int, size: str, workdir: Path, known: dict):
        self.gallai = gallai
        self.known = known["tower"]
        ks = [4] if size == "smoke" else [4, 5, 6]
        random.Random(seed).shuffle(ks)
        workdir.mkdir(parents=True)
        self.items = [
            (k, command, str(workdir / f"tower{k}.grc"))
            for k in ks
            for command in ("construct", "verify", "partition")
        ]

    def run(self, item) -> tuple[int, str]:
        k, command, path = item
        if command == "construct":
            argv = ["construct", "--k", str(k), "--out", path]
        elif command == "verify":
            only = ["--color", str(self.one_color[k])] if k in self.one_color else []
            argv = ["verify", "--in", path, "--pattern", "w4", *only, "--gallai"]
        else:
            argv = ["partition", "--in", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.gallai.cli.main(argv)
        return code, out.getvalue()

    def check(self, item, verdict) -> list[str]:
        k, command, path = item
        want = self.known[str(k)]
        code, out = verdict
        if code != 0:
            return [f"exit code {code}, expected 0"]
        if command == "construct":
            if out != f"n={want['n']} k={k} digest={want['digest']}\n":
                return [f"construct printed {out!r}"]
            coloring = self.gallai.formats.read_document(path).coloring
            if self.gallai.coloring.canonical_digest(coloring) != want["digest"]:
                return ["written witness does not match its pinned digest"]
            return []
        if command == "verify":
            expected = {
                "ok": True,
                "n": want["n"],
                "k": k,
                "checks": [
                    {"check": "rainbow", "ok": True},
                    {"check": "mono", "pattern": "wheel:4",
                     "color": self.one_color.get(k), "ok": True},
                ],
            }
            report = json.loads(out)
            return [] if report == expected else [f"verify reported {report}"]
        reasons = []
        coloring = self.gallai.formats.read_document(path).coloring
        parts = json.loads(out)["parts"]
        if not self.gallai.structure.verify_gallai_partition(coloring, parts).ok:
            reasons.append("partition rejected by verify_gallai_partition")
        if sha256(out) != want["partition_sha256"]:
            reasons.append("partition output differs from the pinned one")
        return reasons

    def certificate(self, item, verdict) -> str:
        return json.dumps([item[:2], verdict])


class RandomColorings:
    """Many small seeded Gallai colorings through every detector.

    Sizes are spread evenly over n = 20..60 and k cycles over 3..6, so
    every seed does about the same work; the seed picks the colorings
    and their order.  Almost every mono search hits early, so this is the
    opposite regime to `Tower`.

    The time ``find_mono`` takes to find a wheel:5 is heavy-tailed: over
    40 seeds its total per seed ranged from 0.02 to 1.2 s, and one coloring
    in 1500 took 3.7 s.  Run on the seeded items it would make the work
    depend on the seed, so it runs on `WHEEL5_ITEMS` instead: two pinned
    slow cases (about 0.08 s each, ten times a typical item) that every
    seed shares.
    """

    name = "random"
    WHEEL5_ITEMS = ((30, 5, 3172639729), (50, 6, 1749097439))

    def __init__(self, gallai, seed: int, size: str, workdir: Path, known: dict):
        self.gallai = gallai
        self.pinned = known["random"]["certificates_sha256"].get(f"{size}:{seed}")
        count = 5 if size == "smoke" else 150
        rng = random.Random(seed)
        ns = [20 + 40 * i // (count - 1) for i in range(count)]
        ks = [3 + i % 4 for i in range(count)]
        self.items = [(n, k, rng.getrandbits(32), False) for n, k in zip(ns, ks)]
        if size != "smoke":
            self.items += [(*item, True) for item in self.WHEEL5_ITEMS]
        rng.shuffle(self.items)
        spec = gallai.patterns.PatternSpec
        self.patterns = (
            spec.path3(),
            spec.cycle4(),
            spec.clique(3),
            spec.clique(4),
            spec.wheel(4),
            spec.explicit(6, DOMINO),
        )
        self.wheel5 = spec.wheel(5)

    def _patterns(self, item):
        return self.patterns + (self.wheel5,) if item[3] else self.patterns

    def run(self, item):
        g = self.gallai
        n, k, seed, _ = item
        made = g.construct.random_gallai(n, k, seed)
        blob = json.dumps(
            g.formats.render_json(g.formats.ColoringDocument.sealed(made)),
            indent=2,
            sort_keys=True,
        )
        c = g.formats.parse_json(blob).coloring
        partition = g.structure.find_gallai_partition(c)
        return (
            made,
            c,
            g.detect.find_rainbow_triangle(c),
            [g.detect.find_mono(c, pattern) for pattern in self._patterns(item)],
            partition,
            g.structure.verify_gallai_partition(c, partition).ok,
            g.structure.peel_apex_sequence(c),
        )

    def check(self, item, verdict) -> list[str]:
        made, c, rainbow, hits, partition, partition_ok, peel = verdict
        reasons = []
        if c != made:
            reasons.append("JSON round trip changed the coloring")
        if rainbow is not None:
            reasons.append("rainbow triangle reported in a Gallai coloring")
        for pattern, hit in zip(self._patterns(item), hits):
            if hit is not None and not (hit.pattern == pattern and hit.check(c)):
                reasons.append(f"{pattern.label} certificate does not check")
        if not partition_ok or partition.p < 2:
            reasons.append("partition rejected by verify_gallai_partition")
        remaining = set(range(c.n))
        for v, color in peel.entries:
            remaining.discard(v)
            if any(c.color_of(v, w) != color for w in remaining):
                reasons.append(f"peeled vertex {v} is not an apex in color {color}")
                break
        if tuple(sorted(remaining)) != peel.remainder:
            reasons.append("peel remainder is not the unpeeled vertices")
        return reasons

    def certificate(self, item, verdict) -> str:
        made, c, rainbow, hits, partition, partition_ok, peel = verdict
        return json.dumps(
            [
                list(item),
                self.gallai.coloring.canonical_digest(c),
                rainbow and rainbow.to_json(),
                [hit and hit.to_json() for hit in hits],
                partition.to_json(),
                peel.to_json(),
            ],
            sort_keys=True,
        )


class Search:
    """Pinned search tasks, from a found witness to a proof of exhaustion.

    The workload seed is the task seed, which only reorders colours on a
    restart; no task restarts, so the pinned counts hold for every seed.
    """

    name = "search"
    pinned = None

    def __init__(self, gallai, seed: int, size: str, workdir: Path, known: dict):
        self.gallai = gallai
        self.known = known["search"]
        self.base14 = gallai.load_base14()
        spec = gallai.patterns.PatternSpec
        task = gallai.search.SearchTask
        w4 = ((spec.wheel(4), None),)
        k3 = ((spec.clique(3), None),)
        tasks = {
            "base14": task(n=14, k=2, forbidden=w4, seed=seed),
            "gr3_k3_n11": task(
                n=11,
                k=3,
                forbidden=k3,
                forbid_rainbow_triangle=True,
                symmetry="vertexOrder",
                seed=seed,
            ),
            "gr3_k3_n10": task(
                n=10, k=3, forbidden=k3, forbid_rainbow_triangle=True, seed=seed
            ),
            "w4_n15_limit": task(n=15, k=2, forbidden=w4, node_limit=20_000, seed=seed),
        }
        names = ["base14"] if size == "smoke" else sorted(tasks)
        random.Random(seed).shuffle(names)
        self.items = [(name, tasks[name]) for name in names]

    def run(self, item):
        return self.gallai.search.search_witness(item[1])

    def _summary(self, verdict) -> dict:
        witness = verdict.witness
        return {
            "status": verdict.status,
            "nodes": verdict.stats.nodes,
            "prunes": verdict.stats.prunes,
            "restarts": verdict.stats.restarts,
            "digest": witness and self.gallai.coloring.canonical_digest(witness),
        }

    def check(self, item, verdict) -> list[str]:
        name = item[0]
        got = self._summary(verdict)
        reasons = [f"{got} != pinned {self.known[name]}"] if got != self.known[name] else []
        if name == "base14" and verdict.witness != self.base14:
            reasons.append("base14 re-derivation differs from the bundled base")
        return reasons

    def certificate(self, item, verdict) -> str:
        return json.dumps([item[0], self._summary(verdict)], sort_keys=True)


WORKLOADS = {w.name: w for w in (Tower, RandomColorings, Search)}
