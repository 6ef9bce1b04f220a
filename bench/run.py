"""Benchmark of the gallai package: time to verdict on three workloads.

    python3 bench/run.py --workload {tower,random,search} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from any directory; the package is imported from ``src/`` next to
this directory, never from an installed copy.  A run repeats timed
passes over the workload's items for ``--seconds`` and sets up 20 times
along the way, re-importing the package each time.  Every time is scaled
to a fixed host speed with the reference kernel in ``hostspeed.py``, and
every time reported is a median: each item's median over the passes, and
the median set-up.  Every verdict is checked against a known answer
after its pass, outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, and the line carries the per-layer metrics of the traced
passes plus the tracing overhead.  The line before it holds the run's
metadata.  Results, spans and counters are also written to
``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from hostspeed import reference, scale
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
KNOWN = BENCH_DIR / "known_answers.json"

SETUP_REPS = 20
MIN_PASSES = 3  # untraced passes in a run with --trace 0
MIN_TRACED_PASSES = 2  # of each kind in a run with --trace 1

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "detect.mono_s": "s",
    "detect.mono_w4_s": "s",
    "detect.mono_calls": "count",
    "detect.mono_hit_ratio": "ratio",
    "detect.rainbow_s": "s",
    "detect.rainbow_calls": "count",
    "structure.partition_self_s": "s",
    "structure.partition_precheck_s": "s",
    "structure.partition_parts": "count",
    "structure.verify_partition_s": "s",
    "structure.peel_s": "s",
    "formats.parse_text_s": "s",
    "formats.render_text_s": "s",
    "formats.parse_json_s": "s",
    "formats.render_json_s": "s",
    "formats.bytes_parsed": "bytes",
    "coloring.compose_s": "s",
    "coloring.compose_calls": "count",
    "coloring.digest_s": "s",
    "construct.build_s": "s",
    "construct.random_s": "s",
    "trace.to_json_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "search.busy_s": "s",
    "search.nodes": "count",
    "search.prunes": "count",
    "search.restarts": "count",
    "search.prune_ratio": "ratio",
    "search.nodes_per_s": "1/s",
    "search.conflict_calls": "count",
    "search.conflict_calls_per_node": "ratio",
    "search.revalidate_s": "s",
    "bench.trace_overhead_s": "s",
}


class Setup:
    """Import the package from ``src/`` and build the workload's items."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.known = json.loads(KNOWN.read_text(encoding="utf-8"))

    def once(self):
        for name in [m for m in sys.modules if m == "gallai" or m.startswith("gallai.")]:
            del sys.modules[name]
        shutil.rmtree(self.workdir, ignore_errors=True)
        gc.collect()  # free what the previous import left behind
        before = reference()
        start = perf_counter()
        gallai = importlib.import_module("gallai")
        importlib.import_module("gallai.cli")
        if not Path(gallai.__file__).resolve().is_relative_to(SRC):
            sys.exit(f"error: imported gallai from {gallai.__file__}, not from {SRC}")
        workload = WORKLOADS[self.args.workload](
            gallai, self.args.seed, self.args.size, self.workdir, self.known
        )
        elapsed = perf_counter() - start
        return scale(elapsed, before, reference()), workload


class Pass:
    """One pass over every item: timings, failures and the certificate digest.

    ``item_s`` holds each item's wall time, ``scaled_s`` the same scaled by
    the reference kernel timed right before and right after the item.
    """

    def __init__(self, workload, tracer=None):
        self.tracer = tracer
        items = workload.items
        verdicts = []
        self.item_s = []
        self.scaled_s = []
        self.failures: list[str] = []
        failed_items = set()
        before = reference()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = index
            t0 = perf_counter()
            try:
                verdicts.append(workload.run(item))
            except Exception:  # one failing item must not end the run
                verdicts.append(None)
                failed_items.add(index)
                self.failures.append(f"item {index} raised:\n{traceback.format_exc()}")
            self.item_s.append(perf_counter() - t0)
            after = reference()
            self.scaled_s.append(scale(self.item_s[-1], before, after))
            before = after
        self.seconds = sum(self.scaled_s)
        certificates = hashlib.sha256()
        for index, (item, verdict) in enumerate(zip(items, verdicts)):
            if verdict is None:
                continue
            reasons = workload.check(item, verdict)
            if reasons:
                failed_items.add(index)
                self.failures.extend(f"item {index} {item!r}: {r}" for r in reasons)
            certificates.update(workload.certificate(item, verdict).encode() + b"\n")
        self.digest = certificates.hexdigest()
        self.failed = len(failed_items)
        self.layers = tracer.layer_metrics() if tracer is not None else None


def measure(setup: Setup, seconds: float, trace: bool):
    """Pass over the items again and again, while the next pass is expected
    to end within ``seconds`` or the minimum pass counts are not met.  With
    ``trace`` untraced and traced passes alternate.  The run sets up
    `SETUP_REPS` times, spread evenly over its length, and each pass uses
    the items of the latest set-up."""
    setup_s: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = last = perf_counter()
    step = 0.0
    while True:
        if trace:
            done = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        else:
            done = len(plain) >= MIN_PASSES
        now = perf_counter()
        step, last = max(step, now - last), now
        if done and now + step - start > seconds:
            break
        if len(setup_s) < SETUP_REPS and now - start >= len(setup_s) * seconds / SETUP_REPS:
            elapsed, workload = setup.once()
            setup_s.append(elapsed)
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced.append(Pass(workload, tracer))
        else:
            plain.append(Pass(workload))
    while len(setup_s) < SETUP_REPS:
        elapsed, workload = setup.once()
        setup_s.append(elapsed)
    return setup_s, plain, traced, workload


def median_items(passes: list[Pass], times: str = "scaled_s") -> list[float]:
    """Each item's median time over the passes."""
    return [statistics.median(t) for t in zip(*(getattr(p, times) for p in passes))]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tree_digest(*dirs: Path) -> str:
    """SHA-256 over the files under ``dirs``, skipping caches and results."""
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*")):
            rel = path.relative_to(ROOT)
            if path.is_file() and not {"__pycache__", "results"} & set(rel.parts):
                h.update(str(rel).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_counters(args, traced: list[Pass]) -> list[str]:
    """Deterministic counters must agree between the traced passes of this
    run and with an earlier traced run of the same package and benchmark
    code on the same inputs."""
    counters = [
        {name: p.layers[name] for name in tracing.DETERMINISTIC}
        for p in traced
    ]
    problems = [
        f"traced pass {i} counters {c} differ from pass 0 {counters[0]}"
        for i, c in enumerate(counters)
        if c != counters[0]
    ]
    code = tree_digest(SRC / "gallai", BENCH_DIR)[:16]
    path = RESULTS / f"counters_{args.workload}_{args.size}_seed{args.seed}_{code}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counters[0]:
            problems.append(f"counters {counters[0]} differ from {path.name}: {earlier}")
    else:
        path.write_text(json.dumps(counters[0], indent=2, sort_keys=True) + "\n")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "gallai" / "__init__.py").is_file():
        print(f"error: no gallai package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work_{args.workload}_{os.getpid()}"
    try:
        setup_s, plain, traced, workload = measure(
            Setup(args, workdir), args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(workload.items) for _ in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        failures.append(f"passes disagree on their certificates: {sorted(digests)}")
    if workload.pinned is not None and digests != {workload.pinned}:
        failures.append(f"certificate digest {sorted(digests)} != pinned {workload.pinned}")

    item_s = median_items(plain)
    if args.trace:
        failures.extend(check_counters(args, traced))
        fastest = min(traced, key=lambda p: p.seconds)
        values = dict(fastest.layers)
        values["bench.trace_overhead_s"] = sum(median_items(traced)) - sum(item_s)
        units = PER_LAYER
        spans = RESULTS / f"spans_{args.workload}_{args.size}_seed{args.seed}.json"
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": fastest.tracer.spans}, fh)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "pass_s": sum(item_s),
            "verdict_p50_s": statistics.median(item_s),
            "verdict_p90_s": quantile(item_s, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    correct = not failures
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": tree_digest(SRC / "gallai"),
        "bench_sha256": tree_digest(BENCH_DIR),
        "samples": {
            "setup_s": len(setup_s),
            "passes": len(plain),
            "verdict_items": len(item_s),
            "traced_passes": len(traced),
            "items_per_pass": len(workload.items),
        },
        "failed_ratio": failed / attempted,
        "wall_pass_s": sum(median_items(plain, "item_s")),
        "certificates_sha256": sorted(digests),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    name = f"BENCH_{args.workload}_{args.size}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(
        json.dumps({"metadata": metadata, "failures": failures, "result": result,
                    "pass_s": [p.seconds for p in plain],
                    "wall_pass_s": [sum(p.item_s) for p in plain],
                    "traced_pass_s": [p.seconds for p in traced], "setup_s": setup_s},
                   indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"metadata": metadata}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
