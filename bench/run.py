"""Benchmark of randset: one workload per run, every output checked.

Run from the repository root:

    python3 bench/run.py --workload slln_drivers --seed 1 --seconds 15 --trace 0

A run builds the workload's inputs from --seed, runs its operations once and
checks every output (the warm-up round), then repeats whole rounds of the same
operations for --seconds and reports medians over those rounds. --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics. Each metric is printed on its own
line with its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics. `--manifest` prints BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
RUN_SECONDS = 30
SETUP_SAMPLES = 3

WORKLOADS = {
    "slln_drivers": "strong-law trajectories, phi profiles and Markov-driven processes through the CLI: "
                    "rng and mixing work, almost no geometry",
    "cell_algebra": "exact Minkowski expansions, halo certificates, K-M and cone tracking through the CLI: "
                    "geometry construction, no scalar driver beyond sign draws",
    "distance_queries": "direct hausdorff, support and distance queries on inputs built in set-up: "
                        "the query side of geometry, nothing constructed while timed",
}

# (name, unit, bound): how far the median may worsen, as a share of the parent's
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("op_p90_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)


def manifest() -> dict:
    import tracer

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in tracer.per_layer_metrics()],
    }


def run_round(ops, tracer=None):
    """Run every operation once; (durations, results). A result is the
    exception when the program raised one."""
    durations, results = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, op.name)
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as e:  # the program failed: count it, keep going
            result = e
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        results.append(result)
    return durations, results


def middle_mean(values) -> float:
    """Mean of the middle half of the values (all of them when fewer than 4).

    The machine this runs on changes speed for stretches of 10-30 s; a mean
    follows the share of a run spent in each stretch, where a median jumps
    between them, and dropping the outer quarters keeps single stalls out.
    """
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def digests(ops, results) -> list[bytes]:
    return [repr(r).encode() if isinstance(r, Exception) else op.digest(r) for op, r in zip(ops, results)]


def check_round(ops, results) -> list[str]:
    """Check every output: 'ok', 'failed' (known fault or exception) or 'wrong'."""
    from oracles import CheckFailed, KnownFault

    status = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            print(f"FAILED {op.name}: {''.join(traceback.format_exception(result)).strip()}", file=sys.stderr)
            status.append("failed")
            continue
        try:
            op.check(result)
            status.append("ok")
        except KnownFault as e:
            print(f"known fault {op.name}: {e}", file=sys.stderr)
            status.append("failed")
        except CheckFailed as e:
            print(f"WRONG {op.name}: {e}", file=sys.stderr)
            status.append("wrong")
        except Exception:  # an output the check could not even read
            print(f"WRONG {op.name}: {traceback.format_exc()}", file=sys.stderr)
            status.append("wrong")
    return status


def setup_samples(args, first: float) -> list[float]:
    """Set-up times: this process's, and those of fresh processes."""
    samples = [first]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    # the override silently replaces every config's seeds
    os.environ.pop("RANDSET_SEED_OVERRIDE", None)
    src = Path.cwd() / "src"
    if not (src / "randset" / "__init__.py").is_file():
        print("bench: src/randset not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, small: bool = False) -> int:
    t0 = time.perf_counter()
    import randset  # noqa: F401  (timed: the import is part of set-up)

    t_import = time.perf_counter() - t0
    import workloads  # the benchmark's own modules are not part of set-up

    t1 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, work, small)
    setup = t_import + time.perf_counter() - t1
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    # warm-up round: fills caches and lazy imports, and is the one we check
    _, results = run_round(ops)
    status = check_round(ops, results)
    reference = digests(ops, results)
    correct = "wrong" not in status
    known = [s == "failed" and not isinstance(r, Exception) for s, r in zip(status, results)]

    def failures(results):
        return sum(k or isinstance(r, Exception) for k, r in zip(known, results))

    attempted, failed = len(ops), failures(results)
    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
    plain, traced, layer = [], [], []
    per_op: list[list[float]] = []  # durations of each untraced timed round
    start = time.perf_counter()
    while len(plain) + len(traced) < (2 if tr else 1) or time.perf_counter() - start < args.seconds:
        use_trace = tr is not None and len(plain) > len(traced)
        if use_trace:
            tr.reset()
            tr.install()
            tr.enabled = True
        try:
            durations, results = run_round(ops, tr if use_trace else None)
        finally:
            if use_trace:
                tr.enabled = False
                tr.uninstall()
        (traced if use_trace else plain).append(sum(durations))
        if use_trace:
            layer.append(tr.metrics())
        else:
            per_op.append(durations)
        attempted += len(ops)
        failed += failures(results)
        if digests(ops, results) != reference:
            changed = [op.name for op, a, b in zip(ops, digests(ops, results), reference) if a != b]
            print(f"WRONG outputs changed between rounds{' (traced)' if use_trace else ''}: {changed[:5]}",
                  file=sys.stderr)
            correct = False

    if tr is None:
        typical = [middle_mean(col) for col in zip(*per_op)]
        metrics = {
            "setup_s": statistics.median(setup_samples(args, setup)),
            "wall_s": sum(typical),
            "op_p50_ms": 1e3 * statistics.median(typical),
            "op_p90_ms": 1e3 * statistics.quantiles(typical, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _ in END_TO_END}
    else:
        metrics = {k: statistics.median_low([m[k] for m in layer]) for k in layer[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        units = {n: u for n, u, _ in tracer.per_layer_metrics()}
        tr.write(OUT / "trace" / f"{args.workload}-seed{args.seed}", metrics)
        print(f"tracing overhead: traced round {metrics['trace.wall_s']:.3f} s against untraced "
              f"{statistics.median(plain):.3f} s; traced outputs byte-identical: {correct}")
    print(f"{args.workload} seed={args.seed}: {len(ops)} operations per round, "
          f"{len(plain) + len(traced)} timed rounds, attempted={attempted} failed={failed} correct={correct}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
