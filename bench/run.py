"""flexk3 benchmark: time one workload, check every answer, print the metrics.

    python3 bench/run.py --workload table-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is loaded from ./src.  Workloads
are table-sweep, query-mix and series-check (see bench/README.md).

Load is one closed-loop client.  Each repetition runs in a fresh worker
process (bench/worker.py), so no repetition reads a cache an earlier one
filled, and at most one worker is alive at a time.  With --trace 0 each
repetition is followed by the workload's equivalent `python -m flexk3.cli`
commands, each in a fresh process, for cli_s.  With --trace 1 untraced
and traced repetitions alternate, and the traced ones give the per-layer
metrics; one more repetition, with call counters on `exact` and no spans,
gives the `exact` call counts.  Repetitions continue until --seconds have passed and the
workload's minimum count is reached.  Every metric is the median over
repetitions, except the item percentiles, which pool the items of all of
them.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# Fewest repetitions per run.  Pooled items then number at least
# items-per-repetition x this, which fixes the tail percentile below.  The
# counts put each percentile mid-way through one kind of item (table-sweep
# has an odd number of rows for the median), not between two kinds.
MIN_REPS = {"table-sweep": 4, "query-mix": 7, "series-check": 20}
MIN_TRACED = 3  # traced repetitions (and as many untraced) per --trace 1 run
TAIL_BEYOND = 10  # items above the tail percentile, at the minimum count
STOP_AFTER_S = 150  # start no repetition after this, so a run ends within 180 s
CHILD_TIMEOUT_S = 120


def tail_percentile(workload: str) -> float:
    """Highest percentile (to 0.1) with TAIL_BEYOND items beyond it at MIN_REPS."""
    pooled = len(workloads.make_items(workload, 0)) * MIN_REPS[workload]
    return math.floor(1000 * (1 - TAIL_BEYOND / pooled)) / 10


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = p / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def spawn_worker(arg: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, WORKER, arg],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repetition(
    workload: str, seed: int, trace: str | None, fault: bool = False, limit: int | None = None
) -> dict:
    cfg = {"workload": workload, "seed": seed, "trace": trace, "fault": fault, "limit": limit}
    return spawn_worker(json.dumps(dict(cfg, spawned_at=time.monotonic())))


def cli_repetition(workload: str, refs) -> tuple[float, float, int, list[str]]:
    """Run the CLI commands of one repetition, with calibration runs between them.

    Returns (reference seconds, unscaled seconds, commands, failures).
    """
    raw, failures = 0.0, []
    commands = workloads.cli_commands(workload)
    calibration = speed.sample()
    for item in commands:
        argv = workloads.cli_argv(item)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "flexk3.cli", *argv],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        raw += time.perf_counter() - start
        calibration += speed.sample(speed.CHUNK_SAMPLES)
        try:
            workloads.check(item, (proc.returncode, proc.stdout), refs)
        except Exception as exc:  # a malformed answer is a wrong answer
            failures.append(f"flexk3 {' '.join(argv)}: {exc}")
    calibration += speed.sample()
    return raw * speed.scale(calibration), raw, len(commands), failures


def self_test(workload: str, seed: int) -> list[str]:
    """Check the tracer (in a worker) and that a wrong answer counts as failed."""
    errors = spawn_worker("--self-test")["errors"]
    limit = 3
    result = repetition(workload, seed, trace=None, fault=True, limit=limit)
    failed = len(result["failures"])
    if result["attempted"] != limit or failed != 1:
        errors.append(f"injected one wrong answer in {limit} items; {failed} counted as failed")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, list[str], list[str]]:
    """Run repetitions; return (metrics, attempted, failures, notes)."""
    refs = workloads.References()
    need = MIN_TRACED if trace else MIN_REPS[workload]
    plain, traced, cli = [], [], []
    counted = [repetition(workload, seed, trace="counters")] if trace else []
    attempted, failures = 0, []
    start = time.perf_counter()
    while len(plain) < need or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > STOP_AFTER_S:
            break
        plain.append(repetition(workload, seed, trace=None))
        if trace:
            traced.append(repetition(workload, seed, trace="spans"))
        else:
            scaled, unscaled, commands, cli_failures = cli_repetition(workload, refs)
            cli.append((scaled, unscaled))
            attempted += commands
            failures += cli_failures
    for result in plain + traced + counted:
        attempted += result["attempted"]
        failures += result["failures"]

    wall_s = statistics.median(r["wall_s"] for r in plain)
    notes = [
        f"repetitions: {len(plain)} untraced, {len(traced)} with spans, {len(counted)} with counters, "
        f"{len(cli)} of CLI commands"
    ]
    if trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        metrics.update(counted[0]["layers"])
        metrics["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall_s - 1
        return metrics, attempted, failures, notes
    tail = tail_percentile(workload)
    metrics, raw = {}, {}
    for values, source in ((metrics, plain), (raw, [r["raw"] for r in plain])):
        item_ms = [t for r in source for t in r["item_ms"]]
        values["wall_s"] = statistics.median(r["wall_s"] for r in source)
        values["item_p50_ms"] = percentile(item_ms, 50)
        values["item_tail_ms"] = percentile(item_ms, tail)
        values["setup_s"] = statistics.median(r["setup_s"] for r in source)
    metrics["cli_s"] = statistics.median(seconds for seconds, _ in cli)
    raw["cli_s"] = statistics.median(seconds for _, seconds in cli)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    pooled = sum(len(r["item_ms"]) for r in plain)
    notes += [
        f"item_p50_ms: p50 of {pooled} items; item_tail_ms: p{tail:g} of {pooled} items",
        "unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
    ]
    return metrics, attempted, failures, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "flexk3", "__init__.py")):
        print(f"error: no flexk3 package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    # One CPU for this process and every child: the calibration runs in the
    # parent for the CLI commands, and cores can differ in speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    errors = self_test(args.workload, args.seed)
    if errors:
        print("benchmark self-test failed:\n  " + "\n  ".join(errors), file=sys.stderr)
        return 1
    items = workloads.make_items(args.workload, args.seed)
    print(
        f"flexk3 benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; Python {platform.python_version()}, {os.cpu_count()} cores"
    )
    print(f"inputs: {len(items)} items per repetition, repeat_frac={workloads.repeat_frac(items):.4f}")
    print("self-test: tracer arithmetic, patch coverage and injected fault all pass")
    values, attempted, failures, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(note)
    metrics = {}
    for metric in spec:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} items)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
