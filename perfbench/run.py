"""Benchmark of the netbounds pipeline: one workload per call.

    python3 perfbench/run.py --workload relay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads: relay, multicast, bounds,
partition (see perfbench/README.md). Each run starts fresh single-threaded
Python processes with `src` on PYTHONPATH: four that only set up, to sample
set-up time, then one that measures for `--seconds` seconds.

With `--trace 0` it reports the end-to-end metrics named in BENCHMARK.json;
with `--trace 1`, the per-layer metrics from spans the benchmark records
around each `netbounds` module. Human-readable lines come first, then a JSON
record with the seed, versions and sample counts, and last a JSON line with
`correct`, `attempted`, `failed` and `metrics`. Exits 1, printing no result,
when a process fails or the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("relay", "multicast", "bounds", "partition")

SETUP_PROCESSES = 5  # set-up samples per run; the measuring process is the last
RUN_TIMEOUT_S = 170.0
# point_ms_tail_ref is the highest of these percentiles with at least
# TAIL_BEYOND points above it, or the slowest point when no step has that many.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = p / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest ladder step with TAIL_BEYOND points above."""
    for p in TAIL_LADDER:
        if len(values) * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, percentile(values, p)
    return 100.0, max(values)


def run_child(args, extra, workdir, deadline) -> dict:
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        *(["--points", str(args.points)] if args.points else []),
        *extra,
    ]
    started = time.monotonic()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_TIMEOUT_S:.0f} s run limit") from None
    if done.returncode != 0:
        raise BenchError(
            f"worker exited with {done.returncode}:\n{done.stderr.strip()[-2000:]}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - started
    return record


def end_to_end(record, setups) -> tuple[dict, dict]:
    """(metrics, details) of an untraced run.

    Every pass issues the same points. Each point is taken at its median over
    the passes, from its time scaled to the reference speed (see worker.py):
    other tenants of a shared host slow the machine in phases of seconds, and
    the scaling takes those out. `wall_s_ref` is the sum of those medians, one
    pass at reference speed. The medians of the measured times are kept in
    the record.
    """
    ref_ms = [statistics.median(times) for times in zip(*record["pass_ref_ms"])]
    raw_ms = [statistics.median(times) for times in zip(*record["pass_ms"])]
    tail_p, tail_ms = tail(ref_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s_ref": sum(ref_ms) / 1e3,
        "point_ms_p50_ref": statistics.median(ref_ms),
        "point_ms_tail_ref": tail_ms,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    details = {
        "point_ms_tail_percentile": tail_p,
        "points_per_pass": len(ref_ms),
        "passes": len(record["pass_ms"]),
        "wall_s_measured": sum(raw_ms) / 1e3,
        "point_ms_p50_measured": statistics.median(raw_ms),
        "pass_wall_s": record["walls"]["untraced"],
        "speed_samples_per_pass": record["speed_samples"] / len(record["pass_ms"]),
        "machine_speed_p50": record["speed_p50"],
    }
    return metrics, details


def per_layer(record) -> tuple[dict, dict]:
    """(metrics, details) of a traced run, read from its fastest traced pass.

    One pass supplies every layer metric, so self times add up to its wall
    time; counts are the same in every pass.
    """
    walls = record["walls"]
    fastest = min(range(len(walls["traced"])), key=walls["traced"].__getitem__)
    metrics = dict(record["layers"][fastest])
    metrics["trace.overhead_s"] = min(walls["traced"]) - min(walls["untraced"])
    details = {
        "traced_passes": len(walls["traced"]),
        "untraced_passes": len(walls["untraced"]),
        "wall_s_traced": min(walls["traced"]),
        "wall_s_untraced": min(walls["untraced"]),
    }
    return metrics, details


def shares(metrics, wall) -> dict:
    """Self time of each layer as a share of the traced pass."""
    out = {}
    for name, value in metrics.items():
        if name.endswith(".self_s") and wall > 0:
            out[name[: -len(".self_s")]] = round(value / wall, 4)
    return dict(sorted(out.items(), key=lambda item: -item[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--points", type=int, help="use only the first N points of a pass (self-test)"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker, and
    # the input directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if not (ROOT / "src" / "netbounds" / "__init__.py").is_file():
            raise BenchError(f"no netbounds package under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        # Generated inputs live in the checkout, and only during the run.
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            setups = [
                run_child(args, ["--setup-only"], workdir, deadline)["setup_s"]
                for _ in range(SETUP_PROCESSES - 1)
            ]
            record = run_child(args, [], workdir, deadline)
        setups.append(record["setup_s"])
        if args.trace:
            metrics, details = per_layer(record)
        else:
            metrics, details = end_to_end(record, setups)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {', '.join(missing)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed_fraction = record["failed"] / record["attempted"]
    correct = record["failed"] == 0 and record["error_count"] == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for metric in wanted:
        print(f"  {metric['name']:<46} {metrics[metric['name']]:>14.6g} {metric['unit']}")
    if not args.trace:
        gap = record["mean_gap_bits"]
        print(f"  {'mean_gap_bits':<46} {'n/a' if gap is None else f'{gap:.9f}':>14} bits/use")
        print(
            f"  {'point_ms_tail_ref':<46} is p{details['point_ms_tail_percentile']:g} "
            f"of {details['points_per_pass']} points, each at its median of "
            f"{details['passes']} passes"
        )
        print(
            f"  {'wall_s as measured':<46} {details['wall_s_measured']:>14.6g} s "
            f"(machine at {details['machine_speed_p50']:.3g} x reference speed)"
        )
    print(
        f"  {'failed_fraction':<46} {failed_fraction:>14.6g} ratio "
        f"({record['failed']} of {record['attempted']} points)"
    )
    for error in record["errors"]:
        print(f"  error: {error}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "points": record["points"],
        "setup_s_samples": setups,
        "mean_gap_bits": record["mean_gap_bits"],
        "failed_fraction": failed_fraction,
        "output_digest": record["digest"],
        "versions": record["versions"],
        **details,
    }
    if args.trace:
        summary["self_time_shares"] = shares(metrics, details["wall_s_traced"])
    print(json.dumps({"record": summary}))
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
