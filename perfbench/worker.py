"""One measuring process of the benchmark; `run.py` starts it.

    python3 perfbench/worker.py --workload relay --seed 1 --seconds 20 --trace 0

needs `src` on PYTHONPATH and prints one JSON object. It imports `netbounds`,
builds the pass for the seed and reports, as `ready`, the system-wide
monotonic clock at that moment, from which `run.py` derives set-up time. It
then runs whole passes until `--seconds` have elapsed, at least one; each
point is timed alone, with the machine's speed sampled while it runs (see
SpeedSampler), and outputs are checked against golden/ after each pass,
outside the timed region. With `--trace 1`, passes alternate untraced and
traced, so both wall times come from the same process, and the traced passes
supply the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import workloads
from layertrace import LayerTracer

MAX_ERRORS_SHOWN = 5


def highs_version() -> str:
    try:  # SciPy's private binding of HiGHS; only read for the record
        from scipy.optimize._highspy import _core
    except ImportError:
        return "unknown"
    return ".".join(
        str(getattr(_core, f"HIGHS_VERSION_{part}", "?")) for part in ("MAJOR", "MINOR", "PATCH")
    )


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version(),
        "nproc": os.cpu_count(),
        "threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# The reference kernel: a fixed interpreter loop and small NumPy operations,
# using nothing of netbounds. During an untraced pass an interval timer runs it
# every SAMPLE_INTERVAL_S from a signal handler, which samples the machine's
# speed while each point runs. Python runs the handler between bytecodes, so
# within a long native call (a HiGHS solve) the sample waits for its return.
# At reference speed the kernel takes REFERENCE_KERNEL_S; each point's time is
# scaled by the mean of REFERENCE_KERNEL_S / (kernel time) over its samples.
REFERENCE_LOOP = 1_500
REFERENCE_ARRAY = numpy.arange(64.0)
REFERENCE_NUMPY_OPS = 30
REFERENCE_KERNEL_S = 0.25e-3
SAMPLE_INTERVAL_S = 0.01


def reference_kernel() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    array = REFERENCE_ARRAY
    for i in range(REFERENCE_NUMPY_OPS):
        total += float((array * 1.5 + i).sum())
    return time.perf_counter() - start


class SpeedSampler:
    """Times the reference kernel on SIGALRM while entered.

    `samples` holds (end of sample, seconds the kernel took), in order.
    """

    def __init__(self):
        self.samples = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        took = reference_kernel()
        self.samples.append((time.perf_counter(), took))
        self._busy = False

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than the interval
            self._sample(None, None)


def scaled_times(spans, samples) -> tuple[list[float], list[float]]:
    """(times, speeds) of the points timed over `spans`.

    A point's time leaves out the kernels run inside it. Its speed is the mean
    of REFERENCE_KERNEL_S / (kernel time) over the samples inside it; a point
    with none gets the first sample after it, or the last one.
    """
    times, speeds = [], []
    for start, end in spans:
        inside = [(at, took) for at, took in samples if start < at <= end]
        took = [t for _, t in inside]
        if not took:
            after = [t for at, t in samples if at > end]
            took = [after[0] if after else samples[-1][1]]
        times.append(end - start - sum(took_inside for _, took_inside in inside))
        speeds.append(statistics.fmean(REFERENCE_KERNEL_S / t for t in took))
    return times, speeds


def run_pass(workload: str, points, sampler=None) -> tuple[float, list[float], list, list]:
    """(wall, point times, point speeds, outputs) of one pass.

    With a sampler, point times leave out the kernels it ran, `wall` is their
    sum, and speeds are the machine's relative to reference (see
    scaled_times); without one, speeds is empty.
    """
    clock = time.perf_counter
    spans, outputs = [], []
    with sampler or contextlib.nullcontext():
        for point in points:
            t0 = clock()
            try:
                output = workloads.run_point(workload, point.payload)
            except Exception as exc:  # a failed point is counted, not fatal
                output = exc
            spans.append((t0, clock()))
            outputs.append(output)
    if sampler is None:
        times, speeds = [end - start for start, end in spans], []
    else:
        times, speeds = scaled_times(spans, sampler.samples)
    return sum(times), times, speeds, outputs


def check_pass(workload: str, points, outputs, golden) -> tuple[list, list[str], list[float]]:
    """(summaries, errors, gaps) of one pass; one error per failed point."""
    summaries, errors, gaps = [], [], []
    for point, output in zip(points, outputs):
        if isinstance(output, Exception):
            summary = {"error": f"{type(output).__name__}: {output}"}
            problem = f"raised {summary['error']}"
        else:
            summary = workloads.summarize(workload, output)
            if point.key in golden:
                problem = workloads.check(workload, summary, golden[point.key], point.payload)
            else:
                problem = "no golden entry"
            gaps.extend(workloads.gap_bits(workload, summary))
        summaries.append(summary)
        if problem:
            errors.append(f"{point.key}: {problem}")
    return summaries, errors, gaps


def digest(summaries) -> str:
    text = json.dumps(summaries, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def measure(workload, points, seconds, trace, golden) -> dict:
    tracer = LayerTracer() if trace else None
    sampler = SpeedSampler()
    walls = {"untraced": [], "traced": []}
    digests = {"untraced": set(), "traced": set()}
    pass_ms, pass_ref_ms, speed_samples, layers, errors, gaps = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        kind = "traced" if trace and len(walls["untraced"]) > len(walls["traced"]) else "untraced"
        if kind == "traced":
            tracer.reset()
            tracer.install()
            try:
                wall, times, _, outputs = run_pass(workload, points)
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics(wall))
        else:
            wall, times, speeds, outputs = run_pass(workload, points, sampler)
            pass_ms.append([t * 1e3 for t in times])
            pass_ref_ms.append([t * 1e3 * speed for t, speed in zip(times, speeds)])
            speed_samples.extend(REFERENCE_KERNEL_S / took for _, took in sampler.samples)
        walls[kind].append(wall)
        summaries, pass_errors, pass_gaps = check_pass(workload, points, outputs, golden)
        digests[kind].add(digest(summaries))
        attempted += len(points)
        failed += len(pass_errors)
        errors.extend(pass_errors)
        gaps.extend(pass_gaps)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or walls["traced"]):
            break
    # Every pass sees the same points, so outputs must not vary between passes
    # or with tracing.
    if len(digests["untraced"] | digests["traced"]) > 1:
        errors.append("outputs differ between passes or with tracing")
    return {
        "walls": walls,
        "pass_ms": pass_ms,
        "pass_ref_ms": pass_ref_ms,
        "speed_samples": len(speed_samples),
        "speed_p50": statistics.median(speed_samples),
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:MAX_ERRORS_SHOWN],
        "error_count": len(errors),
        "mean_gap_bits": statistics.fmean(gaps) if gaps else None,
        "digest": sorted(digests["untraced"] | digests["traced"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, help="use only the first N points of a pass")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="directory for generated inputs")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        points = workloads.make_points(args.workload, args.seed, Path(workdir))
        if args.points:
            points = points[: args.points]
        ready = time.monotonic()
        record = {"ready": ready, "seed": args.seed, "points": [p.key for p in points]}
        if not args.setup_only:
            golden = workloads.load_golden(args.workload)
            record.update(measure(args.workload, points, args.seconds, args.trace, golden))
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record["versions"] = versions()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
