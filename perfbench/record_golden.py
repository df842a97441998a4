"""Record the golden results that every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_golden.py [workload ...]

Computes every point of each workload with the checked-out program and writes
perfbench/golden/. Run it only when results are meant to change, and say why
in the change; a run whose outputs differ from golden/ counts those points as
failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def record(workload: str) -> dict:
    points = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for point in workloads.make_points(workload, 0, Path(workdir)):
            output = workloads.run_point(workload, point.payload)
            summary = workloads.summarize(workload, output)
            golden = {"demands": summary["demands"]} if workload == "bounds" else summary
            # the invariants (exit code, inner <= outer, residual) still apply
            problem = workloads.check(workload, summary, golden, point.payload)
            if problem:
                raise RuntimeError(f"{point.key}: {problem}")
            points[point.key] = golden
    return {"workload": workload, "points": dict(sorted(points.items()))}


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    for name in names:
        data = record(name)
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(data['points'])} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
