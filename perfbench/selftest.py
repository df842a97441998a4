"""Fast self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For each workload, runs `run.py` on the first two points of a pass, one pass
each, once untraced and once traced, and checks that:
  - BENCHMARK.json keeps the shape the benchmark driver accepts;
  - the last line holds exactly `correct`, `attempted`, `failed` and
    `metrics`, and `metrics` holds every metric BENCHMARK.json names for that
    mode, with its unit;
  - traced and untraced runs give identical outputs;
  - no point fails at this commit (failed_fraction is 0).
Exits 0 when all hold, 1 otherwise, printing each problem.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

from run import ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(metric["unit"]) or metric["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {metric}")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) missing from end_to_end")
    for workload in spec["workloads"]:
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"why of {workload['name']} is not one line of <= 200 characters")
    return problems


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--points", "2",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def check_result(result: dict, wanted: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metrics {sorted(metrics)} differ from BENCHMARK.json")
    for metric in wanted:
        got = metrics.get(metric["name"], {})
        value = got.get("value")
        if got.get("unit") != metric["unit"]:
            problems.append(f"{label}: {metric['name']} unit {got.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {metric['name']} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    for workload in WORKLOADS:
        untraced, untraced_record = run(workload, 0)
        traced, traced_record = run(workload, 1)
        problems += check_result(untraced, spec["end_to_end"], f"{workload} trace 0")
        problems += check_result(traced, spec["per_layer"], f"{workload} trace 1")
        for name, entry in untraced["metrics"].items():
            if not entry["value"] > 0:
                problems.append(f"{workload}: end-to-end metric {name} is not positive")
        digests = untraced_record["output_digest"] + traced_record["output_digest"]
        if len(digests) != 2 or len(set(digests)) != 1:
            problems.append(f"{workload}: traced and untraced outputs differ: {digests}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
