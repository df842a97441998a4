"""The bench tracer and workloads still run on the program as it is.

`perfbench/layertrace.py` wraps every name in its `TARGETS` by module and
attribute, so deleting or renaming a traced name breaks traced bench runs.
`perfbench/workloads.py` reaches the experiments as `cli.relay_experiment`,
`cli.multicast_experiment` and `cli.main`. These tests read both files as
they stand and fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from netbounds import assemble, flows
from netbounds.netmodel import Demand

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    layertrace = load_perfbench("layertrace")
    targets = [
        (importlib.import_module(f"netbounds.{module}"), attribute)
        for module, attribute, _ in layertrace.TARGETS
    ]
    originals = [getattr(module, attribute) for module, attribute in targets]
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        for (module, attribute), original in zip(targets, originals):
            assert getattr(module, attribute) is not original, attribute
        demand = Demand(kind="unicast", source="a", sinks=frozenset({"b"}))
        assert flows.max_flow(("a", "b"), [("a", ("b",), 1.0, "")], demand).rate == 1.0
        assert tracer.calls["flows.max_flow"] == 1
    finally:
        tracer.uninstall()
    for (module, attribute), original in zip(targets, originals):
        assert getattr(module, attribute) is original, attribute


# Per workload: a point, its golden key, and the traced call counts of that
# point, which do not depend on machine speed. `mac.mac_upper` rates a whole
# sweep's (MAC, alpha) pairs per call, so its span counts batches: one per
# cold point. The multicast inner search routes its one LP through
# `flows._route`, which is not traced, so that LP shows as one
# `validate_hyper_result`.
BENCH_POINTS = {
    "relay": (
        5.0,
        "5",
        {
            "decouple.decompose": 1,
            "decouple.gauss_noise_partition": 1,
            "mac.mac_upper": 1,
            "flows.max_flow": 1,
            "flows.unicast_inner": 1,
            "benchmarks.relay_refs": 3,
        },
    ),
    "multicast": (
        13.0,
        "13",
        {
            "decouple.decompose": 1,
            "decouple.gauss_noise_partition": 1,
            "mac.mac_upper": 1,
            "flows.multicast_outer": 1,
            "flows.validate_hyper_result": 1,
        },
    ),
}


@pytest.mark.parametrize("workload", sorted(BENCH_POINTS))
def test_traced_bench_point_matches_golden_and_call_counts(workload):
    layertrace, workloads = load_perfbench("layertrace"), load_perfbench("workloads")
    payload, key, counts = BENCH_POINTS[workload]
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        output = workloads.run_point(workload, payload)
    finally:
        tracer.uninstall()
    summary = workloads.summarize(workload, output)
    assert workloads.check(workload, summary, workloads.load_golden(workload)[key], payload) is None
    assert {name: calls for name, calls in tracer.calls.items() if calls} == counts


def test_bounds_bench_pass_computes_220_mac_pairs(monkeypatch, tmp_path):
    # Each of the 8 pool files rates its 2 or 3 MACs at 11 alphas in one
    # `mac_upper` call, and no (MAC, alpha) pair repeats across files.
    workloads = load_perfbench("workloads")
    pairs, batches = [], []
    mac_upper = assemble.mac_upper

    def counting(batch):
        batch = tuple(batch)
        pairs.extend(batch)
        batches.append(len(batch))
        return mac_upper(batch)

    monkeypatch.setattr(assemble, "mac_upper", counting)
    points = workloads.make_points("bounds", 1, tmp_path)
    for point in points:
        code, _out, _err = workloads.run_point("bounds", point.payload)
        assert code == 0
    assert len(points) == len(batches) == 8
    assert len(pairs) == len(set(pairs)) == 220


def test_bounds_bench_pass_certifies_one_outer_flow_per_demand(monkeypatch, tmp_path):
    # The 8 pool files hold 20 demands, half unicast and half multicast. Each
    # demand's alpha sweep is rated by its min cut, and one flow is certified.
    workloads = load_perfbench("workloads")
    flowed = []

    def counted(name):
        flow = getattr(flows, name)

        def counting(*args):
            flowed.append(name)
            return flow(*args)

        monkeypatch.setattr(flows, name, counting)

    counted("max_flow")
    counted("multicast_outer")
    for point in workloads.make_points("bounds", 1, tmp_path):
        code, _out, _err = workloads.run_point("bounds", point.payload)
        assert code == 0
    assert sorted(flowed) == ["max_flow"] * 10 + ["multicast_outer"] * 10


def test_bounds_bench_pass_routes_54_lps(monkeypatch, tmp_path):
    # Of the pool's 1400 inner runs. Most routed rates equal their run's
    # `demand_cut`, so a demand closes at the first run whose cut ties its
    # best rate at a later index; before ties closed, a pass routed 303.
    workloads = load_perfbench("workloads")
    solves = []
    solve = flows._solve_lp

    def counting(lp, upper):
        solves.append(lp)
        return solve(lp, upper)

    monkeypatch.setattr(flows, "_solve_lp", counting)
    routed = {}
    for point in workloads.make_points("bounds", 1, tmp_path):
        before = len(solves)
        code, _out, _err = workloads.run_point("bounds", point.payload)
        assert code == 0
        routed[point.key] = len(solves) - before
    assert routed == {
        "2x3xunicast-0": 4,
        "2x3xunicast-1": 4,
        "2x3xmulticast-0": 8,
        "2x3xmulticast-1": 7,
        "3x2xunicast-0": 11,
        "3x2xunicast-1": 2,
        "3x2xmulticast-0": 9,
        "3x2xmulticast-1": 9,
    }
    assert sum(routed.values()) == 54
