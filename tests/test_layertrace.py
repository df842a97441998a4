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

from netbounds import flows
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
# point, which do not depend on machine speed.
BENCH_POINTS = {
    "relay": (
        5.0,
        "5",
        {
            "decouple.decompose": 1,
            "decouple.gauss_noise_partition": 1,
            "mac.mac_upper": 22,
            "flows.max_flow": 22,
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
            "mac.mac_upper": 110,
            "flows.multicast_outer": 11,
            "flows.hyper_inner": 2,
            "flows.validate_hyper_result": 2,
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
