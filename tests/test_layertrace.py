"""The bench tracer still installs on the program as it is.

`perfbench/layertrace.py` wraps every name in its `TARGETS` by module and
attribute, so deleting or renaming a traced name breaks traced bench runs.
This test reads that file as it stands and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

from netbounds import flows
from netbounds.netmodel import Demand

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    layertrace = load_layertrace()
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
