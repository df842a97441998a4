"""Tests for the bounding pipeline, `pipeline.bound`, called directly."""

import csv
import json
from pathlib import Path

import pytest

from netbounds import pipeline
from netbounds.cli import parse_grid
from netbounds.flows import FlowResult
from netbounds.netmodel import parse_network
from netbounds.pipeline import bound

DATA = Path(__file__).resolve().parent / "data"


def network(links, demands):
    """A network of AWGN links ``(src, dst, snr)`` and ``(source, sinks)`` demands."""
    nodes = sorted({end for src, dst, _ in links for end in (src, dst)})
    doc = {
        "nodes": nodes,
        "links": [{"from": s, "to": d, "kind": "awgn", "snr": snr} for s, d, snr in links],
        "demands": [
            {
                "kind": "unicast" if len(sinks) == 1 else "multicast",
                "source": source,
                "sinks": list(sinks),
            }
            for source, sinks in demands
        ],
    }
    return parse_network(json.dumps(doc))


def broadcast():
    """S broadcasts to A and B; one unicast demand S -> A."""
    return network([("S", "A", 1.0), ("S", "B", 4.0)], [("S", ["A"])])


def scripted(rates, calls=None):
    """A flow function that returns the next of ``rates`` on each call."""
    rates = iter(rates)

    def flow(node_ids, arcs, demand):
        if calls is not None:
            calls.append(demand)
        return FlowResult(demand=demand, rate=next(rates), witness={})

    return flow


@pytest.mark.parametrize(
    "name, runs",
    [("2x3xunicast-0", (11, 225)), ("3x2xmulticast-1", (11, 125))],
)
def test_bound_gives_what_bounds_prints(name, runs):
    # tests/data/bounds_*.csv holds what `netbounds bounds` wrote for these
    # files before the pipeline left the CLI.
    net = parse_network((DATA / f"lower_bounds_{name}.json").read_text(encoding="utf-8"))
    report = bound(net, parse_grid("0:1:0.1"), 0.25)
    with open(DATA / f"bounds_{name}.csv", encoding="utf-8", newline="") as stream:
        rows = list(csv.DictReader(line for line in stream if not line.startswith("#")))
    assert len(rows) == len(net.demands)
    for demand, row in zip(net.demands, rows):
        assert (row["source"], row["sinks"]) == (demand.source, ";".join(demand.sink_list))
        outer_rate, outer_label = report.outer[demand]
        inner_rate, inner_label = report.inner[demand]
        assert (f"{outer_rate:.9f}", outer_label) == (row["outer_rate"], row["outer_label"])
        assert (f"{inner_rate:.9f}", inner_label) == (row["inner_rate"], row["inner_label"])
    assert (report.outer_runs, report.inner_runs) == runs
    assert report.sandwich_violations() == []


def test_outer_takes_min_inner_takes_max(monkeypatch):
    monkeypatch.setattr(pipeline, "max_flow", scripted([2.0, 1.5, 1.7]))
    monkeypatch.setattr(pipeline, "unicast_inner", scripted([0.9, 1.2, 0.3, 1.0, 1.1]))
    net = broadcast()
    report = bound(net, (0.0, 0.5, 1.0), 0.25)
    [demand] = net.demands
    assert report.outer[demand] == (1.5, "upper alpha=0.5")
    assert report.inner[demand] == (1.2, "lower S=0.25/0.75")
    assert (report.outer_runs, report.inner_runs) == (3, 5)
    assert [comp.kind for comp in report.components] == ["bc"]


def test_ties_keep_the_earliest_run(monkeypatch):
    monkeypatch.setattr(pipeline, "max_flow", scripted([1.0, 0.5, 0.5, 0.5]))
    monkeypatch.setattr(pipeline, "unicast_inner", scripted([0.2, 0.7, 0.7, 0.2, 0.7]))
    net = broadcast()
    report = bound(net, (0.0, 0.25, 0.5, 0.75), 0.25)
    [demand] = net.demands
    assert report.outer[demand] == (0.5, "upper alpha=0.25")
    assert report.inner[demand] == (0.7, "lower S=0.25/0.75")


def test_ties_keep_the_earliest_run_unpatched():
    # The broadcast side T -> X, Y carries no demand, so every split of it
    # ties; the first split of T wins at S's best split. No MAC: every alpha
    # ties too.
    net = network(
        [("S", "A", 1.0), ("S", "B", 4.0), ("T", "X", 1.0), ("T", "Y", 2.0)],
        [("S", ["A"])],
    )
    report = bound(net, (0.0, 0.5, 1.0), 0.5)
    [demand] = net.demands
    assert report.outer[demand][1] == "upper alpha=0"
    assert report.inner[demand][1] == "lower S=1/0 T=0/1"
    assert report.inner[demand][0] == pytest.approx(0.5)  # C(1): all power to A


def test_reports_sandwich_violations_ordered_by_source(monkeypatch):
    # Two inputs into one receiver, the demands listed b first; every outer
    # rate is forced to 0 so that both positive inner rates exceed it.
    calls = []
    monkeypatch.setattr(pipeline, "max_flow", scripted([0.0] * 6, calls))
    net = network([("a", "d", 1.0), ("b", "d", 2.0)], [("b", ["d"]), ("a", ["d"])])
    report = bound(net, (0.0, 0.5, 1.0), 0.25)
    assert len(calls) == 6
    violations = report.sandwich_violations()
    assert len(violations) == 2
    assert violations[0].startswith("demand a->['d']: inner ")
    assert violations[1].startswith("demand b->['d']: inner ")
    assert all("exceeds outer 0.0" in violation for violation in violations)


@pytest.mark.parametrize(
    "alphas, beta_step, message",
    [
        ((), 0.25, "alpha sweep is empty"),
        ((0.0, 1.5), 0.25, "alpha sweep value 1.5 lies outside"),
        ((0.5,), 0.0, r"beta step must lie in \(0, 1\]"),
        ((0.5,), 0.3, "beta step must divide 1 evenly"),
    ],
)
def test_rejects_bad_sweeps(alphas, beta_step, message):
    with pytest.raises(ValueError, match=message):
        bound(broadcast(), alphas, beta_step)
