"""Tests for the bounding pipeline, `pipeline.bound`, called directly."""

import csv
import functools
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from netbounds import flows, pipeline
from netbounds.assemble import LowerBatch, LowerStructure, UpperStructure, link_capacity
from netbounds.bc import simplex_grid
from netbounds.cli import parse_grid
from netbounds.decouple import decompose
from netbounds.experiments import ALPHA_GRID
from netbounds.flows import FlowResult, demand_cut, hyper_inner, unicast_inner
from netbounds.netmodel import Demand, parse_network
from netbounds.pipeline import bound
from test_bounds_fuzz import random_document

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


def scripted_cuts(cuts):
    """A `min_cut` that rates the rows of every batch by ``cuts``."""

    def cut(slots, rates, demand):
        return np.array(cuts[: len(rates)])

    return cut


def unranked_inner(monkeypatch, rates):
    """Route every inner run, in sweep order, to the next of ``rates``: every
    run's `demand_cut` ties at 10, so the runs rank by index and none can be
    skipped."""
    monkeypatch.setattr(flows, "demand_cut", lambda slots, rates, demand: np.full(len(rates), 10.0))
    monkeypatch.setattr(flows, "unicast_inner", scripted(rates))


def test_outer_takes_min_inner_takes_max(monkeypatch):
    monkeypatch.setattr(flows, "min_cut", scripted_cuts([2.0, 1.5, 1.7]))
    monkeypatch.setattr(flows, "max_flow", scripted([1.5]))
    unranked_inner(monkeypatch, [0.9, 1.2, 0.3, 1.0, 1.1])
    net = broadcast()
    report = bound(net, (0.0, 0.5, 1.0), 0.25)
    [demand] = net.demands
    assert report.outer[demand] == (1.5, "upper alpha=0.5")
    assert report.inner[demand] == (1.2, "lower S=0.25/0.75")
    assert (report.outer_runs, report.inner_runs) == (3, 5)
    assert [comp.kind for comp in report.components] == ["bc"]


def test_ties_keep_the_earliest_run(monkeypatch):
    monkeypatch.setattr(flows, "min_cut", scripted_cuts([1.0, 0.5, 0.5, 0.5]))
    monkeypatch.setattr(flows, "max_flow", scripted([0.5]))
    unranked_inner(monkeypatch, [0.2, 0.7, 0.7, 0.2, 0.7])
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
    # rate is forced to 0 so that both positive inner rates exceed it. One
    # flow per demand is certified.
    calls = []
    monkeypatch.setattr(flows, "min_cut", scripted_cuts([0.0] * 3))
    monkeypatch.setattr(flows, "max_flow", scripted([0.0] * 2, calls))
    net = network([("a", "d", 1.0), ("b", "d", 2.0)], [("b", ["d"]), ("a", ["d"])])
    report = bound(net, (0.0, 0.5, 1.0), 0.25)
    assert len(calls) == 2
    violations = report.sandwich_violations()
    assert len(violations) == 2
    assert violations[0].startswith("demand a->['d']: inner ")
    assert violations[1].startswith("demand b->['d']: inner ")
    assert all("exceeds outer 0.0" in violation for violation in violations)


def test_outer_rates_by_flows_where_min_cut_refuses_the_interior():
    # A 16-node chain with a second path N06 -> X -> N08, whose MAC at N08
    # makes the alpha sweep matter. In the upper network the sink N15 of N00
    # has 17 interior nodes (N01..N14, X and two auxiliaries), more than
    # `min_cut` enumerates; X -> N15 has 8. Every outer (rate, label) is the
    # least per-alpha flow, the earliest of ties.
    chain = [f"N{k:02d}" for k in range(16)]
    links = [(u, v, 100.0) for u, v in zip(chain, chain[1:]) if v != "N08"]
    links += [("N07", "N08", 1.0), ("N06", "X", 100.0), ("X", "N08", 1.0)]
    demands = [("N00", ["N15"]), ("N00", ["N10", "N15"]), ("X", ["N15"])]
    net = network(links, demands)
    upper = UpperStructure(decompose(net))
    sweep = upper.rate_batch(ALPHA_GRID)
    refused = []
    for demand in net.demands:
        try:
            flows.min_cut(sweep.slots, sweep.rates, demand)
        except ValueError as error:
            assert "interior nodes" in str(error)
            refused.append(demand.source)
    assert refused == ["N00", "N00"]
    want = {}
    for alpha in ALPHA_GRID:
        arcs = upper.arcs(alpha)
        for demand in net.demands:
            flow = flows.max_flow if demand.kind == "unicast" else flows.multicast_outer
            rate = flow(upper.node_ids, arcs, demand).rate
            if demand not in want or rate < want[demand][0]:
                want[demand] = (rate, f"upper alpha={alpha:g}")
    assert bound(net, ALPHA_GRID, 1.0).outer == want
    assert sorted(label for _rate, label in want.values()) == [
        "upper alpha=0",
        "upper alpha=1",
        "upper alpha=1",
    ]


# Files whose weak SIC input, decoded after a much stronger one, was rated
# above its own link's capacity, while the running total of the inputs left
# to decode cancelled.
STRONG_THEN_WEAK = {
    # 16.95 dB from B decoded after 149.9 dB from A, both into R.
    "two inputs": (
        {
            "nodes": ["A", "B", "R"],
            "links": [
                {"from": "A", "to": "R", "kind": "awgn", "snr_db": 149.9},
                {"from": "B", "to": "R", "kind": "awgn", "snr_db": 16.95},
            ],
            "demands": [
                {"kind": "unicast", "source": "A", "sinks": ["R"]},
                {"kind": "unicast", "source": "B", "sinks": ["R"]},
            ],
        },
        "B",
    ),
    # The 146th file of the fuzz family at seed 777 and span 100 dB: N1 -> N0
    # at 17.6 dB is decoded after N3 -> N0 at 92.0 dB.
    "fuzz seed 777": (
        [random_document(rng, 100.0) for rng in [random.Random(777)] for _ in range(146)][-1],
        "N1",
    ),
}


@pytest.mark.parametrize("name", sorted(STRONG_THEN_WEAK))
def test_sic_input_rated_within_its_link_capacity(name):
    doc, source = STRONG_THEN_WEAK[name]
    net = parse_network(json.dumps(doc))
    [link] = [link for link in net.links if link.src == source]
    demand = Demand("unicast", source, frozenset({link.dst}))
    rate, _label = bound(net, ALPHA_GRID, 0.5).inner[demand]
    assert rate <= link_capacity(link)


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


# Seed of the generated networks below; the same generator as the bounds fuzz.
SWEEP_SEED = 20261020


@functools.cache
def swept_networks(unicast=False) -> tuple:
    """(name, network) of both lower_bounds_* files and 2 x 20 generated
    networks of 2-3 demands that `bound` accepts, SNRs drawn over spans of 30
    and 100 dB; with ``unicast``, 2 x 20 generated networks whose one demand
    is unicast instead."""
    nets = [
        (path.stem, parse_network(path.read_text(encoding="utf-8")))
        for path in sorted(DATA.glob("lower_bounds_*.json"))
        if not unicast
    ]
    rng = random.Random(SWEEP_SEED)
    for span_db in (30.0, 100.0):
        kept = 0
        while kept < 20:
            doc = random_document(rng, span_db)
            kinds = [demand["kind"] for demand in doc["demands"]]
            if not (kinds == ["unicast"] if unicast else len(kinds) > 1):
                continue
            try:
                net = parse_network(json.dumps(doc))
                decompose(net)
            except ValueError:
                continue
            nets.append((f"{span_db:g}dB-{kept}", net))
            kept += 1
    return tuple(nets)


def sweep_runs(net, beta_step, batched=False):
    """(node ids, (label, arcs) per beta run in sweep order) of `bound`'s
    inner sweep, each run rated alone by `LowerStructure.arcs`; with
    ``batched``, also the `LowerBatch` of all runs, which `bound` rates."""
    components = decompose(net)
    sides = [comp for comp in components if comp.kind == "bc"]
    lower = LowerStructure(components)
    grids = [simplex_grid(len(comp.links), round(1 / beta_step)) for comp in sides]
    runs = []
    combos = list(itertools.product(*grids))
    for combo in combos:
        label = " ".join(
            f"{comp.key[1]}=" + "/".join(f"{beta:g}" for beta in betas)
            for comp, betas in zip(sides, combo)
        )
        betas = {comp.key: betas for comp, betas in zip(sides, combo)}
        runs.append((f"lower {label or 'default'}", lower.arcs(betas)))
    if not batched:
        return lower.node_ids, runs
    splits = {comp.key: [combo[k] for combo in combos] for k, comp in enumerate(sides)}
    return lower.node_ids, runs, lower.rate_batch(splits)


def counted(monkeypatch, owner, name) -> list:
    """A list that grows by the result of each call of ``owner.name`` from now on."""
    results = []
    call = getattr(owner, name)

    def counting(*args, **kwargs):
        results.append(call(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, counting)
    return results


def counted_solves(monkeypatch) -> list:
    """A list that grows by one entry per routing LP solved from now on."""
    return counted(monkeypatch, flows, "_solve_lp")


@pytest.mark.parametrize("beta_step", [0.5, 0.25])
def test_pruned_sweep_equals_exhaustive_sweep(beta_step, monkeypatch):
    # The reference routes every run, by `hyper_inner` or, on the networks
    # whose one demand is unicast, by `unicast_inner`, caps each rate at its
    # run's `demand_cut`, and keeps strict improvements in sweep order, so
    # the earliest of tied runs wins. No demand is listed twice: the parser
    # refuses such files.
    solves = counted_solves(monkeypatch)
    flowed = counted(monkeypatch, flows, "unicast_inner")
    for unicast, routings in ((False, solves), (True, flowed)):
        routed = swept = 0
        for name, net in swept_networks(unicast):
            node_ids, runs, lower = sweep_runs(net, beta_step, batched=True)
            cuts = {d: demand_cut(lower.slots, lower.rates, d).tolist() for d in net.demands}
            if unicast:
                [demand] = net.demands
                batch = ([unicast_inner(node_ids, arcs, demand)] for _, arcs in runs)
            else:
                batch = (hyper_inner(node_ids, arcs, net.demands) for _, arcs in runs)
            want = {}
            for row, ((label, _), results) in enumerate(zip(runs, batch)):
                for result in results:
                    demand = result.demand
                    rate = min(result.rate, cuts[demand][row])
                    if demand not in want or rate > want[demand][0]:
                        want[demand] = (rate, label)
            before = len(routings)
            report = bound(net, (0.5,), beta_step)
            assert report.inner == want, name
            assert report.inner_runs == len(runs)
            routed += len(routings) - before
            swept += len(runs)
        assert routed < swept, (unicast, routed, swept)


def test_demand_cut_bounds_every_routing():
    checked = exact = 0
    for name, net in swept_networks():
        node_ids, runs, batch = sweep_runs(net, 0.25, batched=True)
        transmitters = {tail for tail, _ in batch.slots}
        cuts = {demand: demand_cut(batch.slots, batch.rates, demand) for demand in net.demands}
        for row, (_, arcs) in enumerate(runs):
            for demand in net.demands:
                rate = min(
                    unicast_inner(node_ids, arcs, Demand("unicast", demand.source, {sink})).rate
                    for sink in demand.sinks
                )
                cut = cuts[demand][row]
                # The max flow sums its augmenting paths in another order
                # than the cut sums its arcs, so the two may differ in the
                # last bit.
                assert cut >= rate - 1e-12 * max(1.0, rate), (name, demand, cut, rate)
                checked += 1
                if all(len(transmitters - {demand.source, sink}) <= 2 for sink in demand.sinks):
                    assert abs(cut - rate) <= 1e-9 * max(1.0, rate), (name, demand, cut, rate)
                    exact += 1
    assert exact > checked // 2, (exact, checked)


def test_demand_cut_holds_where_its_sets_miss_the_min_cut():
    # s -> a -> b -> c -> t: the least cut leaves {s, a, b} on the source
    # side, which holds two of the three other transmitters, so the bound
    # stays above the max flow.
    slots = [("s", ("a",)), ("a", ("b", "x")), ("b", ("c",)), ("c", ("t",)), ("x", ("t",))]
    rates = [5.0, 5.0, 1.0, 5.0, 0.0]
    node_ids = ("s", "a", "b", "c", "t", "x")
    demand = Demand("unicast", "s", frozenset({"t"}))
    arcs = [(*slot, rate, "label") for slot, rate in zip(slots, rates) if rate]
    assert unicast_inner(node_ids, arcs, demand).rate == 1.0
    # The second row keeps the x -> t slot at rate 0, as `LowerStructure.arcs`
    # leaves such an arc out: its tail x joins the set family, but a slot of
    # rate 0 adds 0.0 to every total, and the cut stays 5.
    cuts = demand_cut(slots[:4], np.array([rates[:4]]), demand).tolist()
    assert cuts + demand_cut(slots, np.array([rates]), demand).tolist() == [5.0, 5.0]


@pytest.mark.parametrize(
    "name, solves", [("2x3xunicast-0", 4), ("3x2xmulticast-1", 9)]
)
def test_bound_routes_only_runs_that_can_set_a_bound(name, solves, monkeypatch):
    # The full sweeps have 225 and 125 runs. Most routed rates equal their
    # run's cut, so a demand closes at the first run whose cut ties its best
    # rate at a later index.
    net = parse_network((DATA / f"lower_bounds_{name}.json").read_text(encoding="utf-8"))
    calls = counted_solves(monkeypatch)
    report = bound(net, parse_grid("0:1:0.1"), 0.25)
    assert len(calls) == solves
    assert report.inner_runs > len(calls)


@pytest.mark.parametrize("draw, runs", [(121, 375), (277, 625)])
def test_a_demand_of_rate_0_closes_without_routing_every_run(draw, runs, monkeypatch):
    # Draws of the fuzz generator at seed 777 where every demand's cut is 0.0
    # on every run: the first routed run ties each cut, and every demand
    # closes. While ties did not close, these files routed every run.
    rng = random.Random(777)
    doc = [random_document(rng, 100.0) for _ in range(draw + 1)][-1]
    net = parse_network(json.dumps(doc))
    calls = counted_solves(monkeypatch)
    report = bound(net, parse_grid("0:1:0.1"), 0.25)
    assert report.inner_runs == runs
    assert len(calls) == 1
    assert [rate for rate, _ in report.inner.values()] == [0.0] * len(net.demands)


def test_no_kept_inner_rate_exceeds_its_cut(monkeypatch):
    # `best_inner` caps each routed rate at its run's `demand_cut`, which
    # bounds every routing of that run, so no kept rate lies above it, by no
    # tolerance: not even the solver's slack above a cut of 0.0.
    search, kept = pipeline.best_inner, []

    def checked(node_ids, batch, demands, objective="maxmin"):
        best = search(node_ids, batch, demands, objective)
        for demand, (rate, run) in zip(demands, best):
            kept.append((rate, demand_cut(batch.slots, batch.rates, demand).tolist()[run]))
        return best

    monkeypatch.setattr(pipeline, "best_inner", checked)
    for name, net in swept_networks() + swept_networks(unicast=True):
        if name.startswith("lower_bounds_"):
            bound(net, parse_grid("0:1:0.1"), 0.25)
        elif name.startswith("100dB-"):
            bound(net, parse_grid("0:1:0.1"), 0.5)
    assert len(kept) > 50
    assert all(rate <= cut for rate, cut in kept), [pair for pair in kept if pair[0] > pair[1]]


def test_one_unicast_demand_on_a_wide_broadcast_certifies_one_flow(monkeypatch):
    # S is the only transmitter, so each run's `demand_cut` is its max flow,
    # and the best cut settles the demand: one certified max flow of 969 runs,
    # at the (rate, label) that a max flow on every run gives.
    links = [("S", "A", 1.0), ("S", "B", 2.0), ("S", "C", 4.0), ("S", "D", 8.0)]
    net = network(links, [("S", ["B"])])
    [demand] = net.demands
    node_ids, runs = sweep_runs(net, 1 / 16)
    want = None
    for label, arcs in runs:
        rate = unicast_inner(node_ids, arcs, demand).rate
        if want is None or rate > want[0]:
            want = (rate, label)
    flowed = counted(monkeypatch, flows, "unicast_inner")
    report = bound(net, (0.5,), 1 / 16)
    assert (report.inner_runs, len(flowed)) == (969, 1)
    assert report.inner[demand] == want == (flowed[0].rate, "lower S=0/1/0/0")


def test_bound_rates_and_validates_its_sweep_as_one_batch(monkeypatch):
    # Counts of calls, which do not depend on machine speed: each sweep is one
    # batch, the inner one validated once per decode-order group and the
    # outer one once, and no arc list is built: the routed runs are routed
    # by index, as the batch's slots, their rates and their presence masks.
    net = parse_network((DATA / "lower_bounds_3x2xmulticast-1.json").read_text(encoding="utf-8"))
    arcs = counted(monkeypatch, LowerStructure, "arcs")
    batches = counted(monkeypatch, LowerStructure, "rate_batch")
    upper_arcs = counted(monkeypatch, UpperStructure, "arcs")
    sweeps = counted(monkeypatch, UpperStructure, "rate_batch")
    validated = counted(monkeypatch, pipeline, "validate_bounding_network")
    arc_lists = counted(monkeypatch, LowerBatch, "arcs")
    solves = counted_solves(monkeypatch)
    alphas = parse_grid("0:1:0.1")
    bound(net, alphas, 0.25)
    assert (len(arcs), len(batches)) == (0, 1)
    assert (len(upper_arcs), len(sweeps)) == (0, 1)
    [batch] = batches
    assert len(batch.groups) > 1
    assert len(validated) == len(batch.groups) + 1
    assert (len(arc_lists), len(solves)) == (0, 9)
