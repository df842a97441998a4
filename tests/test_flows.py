"""Tests for flow computations, checked against brute-force cut enumeration."""

import itertools
import json
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from netbounds import cli, experiments, flows
from netbounds.assemble import LowerParams, LowerStructure, build_lower
from netbounds.bc import simplex_grid
from netbounds.decouple import decompose
from netbounds.flows import (
    FlowResult,
    blend_inner,
    hyper_inner,
    hyper_inner_batch,
    max_flow,
    multicast_outer,
    sum_rate_cut,
    unicast_inner,
    validate_hyper_result,
)
from netbounds.netmodel import (
    Demand,
    NoisyLink,
    NoisyNetwork,
    Node,
    parse_network,
)

INF = float("inf")


class Network(NamedTuple):
    """A noiseless network as the flow functions take it: its node ids and
    its ``(tail, heads, rate, label)`` arcs."""

    node_ids: tuple
    arcs: tuple


def pipes_network(edges, extra_nodes=()):
    """Build a noiseless network from (tail, head(s), rate) triples."""
    names = list(extra_nodes)
    arcs = []
    for tail, heads, rate in edges:
        if isinstance(heads, str):
            heads = (heads,)
        arcs.append((tail, tuple(heads), float(rate), ""))
        for name in (tail, *heads):
            if name not in names:
                names.append(name)
    return Network(tuple(names), tuple(arcs))


def unicast(source, sink):
    return Demand(kind="unicast", source=source, sinks=frozenset({sink}))


def multicast(source, sinks):
    return Demand(kind="multicast", source=source, sinks=frozenset(sinks))


def brute_force_min_cut(net, source, sink):
    """Min cut by enumerating all source/sink-separating node subsets."""
    others = [n for n in net.node_ids if n not in {source, sink}]
    best = float("inf")
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = {source, *chosen}
            cap = sum(
                rate for tail, heads, rate, _ in net.arcs if tail in side and heads[0] not in side
            )
            best = min(best, cap)
    return best


class TestMaxFlow:
    def test_single_pipe(self):
        net = pipes_network([("s", "t", 1.5)])
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 1.5) < 1e-12
        assert result.witness["cut"] == ("s",)

    def test_star_network_carries_two_units(self):
        net = pipes_network(
            [("s", "a", 1.0), ("s", "b", 1.0), ("a", "t", 1.0), ("b", "t", 1.0)]
        )
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 2.0) < 1e-12

    def test_bottleneck_in_middle(self):
        net = pipes_network([("s", "a", 5.0), ("a", "b", 0.75), ("b", "t", 5.0)])
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 0.75) < 1e-12
        assert result.witness["cut_capacity"] == pytest.approx(0.75)

    def test_parallel_pipes_add(self):
        net = pipes_network([("s", "t", 1.0), ("s", "t", 0.25)])
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 1.25) < 1e-12

    def test_infinite_pipe_is_uncapacitated(self):
        net = pipes_network([("s", "a", float("inf")), ("a", "t", 3.0)])
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 3.0) < 1e-12

    def test_all_infinite_path_gives_infinite_rate(self):
        net = pipes_network([("s", "a", float("inf")), ("a", "t", float("inf"))])
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert result.rate == float("inf")

    def test_disconnected_sink_gives_zero(self):
        net = pipes_network([("s", "a", 1.0), ("b", "t", 1.0)])
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        assert result.rate == 0.0
        assert result.witness["cut_capacity"] == 0.0

    def test_cut_witness_matches_rate(self):
        net = pipes_network(
            [
                ("s", "a", 3.0),
                ("s", "b", 2.0),
                ("a", "b", 1.0),
                ("a", "t", 1.0),
                ("b", "t", 4.0),
            ]
        )
        result = max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        side = set(result.witness["cut"])
        cap = sum(
            rate for tail, heads, rate, _ in net.arcs if tail in side and heads[0] not in side
        )
        assert abs(cap - result.rate) < 1e-12
        assert "s" in side and "t" not in side

    def test_nan_capacity_on_the_cut_fails_the_certificate(self):
        # The flow of 0.5 avoids the NaN arc, but the cut it would report
        # crosses it; NaN compares false both ways, so only a check written
        # to fail on NaN refuses it.
        net = pipes_network([("s", "a", float("nan")), ("a", "t", 1.0), ("s", "t", 0.5)])
        with pytest.raises(AssertionError, match="does not certify"):
            max_flow(net.node_ids, net.arcs, unicast("s", "t"))
        with pytest.raises(AssertionError, match="does not certify"):
            unicast_inner(net.node_ids, net.arcs, unicast("s", "t"))

    def test_rejects_hyper_arcs(self):
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 1.0)])
        with pytest.raises(ValueError):
            max_flow(net.node_ids, net.arcs, unicast("s", "t"))

    def test_rejects_multicast_demand(self):
        net = pipes_network([("s", "a", 1.0), ("s", "b", 1.0)])
        with pytest.raises(ValueError):
            max_flow(net.node_ids, net.arcs, multicast("s", {"a", "b"}))

    def test_rejects_unknown_endpoint(self):
        net = pipes_network([("s", "a", 1.0)])
        with pytest.raises(ValueError):
            max_flow(net.node_ids, net.arcs, unicast("s", "zz"))

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(3, 9))
            names = [f"n{i}" for i in range(n)]
            edges = []
            for u in names:
                for v in names:
                    if u != v and rng.random() < 0.45:
                        edges.append((u, v, float(rng.uniform(0.1, 4.0))))
            if not edges:
                continue
            net = pipes_network(edges, extra_nodes=names)
            source, sink = names[0], names[-1]
            result = max_flow(net.node_ids, net.arcs, unicast(source, sink))
            oracle = brute_force_min_cut(net, source, sink)
            assert abs(result.rate - oracle) < 1e-9, f"trial {trial}"

    def test_monotone_in_capacity(self):
        base = [("s", "a", 1.0), ("a", "t", 2.0), ("s", "t", 0.5)]
        net = pipes_network(base)
        bigger = pipes_network([(u, v, 1.5 * r) for u, v, r in base])
        low = max_flow(net.node_ids, net.arcs, unicast("s", "t")).rate
        high = max_flow(bigger.node_ids, bigger.arcs, unicast("s", "t")).rate
        assert high >= low - 1e-12


class TestMinCut:
    def test_matches_brute_force_and_flows_per_row(self):
        # Each random graph is one batch of 4 rows. Some pipes have rate 0 in
        # every row, some are infinite in every row and some in one row only.
        rng = np.random.default_rng(11)
        unbounded = 0
        for trial in range(80):
            n = int(rng.integers(3, 9))
            names = [f"n{i}" for i in range(n)]
            slots = [(u, (v,)) for u in names for v in names if u != v and rng.random() < 0.45]
            if not slots:
                continue
            rates = rng.uniform(0.1, 4.0, size=(4, len(slots)))
            for column in range(len(slots)):
                draw = rng.random()
                if draw < 0.15:
                    rates[:, column] = 0.0
                elif draw < 0.25:
                    rates[:, column] = INF
                elif draw < 0.35:
                    rates[int(rng.integers(4)), column] = INF
            source, sinks = names[0], names[1:]
            for demand in (unicast(source, names[-1]), multicast(source, sinks)):
                cuts = flows.min_cut(slots, rates, demand)
                for row, cut in enumerate(cuts.tolist()):
                    net = pipes_network(
                        [(tail, heads, rate) for (tail, heads), rate in zip(slots, rates[row])],
                        extra_nodes=names,
                    )
                    flow = (max_flow if demand.kind == "unicast" else multicast_outer)(
                        net.node_ids, net.arcs, demand
                    ).rate
                    oracle = min(brute_force_min_cut(net, source, sink) for sink in demand.sinks)
                    assert cut == oracle, f"trial {trial} row {row}"
                    assert cut == flow or abs(cut - flow) <= 1e-9, f"trial {trial} row {row}"
                    unbounded += cut == INF
        assert unbounded > 0

    def test_refuses_hyper_arcs_and_oversized_interiors(self):
        def chain(length):
            names = ["s", *(f"a{k}" for k in range(length)), "t"]
            return [(u, (v,)) for u, v in zip(names, names[1:])]

        rates = np.ones((1, 13))
        (cut,) = flows.min_cut(chain(12), rates, unicast("s", "t"))
        assert cut == 1.0
        with pytest.raises(ValueError, match="'t' has 13 interior nodes"):
            flows.min_cut(chain(13), np.ones((1, 14)), unicast("s", "t"))
        with pytest.raises(ValueError, match="hyper-arc"):
            flows.min_cut([("s", ("a", "t"))], np.ones((1, 1)), unicast("s", "t"))

    @staticmethod
    def assert_exact(edges, rates, source, sinks, expected=None):
        """min_cut of the multicast to ``sinks`` is, per row, the least
        brute-force min cut over the sinks, bit for bit."""
        slots = [(tail, (head,)) for tail, head in edges]
        cuts = flows.min_cut(slots, np.array(rates, dtype=float), multicast(source, sinks))
        oracle = [
            min(
                brute_force_min_cut(
                    pipes_network([(t, h, rate) for (t, h), rate in zip(edges, row)]),
                    source,
                    sink,
                )
                for sink in sinks
            )
            for row in rates
        ]
        assert cuts.tolist() == oracle
        if expected is not None:
            assert oracle == expected
        return cuts

    def test_sinks_with_different_interiors(self):
        # Interiors: t1 {a, b}, t2 {}, t3 {a}; a reaches t3 too, and t2 sits
        # on the source side of t1's and t3's sets.
        edges = [
            ("s", "a"), ("a", "b"), ("b", "t1"), ("s", "b"),
            ("s", "t2"), ("a", "t3"), ("t3", "t1"), ("s", "t1"),
        ]
        rates = [
            [2.0, 1.5, 3.0, 0.25, 4.0, 0.5, 0.125, 1.0],
            [2.0, 1.5, 3.0, 0.25, 0.75, 3.0, 0.125, 1.0],
            [0.5, 1.5, 3.0, 0.25, 4.0, 3.0, 0.125, 1.0],
        ]
        self.assert_exact(edges, rates, "s", ["t1", "t2", "t3"], [0.5, 0.75, 0.5])

    def test_unreachable_sink_cuts_nothing(self):
        # u only sends, v hears only u: neither is reached from s.
        edges = [("s", "a"), ("a", "t"), ("u", "a"), ("u", "v")]
        self.assert_exact(edges, [[1.0, 2.0, 3.0, 4.0]], "s", ["t", "u", "v"], [0.0])
        self.assert_exact(edges, [[1.0, 2.0, 3.0, 4.0]], "s", ["t"], [1.0])

    def test_infinite_pipe_leaves_one_sinks_sets(self):
        # a -> t1 is infinite in every row and leaves only t1's sets with a
        # inside; t1 cannot reach t2, so for t2 it stays on the source side.
        edges = [("s", "a"), ("a", "t1"), ("a", "t2"), ("s", "t1")]
        rates = [[1.0, INF, 2.0, 3.0], [5.0, INF, 2.0, 3.0], [5.0, INF, 9.0, 3.0]]
        self.assert_exact(edges, rates, "s", ["t1", "t2"], [1.0, 2.0, 5.0])

    def test_refusal_names_the_sink(self):
        # t1's interior {a0} is enumerated; t2's chain of 13 is refused.
        chain = ["s", *(f"a{k}" for k in range(13)), "t2"]
        slots = [(u, (v,)) for u, v in zip(chain, chain[1:])] + [("a0", ("t1",))]
        with pytest.raises(ValueError, match="sink 't2' has 13 interior nodes"):
            flows.min_cut(slots, np.ones((1, len(slots))), multicast("s", ["t1", "t2"]))

    def test_sinks_past_one_block_of_sets(self):
        # t0 and t1 have the 11 interior nodes a0..a10, t2 the 10 a0..a9:
        # 2048 + 2048 sets fill the first block of 4096, t2 takes a second.
        # Row 0's least cut is t2's, row 1's t0's.
        hubs = [f"a{k}" for k in range(11)]
        edges = [("s", hub) for hub in hubs]
        edges += [(u, v) for u, v in zip(hubs[:9], hubs[1:10])]
        edges += [(hub, sink) for sink in ("t0", "t1") for hub in hubs]
        edges += [(hub, "t2") for hub in hubs[:10]]
        rng = np.random.default_rng(3)
        rates = rng.uniform(1.0, 2.0, size=(2, len(edges)))
        for row, sink, rate in ((0, "t2", 0.01), (1, "t0", 0.02)):
            rates[row, [k for k, (_, head) in enumerate(edges) if head == sink]] = rate
        assert 2 * 2048 + 1024 > 1 << flows._MAX_INTERIOR
        cuts = self.assert_exact(edges, rates.tolist(), "s", ["t0", "t1", "t2"])
        assert cuts[0] < 0.11 and cuts[1] < 0.23


class TestMulticastOuter:
    def test_min_over_sinks(self):
        net = pipes_network([("s", "a", 2.0), ("s", "b", 0.5)])
        result = multicast_outer(net.node_ids, net.arcs, multicast("s", {"a", "b"}))
        assert abs(result.rate - 0.5) < 1e-12
        assert result.witness["per_sink"]["a"] == pytest.approx(2.0)
        assert result.witness["per_sink"]["b"] == pytest.approx(0.5)

    def test_single_sink_matches_max_flow(self):
        net = pipes_network([("s", "a", 1.0), ("a", "t", 0.8)])
        direct = max_flow(net.node_ids, net.arcs, unicast("s", "t")).rate
        result = multicast_outer(net.node_ids, net.arcs, multicast("s", {"t"}))
        assert abs(result.rate - direct) < 1e-12

    def test_ten_sinks_build_one_capacity_map(self, monkeypatch):
        sinks = [f"d{k}" for k in range(10)]
        net = pipes_network(
            [("s", "a", 3.0)] + [("a", sink, 0.5 + k) for k, sink in enumerate(sinks)]
        )
        builds = []
        capacities = flows._capacities

        def counting(*args, **kwargs):
            builds.append(args)
            return capacities(*args, **kwargs)

        monkeypatch.setattr(flows, "_capacities", counting)
        result = multicast_outer(net.node_ids, net.arcs, multicast("s", sinks))
        assert len(builds) == 1
        assert result.rate == 0.5
        assert list(result.witness["per_sink"]) == sorted(sinks)

    def test_matches_max_flow_per_sink(self):
        # Ties go to the first sink in sink_list order, whose witness is kept.
        net = pipes_network(
            [("s", "a", 1.0), ("s", "b", 1.0), ("a", "c", 0.7), ("b", "c", 0.4)]
        )
        result = multicast_outer(net.node_ids, net.arcs, multicast("s", {"c", "b", "a"}))
        per_sink = {
            sink: max_flow(net.node_ids, net.arcs, unicast("s", sink))
            for sink in ("a", "b", "c")
        }
        assert result.witness["per_sink"] == {
            sink: flow.rate for sink, flow in per_sink.items()
        }
        assert result.rate == 1.0
        assert result.witness["flows"] == per_sink["a"].witness["flows"]
        assert result.witness["cut"] == per_sink["a"].witness["cut"]

    def test_rejects_missing_endpoint_and_hyper_arcs(self):
        net = pipes_network([("s", "a", 1.0)])
        with pytest.raises(ValueError, match="'z' is not a network node"):
            multicast_outer(net.node_ids, net.arcs, multicast("s", {"a", "z"}))
        hyper = pipes_network([("s", ("a", "b"), 1.0)])
        with pytest.raises(ValueError, match="hyper-arc"):
            multicast_outer(hyper.node_ids, hyper.arcs, multicast("s", {"a", "b"}))


class TestHyperInner:
    def test_single_session_p2p_matches_max_flow(self):
        net = pipes_network(
            [("s", "a", 1.0), ("s", "b", 2.0), ("a", "t", 1.5), ("b", "t", 0.5)]
        )
        demand = unicast("s", "t")
        expected = max_flow(net.node_ids, net.arcs, demand).rate
        results = hyper_inner(net.node_ids, net.arcs, (demand,))
        assert abs(results[0].rate - expected) < 1e-8

    def test_hyper_arc_serves_both_multicast_sinks(self):
        net = pipes_network([("s", ("a", "b"), 1.0)])
        results = hyper_inner(net.node_ids, net.arcs, (multicast("s", {"a", "b"}),))
        assert abs(results[0].rate - 1.0) < 1e-8

    def test_hyper_arc_draw_is_single_counted_per_session(self):
        # The two heads may forward disjoint pieces, but the total drawn from
        # one hyper-arc per session cannot exceed one use of its rate.
        net = pipes_network(
            [("s", ("a", "b"), 1.0), ("a", "t", 0.6), ("b", "t", 0.6)]
        )
        results = hyper_inner(net.node_ids, net.arcs, (unicast("s", "t"),))
        assert abs(results[0].rate - 1.0) < 1e-8

    def test_shared_pipe_splits_between_sessions(self):
        net = pipes_network(
            [("s1", "m", 5.0), ("s2", "m", 5.0), ("m", "t1", 5.0), ("m", "t2", 5.0)]
        )
        shared = pipes_network(
            [("s1", "m", 1.0), ("s2", "m", 1.0), ("m", "r", 1.0), ("r", "t1", 1.0), ("r", "t2", 1.0)]
        )
        demands = (unicast("s1", "t1"), unicast("s2", "t2"))
        results = hyper_inner(shared.node_ids, shared.arcs, demands, objective="maxmin")
        for result in results:
            assert abs(result.rate - 0.5) < 1e-8
        results = hyper_inner(net.node_ids, net.arcs, demands, objective="maxmin")
        for result in results:
            assert abs(result.rate - 5.0) < 1e-8

    def test_sum_objective_totals_shared_capacity(self):
        net = pipes_network(
            [("s1", "m", 1.0), ("s2", "m", 1.0), ("m", "t", 1.0)]
        )
        demands = (unicast("s1", "t"), unicast("s2", "t"))
        results = hyper_inner(net.node_ids, net.arcs, demands, objective="sum")
        total = sum(result.rate for result in results)
        assert abs(total - 1.0) < 1e-8

    def test_witness_validates(self):
        net = pipes_network(
            [("s", ("a", "b"), 2.0), ("a", "t", 1.0), ("b", "t", 1.0), ("s", "t", 0.3)]
        )
        demands = (unicast("s", "t"),)
        results = hyper_inner(net.node_ids, net.arcs, demands)
        validate_hyper_result(net.node_ids, net.arcs, demands, results)
        assert abs(results[0].rate - 2.3) < 1e-8

    def test_tampered_witness_fails_validation(self):
        net = pipes_network([("s", "t", 1.0)])
        demands = (unicast("s", "t"),)
        results = hyper_inner(net.node_ids, net.arcs, demands)
        bad = FlowResult(
            demand=results[0].demand,
            rate=results[0].rate + 0.5,
            witness=results[0].witness,
        )
        with pytest.raises(AssertionError):
            validate_hyper_result(net.node_ids, net.arcs, demands, [bad])

    def test_flow_must_enter_a_head_of_its_pipe(self):
        # The only pipe is s->a, yet the witness delivers its flow straight to t.
        net = pipes_network([("s", "a", 1.0)], extra_nodes=("t",))
        demand = unicast("s", "t")
        witness = {"usage": {0: 1.0}, "flows": {("t", 0, "t"): 1.0}}
        result = FlowResult(demand=demand, rate=1.0, witness=witness)
        with pytest.raises(AssertionError, match="not one of its heads"):
            validate_hyper_result(net.node_ids, net.arcs, (demand,), [result])

    def test_flow_must_head_for_a_sink_of_its_session(self):
        # A valid routing to t, plus a flow entry toward a, which is no sink.
        net = pipes_network([("s", "a", 1.0), ("a", "t", 1.0)])
        demand = unicast("s", "t")
        flows = {("t", 0, "a"): 1.0, ("t", 1, "t"): 1.0, ("a", 0, "a"): 1.0}
        witness = {"usage": {0: 1.0, 1: 1.0}, "flows": flows}
        result = FlowResult(demand=demand, rate=1.0, witness=witness)
        with pytest.raises(AssertionError, match="not one of its sinks"):
            validate_hyper_result(net.node_ids, net.arcs, (demand,), [result])

    @pytest.mark.parametrize(
        "usage, extra_flows",
        [
            ({5: 0.5}, {}),
            ({-1: 0.0}, {}),
            ({}, {("t", 7, "t"): 0.5}),
            # arcs[-1] is a pipe into t, so only the index check catches it.
            ({}, {("t", -1, "t"): 0.0}),
        ],
        ids=["usage-past-end", "usage-negative", "flow-past-end", "flow-negative"],
    )
    def test_entry_on_an_absent_pipe_is_rejected(self, usage, extra_flows):
        # A valid routing on s->a->t plus one entry keyed by a pipe index that
        # names no pipe: a witness fault, so an AssertionError like any other.
        net = pipes_network([("s", "a", 1.0), ("a", "t", 1.0)])
        demand = unicast("s", "t")
        flows = {("t", 0, "a"): 1.0, ("t", 1, "t"): 1.0, **extra_flows}
        witness = {"usage": {0: 1.0, 1: 1.0, **usage}, "flows": flows}
        result = FlowResult(demand=demand, rate=1.0, witness=witness)
        with pytest.raises(AssertionError, match="which is absent"):
            validate_hyper_result(net.node_ids, net.arcs, (demand,), [result])

    @pytest.mark.parametrize("negative_usage", [False, True])
    def test_negative_flow_is_rejected(self, negative_usage):
        # A flow of -1 on t->s lifts the balance to rate 2 on s->a->t (max flow 1).
        net = pipes_network([("s", "a", 1.0), ("a", "t", 1.0), ("t", "s", 1.0)])
        demand = unicast("s", "t")
        usage = {0: 1.0, 1: 1.0}
        if negative_usage:
            usage[2] = -1.0
        flows = {("t", 0, "a"): 1.0, ("t", 1, "t"): 1.0, ("t", 2, "s"): -1.0}
        witness = {"usage": usage, "flows": flows}
        result = FlowResult(demand=demand, rate=2.0, witness=witness)
        with pytest.raises(AssertionError, match="is negative"):
            validate_hyper_result(net.node_ids, net.arcs, (demand,), [result])

    def test_multicast_session_needs_rate_at_every_sink(self):
        net = pipes_network([("s", "a", 2.0), ("s", "b", 0.5)])
        results = hyper_inner(net.node_ids, net.arcs, (multicast("s", {"a", "b"}),))
        assert abs(results[0].rate - 0.5) < 1e-8

    def test_rejects_empty_demands(self):
        net = pipes_network([("s", "t", 1.0)])
        with pytest.raises(ValueError):
            hyper_inner(net.node_ids, net.arcs, ())

    def test_rejects_unknown_objective(self):
        net = pipes_network([("s", "t", 1.0)])
        with pytest.raises(ValueError):
            hyper_inner(net.node_ids, net.arcs, (unicast("s", "t"),), objective="median")


class TestSumRateCut:
    def test_least_inflow_over_the_shared_sinks(self):
        net = pipes_network(
            [("s", "a", 1.0), ("s", ("a", "b"), 2.0), ("s", "b", 0.5), ("a", "b", 4.0)]
        )
        demands = (multicast("s", {"a", "b"}),)
        # The hyper-arc counts once at each head: a gets 1 + 2, b gets 2 + 0.5 + 4.
        assert sum_rate_cut(net.arcs, demands) == 3.0
        assert sum_rate_cut(net.arcs, (*demands, unicast("s", "b"))) == 6.5

    def test_infinite_without_a_shared_sink(self):
        net = pipes_network([("s", "a", 1.0), ("s", "b", 1.0)])
        demands = (unicast("s", "a"), unicast("s", "b"))
        assert sum_rate_cut(net.arcs, demands) == INF

    def test_rejects_empty_demands(self):
        with pytest.raises(ValueError):
            sum_rate_cut([("s", ("t",), 1.0, "")], ())


@st.composite
def routing_instances(draw):
    """A small network of pipes and hyper-arcs with 1-3 demands on it."""
    names = [f"v{k}" for k in range(draw(st.integers(2, 6)))]
    node = st.sampled_from(names)
    arcs = draw(
        st.lists(
            st.tuples(
                node,
                st.lists(node, min_size=1, max_size=3, unique=True).map(tuple),
                st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5, 3.0)),
                st.just(""),
            ),
            max_size=12,
        )
    )
    demands = []
    for _ in range(draw(st.integers(1, 3))):
        source = draw(node)
        others = [name for name in names if name != source]
        sinks = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        kind = "multicast"
        if len(sinks) == 1:
            kind = draw(st.sampled_from(("unicast", "multicast")))
        demands.append(Demand(kind=kind, source=source, sinks=frozenset(sinks)))
    return Network(tuple(names), tuple(arcs)), tuple(demands)


@given(routing_instances())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sum_rate_cut_bounds_every_routing(instance):
    net, demands = instance
    bound = sum_rate_cut(net.arcs, demands)
    assert (bound == INF) == (not frozenset.intersection(*(d.sinks for d in demands)))
    results = hyper_inner(net.node_ids, net.arcs, demands, "sum")
    total = sum(result.rate for result in results)
    assert total <= bound + 1e-8


class TestUnicastInner:
    def test_plain_network_matches_max_flow(self):
        net = pipes_network([("s", "a", 1.0), ("a", "t", 0.7), ("s", "t", 0.2)])
        demand = unicast("s", "t")
        result = unicast_inner(net.node_ids, net.arcs, demand)
        assert abs(result.rate - max_flow(net.node_ids, net.arcs, demand).rate) < 1e-12
        assert "split_nodes" not in result.witness

    def test_hyper_draw_is_shared_not_duplicated(self):
        # One draw of 1.0 reaches both heads; forwarding the copy from each
        # head in full would claim 2.0, the shared-draw semantics allow 1.0.
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 5.0), ("b", "t", 5.0)])
        result = unicast_inner(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 1.0) < 1e-12
        assert len(result.witness["split_nodes"]) == 1

    def test_heads_forward_disjoint_shares(self):
        # Narrow per-head exits force the session to split the drawn bits.
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 0.4), ("b", "t", 0.4)])
        result = unicast_inner(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 0.8) < 1e-12

    def test_matches_hyper_inner_on_random_networks(self):
        rng = np.random.default_rng(20240817)
        order = ["s", "a", "b", "c", "d", "t"]
        demand = unicast("s", "t")
        for _ in range(30):
            edges = []
            for i, tail in enumerate(order[:-1]):
                for head in order[i + 1 :]:
                    if rng.random() < 0.55:
                        edges.append((tail, head, float(rng.uniform(0.1, 2.0))))
            edges.append(("s", ("a", "b"), float(rng.uniform(0.2, 1.5))))
            edges.append(("a", ("c", "d"), float(rng.uniform(0.2, 1.5))))
            net = pipes_network(edges, extra_nodes=order)
            exact = unicast_inner(net.node_ids, net.arcs, demand).rate
            via_lp = hyper_inner(net.node_ids, net.arcs, (demand,))[0].rate
            assert abs(exact - via_lp) < 1e-7

    def test_split_node_names_avoid_collisions(self):
        net = pipes_network(
            [("s", ("hyperarc_0", "b"), 1.0), ("hyperarc_0", "t", 0.4), ("b", "t", 0.4)]
        )
        result = unicast_inner(net.node_ids, net.arcs, unicast("s", "t"))
        assert abs(result.rate - 0.8) < 1e-12

    def test_rejects_multicast_demand(self):
        net = pipes_network([("s", ("a", "b"), 1.0)])
        with pytest.raises(ValueError):
            unicast_inner(net.node_ids, net.arcs, multicast("s", ("a", "b")))

    def test_rejects_a_pipe_without_heads(self):
        net = pipes_network([("s", ("a", "t"), 1.0), ("s", "t", 1.0)])
        net = Network(net.node_ids, (*net.arcs, ("s", (), 1.0, "")))
        with pytest.raises(ValueError, match="no head"):
            unicast_inner(net.node_ids, net.arcs, unicast("s", "t"))

    def test_rejects_endpoint_outside_the_network(self):
        # The split node's name is free in the network, so it is no endpoint.
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 1.0)])
        with pytest.raises(ValueError, match="not a network node"):
            unicast_inner(net.node_ids, net.arcs, unicast("s", "hyperarc_0"))


def _split_node_reference(net, demand):
    """unicast_inner written as a rewrite of the network's arcs followed by
    max_flow."""
    if not any(len(heads) > 1 for _, heads, _, _ in net.arcs):
        result = max_flow(net.node_ids, net.arcs, demand)
        return result.rate, result.witness
    nodes = list(net.node_ids)
    arcs = []
    split_nodes = {}
    for index, arc in enumerate(net.arcs):
        tail, heads, rate, _ = arc
        if len(heads) <= 1:
            arcs.append(arc)
            continue
        split = f"hyperarc_{index}"
        while split in nodes:
            split = split + "_"
        nodes.append(split)
        split_nodes[split] = index
        arcs.append((tail, (split,), rate, ""))
        for head in heads:
            arcs.append((split, (head,), INF, ""))
    result = max_flow(nodes, arcs, demand)
    return result.rate, {**result.witness, "split_nodes": split_nodes}


class TestUnicastInnerMatchesSplitNodeRewrite:
    def assert_same(self, net, demand):
        rate, witness = _split_node_reference(net, demand)
        self.assert_result(unicast_inner(net.node_ids, net.arcs, demand), rate, witness)

    @staticmethod
    def assert_result(result, rate, witness):
        assert result.rate == rate
        assert list(result.witness) == list(witness)
        for key, value in witness.items():
            got = result.witness[key]
            assert got == value
            if isinstance(value, dict):
                assert list(got.items()) == list(value.items())

    def test_every_relay_candidate_of_one_point(self, monkeypatch):
        # The search rates arcs without building a network and routes only
        # its winner; on every candidate it rates, unicast_inner must be
        # the reference's on the candidate's network, and the one flow the
        # search runs must be the reference's on one of them.
        rated, flowed = [], []
        arcs, rate_batch = LowerStructure.arcs, LowerStructure.rate_batch

        def recording_arcs(self, bc_betas):
            rated.append((self, bc_betas))
            return arcs(self, bc_betas)

        def recording_batch(self, bc_betas):
            batch = rate_batch(self, bc_betas)
            for row in range(len(batch.rates)):
                rated.append((self, {key: rows[row] for key, rows in bc_betas.items()}))
            return batch

        def recording_flow(node_ids, arcs, demand):
            result = unicast_inner(node_ids, arcs, demand)
            flowed.append(result)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(LowerStructure, "arcs", recording_arcs)
            patch.setattr(LowerStructure, "rate_batch", recording_batch)
            patch.setattr(experiments, "unicast_inner", recording_flow)
            components = decompose(experiments.relay_network(1.0, 10.0 ** 0.5, 10.0))
            best = experiments.relay_eq_lower(components)
        assert len(rated) > 100 and len(flowed) == 1
        assert flowed[0].rate == best
        nets = [Network(structure.node_ids, structure.arcs(betas)) for structure, betas in rated]
        assert any(len(net.arcs) > 2 for net in nets)
        references = []
        for net in nets:
            result = unicast_inner(net.node_ids, net.arcs, flowed[0].demand)
            references.append(_split_node_reference(net, flowed[0].demand))
            self.assert_result(result, *references[-1])
        assert any(rate == best for rate, _ in references)

    def test_hyper_arcs_sharing_a_head(self):
        net = pipes_network(
            [
                ("s", ("a", "b"), 0.7),
                ("s", "a", 0.2),
                ("a", ("b", "t"), 0.5),
                ("s", "a", 0.1),
                ("b", "t", 0.6),
            ]
        )
        self.assert_same(net, unicast("s", "t"))

    def test_names_already_taken(self):
        net = pipes_network(
            [
                ("s", ("hyperarc_0", "hyperarc_0_"), 1.0),
                ("hyperarc_0", "t", 0.4),
                ("hyperarc_0_", ("t", "hyperarc_0"), 0.3),
            ]
        )
        self.assert_same(net, unicast("s", "t"))
        result = unicast_inner(net.node_ids, net.arcs, unicast("s", "t"))
        assert result.witness["split_nodes"] == {"hyperarc_0__": 0, "hyperarc_2": 2}


class TestBlendInner:
    def test_averaged_rates_beat_flow_level_mixing(self):
        # The two runs never have both arcs fast at once, so routing in either
        # run, or time-sharing the two routings, caps the session at 1.0;
        # averaging the arc rates reaches 1.5.
        run_a = pipes_network([("s", "m", 2.0), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", 1.0), ("m", "t", 2.0)])
        demands = (unicast("s", "t"),)
        per_run = max(
            hyper_inner(run.node_ids, run.arcs, demands)[0].rate for run in (run_a, run_b)
        )
        assert abs(per_run - 1.0) < 1e-8
        blended, weights = blend_inner(run_a.node_ids, [run_a.arcs, run_b.arcs], demands)
        assert abs(blended[0].rate - 1.5) < 1e-8
        assert abs(weights[0] - 0.5) < 1e-6
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_single_run_reduces_to_hyper_inner(self):
        net = pipes_network([("s", ("a", "b"), 1.2), ("a", "t", 0.5), ("b", "t", 0.4)])
        demands = (unicast("s", "t"),)
        direct = hyper_inner(net.node_ids, net.arcs, demands)[0].rate
        blended, weights = blend_inner(net.node_ids, [net.arcs], demands)
        assert abs(blended[0].rate - direct) < 1e-8
        assert abs(weights[0] - 1.0) < 1e-9

    def test_never_worse_than_any_single_run(self):
        rng = np.random.default_rng(20240819)
        for _ in range(10):
            rates_a = rng.uniform(0.1, 2.0, size=4)
            rates_b = rng.uniform(0.1, 2.0, size=4)
            edges = [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]
            run_a = pipes_network(
                [(u, v, r) for (u, v), r in zip(edges, rates_a)]
            )
            run_b = pipes_network(
                [(u, v, r) for (u, v), r in zip(edges, rates_b)]
            )
            demands = (unicast("s", "t"),)
            blended, _ = blend_inner(run_a.node_ids, [run_a.arcs, run_b.arcs], demands)
            best_single = max(
                hyper_inner(run_a.node_ids, run_a.arcs, demands)[0].rate,
                hyper_inner(run_b.node_ids, run_b.arcs, demands)[0].rate,
            )
            assert blended[0].rate >= best_single - 1e-8

    def test_keeps_infinite_arcs_infinite(self):
        run_a = pipes_network([("s", "m", float("inf")), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", float("inf")), ("m", "t", 3.0)])
        blended, _ = blend_inner(run_a.node_ids, [run_a.arcs, run_b.arcs], (unicast("s", "t"),))
        assert abs(blended[0].rate - 3.0) < 1e-8

    def test_rejects_mismatched_arc_structure(self):
        run_a = pipes_network([("s", "m", 1.0), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", 1.0), ("s", "t", 1.0)])
        with pytest.raises(ValueError, match="arc mismatch"):
            blend_inner(run_a.node_ids, [run_a.arcs, run_b.arcs], (unicast("s", "t"),))

    def test_rejects_mixed_finite_and_infinite_arc(self):
        run_a = pipes_network([("s", "t", 1.0)])
        run_b = pipes_network([("s", "t", float("inf"))])
        with pytest.raises(ValueError, match="finite"):
            blend_inner(run_a.node_ids, [run_a.arcs, run_b.arcs], (unicast("s", "t"),))

    def test_refusal_names_the_run_and_arc_that_differ_in_finiteness(self):
        run_a = pipes_network([("s", "m", 1.0), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", 1.0), ("m", "t", float("inf"))])
        runs = [run_a.arcs, run_a.arcs, run_b.arcs]
        message = (
            r"arc mismatch: run 2 has arc 1 as \('m', \('t',\), False\) and run 0 as "
            r"\('m', \('t',\), True\), each \(tail, heads, finite\); .* finite in every run"
        )
        with pytest.raises(ValueError, match=message):
            blend_inner(run_a.node_ids, runs, (unicast("s", "t"),))

    def test_rejects_empty_inputs(self):
        net = pipes_network([("s", "t", 1.0)])
        with pytest.raises(ValueError, match="arc_lists"):
            blend_inner(net.node_ids, [], (unicast("s", "t"),))
        with pytest.raises(ValueError, match="demands"):
            blend_inner(net.node_ids, [net.arcs], ())

    def test_witness_reports_weights(self):
        net = pipes_network([("s", "t", 0.8)])
        blended, weights = blend_inner(net.node_ids, [net.arcs], (unicast("s", "t"),))
        assert blended[0].witness["weights"] == weights


def relay_lower(beta2):
    """Lower network of the S-R-D relay with power share beta2 on the relay layer."""
    noisy = NoisyNetwork(
        nodes=(Node("S"), Node("R"), Node("D")),
        links=(
            NoisyLink("S", "D", "awgn", snr=1.0),
            NoisyLink("S", "R", "awgn", snr=10.0),
            NoisyLink("R", "D", "awgn", snr=10.0),
        ),
    )
    params = LowerParams(bc_betas={("bc", "S"): (1.0 - beta2, beta2)})
    return Network(*build_lower(decompose(noisy), params))


def fresh_solve(net, demands, objective="maxmin"):
    """hyper_inner on a routing LP compiled from scratch."""
    flows._compiled_routing_lp.cache_clear()
    return hyper_inner(net.node_ids, net.arcs, demands, objective)


def assert_same_results(got, want):
    assert [r.demand for r in got] == [r.demand for r in want]
    assert [r.rate for r in got] == [r.rate for r in want]
    assert [r.witness for r in got] == [r.witness for r in want]


# Two transmitters, each a three-receiver broadcast side, as in `bounds` files.
TWO_BY_THREE_DOC = {
    "nodes": ["S1", "S2", "D1", "D2", "D3"],
    "links": [
        {"from": src, "to": dst, "kind": "awgn", "snr_db": snr_db}
        for (src, dst), snr_db in zip(
            [(s, d) for s in ("S1", "S2") for d in ("D1", "D2", "D3")],
            [3.0, 11.0, 17.0, 14.0, 6.0, 0.5],
        )
    ],
    "demands": [
        {"kind": "unicast", "source": "S1", "sinks": ["D1"]},
        {"kind": "unicast", "source": "S2", "sinks": ["D3"]},
    ],
}


def solved_lps(monkeypatch, run):
    """(compiled LP, row uppers) of every routing LP that ``run()`` solves."""
    solves = []
    solve = flows._solve_lp

    def capture(lp, upper):
        solves.append((lp, upper.copy()))
        return solve(lp, upper)

    with monkeypatch.context() as patch:
        patch.setattr(flows, "_solve_lp", capture)
        run()
    return solves


def lp_matrix(lp):
    """The compiled LP's constraint matrix, read from its HiGHS model's CSC."""
    a = lp.model.a_matrix_
    return csc_array((a.value_, a.index_, a.start_), shape=(a.num_row_, a.num_col_))


def run_multicast_lower():
    net = experiments.multicast_network(4, power=10.0, delta_power=5.0, q=8, xi=0.1)
    hyper_inner(*build_lower(decompose(net), LowerParams()), net.demands, "sum")


def run_bounds_lower():
    net = parse_network(json.dumps(TWO_BY_THREE_DOC))
    betas = {("bc", "S1"): (0.5, 0.25, 0.25), ("bc", "S2"): (0.25, 0.0, 0.75)}
    hyper_inner(*build_lower(decompose(net), LowerParams(bc_betas=betas)), net.demands, "maxmin")


def run_layered_blend():
    experiments.layered_experiment(4, 1.0)


class TestDirectSolveMatchesMilp:
    """The direct HiGHS solve returns milp's solution bit for bit."""

    @pytest.mark.parametrize(
        "run", [run_multicast_lower, run_bounds_lower, run_layered_blend]
    )
    def test_same_solution_as_milp(self, monkeypatch, run):
        solves = solved_lps(monkeypatch, run)
        assert solves
        if run is run_layered_blend:
            assert any(lp.lam_col < lp.cost.size for lp, _ in solves)
        for lp, upper in solves:
            reference = milp(
                lp.cost,
                constraints=LinearConstraint(lp_matrix(lp), lp.lower, upper),
                bounds=Bounds(0, np.inf),
            )
            assert reference.success, reference.message
            assert np.array_equal(flows._solve_lp(lp, upper), reference.x)


class TestRoutingLpCache:
    def test_candidates_with_one_arc_structure_share_a_compiled_lp(self):
        first, second = relay_lower(0.5), relay_lower(0.3)
        assert [arc[:2] for arc in first.arcs] == [arc[:2] for arc in second.arcs]
        assert [arc[2] for arc in first.arcs] != [arc[2] for arc in second.arcs]
        demands = (unicast("S", "D"),)
        flows._compiled_routing_lp.cache_clear()
        got_first = hyper_inner(first.node_ids, first.arcs, demands)
        got_second = hyper_inner(second.node_ids, second.arcs, demands)
        info = flows._compiled_routing_lp.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert got_first[0].rate != got_second[0].rate
        assert_same_results(got_first, fresh_solve(first, demands))
        assert_same_results(got_second, fresh_solve(second, demands))

    @pytest.mark.parametrize("change", ["finiteness", "demand order", "objective"])
    def test_structure_change_misses_the_cache(self, change):
        edges = [
            ("s1", "m", 1.0),
            ("s2", "m", 2.0),
            ("m", ("t1", "t2"), 1.5),
            ("s1", "t1", 0.25),
        ]
        net = pipes_network(edges)
        demands = (unicast("s1", "t1"), unicast("s2", "t2"))
        objective = "maxmin"
        flows._compiled_routing_lp.cache_clear()
        hyper_inner(net.node_ids, net.arcs, demands, objective)
        if change == "finiteness":
            net = pipes_network([("s1", "m", INF), *edges[1:]])
        elif change == "demand order":
            demands = demands[::-1]
        else:
            objective = "sum"
        got = hyper_inner(net.node_ids, net.arcs, demands, objective)
        info = flows._compiled_routing_lp.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        assert_same_results(got, fresh_solve(net, demands, objective))

    def test_cache_holds_at_most_its_fixed_size(self):
        flows._compiled_routing_lp.cache_clear()
        maxsize = flows._compiled_routing_lp.cache_info().maxsize
        assert maxsize is not None
        for k in range(maxsize + 4):
            chain = pipes_network([(f"n{i}", f"n{i + 1}", 1.0) for i in range(k + 1)])
            hyper_inner(chain.node_ids, chain.arcs, (unicast("n0", f"n{k + 1}"),))
            assert flows._compiled_routing_lp.cache_info().currsize <= maxsize
        info = flows._compiled_routing_lp.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 4, maxsize)

    def test_one_bounds_run_compiles_each_arc_structure_once(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(TWO_BY_THREE_DOC), encoding="utf-8")
        compiled = flows._compiled_routing_lp
        keys = []

        def record(*key):
            keys.append(key)
            return compiled(*key)

        monkeypatch.setattr(flows, "_compiled_routing_lp", record)
        compiled.cache_clear()
        assert cli.main(["bounds", str(path), "--beta-step", "0.25"]) == 0
        # Each side's three shares have 7 support patterns, so the sweep has
        # 7 * 7 structures; the 19 runs that `bound` routes have 9 of them.
        assert (len(keys), len(set(keys))) == (19, 9)
        assert compiled.cache_info().misses == len(set(keys))

    @pytest.mark.parametrize("objective", ["sum", "maxmin"])
    def test_unbounded_lp_raises(self, objective):
        net = pipes_network([("s", "m", INF), ("m", "t", INF)])
        with pytest.raises(RuntimeError, match="routing LP failed: .*Unbounded"):
            hyper_inner(net.node_ids, net.arcs, (unicast("s", "t"),), objective)


def two_by_three_sweep():
    """(node ids, arcs per beta combination, demands) of `bounds`' lower sweep
    of TWO_BY_THREE_DOC at beta step 0.25, in the sweep's order."""
    net = parse_network(json.dumps(TWO_BY_THREE_DOC))
    components = decompose(net)
    sides = [comp for comp in components if comp.kind == "bc"]
    lower = LowerStructure(components)
    grids = [simplex_grid(len(comp.links), 4) for comp in sides]
    arc_lists = [
        lower.arcs({comp.key: betas for comp, betas in zip(sides, combo)})
        for combo in itertools.product(*grids)
    ]
    return lower.node_ids, arc_lists, net.demands


class TestHyperInnerBatch:
    def test_matches_per_run_hyper_inner_in_any_order(self):
        node_ids, arc_lists, demands = two_by_three_sweep()
        assert len(arc_lists) == 225
        want = [hyper_inner(node_ids, arcs, demands) for arcs in arc_lists]
        got = list(hyper_inner_batch(node_ids, arc_lists, demands))
        assert len(got) == len(want)
        for got_run, want_run in zip(got, want):
            assert_same_results(got_run, want_run)
        # Every solve is a cold start: a shuffled batch gives each run the
        # same rates and witnesses, bit for bit.
        order = list(range(len(arc_lists)))
        random.Random(14).shuffle(order)
        shuffled = hyper_inner_batch(node_ids, [arc_lists[i] for i in order], demands)
        for i, got_run in zip(order, shuffled, strict=True):
            assert_same_results(got_run, want[i])

    def test_solves_every_run_before_checking_any_witness(self, monkeypatch):
        node_ids, arc_lists, demands = two_by_three_sweep()
        events = []
        solve, validate = flows._solve_lp, flows.validate_hyper_result

        def logged_solve(lp, upper):
            events.append("solve")
            return solve(lp, upper)

        def logged_validate(*args):
            events.append("validate")
            return validate(*args)

        monkeypatch.setattr(flows, "_solve_lp", logged_solve)
        monkeypatch.setattr(flows, "validate_hyper_result", logged_validate)
        runs = list(hyper_inner_batch(node_ids, arc_lists[:5], demands))
        assert len(runs) == 5
        assert events == ["solve"] * 5 + ["validate"] * 5

    def test_compiles_each_structure_once_beyond_the_cache_size(self, monkeypatch):
        # More distinct structures than the LRU holds, each routed twice with
        # the whole first round between: per-run calls would compile each
        # structure twice, the batch holds every one for the call.
        count = flows._LP_CACHE_SIZE + 4
        chains = [[(f"n{i}", f"n{i + 1}") for i in range(k + 1)] for k in range(count)]
        arc_lists = [
            [(tail, (head,), rate, None) for tail, head in chain]
            for rate in (1.0, 2.5)
            for chain in chains
        ]
        node_ids = tuple(f"n{i}" for i in range(count + 1))
        demands = (unicast("n0", "n1"),)
        built = []
        build = flows._build_routing_lp

        def counting(*args):
            built.append(args[1])
            return build(*args)

        monkeypatch.setattr(flows, "_build_routing_lp", counting)
        flows._compiled_routing_lp.cache_clear()
        runs = list(hyper_inner_batch(node_ids, arc_lists, demands))
        flows._compiled_routing_lp.cache_clear()
        assert len(built) == len(set(built)) == count
        assert [results[0].rate for results in runs] == [1.0] * count + [2.5] * count


def dense_routing_lp(node_ids, arcs, demands, objective, blend_rates=None):
    """(matrix, cost, lower, upper, capacity rows) written from the LP's definition."""
    pairs = [(a, head) for a, (_, heads, _) in enumerate(arcs) for head in heads]
    commodities = [(s, sink) for s, d in enumerate(demands) for sink in d.sink_list]
    runs = blend_rates or []
    n_s, n_a, n_p = len(demands), len(arcs), len(pairs)

    def x(s, a):
        return 1 + n_s + s * n_a + a

    def f(c, p):
        return x(n_s, 0) + c * n_p + p

    def lam(r):
        return f(len(commodities), 0) + r

    rows = []  # (coefficients, lower, upper)
    for c, (s, _) in enumerate(commodities):
        for a in range(n_a):
            coeffs = {f(c, p): 1.0 for p, (b, _) in enumerate(pairs) if b == a}
            rows.append(({**coeffs, x(s, a): -1.0}, -INF, 0.0))
    capacity_rows = []
    for a, (_, _, finite) in enumerate(arcs):
        if finite:
            capacity_rows.append(len(rows))
            coeffs = {x(s, a): 1.0 for s in range(n_s)}
            coeffs.update({lam(r): -rates[a] for r, rates in enumerate(runs)})
            rows.append((coeffs, -INF, 0.0))
    for s in range(n_s):
        rows.append(({0: 1.0, 1 + s: -1.0}, -INF, 0.0))
    for c, (s, sink) in enumerate(commodities):
        source = demands[s].source
        for node in node_ids:
            outs = [p for p, (a, _) in enumerate(pairs) if arcs[a][0] == node]
            ins = [p for p, (_, head) in enumerate(pairs) if head == node]
            if node == sink or not (outs or ins or node == source):
                continue
            coeffs = {}
            for p in outs:
                coeffs[f(c, p)] = coeffs.get(f(c, p), 0.0) + 1.0
            for p in ins:
                coeffs[f(c, p)] = coeffs.get(f(c, p), 0.0) - 1.0
            if node == source:
                coeffs[1 + s] = -1.0
            rows.append((coeffs, 0.0, 0.0))
    if runs:
        rows.append(({lam(r): 1.0 for r in range(len(runs))}, 1.0, 1.0))

    matrix = np.zeros((len(rows), lam(len(runs))))
    for i, (coeffs, _, _) in enumerate(rows):
        for col, value in coeffs.items():
            matrix[i, col] = value
    cost = np.zeros(matrix.shape[1])
    if objective == "maxmin":
        cost[0] = -1.0
    else:
        cost[1 : 1 + n_s] = -1.0
    lower = np.array([low for _, low, _ in rows])
    upper = np.array([high for _, _, high in rows])
    return matrix, cost, lower, upper, capacity_rows


def run_two_session_multisink():
    net = pipes_network(
        [
            ("s1", "m", 2.0),
            ("s2", "m", INF),
            ("m", ("t1", "t2", "m"), 1.5),
            ("m", "t3", 1.0),
            ("s2", "t3", 0.5),
            ("t1", "t2", 0.25),
        ],
        extra_nodes=("idle",),
    )
    demands = (multicast("s1", {"t1", "t2"}), unicast("s2", "t3"))
    for objective in ("maxmin", "sum"):
        hyper_inner(net.node_ids, net.arcs, demands, objective)
    blend_inner(net.node_ids, [net.arcs, net.arcs], demands)


class TestCompiledLpMatchesDefinition:
    """The compiled LP equals a dense matrix written from its definition."""

    @pytest.mark.parametrize(
        "run",
        [
            run_multicast_lower,
            run_bounds_lower,
            run_layered_blend,
            run_two_session_multisink,
        ],
    )
    def test_matrix_cost_and_bounds(self, monkeypatch, run):
        built = []
        build = flows._build_routing_lp

        def capture(*args):
            lp = build(*args)
            built.append((args, lp))
            return lp

        flows._compiled_routing_lp.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(flows, "_build_routing_lp", capture)
            run()
        flows._compiled_routing_lp.cache_clear()
        assert built
        if run in (run_layered_blend, run_two_session_multisink):
            assert any(len(args) == 5 for args, _ in built)
        for args, lp in built:
            matrix, cost, lower, upper, capacity_rows = dense_routing_lp(*args)
            assert np.array_equal(lp_matrix(lp).toarray(), matrix)
            assert np.array_equal(lp.cost, cost)
            assert np.array_equal(lp.lower, lower)
            assert np.array_equal(lp.upper, upper)
            assert lp.capacity_rows.tolist() == capacity_rows


class TestSharedSolver:
    def test_solves_do_not_depend_on_earlier_solves(self, monkeypatch):
        [(lp_a, upper_a)] = solved_lps(monkeypatch, run_bounds_lower)
        [(lp_b, upper_b)] = solved_lps(monkeypatch, run_multicast_lower)
        net = pipes_network([("s", "m", INF), ("m", "t", INF)])
        structure = tuple((tail, heads, rate != INF) for tail, heads, rate, _ in net.arcs)
        unbounded = flows._compiled_routing_lp(
            net.node_ids, structure, (unicast("s", "t"),), "sum"
        )

        def on_fresh_solver(lp, upper):
            flows._solver.cache_clear()
            return flows._solve_lp(lp, upper)

        want_a = on_fresh_solver(lp_a, upper_a)
        want_b = on_fresh_solver(lp_b, upper_b)
        shared = flows._solver()
        got_a = flows._solve_lp(lp_a, upper_a)
        with pytest.raises(RuntimeError, match="routing LP failed"):
            flows._solve_lp(unbounded, unbounded.upper)
        got_b = flows._solve_lp(lp_b, upper_b)
        again_a = flows._solve_lp(lp_a, upper_a)
        assert flows._solver() is shared
        assert np.array_equal(got_a, want_a)
        assert np.array_equal(got_b, want_b)
        assert np.array_equal(again_a, want_a)

    def test_one_bounds_run_constructs_one_solver(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(TWO_BY_THREE_DOC), encoding="utf-8")
        made = []
        construct = highs._Highs

        def counting():
            made.append(1)
            return construct()

        monkeypatch.setattr(highs, "_Highs", counting)
        flows._solver.cache_clear()
        assert cli.main(["bounds", str(path), "--beta-step", "0.25"]) == 0
        # The cleared cache makes the run build its solver: exactly once.
        assert len(made) == 1
