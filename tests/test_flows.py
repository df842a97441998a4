"""Tests for flow computations, checked against brute-force cut enumeration."""

import itertools

import numpy as np
import pytest

from netbounds import flows
from netbounds.assemble import LowerParams, build_lower
from netbounds.decouple import decompose
from netbounds.flows import (
    FlowResult,
    blend_inner,
    combine_bounds,
    hyper_inner,
    max_flow,
    multicast_outer,
    unicast_inner,
    validate_hyper_result,
)
from netbounds.netmodel import (
    BitPipe,
    Demand,
    NoiselessNetwork,
    NoisyLink,
    NoisyNetwork,
    Node,
)

INF = float("inf")


def pipes_network(edges, extra_nodes=()):
    """Build a noiseless network from (tail, head(s), rate) triples."""
    names = list(extra_nodes)
    pipes = []
    for tail, heads, rate in edges:
        if isinstance(heads, str):
            heads = (heads,)
        pipes.append(BitPipe(tail=tail, heads=tuple(heads), rate=rate))
        for name in (tail, *heads):
            if name not in names:
                names.append(name)
    nodes = tuple(Node(id=name) for name in names)
    return NoiselessNetwork(nodes=nodes, pipes=tuple(pipes))


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
                p.rate for p in net.pipes if p.tail in side and p.head not in side
            )
            best = min(best, cap)
    return best


class TestMaxFlow:
    def test_single_pipe(self):
        net = pipes_network([("s", "t", 1.5)])
        result = max_flow(net, unicast("s", "t"))
        assert abs(result.rate - 1.5) < 1e-12
        assert result.witness["cut"] == ("s",)

    def test_star_network_carries_two_units(self):
        net = pipes_network(
            [("s", "a", 1.0), ("s", "b", 1.0), ("a", "t", 1.0), ("b", "t", 1.0)]
        )
        result = max_flow(net, unicast("s", "t"))
        assert abs(result.rate - 2.0) < 1e-12

    def test_bottleneck_in_middle(self):
        net = pipes_network([("s", "a", 5.0), ("a", "b", 0.75), ("b", "t", 5.0)])
        result = max_flow(net, unicast("s", "t"))
        assert abs(result.rate - 0.75) < 1e-12
        assert result.witness["cut_capacity"] == pytest.approx(0.75)

    def test_parallel_pipes_add(self):
        net = pipes_network([("s", "t", 1.0), ("s", "t", 0.25)])
        result = max_flow(net, unicast("s", "t"))
        assert abs(result.rate - 1.25) < 1e-12

    def test_infinite_pipe_is_uncapacitated(self):
        net = pipes_network([("s", "a", float("inf")), ("a", "t", 3.0)])
        result = max_flow(net, unicast("s", "t"))
        assert abs(result.rate - 3.0) < 1e-12

    def test_all_infinite_path_gives_infinite_rate(self):
        net = pipes_network([("s", "a", float("inf")), ("a", "t", float("inf"))])
        result = max_flow(net, unicast("s", "t"))
        assert result.rate == float("inf")

    def test_disconnected_sink_gives_zero(self):
        net = pipes_network([("s", "a", 1.0), ("b", "t", 1.0)])
        result = max_flow(net, unicast("s", "t"))
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
        result = max_flow(net, unicast("s", "t"))
        side = set(result.witness["cut"])
        cap = sum(
            p.rate for p in net.pipes if p.tail in side and p.head not in side
        )
        assert abs(cap - result.rate) < 1e-12
        assert "s" in side and "t" not in side

    def test_rejects_hyper_arcs(self):
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 1.0)])
        with pytest.raises(ValueError):
            max_flow(net, unicast("s", "t"))

    def test_rejects_multicast_demand(self):
        net = pipes_network([("s", "a", 1.0), ("s", "b", 1.0)])
        with pytest.raises(ValueError):
            max_flow(net, multicast("s", {"a", "b"}))

    def test_rejects_unknown_endpoint(self):
        net = pipes_network([("s", "a", 1.0)])
        with pytest.raises(ValueError):
            max_flow(net, unicast("s", "zz"))

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
            result = max_flow(net, unicast(source, sink))
            oracle = brute_force_min_cut(net, source, sink)
            assert abs(result.rate - oracle) < 1e-9, f"trial {trial}"

    def test_monotone_in_capacity(self):
        base = [("s", "a", 1.0), ("a", "t", 2.0), ("s", "t", 0.5)]
        net = pipes_network(base)
        bigger = pipes_network([(u, v, 1.5 * r) for u, v, r in base])
        low = max_flow(net, unicast("s", "t")).rate
        high = max_flow(bigger, unicast("s", "t")).rate
        assert high >= low - 1e-12


class TestMulticastOuter:
    def test_min_over_sinks(self):
        net = pipes_network([("s", "a", 2.0), ("s", "b", 0.5)])
        result = multicast_outer(net, multicast("s", {"a", "b"}))
        assert abs(result.rate - 0.5) < 1e-12
        assert result.witness["per_sink"]["a"] == pytest.approx(2.0)
        assert result.witness["per_sink"]["b"] == pytest.approx(0.5)

    def test_single_sink_matches_max_flow(self):
        net = pipes_network([("s", "a", 1.0), ("a", "t", 0.8)])
        direct = max_flow(net, unicast("s", "t")).rate
        result = multicast_outer(net, multicast("s", {"t"}))
        assert abs(result.rate - direct) < 1e-12


class TestHyperInner:
    def test_single_session_p2p_matches_max_flow(self):
        net = pipes_network(
            [("s", "a", 1.0), ("s", "b", 2.0), ("a", "t", 1.5), ("b", "t", 0.5)]
        )
        demand = unicast("s", "t")
        expected = max_flow(net, demand).rate
        results = hyper_inner(net, (demand,))
        assert abs(results[0].rate - expected) < 1e-8

    def test_hyper_arc_serves_both_multicast_sinks(self):
        net = pipes_network([("s", ("a", "b"), 1.0)])
        results = hyper_inner(net, (multicast("s", {"a", "b"}),))
        assert abs(results[0].rate - 1.0) < 1e-8

    def test_hyper_arc_draw_is_single_counted_per_session(self):
        # The two heads may forward disjoint pieces, but the total drawn from
        # one hyper-arc per session cannot exceed one use of its rate.
        net = pipes_network(
            [("s", ("a", "b"), 1.0), ("a", "t", 0.6), ("b", "t", 0.6)]
        )
        results = hyper_inner(net, (unicast("s", "t"),))
        assert abs(results[0].rate - 1.0) < 1e-8

    def test_shared_pipe_splits_between_sessions(self):
        net = pipes_network(
            [("s1", "m", 5.0), ("s2", "m", 5.0), ("m", "t1", 5.0), ("m", "t2", 5.0)]
        )
        shared = pipes_network(
            [("s1", "m", 1.0), ("s2", "m", 1.0), ("m", "r", 1.0), ("r", "t1", 1.0), ("r", "t2", 1.0)]
        )
        demands = (unicast("s1", "t1"), unicast("s2", "t2"))
        results = hyper_inner(shared, demands, objective="maxmin")
        for result in results:
            assert abs(result.rate - 0.5) < 1e-8
        results = hyper_inner(net, demands, objective="maxmin")
        for result in results:
            assert abs(result.rate - 5.0) < 1e-8

    def test_sum_objective_totals_shared_capacity(self):
        net = pipes_network(
            [("s1", "m", 1.0), ("s2", "m", 1.0), ("m", "t", 1.0)]
        )
        demands = (unicast("s1", "t"), unicast("s2", "t"))
        results = hyper_inner(net, demands, objective="sum")
        total = sum(result.rate for result in results)
        assert abs(total - 1.0) < 1e-8

    def test_witness_validates(self):
        net = pipes_network(
            [("s", ("a", "b"), 2.0), ("a", "t", 1.0), ("b", "t", 1.0), ("s", "t", 0.3)]
        )
        demands = (unicast("s", "t"),)
        results = hyper_inner(net, demands)
        validate_hyper_result(net, demands, results)
        assert abs(results[0].rate - 2.3) < 1e-8

    def test_tampered_witness_fails_validation(self):
        net = pipes_network([("s", "t", 1.0)])
        demands = (unicast("s", "t"),)
        results = hyper_inner(net, demands)
        bad = FlowResult(
            demand=results[0].demand,
            rate=results[0].rate + 0.5,
            witness=results[0].witness,
        )
        with pytest.raises(AssertionError):
            validate_hyper_result(net, demands, [bad])

    def test_multicast_session_needs_rate_at_every_sink(self):
        net = pipes_network([("s", "a", 2.0), ("s", "b", 0.5)])
        results = hyper_inner(net, (multicast("s", {"a", "b"}),))
        assert abs(results[0].rate - 0.5) < 1e-8

    def test_rejects_empty_demands(self):
        net = pipes_network([("s", "t", 1.0)])
        with pytest.raises(ValueError):
            hyper_inner(net, ())

    def test_rejects_unknown_objective(self):
        net = pipes_network([("s", "t", 1.0)])
        with pytest.raises(ValueError):
            hyper_inner(net, (unicast("s", "t"),), objective="median")


class TestUnicastInner:
    def test_plain_network_matches_max_flow(self):
        net = pipes_network([("s", "a", 1.0), ("a", "t", 0.7), ("s", "t", 0.2)])
        demand = unicast("s", "t")
        result = unicast_inner(net, demand)
        assert abs(result.rate - max_flow(net, demand).rate) < 1e-12
        assert "split_nodes" not in result.witness

    def test_hyper_draw_is_shared_not_duplicated(self):
        # One draw of 1.0 reaches both heads; forwarding the copy from each
        # head in full would claim 2.0, the shared-draw semantics allow 1.0.
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 5.0), ("b", "t", 5.0)])
        result = unicast_inner(net, unicast("s", "t"))
        assert abs(result.rate - 1.0) < 1e-12
        assert len(result.witness["split_nodes"]) == 1

    def test_heads_forward_disjoint_shares(self):
        # Narrow per-head exits force the session to split the drawn bits.
        net = pipes_network([("s", ("a", "b"), 1.0), ("a", "t", 0.4), ("b", "t", 0.4)])
        result = unicast_inner(net, unicast("s", "t"))
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
            exact = unicast_inner(net, demand).rate
            via_lp = hyper_inner(net, (demand,))[0].rate
            assert abs(exact - via_lp) < 1e-7

    def test_split_node_names_avoid_collisions(self):
        net = pipes_network(
            [("s", ("hyperarc_0", "b"), 1.0), ("hyperarc_0", "t", 0.4), ("b", "t", 0.4)]
        )
        result = unicast_inner(net, unicast("s", "t"))
        assert abs(result.rate - 0.8) < 1e-12

    def test_rejects_multicast_demand(self):
        net = pipes_network([("s", ("a", "b"), 1.0)])
        with pytest.raises(ValueError):
            unicast_inner(net, multicast("s", ("a", "b")))


class TestBlendInner:
    def test_averaged_rates_beat_flow_level_mixing(self):
        # The two runs never have both arcs fast at once, so routing in either
        # run, or time-sharing the two routings, caps the session at 1.0;
        # averaging the arc rates reaches 1.5.
        run_a = pipes_network([("s", "m", 2.0), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", 1.0), ("m", "t", 2.0)])
        demands = (unicast("s", "t"),)
        per_run = max(
            hyper_inner(run_a, demands)[0].rate, hyper_inner(run_b, demands)[0].rate
        )
        assert abs(per_run - 1.0) < 1e-8
        blended, weights = blend_inner([run_a, run_b], demands)
        assert abs(blended[0].rate - 1.5) < 1e-8
        assert abs(weights[0] - 0.5) < 1e-6
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_single_run_reduces_to_hyper_inner(self):
        net = pipes_network([("s", ("a", "b"), 1.2), ("a", "t", 0.5), ("b", "t", 0.4)])
        demands = (unicast("s", "t"),)
        direct = hyper_inner(net, demands)[0].rate
        blended, weights = blend_inner([net], demands)
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
            blended, _ = blend_inner([run_a, run_b], demands)
            best_single = max(
                hyper_inner(run_a, demands)[0].rate,
                hyper_inner(run_b, demands)[0].rate,
            )
            assert blended[0].rate >= best_single - 1e-8

    def test_keeps_infinite_arcs_infinite(self):
        run_a = pipes_network([("s", "m", float("inf")), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", float("inf")), ("m", "t", 3.0)])
        blended, _ = blend_inner([run_a, run_b], (unicast("s", "t"),))
        assert abs(blended[0].rate - 3.0) < 1e-8

    def test_rejects_mismatched_arc_structure(self):
        run_a = pipes_network([("s", "m", 1.0), ("m", "t", 1.0)])
        run_b = pipes_network([("s", "m", 1.0), ("s", "t", 1.0)])
        with pytest.raises(ValueError, match="arc mismatch"):
            blend_inner([run_a, run_b], (unicast("s", "t"),))

    def test_rejects_mixed_finite_and_infinite_arc(self):
        run_a = pipes_network([("s", "t", 1.0)])
        run_b = pipes_network([("s", "t", float("inf"))])
        with pytest.raises(ValueError, match="finite"):
            blend_inner([run_a, run_b], (unicast("s", "t"),))

    def test_rejects_empty_inputs(self):
        net = pipes_network([("s", "t", 1.0)])
        with pytest.raises(ValueError, match="nets"):
            blend_inner([], (unicast("s", "t"),))
        with pytest.raises(ValueError, match="demands"):
            blend_inner([net], ())

    def test_witness_reports_weights(self):
        net = pipes_network([("s", "t", 0.8)])
        blended, weights = blend_inner([net], (unicast("s", "t"),))
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
    return build_lower(decompose(noisy), params)


def fresh_solve(net, demands, objective="maxmin"):
    """hyper_inner on a routing LP compiled from scratch."""
    flows._compiled_routing_lp.cache_clear()
    return hyper_inner(net, demands, objective)


def assert_same_results(got, want):
    assert [r.demand for r in got] == [r.demand for r in want]
    assert [r.rate for r in got] == [r.rate for r in want]
    assert [r.witness for r in got] == [r.witness for r in want]


class TestRoutingLpCache:
    def test_candidates_with_one_arc_structure_share_a_compiled_lp(self):
        first, second = relay_lower(0.5), relay_lower(0.3)
        assert [(p.tail, p.heads) for p in first.pipes] == [
            (p.tail, p.heads) for p in second.pipes
        ]
        assert [p.rate for p in first.pipes] != [p.rate for p in second.pipes]
        demands = (unicast("S", "D"),)
        flows._compiled_routing_lp.cache_clear()
        got_first = hyper_inner(first, demands)
        got_second = hyper_inner(second, demands)
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
        hyper_inner(net, demands, objective)
        if change == "finiteness":
            net = pipes_network([("s1", "m", INF), *edges[1:]])
        elif change == "demand order":
            demands = demands[::-1]
        else:
            objective = "sum"
        got = hyper_inner(net, demands, objective)
        info = flows._compiled_routing_lp.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        assert_same_results(got, fresh_solve(net, demands, objective))

    def test_cache_holds_at_most_its_fixed_size(self):
        flows._compiled_routing_lp.cache_clear()
        maxsize = flows._compiled_routing_lp.cache_info().maxsize
        assert maxsize is not None
        for k in range(maxsize + 4):
            chain = pipes_network([(f"n{i}", f"n{i + 1}", 1.0) for i in range(k + 1)])
            hyper_inner(chain, (unicast("n0", f"n{k + 1}"),))
            assert flows._compiled_routing_lp.cache_info().currsize <= maxsize
        info = flows._compiled_routing_lp.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 4, maxsize)

    @pytest.mark.parametrize("objective", ["sum", "maxmin"])
    def test_unbounded_lp_raises(self, objective):
        net = pipes_network([("s", "m", INF), ("m", "t", INF)])
        with pytest.raises(RuntimeError, match="routing LP failed"):
            hyper_inner(net, (unicast("s", "t"),), objective=objective)


class TestCombineBounds:
    def test_outer_takes_min_inner_takes_max(self):
        d = unicast("s", "t")
        report = combine_bounds(
            outer_runs=[("alpha=0.3", {d: 2.0}), ("alpha=0.7", {d: 1.5})],
            inner_runs=[("beta=a", {d: 0.9}), ("beta=b", {d: 1.2})],
        )
        assert report.outer[d] == (1.5, "alpha=0.7")
        assert report.inner[d] == (1.2, "beta=b")
        assert report.sandwich_violations() == []

    def test_reports_sandwich_violations(self):
        d = unicast("s", "t")
        report = combine_bounds(
            outer_runs=[("o", {d: 1.0})],
            inner_runs=[("i", {d: 1.5})],
        )
        violations = report.sandwich_violations()
        assert len(violations) == 1
        assert "exceeds" in violations[0]

    def test_rejects_mismatched_demand_sets(self):
        d1 = unicast("s", "t")
        d2 = unicast("s", "u")
        with pytest.raises(ValueError):
            combine_bounds(
                outer_runs=[("o", {d1: 1.0})],
                inner_runs=[("i", {d2: 0.5})],
            )

    def test_rejects_no_runs(self):
        with pytest.raises(ValueError):
            combine_bounds([], [])

    def test_ties_keep_first_run(self):
        d = unicast("s", "t")
        report = combine_bounds(
            outer_runs=[("first", {d: 1.0}), ("second", {d: 1.0})],
            inner_runs=[("first", {d: 1.0})],
        )
        assert report.outer[d][1] == "first"
