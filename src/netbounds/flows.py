"""Flow computations on noiseless networks.

Outer bounds on point-to-point networks come from max-flow/min-cut (per
demand, min over sinks for multicast). Inner bounds on networks with
hyper-arcs come from a fractional-routing linear program in which one
capacity draw on a hyper-arc serves all of its heads for a given session;
blend_inner solves the same program over run-weighted average arc rates of
several candidate lower networks with one arc structure.
Every reported flow is re-validated against conservation and capacity
constraints; bounds are certifiable, not solver folklore.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array, csc_array

# perfbench/layertrace.py wraps ``flows.linprog`` by name, so the name stays
# bound here; the routing LPs go through ``milp``, which runs the same HiGHS.
from scipy.optimize import linprog  # noqa: F401

from .netmodel import AUXILIARY, BitPipe, Demand, NoiselessNetwork, Node

__all__ = [
    "FlowResult",
    "BoundReport",
    "max_flow",
    "multicast_outer",
    "unicast_inner",
    "hyper_inner",
    "blend_inner",
    "validate_hyper_result",
    "combine_bounds",
]

_EK_TOL = 1e-12


@dataclass(frozen=True)
class FlowResult:
    """Rate of one demand together with its certificate.

    For outer bounds the witness holds the min-cut ("cut": source-side nodes,
    "cut_capacity") and a maximum flow per ordered node pair. For inner bounds
    it holds per-pipe session usage and per-sink head-edge flows.
    """

    demand: Demand
    rate: float
    witness: dict


@dataclass(frozen=True)
class BoundReport:
    """Per-demand outer/inner rates with the runs that produced them."""

    demands: tuple[Demand, ...]
    outer: dict[Demand, tuple[float, str]]
    inner: dict[Demand, tuple[float, str]]

    def sandwich_violations(self, tol: float = 1e-9) -> list[str]:
        """Demands whose inner bound exceeds the outer bound beyond tol."""
        violations = []
        for demand in self.demands:
            if demand in self.outer and demand in self.inner:
                outer = self.outer[demand][0]
                inner = self.inner[demand][0]
                if inner > outer + tol:
                    violations.append(
                        f"demand {demand.source}->{sorted(demand.sinks)}: "
                        f"inner {inner} exceeds outer {outer}"
                    )
        return violations


def _require_p2p(net: NoiselessNetwork):
    for pipe in net.pipes:
        if pipe.is_hyper:
            raise ValueError(
                f"network contains a hyper-arc {pipe.tail}->{list(pipe.heads)}; "
                "max-flow applies to point-to-point networks only"
            )


def _edge_capacities(net: NoiselessNetwork) -> dict[tuple[str, str], float]:
    capacity: dict[tuple[str, str], float] = {}
    for pipe in net.pipes:
        key = (pipe.tail, pipe.head)
        capacity[key] = capacity.get(key, 0.0) + pipe.rate
    return capacity


def _edmonds_karp(
    nodes: tuple[str, ...],
    capacity: dict[tuple[str, str], float],
    source: str,
    sink: str,
) -> tuple[float, dict[tuple[str, str], float], set[str]]:
    """Max flow by shortest augmenting paths; returns (value, flows, cut)."""
    adjacency: dict[str, list[str]] = {node: [] for node in nodes}
    for u, v in capacity:
        adjacency[u].append(v)
        adjacency[v].append(u)
    flow: dict[tuple[str, str], float] = {}

    def residual(u: str, v: str) -> float:
        cap = capacity.get((u, v), 0.0)
        return cap - flow.get((u, v), 0.0) + flow.get((v, u), 0.0)

    value = 0.0
    max_rounds = 4 * len(capacity) * max(len(nodes), 1) + 16
    for _ in range(max_rounds):
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and residual(u, v) > _EK_TOL:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            reachable = set(parent)
            return value, flow, reachable
        bottleneck = float("inf")
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, residual(u, v))
            v = u
        if bottleneck == float("inf"):
            return float("inf"), flow, set()
        v = sink
        while v != source:
            u = parent[v]
            cancel = min(flow.get((v, u), 0.0), bottleneck)
            if cancel > 0:
                flow[(v, u)] -= cancel
            remainder = bottleneck - cancel
            if remainder > 0:
                flow[(u, v)] = flow.get((u, v), 0.0) + remainder
            v = u
        value += bottleneck
    raise AssertionError("augmenting-path cap exceeded; max-flow logic error")


def max_flow(net: NoiselessNetwork, demand: Demand) -> FlowResult:
    """Maximum source-to-sink rate in a point-to-point network.

    Runs shortest-augmenting-path max-flow with infinite-rate pipes treated as
    uncapacitated, and certifies the value with the residual-graph min cut.

    Args:
        net: noiseless network of point-to-point pipes only.
        demand: unicast demand.

    Raises:
        ValueError: when the network has hyper-arcs or the demand is not
            unicast.
    """
    _require_p2p(net)
    if demand.kind != "unicast":
        raise ValueError("max_flow takes a unicast demand; see multicast_outer")
    sink = demand.sink_list[0]
    for endpoint in (demand.source, sink):
        if endpoint not in net.node_ids:
            raise ValueError(f"demand endpoint {endpoint!r} is not a network node")
    capacity = _edge_capacities(net)
    value, flow, reachable = _edmonds_karp(
        net.node_ids, capacity, demand.source, sink
    )
    witness: dict = {"flows": dict(flow)}
    if value != float("inf"):
        cut_capacity = sum(
            cap
            for (u, v), cap in capacity.items()
            if u in reachable and v not in reachable
        )
        if abs(cut_capacity - value) > 1e-9 * max(1.0, abs(value)):
            raise AssertionError(
                f"min-cut {cut_capacity} does not certify flow {value}"
            )
        witness["cut"] = tuple(sorted(reachable))
        witness["cut_capacity"] = cut_capacity
    return FlowResult(demand=demand, rate=value, witness=witness)


def multicast_outer(net: NoiselessNetwork, demand: Demand) -> FlowResult:
    """Outer bound for one demand: min over sinks of the max flow.

    For a single-source multicast on a point-to-point network the min over
    per-sink max flows is the natural cut outer bound.
    """
    _require_p2p(net)
    best: FlowResult | None = None
    per_sink: dict[str, float] = {}
    for sink in demand.sink_list:
        result = max_flow(
            net, Demand(kind="unicast", source=demand.source, sinks=frozenset({sink}))
        )
        per_sink[sink] = result.rate
        if best is None or result.rate < best.rate:
            best = result
    witness = dict(best.witness)
    witness["per_sink"] = per_sink
    return FlowResult(demand=demand, rate=best.rate, witness=witness)


def unicast_inner(net: NoiselessNetwork, demand: Demand) -> FlowResult:
    """Achievable rate of a single unicast session, hyper-arcs allowed.

    When one unicast session has the network to itself, drawing capacity x
    from a hyper-arc hands every head node the same x bits, and the session
    can forward disjoint shares of those bits from different heads.  That is
    exactly the behavior of a point-to-point gadget: route the tail into an
    auxiliary split node at the hyper-arc rate, then connect the split node
    to each head without a rate limit.  After the rewrite the network is
    point-to-point, so the rate comes from exact augmenting-path max flow
    with a min-cut certificate instead of a routing LP.  Matches
    ``hyper_inner`` on single-demand inputs, up to solver tolerance.

    Args:
        net: Bounding network, possibly containing hyper-arcs.
        demand: A unicast demand with endpoints in ``net``.

    Returns:
        FlowResult whose witness carries the rewritten network's flow and
        cut data plus a ``split_nodes`` map from auxiliary node id to the
        index of the hyper-arc it replaced.

    Raises:
        ValueError: If the demand is not unicast.
    """
    if demand.kind != "unicast":
        raise ValueError("unicast_inner handles unicast demands only")
    if not any(pipe.is_hyper for pipe in net.pipes):
        return max_flow(net, demand)
    nodes = list(net.nodes)
    taken = set(net.node_ids)
    pipes: list[BitPipe] = []
    split_nodes: dict[str, int] = {}
    for index, pipe in enumerate(net.pipes):
        if not pipe.is_hyper:
            pipes.append(pipe)
            continue
        split = f"hyperarc_{index}"
        while split in taken:
            split = split + "_"
        taken.add(split)
        nodes.append(Node(id=split, kind=AUXILIARY))
        split_nodes[split] = index
        pipes.append(
            BitPipe(
                tail=pipe.tail,
                heads=(split,),
                rate=pipe.rate,
                provenance=f"hyper-arc draw: {pipe.provenance}",
            )
        )
        for head in pipe.heads:
            pipes.append(
                BitPipe(
                    tail=split,
                    heads=(head,),
                    rate=float("inf"),
                    provenance=f"hyper-arc share to {head}: {pipe.provenance}",
                )
            )
    rewritten = NoiselessNetwork(nodes=tuple(nodes), pipes=tuple(pipes))
    result = max_flow(rewritten, demand)
    witness = dict(result.witness)
    witness["split_nodes"] = split_nodes
    return FlowResult(demand=demand, rate=result.rate, witness=witness)


_LP_CACHE_SIZE = 16  # compiled routing LPs kept, one per arc structure
_NONNEGATIVE = Bounds(0, np.inf)
_WITNESS_FLOOR = 1e-12  # solution entries at or below this stay out of witnesses


@dataclass(frozen=True, eq=False)
class _RoutingLP:
    """One routing LP as the arrays HiGHS takes.

    Columns are [t] [R_s] [x_{s,a}] [f_{s,sink,a,h}] [lambda_r], rows the
    inequalities (per-session draws, arc capacities, common rate) over the
    equalities (flow conservation, then sum_r lambda_r = 1 when blending).
    Without lambda columns the arc rates enter only ``upper`` at
    ``capacity_rows``, so one compiled LP serves every rate assignment.
    """

    matrix: csc_array
    cost: np.ndarray
    lower: np.ndarray  # row bounds; inequality rows have -inf below
    upper: np.ndarray
    capacity_rows: np.ndarray
    finite_arcs: np.ndarray  # arc of each capacity row
    pair_arcs: tuple[int, ...]  # arc of each (arc, head) pair, in column order
    pair_heads: tuple[str, ...]  # head of each (arc, head) pair
    n_arcs: int
    f_cols: tuple[int, ...]  # first f column of each session
    lam_col: int


def _build_routing_lp(node_ids, arcs, demands, objective, blend_rates=None):
    """Routing LP of one arc structure, emitted from its incidence lists.

    ``arcs`` holds ``(tail, heads, rate is finite)`` per pipe. Without
    ``blend_rates`` each finite arc's capacity row bounds the sessions' draws
    by the arc rate, filled in per solve. With ``blend_rates`` (one row of arc
    rates per run) it bounds them by sum_r lambda_r * rate_r, and the weights
    lambda_r sum to 1.
    """
    if objective not in ("maxmin", "sum"):
        raise ValueError(f"objective must be 'maxmin' or 'sum', got {objective!r}")
    n_sessions = len(demands)
    n_arcs = len(arcs)
    pair_arcs = tuple(a for a, (_, heads, _) in enumerate(arcs) for _ in heads)
    pair_heads = tuple(head for _, heads, _ in arcs for head in heads)
    n_pairs = len(pair_heads)
    arc_start = np.cumsum([0] + [len(heads) for _, heads, _ in arcs]).tolist()
    out_pairs: dict[str, list[int]] = {node: [] for node in node_ids}
    in_pairs: dict[str, list[int]] = {node: [] for node in node_ids}
    for p, (a, head) in enumerate(zip(pair_arcs, pair_heads)):
        if arcs[a][0] in out_pairs:
            out_pairs[arcs[a][0]].append(p)
        if head in in_pairs:
            in_pairs[head].append(p)

    x_col = 1 + n_sessions  # x_{s,a} sits at x_col + s * n_arcs + a
    f_cols = []
    col = x_col + n_sessions * n_arcs
    for demand in demands:
        f_cols.append(col)
        col += len(demand.sinks) * n_pairs
    lam_col = col
    n_runs = 0 if blend_rates is None else len(blend_rates)
    n_vars = lam_col + n_runs

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def put(row, columns, value):
        columns = list(columns)
        rows.extend([row] * len(columns))
        cols.extend(columns)
        vals.extend([value] * len(columns))

    # Per-session draw on an arc: total over its heads bounded by the usage var.
    row = 0
    for s, demand in enumerate(demands):
        for j in range(len(demand.sinks)):
            base = f_cols[s] + j * n_pairs
            for a in range(n_arcs):
                put(row, range(base + arc_start[a], base + arc_start[a + 1]), 1.0)
                put(row, (x_col + s * n_arcs + a,), -1.0)
                row += 1
    # Arc capacity shared across sessions.
    finite_arcs = [a for a, (_, _, finite) in enumerate(arcs) if finite]
    capacity_rows = np.arange(row, row + len(finite_arcs))
    for a in finite_arcs:
        put(row, range(x_col + a, x_col + n_sessions * n_arcs, n_arcs), 1.0)
        for r in range(n_runs):
            put(row, (lam_col + r,), -blend_rates[r][a])
        row += 1
    # Common rate t below every session's rate.
    for s in range(n_sessions):
        put(row, (0,), 1.0)
        put(row, (1 + s,), -1.0)
        row += 1
    n_ub = row
    # Flow conservation per session, sink and node (the sink node skipped).
    for s, demand in enumerate(demands):
        for j, sink in enumerate(demand.sink_list):
            base = f_cols[s] + j * n_pairs
            for node in node_ids:
                if node == sink:
                    continue
                outs, ins = out_pairs[node], in_pairs[node]
                if not (outs or ins or node == demand.source):
                    continue
                put(row, (base + p for p in outs), 1.0)
                put(row, (base + p for p in ins), -1.0)
                if node == demand.source:
                    put(row, (1 + s,), -1.0)
                row += 1
    if n_runs:
        put(row, range(lam_col, n_vars), 1.0)
        row += 1

    matrix = coo_array((vals, (rows, cols)), shape=(row, n_vars)).tocsc()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    lower = np.zeros(row)
    lower[:n_ub] = -np.inf
    upper = np.zeros(row)
    if n_runs:
        lower[-1] = upper[-1] = 1.0
    cost = np.zeros(n_vars)
    if objective == "maxmin":
        cost[0] = -1.0
    else:
        cost[1 : 1 + n_sessions] = -1.0
    return _RoutingLP(
        matrix=matrix,
        cost=cost,
        lower=lower,
        upper=upper,
        capacity_rows=capacity_rows,
        finite_arcs=np.array(finite_arcs, dtype=np.intp),
        pair_arcs=pair_arcs,
        pair_heads=pair_heads,
        n_arcs=n_arcs,
        f_cols=tuple(f_cols),
        lam_col=lam_col,
    )


@functools.lru_cache(maxsize=_LP_CACHE_SIZE)
def _compiled_routing_lp(node_ids, arcs, demands, objective) -> _RoutingLP:
    """The routing LP of one arc structure, compiled once and reused."""
    return _build_routing_lp(node_ids, arcs, demands, objective)


def _arc_structure(net: NoiselessNetwork) -> tuple:
    return tuple(
        (pipe.tail, pipe.heads, pipe.rate != float("inf")) for pipe in net.pipes
    )


def _solve_lp(lp: _RoutingLP, upper: np.ndarray) -> np.ndarray:
    result = milp(
        lp.cost,
        constraints=LinearConstraint(lp.matrix, lp.lower, upper),
        bounds=_NONNEGATIVE,
    )
    if not result.success:
        raise RuntimeError(f"routing LP failed: {result.message}")
    return result.x


def _results_from_solution(
    lp: _RoutingLP, demands, solution, extra_witness=None
) -> list[FlowResult]:
    n_pairs = len(lp.pair_heads)
    results = []
    for s, demand in enumerate(demands):
        first_x = 1 + len(demands) + s * lp.n_arcs
        drawn = solution[first_x : first_x + lp.n_arcs]
        usage = {
            (0, a): drawn[a] for a in np.flatnonzero(drawn > _WITNESS_FLOOR).tolist()
        }
        sinks = demand.sink_list
        routed = solution[lp.f_cols[s] : lp.f_cols[s] + len(sinks) * n_pairs]
        routed = routed.reshape(len(sinks), n_pairs)
        flows = {}
        for j, p in np.argwhere(routed > _WITNESS_FLOOR).tolist():
            flows[(0, sinks[j], lp.pair_arcs[p], lp.pair_heads[p])] = routed[j, p]
        witness = {"usage": usage, "flows": flows}
        if extra_witness:
            witness.update(extra_witness)
        rate = float(solution[1 + s]) + 0.0  # HiGHS may return -0.0
        results.append(FlowResult(demand=demand, rate=rate, witness=witness))
    return results


def validate_hyper_result(
    net: NoiselessNetwork,
    demands: tuple[Demand, ...],
    results: list[FlowResult],
    tol: float = 1e-9,
):
    """Re-check a routing witness against the LP's physical constraints.

    Verifies per-pipe capacity sharing, per-session single-counting of
    hyper-arc draws, and per-sink flow conservation delivering each session's
    rate. Raises AssertionError on any violation beyond tol.
    """
    total_usage = {a: 0.0 for a in range(len(net.pipes))}
    for s, (demand, result) in enumerate(zip(demands, results)):
        usage = {
            a: value for (r, a), value in result.witness["usage"].items() if r == 0
        }
        for a, value in usage.items():
            total_usage[a] += value
        for sink in demand.sink_list:
            incoming: dict[str, float] = {}
            outgoing: dict[str, float] = {}
            draw = {a: 0.0 for a in range(len(net.pipes))}
            for (r, sink_key, a, h), value in result.witness["flows"].items():
                if r != 0 or sink_key != sink:
                    continue
                pipe = net.pipes[a]
                outgoing[pipe.tail] = outgoing.get(pipe.tail, 0.0) + value
                incoming[h] = incoming.get(h, 0.0) + value
                draw[a] += value
            for a, value in draw.items():
                assert value <= usage.get(a, 0.0) + tol, (
                    f"session {s} sink {sink}: draw {value} on pipe {a} exceeds "
                    f"usage {usage.get(a, 0.0)}"
                )
            for node in net.node_ids:
                balance = outgoing.get(node, 0.0) - incoming.get(node, 0.0)
                if node == demand.source:
                    expected = result.rate
                elif node == sink:
                    expected = -result.rate
                else:
                    expected = 0.0
                assert abs(balance - expected) <= tol, (
                    f"session {s} sink {sink}: node {node} balance {balance}, "
                    f"expected {expected}"
                )
    for a, value in total_usage.items():
        assert value <= net.pipes[a].rate + tol, (
            f"pipe {a} usage {value} exceeds rate {net.pipes[a].rate}"
        )


def hyper_inner(
    net: NoiselessNetwork,
    demands: tuple[Demand, ...],
    objective: str = "maxmin",
) -> list[FlowResult]:
    """Achievable rates on a network with hyper-arcs, by fractional routing.

    Each session routes fractionally; one capacity draw on a hyper-arc serves
    all of its heads for that session (heads may forward disjoint parts of the
    draw), and sessions share every pipe additively. The LP maximizes the
    common rate ("maxmin") or the rate total ("sum"); either way the result
    is achievable by routing plus copying at hyper-arc heads.

    Returns one FlowResult per demand; witnesses are re-validated before
    returning.
    """
    demands = tuple(demands)
    if not demands:
        raise ValueError("demands must be nonempty")
    lp = _compiled_routing_lp(net.node_ids, _arc_structure(net), demands, objective)
    upper = lp.upper.copy()
    rates = np.array([pipe.rate for pipe in net.pipes])
    upper[lp.capacity_rows] = rates[lp.finite_arcs]
    solution = _solve_lp(lp, upper)
    results = _results_from_solution(lp, demands, solution)
    validate_hyper_result(net, demands, results)
    return results


def _average_networks(nets, weights) -> NoiselessNetwork:
    base = nets[0]
    pipes = []
    for a, pipe in enumerate(base.pipes):
        if pipe.rate == float("inf"):
            rate = float("inf")
        else:
            rate = sum(w * net.pipes[a].rate for net, w in zip(nets, weights))
        pipes.append(
            BitPipe(tail=pipe.tail, heads=pipe.heads, rate=rate, provenance=pipe.provenance)
        )
    return NoiselessNetwork(nodes=base.nodes, pipes=tuple(pipes))


def blend_inner(
    nets: list[NoiselessNetwork],
    demands: tuple[Demand, ...],
    objective: str = "maxmin",
) -> tuple[list[FlowResult], tuple[float, ...]]:
    """Best rates when the configurations behind the runs are time-shared.

    The runs must describe the same node set and arc structure and differ in
    rates only (decode orders, power splits). Splitting the coding block
    among the configurations with weights lambda lets every arc sustain its
    weighted-average rate over the whole block, with relays buffering across
    the block, so one routing problem is solved on the averaged network with
    the weights free. This reaches interior operating points of multi-access
    regions that no single decode order offers. Time sharing at the flow
    level, where each run routes its own flows, cannot: a session crossing
    two arcs that are never simultaneously fast is stuck below the slow rate
    in every run there.

    Returns:
        (results, weights): per-demand FlowResult, validated against the
        averaged network, and the chosen run weights.

    Raises:
        ValueError: on empty inputs, mismatched arc structure, or arcs that
            are infinite in some runs but finite in others.
    """
    demands = tuple(demands)
    if not demands:
        raise ValueError("demands must be nonempty")
    if not nets:
        raise ValueError("nets must be nonempty")
    nets = list(nets)
    base = nets[0]
    for net in nets[1:]:
        if set(net.node_ids) != set(base.node_ids):
            raise ValueError("blended networks must share one node set")
        if len(net.pipes) != len(base.pipes):
            raise ValueError("blended networks must have matching arc lists")
        for ours, theirs in zip(base.pipes, net.pipes):
            if ours.tail != theirs.tail or ours.heads != theirs.heads:
                raise ValueError(
                    f"arc mismatch: {ours.tail}->{list(ours.heads)} vs "
                    f"{theirs.tail}->{list(theirs.heads)}"
                )
            if (ours.rate == float("inf")) != (theirs.rate == float("inf")):
                raise ValueError(
                    f"arc {ours.tail}->{list(ours.heads)} must be finite in "
                    "every run or in none"
                )
    rates = [[pipe.rate for pipe in net.pipes] for net in nets]
    structure = _arc_structure(base)
    lp = _build_routing_lp(base.node_ids, structure, demands, objective, rates)
    solution = _solve_lp(lp, lp.upper)
    weights = tuple(float(w) for w in solution[lp.lam_col :])
    averaged = _average_networks(nets, weights)
    results = _results_from_solution(lp, demands, solution, {"weights": weights})
    validate_hyper_result(averaged, demands, results, tol=1e-8)
    return results, weights


def combine_bounds(
    outer_runs: list[tuple[str, dict[Demand, float]]],
    inner_runs: list[tuple[str, dict[Demand, float]]],
) -> BoundReport:
    """Combine parameterized runs: outer = per-demand min, inner = max.

    Every valid parameter choice yields a valid outer (resp. inner) bound, so
    the tightest combination takes the pointwise min across outer runs and
    max across inner runs, remembering which run produced each value.

    Raises:
        ValueError: when runs disagree on the demand set.
    """
    if not outer_runs and not inner_runs:
        raise ValueError("no runs to combine")
    reference: tuple[Demand, ...] | None = None
    for _, rates in outer_runs + inner_runs:
        keys = tuple(sorted(rates, key=lambda d: (d.source, sorted(d.sinks))))
        if reference is None:
            reference = keys
        elif keys != reference:
            raise ValueError("runs evaluate different demand sets")
    outer: dict[Demand, tuple[float, str]] = {}
    for label, rates in outer_runs:
        for demand, rate in rates.items():
            if demand not in outer or rate < outer[demand][0]:
                outer[demand] = (rate, label)
    inner: dict[Demand, tuple[float, str]] = {}
    for label, rates in inner_runs:
        for demand, rate in rates.items():
            if demand not in inner or rate > inner[demand][0]:
                inner[demand] = (rate, label)
    return BoundReport(demands=reference or (), outer=outer, inner=inner)
