"""Flow computations on noiseless networks.

Outer bounds on point-to-point networks come from max-flow/min-cut (per
demand, min over sinks for multicast). Inner bounds on networks with
hyper-arcs come from a fractional-routing linear program in which one
capacity draw on a hyper-arc serves all of its heads for a given session;
blend_inner solves the same program over run-weighted average rates of
several arc lists with one arc structure. The one emitter compiles, from
index arrays, templates only: once per slot list, ``(tail, heads)`` per
pipe, an LP as HiGHS's own model with a capacity row on every slot. The slot
list is an arc list's pipes, or every slot of an `assemble.LowerBatch`. A
run is a slot list, the mask of the slots it holds and its rates; an arc
list is a run that holds every slot. Every routed run's LP is selected from
its template by index alone: the run's absent slots and the capacity rows of
its infinite pipes are left out. A blend's LP is the selection of its first
arc list plus one weight column per run. Witnesses are read from the LP's
column layout: session by arc for the draws, commodity by (arc, head) pair,
in slot order, for the flows. The LRU of templates is the one routing-LP
cache; each template owns its LP and keeps the LPs selected from it.
hyper_inner routes one arc list, and best_inner each of its picks, one run
at a time: take its LP, solve it, read and check its witnesses. Every solve
hands its LP to one long-lived HiGHS instance through SciPy's bundled
bindings, which discards the previous model and basis, so each solve is a
cold start and the order of the solves does not change any result. SciPy
loads at the first routing LP, so a process that solves none never imports
it. HiGHS solves to a primal feasibility tolerance of 1e-10, below the 1e-9
to which every reported flow is re-validated against conservation and
capacity constraints; bounds are certifiable, not solver folklore.

Every function here reads a bounding network as its node ids and its arcs,
``(tail, heads, rate, label)`` tuples in pipe order, the form that
`assemble.UpperStructure.arcs` and `assemble.LowerStructure.arcs` return.
Labels are never read, so a search or a sweep rates a candidate from its
arcs alone.

Two cuts bound a routing over hyper-arcs without solving an LP. sum_rate_cut
bounds the rate total: every session delivers its whole rate into each of its
sinks, so the total cannot exceed the rate of the pipes entering a sink that
all sessions share. demand_cut bounds one session's rate by source-side cuts
of the split-node rewrite that `unicast_inner` routes. A validated hyper_inner
rate or total exceeds its cut by at most the slack of validate_hyper_result's
1e-9 tolerances (about 1e-8 on the multicast search's networks), so a rate
above its cut is solver slack. best_inner, the one inner-bound search (of
`pipeline.bound` and the multicast search), caps each routed rate at its cut
and routes candidates best first by these cuts, until the next candidate's cut
is below the best capped rate, or equals it at a later index: it could neither
beat nor tie it. The relay search keeps its own scan, whose cut is exact (see
`experiments.relay_eq_lower`).

A third cut is exact. min_cut takes a batch of point-to-point networks, one
per row of rates over the same pipes, and gives each row's min cut by
enumerating the subsets of each sink's interior (the nodes on some
source-to-sink path, at most _MAX_INTERIOR of them), all sinks' sets in one
pass over the pipes, 2 ** _MAX_INTERIOR sets at most per pass. That is the rate
max_flow or multicast_outer certifies, so least_outer, the one outer-bound
search (of the example networks' searches and of `pipeline.bound`), rates
every candidate by it and runs one certified flow, on the least; where
min_cut refuses a sink's interior, it rates by certified flows.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import compress, zip_longest

import numpy as np

from .info import ltr_sum
from .netmodel import Demand


def __getattr__(name):
    # perfbench/layertrace.py wraps ``flows.linprog`` by name. It is bound on
    # first access, so that importing flows does not load scipy.optimize.
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FlowResult",
    "max_flow",
    "multicast_outer",
    "unicast_inner",
    "sum_rate_cut",
    "demand_cut",
    "min_cut",
    "least_outer",
    "best_inner",
    "hyper_inner",
    "blend_inner",
    "validate_hyper_result",
]

_EK_TOL = 1e-12

# How far best_inner lets a solved rate exceed its cut before it fails: far
# above the slack (about 1e-8) that validate_hyper_result's tolerances leave.
_CUT_MARGIN = 1e-6

# Interior nodes per sink whose subsets min_cut enumerates, at most.
_MAX_INTERIOR = 12


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


def _capacities(node_ids, arcs, split: bool) -> tuple[dict, dict[str, int]]:
    """The capacity per ``(tail, head)`` of a network, summed in arc order,
    and its split nodes, for a max flow.

    An arc without a head is refused, by its index. A point-to-point arc adds
    its rate. A hyper-arc is refused unless `split`; then it gets a split
    node, named ``hyperarc_<index>`` (with ``_`` appended until no node has
    the name), and adds its rate to ``(tail, split)`` and an infinite rate to
    ``(split, head)`` for each head. The split nodes map to their arc index,
    in arc order.
    """
    taken = set(node_ids)
    capacity: dict[tuple[str, str], float] = {}
    split_nodes: dict[str, int] = {}
    for index, (tail, heads, rate, _) in enumerate(arcs):
        if not heads:
            raise ValueError(f"arc {index} from {tail!r} has no head")
        if len(heads) == 1:
            key = (tail, heads[0])
            capacity[key] = capacity.get(key, 0.0) + rate
            continue
        if not split:
            raise ValueError(
                f"network contains a hyper-arc {tail}->{list(heads)}; "
                "max-flow applies to point-to-point networks only"
            )
        name = f"hyperarc_{index}"
        while name in taken:
            name = name + "_"
        taken.add(name)
        split_nodes[name] = index
        key = (tail, name)
        capacity[key] = capacity.get(key, 0.0) + rate
        for head in heads:
            key = (name, head)
            capacity[key] = capacity.get(key, 0.0) + math.inf
    return capacity, split_nodes


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


def max_flow(node_ids, arcs, demand: Demand) -> FlowResult:
    """Maximum source-to-sink rate in a point-to-point network.

    Runs shortest-augmenting-path max-flow with infinite-rate arcs treated as
    uncapacitated, and certifies the value with the residual-graph min cut.
    Each ``(tail, head)`` capacity sums its arcs' rates in arc order.

    Args:
        node_ids: the network's node ids.
        arcs: ``(tail, heads, rate, label)`` per pipe, point-to-point only.
        demand: unicast demand.

    Raises:
        ValueError: when the network has an arc without a head or a
            hyper-arc, or the demand is not unicast.
    """
    capacity, _ = _capacities(node_ids, arcs, split=False)
    if demand.kind != "unicast":
        raise ValueError("max_flow takes a unicast demand; see multicast_outer")
    _check_endpoints(node_ids, demand)
    return _certified_flow(node_ids, capacity, demand)


def _check_endpoints(node_ids: tuple[str, ...], *demands: Demand) -> None:
    for demand in demands:
        for endpoint in (demand.source, *demand.sink_list):
            if endpoint not in node_ids:
                raise ValueError(f"demand endpoint {endpoint!r} is not a network node")


def _certified_flow(
    node_ids: tuple[str, ...], capacity: dict[tuple[str, str], float], demand: Demand
) -> FlowResult:
    """Max flow of a unicast demand over a capacity map, certified by its
    min cut."""
    value, flow, reachable = _edmonds_karp(
        node_ids, capacity, demand.source, demand.sink_list[0]
    )
    witness: dict = {"flows": dict(flow)}
    if value != float("inf"):
        cut_capacity = sum(
            cap
            for (u, v), cap in capacity.items()
            if u in reachable and v not in reachable
        )
        # Written so that a NaN cut or flow fails the certificate.
        if not abs(cut_capacity - value) <= 1e-9 * max(1.0, abs(value)):
            raise AssertionError(
                f"min-cut {cut_capacity} does not certify flow {value}"
            )
        witness["cut"] = tuple(sorted(reachable))
        witness["cut_capacity"] = cut_capacity
    return FlowResult(demand=demand, rate=value, witness=witness)


def multicast_outer(node_ids, arcs, demand: Demand) -> FlowResult:
    """Outer bound for one demand: min over sinks of the max flow.

    For a single-source multicast on a point-to-point network the min over
    per-sink max flows is the natural cut outer bound. The arcs are checked
    and their capacity map built once; each sink then gets the certified
    max flow that `max_flow` would return for it. The result carries the
    first sink's witness among those of least rate, plus `per_sink`, the rate
    of every sink in `demand.sink_list` order.

    Raises:
        ValueError: when the network has an arc without a head or a
            hyper-arc, or an endpoint of the demand is not a network node.
    """
    capacity, _ = _capacities(node_ids, arcs, split=False)
    _check_endpoints(node_ids, demand)
    best: FlowResult | None = None
    per_sink: dict[str, float] = {}
    for sink in demand.sink_list:
        result = _certified_flow(
            node_ids,
            capacity,
            Demand(kind="unicast", source=demand.source, sinks=frozenset({sink})),
        )
        per_sink[sink] = result.rate
        if best is None or result.rate < best.rate:
            best = result
    witness = dict(best.witness)
    witness["per_sink"] = per_sink
    return FlowResult(demand=demand, rate=best.rate, witness=witness)


def unicast_inner(node_ids, arcs, demand: Demand) -> FlowResult:
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

    The rewrite goes straight into the capacity map that the max-flow takes
    (`_capacities`, which names the split nodes), and the split nodes follow
    ``node_ids``; no pipes are built.  Without hyper-arcs this is the
    capacity map of `max_flow`, and the result is `max_flow`'s.

    Args:
        node_ids: the network's node ids.
        arcs: ``(tail, heads, rate, label)`` per pipe, hyper-arcs allowed.
        demand: A unicast demand with endpoints in ``node_ids``.

    Returns:
        FlowResult whose witness carries the rewritten network's flow and
        cut data plus, when there are hyper-arcs, a ``split_nodes`` map from
        auxiliary node id to the index of the hyper-arc it replaced.

    Raises:
        ValueError: If the demand is not unicast or an endpoint is not in
            ``node_ids``.
    """
    if demand.kind != "unicast":
        raise ValueError("unicast_inner handles unicast demands only")
    _check_endpoints(node_ids, demand)
    capacity, split_nodes = _capacities(node_ids, arcs, split=True)
    result = _certified_flow((*node_ids, *split_nodes), capacity, demand)
    if split_nodes:
        result.witness["split_nodes"] = split_nodes
    return result


@functools.cache
def _highs():
    """SciPy's bindings of HiGHS, imported at the first routing LP.

    Importing them runs ``scipy.optimize``'s package init, most of a fresh
    process's start-up, which commands that solve no LP never pay.
    """
    from scipy.optimize._highspy import _core

    return _core


_LP_CACHE_SIZE = 64  # routing LP templates kept, one per slot list
_WITNESS_FLOOR = 1e-12  # solution entries at or below this stay out of witnesses


def _check_objective(objective) -> None:
    if objective not in ("maxmin", "sum"):
        raise ValueError(f"objective must be 'maxmin' or 'sum', got {objective!r}")


@dataclass(frozen=True, eq=False)
class _RoutingLP:
    """One routing LP as HiGHS's own model, with its bounds as arrays.

    Columns are [t] [R_s] [x_{s,a}] [f_{c,p}], then a blend's [lambda_r];
    rows the inequalities (per-session draws, arc capacities, common rate)
    over the equalities (flow conservation, then a blend's sum_r lambda_r =
    1). The x block is session by arc of ``slots``; the f block is commodity
    by pair of ``pairs``, a commodity being one (session, sink) in demand and
    ``sink_list`` order. `_results_from_solution` reads the witnesses from
    this layout. Without lambda columns the arc rates enter only ``upper``
    at ``capacity_rows``, so one LP serves every rate assignment. ``model``
    holds the constraint matrix in CSC form and the same bounds; each solve
    overwrites its row uppers. An LP is a template's own, `_restrict`'s
    selection from a template, or a blend: such a selection with
    `_with_weights`'s lambda columns.
    """

    model: object  # a HighsLp
    cost: np.ndarray
    lower: np.ndarray  # row bounds; inequality rows have -inf below
    upper: np.ndarray
    capacity_rows: np.ndarray
    finite_arcs: np.ndarray  # arc of each capacity row
    slots: tuple[tuple[str, tuple[str, ...]], ...]  # (tail, heads) of each arc
    pairs: tuple[tuple[int, str], ...]  # (arc, head) per head of each arc, in slot order


@dataclass(frozen=True, eq=False)
class _Template:
    """The template of a slot list of n arcs: its own LP ``lp``, with a
    capacity row on every slot, and the index arrays by which `_restrict`
    selects from it the LP of any run on those slots.

    Each column and row has a code, an index into a lookup that `_restrict`
    builds from a run's arcs; the column or row stays where that entry holds.
    The column lookup is [present arcs, True]: an x or f column's code is its
    arc; that of t, of each R_s and of the end (one code past the last
    column) is n. The row lookup is [present arcs, present finite arcs, True,
    touched nodes], touched being the nodes that are the tail or a head of a
    present arc: a draw row's code is its arc, a capacity row's n plus its
    arc, a common-rate row's and a source's conservation row's 2n, and any
    other conservation row's 2n + 1 plus its node.

    ``derived`` keeps the LPs that `_route` selects from the template, ``lp``
    among them, keyed by the bytes of their present and finite masks, so that
    they live and are evicted with it.
    """

    lp: _RoutingLP
    start: np.ndarray  # the CSC matrix, as `lp.model` holds it
    index: np.ndarray
    value: np.ndarray
    entry_cols: np.ndarray  # column of each matrix entry
    col_codes: np.ndarray
    row_codes: np.ndarray
    node_arcs: np.ndarray  # per node and arc, whether the arc's tail or a head is the node
    derived: dict = field(default_factory=dict)


def _highs_model(start, index, value, cost, lower):
    """HiGHS's model of the LP with CSC matrix (start, index, value), column
    costs ``cost``, column bounds [0, inf) and row lowers ``lower``."""
    highs = _highs()
    n_vars, n_rows = cost.size, lower.size
    # HiGHS's model takes lists far faster than arrays.
    model = highs.HighsLp()
    matrix = model.a_matrix_
    model.num_col_ = matrix.num_col_ = n_vars
    model.num_row_ = matrix.num_row_ = n_rows
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.start_ = start.tolist()
    matrix.index_ = index.tolist()
    matrix.value_ = value.tolist()
    model.col_cost_ = cost.tolist()
    model.col_lower_ = [0.0] * n_vars
    model.col_upper_ = [np.inf] * n_vars
    model.row_lower_ = lower.tolist()
    return model


def _build_routing_lp(node_ids, slots, demands, objective) -> _Template:
    """The template of one slot list, emitted from its incidence arrays.

    ``slots`` holds ``(tail, heads)`` per pipe. Each slot's capacity row
    bounds the sessions' draws by the pipe's rate, filled in per solve. Each
    (session, sink) pair is one commodity c with its own block of f columns;
    every constraint family is emitted as whole (row, column, value) arrays
    by index arithmetic over the commodities, the (arc, head) pairs and the
    node-pair incidence. This is the one emitter of routing LPs, and it
    emits templates only: every other LP is `_restrict`'s selection from
    one, with `_with_weights`'s columns for a blend.
    """
    _check_objective(objective)
    n_sessions = len(demands)
    n_arcs = len(slots)
    pairs = tuple((a, head) for a, (_, heads) in enumerate(slots) for head in heads)
    n_pairs = len(pairs)
    # Incidence of node k (by position, as conservation rows go) and pair p:
    # +1 at the pair's tail, -1 at its head, 0 on a self-loop.
    nodes = np.array(node_ids, dtype=object)[:, None]
    at_tail = nodes == np.array([slots[a][0] for a, _ in pairs], dtype=object)
    at_head = nodes == np.array([head for _, head in pairs], dtype=object)
    incidence = at_tail.astype(float) - at_head
    touch = at_tail | at_head
    pair_arc = np.array([a for a, _ in pairs], dtype=np.intp)

    # Commodity c is one (session, sink); each has its own block of f columns.
    sink_lists = [demand.sink_list for demand in demands]
    session_of = np.repeat(
        np.arange(n_sessions), [len(sinks) for sinks in sink_lists]
    )
    n_comm = session_of.size
    sink_of = np.array([sink for sinks in sink_lists for sink in sinks], dtype=object)
    sources = np.array([demand.source for demand in demands], dtype=object)
    source_of = sources[session_of]
    is_source = nodes.T == source_of[:, None]
    # A conservation row per commodity and node, except at the sink and at
    # nodes that touch no pair and are not the source.
    keep = (touch.any(1) | is_source) & (nodes.T != sink_of[:, None])

    x_col = 1 + n_sessions  # x_{s,a} sits at x_col + s * n_arcs + a
    f_col = x_col + n_sessions * n_arcs  # f_{c,p} sits at f_col + c * n_pairs + p
    n_vars = f_col + n_comm * n_pairs
    cap_row = n_comm * n_arcs
    rate_row = cap_row + n_arcs
    n_ub = rate_row + n_sessions
    row_of = np.cumsum(keep).reshape(keep.shape) + (n_ub - 1)  # valid where kept
    n_rows = n_ub + int(np.count_nonzero(keep))

    sessions, arcs = np.arange(n_sessions), np.arange(n_arcs)
    cap_rows = cap_row + arcs
    con_c, con_k, con_p = np.nonzero(keep[:, :, None] & (incidence != 0.0))
    src_c, src_k = np.nonzero(keep & is_source)
    triplets = [
        # Per-session draw on an arc: total over its heads bounded by the usage var.
        (
            (np.arange(n_comm)[:, None] * n_arcs + pair_arc).ravel(),
            f_col + np.arange(n_comm * n_pairs),
            1.0,
        ),
        (
            np.arange(n_comm * n_arcs),
            (x_col + session_of[:, None] * n_arcs + arcs).ravel(),
            -1.0,
        ),
        # Arc capacity shared across sessions.
        (np.tile(cap_rows, n_sessions), x_col + np.arange(n_sessions * n_arcs), 1.0),
        # Common rate t below every session's rate.
        (rate_row + sessions, np.zeros(n_sessions, dtype=np.intp), 1.0),
        (rate_row + sessions, 1 + sessions, -1.0),
        # Flow conservation per commodity and node; the source emits R_s.
        (row_of[con_c, con_k], f_col + con_c * n_pairs + con_p, incidence[con_k, con_p]),
        (row_of[src_c, src_k], 1 + session_of[src_c], -1.0),
    ]
    rows = np.concatenate([r for r, _, _ in triplets])
    cols = np.concatenate([c for _, c, _ in triplets])
    vals = np.concatenate([np.full(len(r), v) for r, _, v in triplets])
    # No cell is emitted twice, so sorting by column, then row, gives the CSC.
    order = np.lexsort((rows, cols))
    start = np.zeros(n_vars + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=n_vars), out=start[1:])
    index, value = rows[order], vals[order]
    lower = np.zeros(n_rows)
    lower[:n_ub] = -np.inf
    cost = np.zeros(n_vars)
    if objective == "maxmin":
        cost[0] = -1.0
    else:
        cost[1 : 1 + n_sessions] = -1.0
    lp = _RoutingLP(
        model=_highs_model(start, index, value, cost, lower),
        cost=cost,
        lower=lower,
        upper=np.zeros(n_rows),
        capacity_rows=cap_rows,
        finite_arcs=arcs,
        slots=tuple(slots),
        pairs=pairs,
    )
    # Each row's and column's code in `_restrict`'s lookups; see `_Template`.
    con_codes = np.where(is_source, 2 * n_arcs, 2 * n_arcs + 1 + np.arange(len(node_ids)))
    return _Template(
        lp=lp,
        start=start,
        index=index,
        value=value,
        entry_cols=cols[order],
        col_codes=np.concatenate(
            [np.full(x_col, n_arcs), np.tile(arcs, n_sessions), np.tile(pair_arc, n_comm), [n_arcs]]
        ),
        row_codes=np.concatenate(
            [np.tile(arcs, n_comm), n_arcs + arcs, np.full(n_sessions, 2 * n_arcs), con_codes[keep]]
        ),
        node_arcs=touch @ (pair_arc[:, None] == arcs),
    )


def _restrict(template: _Template, present: np.ndarray, finite: np.ndarray) -> _RoutingLP:
    """The routing LP of the run on ``template``'s slots that holds those
    that ``present`` marks, with a capacity row on each present slot that
    ``finite`` marks, selected by index alone.

    It keeps the columns of the present slots and of their (arc, head) pairs,
    their draw rows, the capacity rows of the present finite slots, every
    common-rate row, and the conservation rows at each commodity's source or
    at a node that a present slot touches; rows and columns keep their
    order, and every column its entries'. The result is the LP of the run's
    own pipes, laid out as `_RoutingLP` says: ``template.lp`` itself when
    the run holds every slot, each finite.
    """
    lp = template.lp
    bounded = present & finite
    if bounded.all():
        return lp
    on = np.ones(1, dtype=bool)
    col_keep = np.concatenate((present, on))[template.col_codes]  # one past the last too
    touched = template.node_arcs @ present
    row_keep = np.concatenate((present, bounded, on, touched))[template.row_codes]
    hot = col_keep[template.entry_cols] & row_keep[template.index]
    hot_before = np.zeros(hot.size + 1, dtype=np.intp)
    np.cumsum(hot, out=hot_before[1:])
    start = hot_before[template.start[col_keep]]
    col_keep = col_keep[:-1]
    row_at = np.cumsum(row_keep) - 1  # each kept row's position among the kept
    index, value = row_at[template.index[hot]], template.value[hot]
    cost, lower = lp.cost[col_keep], lp.lower[row_keep]
    position = np.cumsum(present) - 1  # each present slot's among the present
    at, held = position.tolist(), present.tolist()
    return _RoutingLP(
        model=_highs_model(start, index, value, cost, lower),
        cost=cost,
        lower=lower,
        upper=lp.upper[row_keep],
        capacity_rows=row_at[lp.capacity_rows[bounded]],
        finite_arcs=position[bounded],
        slots=tuple(compress(lp.slots, held)),
        pairs=tuple((at[a], head) for a, head in lp.pairs if held[a]),
    )


def _with_weights(lp: _RoutingLP, rates: np.ndarray) -> _RoutingLP:
    """The blend LP of ``rates``, one row of rates per run on ``lp``'s slots,
    each finite where ``lp`` has a capacity row: ``lp`` with a weight column
    lambda_r per run and a last row, sum_r lambda_r = 1. Each capacity row
    then bounds its arc's draws by sum_r lambda_r * rate_r; rates of 0 stay
    out of the matrix."""
    matrix = lp.model.a_matrix_
    # Per run, its column's entries: -rate_r at each capacity row, then 1.
    entries = np.concatenate((-rates[:, lp.finite_arcs], np.ones((len(rates), 1))), axis=1)
    hot = entries != 0.0
    rows = np.broadcast_to(np.append(lp.capacity_rows, lp.lower.size), entries.shape)
    start = matrix.start_
    start = np.concatenate((start, start[-1] + np.cumsum(np.count_nonzero(hot, axis=1))))
    index = np.concatenate((matrix.index_, rows[hot]))
    value = np.concatenate((matrix.value_, entries[hot]))
    cost = np.append(lp.cost, np.zeros(len(rates)))
    lower = np.append(lp.lower, 1.0)
    model = _highs_model(start, index, value, cost, lower)
    return replace(lp, model=model, cost=cost, lower=lower, upper=np.append(lp.upper, 1.0))


@functools.lru_cache(maxsize=_LP_CACHE_SIZE)
def _compiled_routing_lp(node_ids, slots, demands, objective) -> _Template:
    """The template of one slot list, compiled once and reused."""
    return _build_routing_lp(node_ids, slots, demands, objective)


@functools.cache
def _solver():
    """The one HiGHS instance every routing LP is solved on.

    Sharing it (and each compiled LP's model) makes routing solves unsafe to
    run from several threads at once.
    """
    solver = _highs()._Highs()
    solver.setOptionValue("log_to_console", False)
    # Below validate_hyper_result's 1e-9 conservation tolerance, so a
    # solution HiGHS calls feasible passes the witness check.
    solver.setOptionValue("primal_feasibility_tolerance", 1e-10)
    return solver


def _solve_lp(lp: _RoutingLP, upper: np.ndarray) -> np.ndarray:
    """Optimal columns of ``lp`` with row upper bounds ``upper``.

    Every call passes its model to the one long-lived HiGHS instance.
    ``passModel`` replaces the previous model and discards its basis and
    solution, so each solve is a cold start and its result does not depend
    on the solves before it: runs may be routed in any order.
    """
    lp.model.row_upper_ = upper.tolist()
    highs = _highs()
    solver = _solver()
    if solver.passModel(lp.model) == highs.HighsStatus.kError:
        status = highs.HighsModelStatus.kModelError
    else:
        solver.run()
        status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"routing LP failed: {solver.modelStatusToString(status)}")
    return np.array(solver.getSolution().col_value)


def _results_from_solution(lp: _RoutingLP, demands, solution) -> list[FlowResult]:
    """One FlowResult per session, the witnesses read from the LP's layout.

    Entry s * n_arcs + a of the x block is session s's draw on arc a, and
    entry c * n_pairs + p of the f block after it commodity c's flow on pair
    p of ``lp.pairs``. Each entry above ``_WITNESS_FLOOR`` fills its witness
    entry, in column order; the others stay out of the witnesses.
    """
    usages, routes = [{} for _ in demands], [{} for _ in demands]
    commodities = [(routes[s], sink) for s, d in enumerate(demands) for sink in d.sink_list]
    x_col = 1 + len(demands)
    n_arcs, pairs = len(lp.slots), lp.pairs
    n_x = len(demands) * n_arcs  # the x block's width
    block = solution[x_col : x_col + n_x + len(commodities) * len(pairs)]
    hot = (block > _WITNESS_FLOOR).nonzero()[0]
    for i, value in zip(hot.tolist(), block[hot].tolist()):
        if i < n_x:
            s, a = divmod(i, n_arcs)
            usages[s][a] = value
        else:
            c, p = divmod(i - n_x, len(pairs))
            store, sink = commodities[c]
            a, head = pairs[p]
            store[sink, a, head] = value
    rates = (solution[1:x_col] + 0.0).tolist()  # HiGHS may return -0.0
    return [
        FlowResult(demand=demand, rate=rate, witness={"usage": used, "flows": flows})
        for demand, rate, used, flows in zip(demands, rates, usages, routes)
    ]


def validate_hyper_result(
    node_ids,
    arcs,
    demands: tuple[Demand, ...],
    results: list[FlowResult],
    tol: float = 1e-9,
):
    """Re-check a routing witness against the LP's physical constraints.

    ``arcs`` holds ``(tail, heads, rate, label)`` per pipe of the routed
    network, whose nodes are ``node_ids``. A witness holds ``usage[a]``, the
    session's draw on pipe a, and ``flows[(sink, a, h)]``, the flow toward
    ``sink`` on pipe a into its head h. Verifies that every entry names a
    pipe of ``arcs``, that usage and flows are nonnegative, that every flow
    heads for one of the session's sinks and enters one of its pipe's heads,
    per-pipe capacity sharing, per-session single-counting of hyper-arc
    draws, and per-sink flow conservation delivering each session's rate.
    Each session's witness is read in one pass. Raises AssertionError on a
    count of results other than that of the demands, and on any violation
    beyond tol.
    """
    assert len(results) == len(demands), f"{len(results)} results for {len(demands)} demands"
    total_usage = {a: 0.0 for a in range(len(arcs))}
    for s, (demand, result) in enumerate(zip(demands, results)):
        usage = result.witness["usage"]
        for a, value in usage.items():
            assert 0 <= a < len(arcs), f"session {s}: usage on pipe {a}, which is absent"
            assert value >= -tol, f"session {s}: usage {value} on pipe {a} is negative"
            total_usage[a] += value
        # Per sink: draw per pipe, and flow out of and into each node.
        tallies = {sink: ({}, {}, {}) for sink in demand.sink_list}
        for (sink, a, h), value in result.witness["flows"].items():
            tally = tallies.get(sink)
            assert tally is not None, (
                f"session {s}: flow on pipe {a} heads for {sink}, not one of its sinks"
            )
            assert 0 <= a < len(arcs), f"session {s}: flow on pipe {a}, which is absent"
            tail, heads = arcs[a][0], arcs[a][1]
            assert h in heads, (
                f"session {s} sink {sink}: flow on pipe {a} enters {h}, "
                f"not one of its heads {list(heads)}"
            )
            assert value >= -tol, (
                f"session {s} sink {sink}: flow {value} on pipe {a} is negative"
            )
            drawn, out, into = tally
            drawn[a] = drawn.get(a, 0.0) + value
            out[tail] = out.get(tail, 0.0) + value
            into[h] = into.get(h, 0.0) + value
        for sink, (drawn, out, into) in tallies.items():
            # Pipes without flow draw 0, within their nonnegative usage.
            for a, value in sorted(drawn.items()):
                assert value <= usage.get(a, 0.0) + tol, (
                    f"session {s} sink {sink}: draw {value} on pipe {a} exceeds "
                    f"usage {usage.get(a, 0.0)}"
                )
            for node in node_ids:
                balance = out.get(node, 0.0) - into.get(node, 0.0)
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
        rate = arcs[a][2]
        assert value <= rate + tol, f"pipe {a} usage {value} exceeds rate {rate}"


def sum_rate_cut(arcs, demands: tuple[Demand, ...]) -> float:
    """Upper bound on the rate total of ``demands`` under any routing.

    ``arcs`` holds ``(tail, heads, rate, label)`` per pipe of the network.
    Every session delivers its whole rate into each of its sinks, and one
    pipe's rate bounds the sum of all sessions' draws on it. So at a node
    that is a sink of every demand, the rate total is at most the total rate
    of the pipes with that node among their heads; a hyper-arc counts once at
    each of its heads. Returns the least such total over those nodes, or
    ``inf`` when the demands share no sink.
    """
    if not demands:
        raise ValueError("demands must be nonempty")
    inflow = dict.fromkeys(frozenset.intersection(*(d.sinks for d in demands)), 0.0)
    for _, heads, rate, _ in arcs:
        for head in heads:
            if head in inflow:
                inflow[head] += rate
    return min(inflow.values(), default=math.inf)


def demand_cut(slots, rates, demand: Demand) -> np.ndarray:
    """Upper bound on the rate of ``demand`` under any routing, per row of
    ``rates``: one network's rate per pipe ``(tail, heads)`` of ``slots``, as
    in `assemble.LowerBatch`.

    For each sink it takes the least rate total of the pipes that leave a
    source-side set, a hyper-arc counting once when any of its heads lies
    outside. Each set holds the source and every node that is the tail of no
    slot, except the sink, and none, exactly one or all of the other
    transmitting nodes (tails of some slot). The bound is the least of these
    totals over the sinks. Each total sums rate columns from 0, left to
    right, so a pipe of rate 0 changes no bit of it.

    Each total is a cut of `unicast_inner`'s split-node rewrite, so by
    max-flow/min-cut no routing beats it; other sessions only take capacity
    away. The sets grow linearly with the transmitting nodes, and they are
    every cut that matters when at most two transmitting nodes lie outside
    the source and the sink: then the bound is that max flow.
    """
    zero = np.zeros(len(rates))
    transmitters = {tail for tail, _ in slots}
    source = demand.source
    totals = []
    for sink in demand.sinks:
        others = transmitters - {source, sink}
        # Only the sink and the other transmitters can lie outside a set.
        exits = others | {sink}
        # One pass over the slots totals every set's cut: with none of the
        # others inside, each one alone (if there are two or more), or all of
        # them (then every tail but the sink is inside, and only the sink out).
        none = every = zero
        single = dict.fromkeys(others if len(others) > 1 else (), zero)
        for (tail, heads), rate in zip(slots, rates.T):
            leaving = exits.intersection(heads)
            if tail == sink or not leaving:
                continue
            if sink in leaving:
                every = every + rate
            if tail == source:
                none = none + rate
                for node in single:
                    if leaving != {node}:
                        single[node] = single[node] + rate
            elif tail in single:
                single[tail] = single[tail] + rate
        totals += (none, every, *single.values())
    return functools.reduce(np.minimum, totals)


class _OversizedInterior(ValueError):
    """`min_cut`'s refusal of a sink with more than _MAX_INTERIOR interior nodes."""


def min_cut(slots, rates, demand: Demand) -> np.ndarray:
    """The min cut of ``demand`` per row of ``rates``, one point-to-point
    network's rate per pipe ``(tail, (head,))`` of ``slots``: the rate that
    `max_flow` (unicast) or `multicast_outer` (multicast) certifies on that
    row's arcs, without a flow.

    For each sink it takes the least rate total of the pipes that leave a
    source-side set. The sets run over every subset of the sink's interior,
    the nodes other than the source and the sink that lie on some
    source-to-sink path. A node that the source reaches but that cannot reach
    the sink is on the source side, every other node on the sink side: moving
    a node so cuts no pipe more, so on rates >= 0 the least of these totals
    is the min cut. A set that cuts a pipe of infinite rate in every row is
    skipped. Each total sums rate columns from 0, left to right, as
    `demand_cut` does. The bound is the least of these totals over the sinks.

    Every sink's sets lie on one axis, in blocks of at most 2 ** _MAX_INTERIOR
    sets, and one pass over the slots totals every set of a block; each
    sink's least is taken from its own sets.

    Raises:
        ValueError: on an arc without a head or a hyper-arc, and on a sink
            with more than _MAX_INTERIOR interior nodes.
    """
    source = demand.source
    successors: dict[str, list[str]] = {}
    predecessors: dict[str, list[str]] = {}
    place = {source: 0}  # per node, its row of the source-side masks
    for index, (tail, heads) in enumerate(slots):
        if not heads:
            raise ValueError(f"arc {index} from {tail!r} has no head")
        if len(heads) != 1:
            raise ValueError(
                f"network contains a hyper-arc {tail}->{list(heads)}; "
                "min_cut applies to point-to-point networks only"
            )
        successors.setdefault(tail, []).append(heads[0])
        predecessors.setdefault(heads[0], []).append(tail)
        place.setdefault(tail, len(place))
        place.setdefault(heads[0], len(place))

    def closure(start: str, step: dict) -> set[str]:
        seen, stack = {start}, [start]
        while stack:
            for node in step.get(stack.pop(), ()):
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return seen

    reached = closure(source, successors)
    blocks = [[]]  # runs of sinks whose sets fit in 2 ** _MAX_INTERIOR together
    for sink in demand.sink_list:
        reaching = closure(sink, predecessors)
        interior = sorted((reached & reaching) - {source, sink})
        if len(interior) > _MAX_INTERIOR:
            raise _OversizedInterior(
                f"sink {sink!r} has {len(interior)} interior nodes; min_cut "
                f"enumerates the subsets of at most {_MAX_INTERIOR}"
            )
        taken = sum(1 << len(other) for other, _ in blocks[-1])
        if taken + (1 << len(interior)) > 1 << _MAX_INTERIOR:
            blocks.append([])
        # Its interior and the rest of its source side.
        blocks[-1].append((interior, reached - reaching | {source}))
    tails = [place[tail] for tail, _ in slots]
    heads = [place[head] for _, (head,) in slots]
    unbounded = np.isinf(rates).all(axis=0)
    least = np.full(len(rates), math.inf)
    for block in blocks:
        spans, size = [], 0  # per sink, its sets on the block's axis
        for interior, _ in block:
            spans.append(slice(size, size + (1 << len(interior))))
            size = spans[-1].stop
        inside = np.zeros((len(place), size), dtype=bool)  # per node, per set
        for (interior, held), span in zip(block, spans):
            sets = np.arange(span.stop - span.start)
            inside[[place[node] for node in interior], span] = (
                sets >> np.arange(len(interior))[:, None] & 1
            )
            inside[[place[node] for node in held], span] = True
        leaving = inside[tails] & ~inside[heads]  # per slot, per set
        kept = ~leaving[unbounded].any(axis=0)
        moving = ~unbounded & leaving.any(axis=1)
        totals = np.zeros((size, len(rates)))
        for cut, rate in zip(leaving[moving], rates.T[moving]):
            np.add(totals, rate, out=totals, where=cut[:, None])
        for span in spans:
            least = np.minimum(least, totals[span][kept[span]].min(axis=0, initial=math.inf))
    return least


def least_outer(node_ids, batches, demand: Demand) -> tuple[float, tuple | None]:
    """The least outer bound of ``demand`` over every (row, batch) candidate,
    and the winner as (batch, row): ``batches`` hold point-to-point networks
    over ``node_ids`` as `assemble.UpperBatch` does, one per row.

    Each batch's rows are rated by their `min_cut`, or, where `min_cut`
    refuses a sink's interior, by their certified flows. The candidates are
    scanned row by row and, within a row, batch by batch; the least rate
    wins, the earliest of ties. A winner rated by its cut gets one certified
    flow (`max_flow` for a unicast demand, `multicast_outer` for a multicast
    one), which must match its cut as the flow's min-cut certificate does.
    The certified flow's rate is reported; (inf, None) on an empty sweep.
    """
    flow = max_flow if demand.kind == "unicast" else multicast_outer
    rated = []  # per batch, its rate per row and whether those are certified flows
    for batch in batches:
        try:
            rated.append((min_cut(batch.slots, batch.rates, demand).tolist(), False))
        except _OversizedInterior:
            arc_lists = (batch.arcs(row) for row in range(len(batch.rates)))
            rated.append(([flow(node_ids, arcs, demand).rate for arcs in arc_lists], True))
    best, winner = math.inf, None
    for row, row_rates in enumerate(zip(*(rows for rows, _ in rated))):
        for index, rate in enumerate(row_rates):
            if rate < best:
                best, winner = rate, (index, row)
    if winner is None:
        return best, None
    index, row = winner
    if not rated[index][1]:
        certified = flow(node_ids, batches[index].arcs(row), demand).rate
        ok = abs(best - certified) <= 1e-9 * max(1.0, certified)
        assert ok, f"least cut {best} is not the max flow {certified}"
        best = certified
    return best, (batches[index], row)


def best_inner(node_ids, candidates, demands, objective="maxmin") -> list[tuple]:
    """The best inner bound over ``candidates`` of each scored quantity, and
    the winner's index: ``(rate, index)``, or ``(-inf, None)`` with no
    candidate. A candidate is a network over ``node_ids``: a row of an
    `assemble.LowerBatch`, routed by index (the batch's slots, the row's rates
    and its `present` mask) with no arc list built, or one arc list of a list.

    A lone unicast demand is the one quantity, routed by `unicast_inner`.
    Otherwise each candidate is routed as `hyper_inner` routes it, with
    ``objective``, and the quantities are the demands, in order, for
    "maxmin" and their rate total for "sum". Each routed score is capped at
    its cut (`demand_cut` of its demand, `sum_rate_cut` of the total), which
    bounds every routing of that candidate; a score more than _CUT_MARGIN
    above it fails an assertion. Each quantity ranks the candidates by
    descending cut, then by index. Every round routes each open quantity's
    first candidate not yet routed; a quantity closes once that candidate's
    cut is below its best rate, or equals it at a later index than the
    best's, since no later candidate can then beat or tie it. The earliest
    candidate of the best rate wins, so the result is, bit for bit, that of
    routing every candidate with the same cap. Candidates on one slot
    list (the rows of a batch, or arc lists of one arc structure) share one
    LP template, and the LP of each distinct set of present and finite slots
    is selected from it once while the template is cached.

    Raises:
        ValueError: on an unknown objective or a demand endpoint that is not
            in ``node_ids``.
    """
    _check_objective(objective)
    demands = tuple(demands)
    node_ids = tuple(node_ids)
    _check_endpoints(node_ids, *demands)
    unicast = len(demands) == 1 and demands[0].kind == "unicast"
    total = objective == "sum" and not unicast
    batch = hasattr(candidates, "slots")
    if batch:
        slots, rates, present = candidates.slots, candidates.rates, candidates.present
        count = len(rates)

        def arcs_of(run: int) -> list[tuple]:  # the row's arcs, unlabelled
            return [
                (*slot, rate, None)
                for slot, rate in compress(zip(slots, rates[run].tolist()), present[run])
            ]

    else:
        count = len(candidates)
        arcs_of = candidates.__getitem__

    if total:
        cuts = [np.array([sum_rate_cut(arcs_of(run), demands) for run in range(count)])]
    elif batch:
        cuts = [demand_cut(slots, rates, d) for d in demands]
    else:
        rows = [  # each arc list as slots and a one-row batch of rates
            ([arc[:2] for arc in arcs], np.array([[arc[2] for arc in arcs]])) for arcs in candidates
        ]
        cuts = [np.array([demand_cut(*row, d)[0] for row in rows]) for d in demands]
    index = np.arange(count)
    # Each ranking is stored reversed, so that its next candidate is its last entry.
    ranks = {q: np.lexsort((index, -cut))[::-1].tolist() for q, cut in enumerate(cuts)}
    cuts = [cut.tolist() for cut in cuts]
    best = [(-math.inf, None)] * len(cuts)
    routed = set()
    while ranks:
        picks = []
        for q, rank in list(ranks.items()):
            while rank and rank[-1] in routed:
                rank.pop()
            # A candidate's capped score is at most its cut, so one that ranks
            # after the best rate's (rate, index) can neither beat nor tie it.
            if not rank or (-cuts[q][rank[-1]], rank[-1]) > (-best[q][0], best[q][1]):
                del ranks[q]
            elif rank[-1] not in picks:
                picks.append(rank[-1])
        for run in picks:
            if unicast:
                scores = [unicast_inner(node_ids, arcs_of(run), demands[0]).rate]
            else:
                own = (slots, present[run], rates[run]) if batch else _list_run(arcs_of(run))
                scores = [result.rate for result in _route(node_ids, *own, demands, objective)]
            routed.add(run)
            for q, rate in enumerate([ltr_sum(scores)] if total else scores):
                cut = cuts[q][run]
                assert rate <= cut + _CUT_MARGIN, f"candidate {run}: {rate} exceeds its cut {cut}"
                rate = min(rate, cut)
                if rate > best[q][0] or rate == best[q][0] and run < best[q][1]:
                    best[q] = (rate, run)
    return best


def hyper_inner(
    node_ids,
    arcs,
    demands: tuple[Demand, ...],
    objective: str = "maxmin",
) -> list[FlowResult]:
    """Achievable rates on a network with hyper-arcs, by fractional routing.

    ``arcs`` holds ``(tail, heads, rate, label)`` per pipe of the network,
    whose nodes are ``node_ids``. Each session routes fractionally; one
    capacity draw on a hyper-arc serves all of its heads for that session
    (heads may forward disjoint parts of the draw), and sessions share every
    pipe additively. The LP maximizes the common rate ("maxmin") or the rate
    total ("sum"); either way the result is achievable by routing plus
    copying at hyper-arc heads.

    Returns one FlowResult per demand; witnesses are re-validated before
    returning.

    Raises:
        ValueError: on empty demands, an unknown objective or a demand
            endpoint that is not in ``node_ids``, before any LP is compiled.
        RuntimeError: when the routing LP has no optimal solution.
        AssertionError: when a witness fails `validate_hyper_result`.
    """
    _check_objective(objective)
    demands = tuple(demands)
    if not demands:
        raise ValueError("demands must be nonempty")
    node_ids = tuple(node_ids)
    _check_endpoints(node_ids, *demands)
    return _route(node_ids, *_list_run(arcs), demands, objective)


def _list_run(arcs) -> tuple:
    """One arc list as a run of `_route`: its slots, every one present, and
    its rates."""
    slots = tuple((tail, heads) for tail, heads, _, _ in arcs)
    return slots, np.ones(len(slots), dtype=bool), np.array([arc[2] for arc in arcs])


def _route(node_ids, slots, present, rates, demands, objective) -> list[FlowResult]:
    """The validated FlowResults of one run.

    A run is ``slots``, ``(tail, heads)`` per slot of its LP template;
    ``present``, the mask of the slots it holds; and ``rates``, its rate per
    slot. Its LP is `_restrict`'s selection of the present slots, and of the
    finite ones among them, from the template of ``slots`` in the LRU
    `_compiled_routing_lp`, kept in the template's ``derived``. The
    witnesses are checked against the run's arcs, rebuilt from its LP's
    slots and present rates.
    """
    template = _compiled_routing_lp(node_ids, slots, demands, objective)
    finite = rates != math.inf
    key = (present.tobytes(), finite.tobytes())
    lp = template.derived.get(key)
    if lp is None:
        lp = template.derived[key] = _restrict(template, present, finite)
    rates = rates[present]
    upper = lp.upper.copy()
    upper[lp.capacity_rows] = rates[lp.finite_arcs]
    solution = _solve_lp(lp, upper)
    arcs = [(*slot, rate, None) for slot, rate in zip(lp.slots, rates.tolist())]
    results = _results_from_solution(lp, demands, solution)
    validate_hyper_result(node_ids, arcs, demands, results)
    return results


def blend_inner(
    node_ids,
    arc_lists,
    demands: tuple[Demand, ...],
    objective: str = "maxmin",
) -> tuple[list[FlowResult], tuple[float, ...]]:
    """Best rates when the configurations behind the runs are time-shared.

    Each run is one arc list over ``node_ids``, ``(tail, heads, rate,
    label)`` per pipe, as `hyper_inner` takes them. The runs must have
    one arc structure and differ in rates only (decode orders, power splits).
    Splitting the coding block among the configurations with weights lambda
    lets every arc sustain its weighted-average rate over the whole block,
    with relays buffering across the block, so one routing problem is solved
    on the averaged arcs with the weights free. This reaches interior
    operating points of multi-access regions that no single decode order
    offers. Time sharing at the flow level, where each run routes its own
    flows, cannot: a session crossing two arcs that are never simultaneously
    fast is stuck below the slow rate in every run there.

    Returns:
        (results, weights): per-demand FlowResult, validated against the
        averaged arcs, and the chosen run weights.

    Raises:
        ValueError: on empty inputs, a demand endpoint that is not in
            ``node_ids``, mismatched arc structure, or arcs that are infinite
            in some runs but finite in others.
    """
    demands = tuple(demands)
    if not demands:
        raise ValueError("demands must be nonempty")
    runs = list(arc_lists)
    if not runs:
        raise ValueError("arc_lists must be nonempty")
    node_ids = tuple(node_ids)
    _check_endpoints(node_ids, *demands)
    base = runs[0]
    # (tail, heads, finite) per pipe of each run; every run must have run 0's.
    structure, *others = (
        tuple((tail, heads, rate != math.inf) for tail, heads, rate, _ in arcs) for arcs in runs
    )
    for run, theirs in enumerate(others, start=1):
        if theirs != structure:
            a, ours, their = next(
                (a, ours, their)
                for a, (ours, their) in enumerate(zip_longest(structure, theirs))
                if ours != their
            )
            raise ValueError(
                f"arc mismatch: run {run} has arc {a} as {their} and run 0 as {ours}, "
                "each (tail, heads, finite); an arc must be finite in every run or in none"
            )
    rates = [[rate for _, _, rate, _ in arcs] for arcs in runs]
    slots, present, first = _list_run(base)
    template = _compiled_routing_lp(node_ids, slots, demands, objective)
    selected = _restrict(template, present, first != math.inf)
    lp = _with_weights(selected, np.array(rates, dtype=float))
    solution = _solve_lp(lp, lp.upper)
    weights = tuple(solution[-len(runs) :].tolist())
    # Every arc at its weighted-average rate over the runs.
    averaged = [
        (
            tail,
            heads,
            rate if rate == math.inf else sum(w * r[a] for r, w in zip(rates, weights)),
            label,
        )
        for a, (tail, heads, rate, label) in enumerate(base)
    ]
    results = _results_from_solution(lp, demands, solution)
    for result in results:
        result.witness["weights"] = weights
    validate_hyper_result(node_ids, averaged, demands, results, tol=1e-8)
    return results, weights
