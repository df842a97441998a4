"""The paper's three example networks and the searches that bound them.

Each setup has a network builder, an outer search on upper arcs, an inner
search on lower arcs, and a driver that sweeps one parameter and returns
plain rows, which `netbounds repro` prints as CSV:

- relay (`relay_experiment`): S -> R -> D with a direct S -> D link, swept
  over the source-relay SNR, next to the cut-set, decode-forward and
  compress-forward rates of `netbounds.benchmarks`;
- layered line network (`layered_experiment`): n source/sink pairs whose
  symmetric rate is checked against its closed forms;
- multicast fan (`multicast_experiment`): two sources multicasting to n
  receivers over a q-ary collaboration link, swept over power.

The outer searches take the least bound over the noise-split sweep: every
upper structure is rated at the whole sweep as one `UpperStructure.rate_batch`
(whose MAC-rate cache lets the relay's two receiver orders, and every point of
a relay sweep, share one `mac_upper` call), and `flows.least_outer`, the
search that `pipeline.bound` runs too, rates every (alpha, structure)
candidate by its exact min cut and certifies one flow, on the least, the
earliest of ties, which is reported. The inner searches list candidates from
simplest to richest: the relay-off or common-layer construction under each
decode order first, then superposition splits. The multicast search routes
them by `flows.best_inner`, as `pipeline.bound` does. The relay search, whose
`demand_cut` is exact, keeps its own scan: a candidate replaces the incumbent
only when it beats it by more than _IMPROVE_TOL, so when the relay cannot
help, the relay-off construction is reported and the direct-link capacity is
hit exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .assemble import LowerParams, LowerStructure, UpperBatch, UpperStructure
from .benchmarks import RelaySpec, cf_bound, cutset_bound, df_bound
from .decouple import decompose
from .flows import best_inner, blend_inner, demand_cut, hyper_inner, least_outer, unicast_inner
from .info import awgn_capacity, db_to_linear, ltr_sum, qsc_capacity
from .mac import MacSpec, mac_upper
from .netmodel import Demand, Node, NoisyLink, NoisyNetwork

# The example drivers' sweep over the noise fraction assigned to the
# multi-access sum constraint; alpha = 1 recovers the classical sum rate.
ALPHA_GRID = tuple(k / 10 for k in range(11))

# The least improvement by which a candidate replaces the incumbent.
_IMPROVE_TOL = 1e-9


# ---------------------------------------------------------------------------
# relay


def relay_network(gamma_sd: float, gamma_sr: float, gamma_rd: float) -> NoisyNetwork:
    """Three-node relay: source S, relay R, destination D, all links AWGN."""
    return NoisyNetwork(
        nodes=(Node(id="S"), Node(id="R"), Node(id="D")),
        links=(
            NoisyLink(src="S", dst="D", kind="awgn", snr=gamma_sd),
            NoisyLink(src="S", dst="R", kind="awgn", snr=gamma_sr),
            NoisyLink(src="R", dst="D", kind="awgn", snr=gamma_rd),
        ),
        demands=(_relay_demand(),),
    )


def _relay_demand() -> Demand:
    return Demand(kind="unicast", source="S", sinks=frozenset({"D"}))


def relay_eq_upper(components, alphas=ALPHA_GRID) -> float:
    """Tightest flow bound over the noise-split sweep and both receiver orders
    of the cumulative BC upper model: one upper structure per order. Both
    have the one MAC at D, whose rates at each alpha are computed once and
    then read from `UpperStructure.rate_batch`'s MAC-rate cache. See
    `flows.least_outer` for the search."""
    structures = [
        UpperStructure(components, {("bc", "S"): perm}) for perm in (("D", "R"), ("R", "D"))
    ]
    batches = [structure.rate_batch(alphas) for structure in structures]
    return least_outer(structures[0].node_ids, batches, _relay_demand())[0]


def _relay_structure(components, layers, targets, order) -> LowerStructure:
    params = LowerParams(
        bc_betas={("bc", "S"): (1.0,) + (0.0,) * (layers - 1)},
        mac_order={("mac", "D"): order},
        bc_decode_targets=targets,
    )
    return LowerStructure(components, params)


def _relay_targets(family: str):
    if family == "strong":
        # Default nesting: private layer to the stronger receiver.
        return {}
    # Private layer straight to the destination.
    return {(("bc", "S"), 0): ("D", "R"), (("bc", "S"), 1): ("D",)}


def relay_eq_lower(components) -> float:
    """Best achievable rate over superposition splits and decode orders.

    The relay-off construction (one layer to D) comes first, then the
    "strong" (default nesting) and "direct" (private layer to D) two-layer
    families, each on a coarse 1/8 share grid zoomed three times around its
    best point. Each (targets, decode order)
    structure is built once, and the splits of each grid or zoom step, known
    before any is rated, are rated as one `LowerStructure.rate_batch`.

    Candidates are rated by `demand_cut` and scanned in order. The reported
    rate is the winner's certified `unicast_inner` max flow, one per search,
    on the winner's arcs as its batch holds them. It equals the winner's cut
    rate bit for bit unless an arc is thinner than the max flow's residual
    tolerance.
    """
    orders = (("R", "S"), ("S", "R"))
    demand = _relay_demand()
    best, winner = 0.0, None

    def rate_all(structure: LowerStructure, splits) -> list[float]:
        """The splits' cut rates, in order; a strict improvement becomes the winner."""
        nonlocal best, winner
        batch = structure.rate_batch({("bc", "S"): splits})
        rates = demand_cut(batch.slots, batch.rates, demand).tolist()
        for row, rate in enumerate(rates):
            if rate > best + _IMPROVE_TOL:
                best, winner = rate, (structure.node_ids, batch, row)
        return rates

    for order in orders:
        single = _relay_structure(components, 1, {(("bc", "S"), 0): ("D",)}, order)
        rate_all(single, [(1.0,)])

    structures: dict[tuple[str, tuple], LowerStructure] = {}
    threads: dict[tuple[str, tuple], tuple[float, float]] = {}
    coarse = tuple(k / 8 for k in range(9))
    for family in ("strong", "direct"):
        for order in orders:
            structure = structures[(family, order)] = _relay_structure(
                components, 2, _relay_targets(family), order
            )
            shares = [share for share in coarse if family == "strong" or share != 0.0]
            rates = rate_all(structure, [(1.0 - share, share) for share in shares])
            for rate, share in zip(rates, shares):
                incumbent = threads.get((family, order))
                if incumbent is None or rate > incumbent[0] + _IMPROVE_TOL:
                    threads[(family, order)] = (rate, share)

    for (family, order), (_rate, center) in sorted(threads.items()):
        structure = structures[(family, order)]
        for step in (1 / 64, 1 / 512, 1 / 4096):
            candidates = sorted(
                {min(1.0, max(0.0, center + j * step)) for j in range(-8, 9)}
            )
            rates = rate_all(structure, [(1.0 - share, share) for share in candidates])
            local_best = None
            for rate, share in zip(rates, candidates):
                if local_best is None or rate > local_best[0] + _IMPROVE_TOL:
                    local_best = (rate, share)
            center = local_best[1]

    if winner is not None:
        node_ids, batch, row = winner
        certified = unicast_inner(node_ids, batch.arcs(row), demand).rate
        # The same bits unless the max flow left unused a path as thin as its
        # residual tolerance; its min-cut certificate bounds that gap.
        ok = certified <= best <= certified + 1e-9 * max(1.0, certified)
        assert ok, f"cut rate {best} is not the max flow {certified}"
        best = certified
    return best


def relay_experiment(
    gamma_sd_db: float,
    gamma_rd_db: float,
    gamma_sr_db_values,
) -> list[dict]:
    """Relay bounds next to the classical benchmarks, one row per sweep point."""
    gamma_sd = db_to_linear(gamma_sd_db)
    gamma_rd = db_to_linear(gamma_rd_db)
    rows = []
    for gamma_sr_db in gamma_sr_db_values:
        gamma_sr = db_to_linear(gamma_sr_db)
        components = decompose(relay_network(gamma_sd, gamma_sr, gamma_rd))
        spec = RelaySpec(gamma_sd=gamma_sd, gamma_sr=gamma_sr, gamma_rd=gamma_rd)
        rows.append(
            {
                "gamma_sr_db": gamma_sr_db,
                "eq_upper": relay_eq_upper(components),
                "eq_lower": relay_eq_lower(components),
                "cutset": cutset_bound(spec),
                "df": df_bound(spec),
                "cf": cf_bound(spec),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# layered line network


def layered_network(num_pairs: int, gamma: float) -> NoisyNetwork:
    """Line network of `num_pairs` source/sink pairs with equal-SNR links.

    Sources S1..Sn relay each other's traffic down the source chain, a single
    link from Sn feeds the relay chain R1..Rn, and each Ri serves its sink Di.
    Every Si broadcasts to S(i+1) and R(i+1); every R(i+1) hears Si and Ri.
    """
    if num_pairs < 2:
        raise ValueError("the line network needs at least two source/sink pairs")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma:g}")
    n = num_pairs
    nodes = tuple(
        Node(id=f"{prefix}{i}")
        for prefix in ("S", "R", "D")
        for i in range(1, n + 1)
    )
    links = []
    for i in range(1, n):
        links.append(NoisyLink(src=f"S{i}", dst=f"S{i + 1}", kind="awgn", snr=gamma))
        links.append(NoisyLink(src=f"S{i}", dst=f"R{i + 1}", kind="awgn", snr=gamma))
        links.append(NoisyLink(src=f"R{i}", dst=f"R{i + 1}", kind="awgn", snr=gamma))
        links.append(NoisyLink(src=f"R{i}", dst=f"D{i}", kind="awgn", snr=gamma))
    links.append(NoisyLink(src=f"S{n}", dst="R1", kind="awgn", snr=gamma))
    links.append(NoisyLink(src=f"R{n}", dst=f"D{n}", kind="awgn", snr=gamma))
    demands = tuple(
        Demand(kind="unicast", source=f"S{i}", sinks=frozenset({f"D{i}"}))
        for i in range(1, n + 1)
    )
    return NoisyNetwork(nodes=nodes, links=tuple(links), demands=demands)


def layered_experiment(num_pairs: int, gamma: float) -> dict:
    """Symmetric-rate bounds on the line network against their closed forms.

    The outer flow equals C(gamma)/n at every alpha because the single link
    out of the source chain caps the session sum. The inner bound blends n
    decode-order schedules (schedule k gives sources priority at the first k
    relay stages), which realizes interior multi-access operating points and
    lands on min(C(gamma)/n, C(2*gamma)/(n+1)). Both identities are asserted
    to 1e-6; a violation raises RuntimeError.
    """
    net = layered_network(num_pairs, gamma)
    components = decompose(net)
    demands = net.demands
    n = num_pairs
    link_rate = awgn_capacity(gamma)
    bc_sum_rate = awgn_capacity(3.0 * gamma)
    sic_sum_rate = awgn_capacity(2.0 * gamma)
    capacity_sym = link_rate / n
    inner_sym_closed = min(capacity_sym, sic_sum_rate / (n + 1))
    regime = "capacity" if capacity_sym <= sic_sum_rate / (n + 1) else "mac_sum"

    rows = []
    upper = UpperStructure(components)
    spec = MacSpec(gammas=(gamma, gamma))
    mac_rates = mac_upper([(spec, alpha) for alpha in ALPHA_GRID])
    for alpha, rates in zip(ALPHA_GRID, mac_rates):
        arcs = upper.arcs(alpha)
        results = hyper_inner(upper.node_ids, arcs, demands, objective="maxmin")
        outer_sym = min(result.rate for result in results)
        if abs(outer_sym - capacity_sym) > 1e-6:
            raise RuntimeError(
                f"outer symmetric rate {outer_sym:.9f} at alpha={alpha:g} deviates "
                f"from the closed form {capacity_sym:.9f}"
            )
        rows.append(
            {
                "alpha": alpha,
                "link_rate": link_rate,
                "bc_sum_rate": bc_sum_rate,
                "mac_input_rate": rates.individual[0],
                "mac_sum_rate": rates.sum_rate,
                "sic_sum_rate": sic_sum_rate,
                "outer_sym_flow": outer_sym,
                "capacity_sym": capacity_sym,
            }
        )

    schedules = []
    for stage in range(n):
        order = {}
        for i in range(1, n):
            if i <= stage:
                order[("mac", f"R{i + 1}")] = (f"S{i}", f"R{i}")
            else:
                order[("mac", f"R{i + 1}")] = (f"R{i}", f"S{i}")
        schedules.append(LowerStructure(components, LowerParams(mac_order=order)))
    results, weights = blend_inner(
        schedules[0].node_ids,
        [lower.arcs({}) for lower in schedules],
        demands,
        objective="maxmin",
    )
    inner_sym = min(result.rate for result in results)
    if abs(inner_sym - inner_sym_closed) > 1e-6:
        raise RuntimeError(
            f"inner symmetric rate {inner_sym:.9f} deviates from the closed form "
            f"{inner_sym_closed:.9f}"
        )
    return {
        "num_pairs": n,
        "gamma": gamma,
        "rows": rows,
        "inner_sym_flow": inner_sym,
        "inner_sym_closed": inner_sym_closed,
        "regime": regime,
        "weights": weights,
    }


# ---------------------------------------------------------------------------
# multicast fan


def multicast_network(
    num_receivers: int, power: float, delta_power: float, q: int, xi: float
) -> NoisyNetwork:
    """Two sources multicasting to a fan of receivers, plus a collaboration link.

    Receiver k hears source S1 at power - (k/n)*delta_power and source S2 at
    power + (k/n)*delta_power, so S1 fades and S2 strengthens along the fan.
    A q-ary symmetric link from S1 to S2 lets the sources collaborate.
    """
    if num_receivers < 2:
        raise ValueError("need at least two receivers")
    if not power > delta_power > 0:
        raise ValueError("need power > delta_power > 0 so every SNR stays positive")
    n = num_receivers
    width = len(str(n))
    names = [f"D{k:0{width}d}" for k in range(1, n + 1)]
    nodes = (Node(id="S1"), Node(id="S2"), *(Node(id=name) for name in names))
    links = [NoisyLink(src="S1", dst="S2", kind="qsc", q=q, xi=xi)]
    for k, name in enumerate(names, start=1):
        links.append(
            NoisyLink(src="S1", dst=name, kind="awgn", snr=power - (k / n) * delta_power)
        )
        links.append(
            NoisyLink(src="S2", dst=name, kind="awgn", snr=power + (k / n) * delta_power)
        )
    demands = (
        Demand(kind="multicast", source="S1", sinks=frozenset(names)),
        Demand(kind="multicast", source="S2", sinks=frozenset(names)),
    )
    return NoisyNetwork(nodes=nodes, links=tuple(links), demands=demands)


def multicast_eq_upper(components, sinks, alphas=ALPHA_GRID) -> float:
    """Outer bound on the sum rate: joint-source flow to the worst receiver.

    Any pair of achievable session rates is also achievable when both sources
    share one encoder, so the min-cut from a merged source to each sink caps
    the session sum: the multicast outer bound from the merged source.
    Minimized over the noise-split sweep, on one upper structure's arcs plus
    infinite arcs from the merged source JOINT_SRC (``_`` added while taken),
    labelled "joint source"; see `flows.least_outer` for the search.
    """
    structure = UpperStructure(components)
    name = "JOINT_SRC"
    while name in structure.node_ids:
        name = name + "_"
    node_ids = (*structure.node_ids, name)
    demand = Demand(kind="multicast", source=name, sinks=frozenset(sinks))
    batch = structure.rate_batch(alphas)
    batch = UpperBatch(
        (*batch.slots, (name, ("S1",)), (name, ("S2",))),
        np.hstack([batch.rates, np.full((len(batch.alphas), 2), math.inf)]),
        batch.alphas,
        (*batch.labels, "joint source", "joint source"),
    )
    return least_outer(node_ids, [batch], demand)[0]


def multicast_eq_lower(net: NoisyNetwork, components) -> float:
    """Achievable sum rate over superposition and decode-order candidates.

    Candidates: a common layer only (each global decode order), and split
    constructions where S1 sends a private layer to the receivers that hear
    it strongest (the low end of the fan) while S2 covers the high end, over
    two private-share values and three decode-order policies. Each (split,
    decode order) structure is built once and rated at both shares, and the
    candidates are listed share by share, each as the arcs of
    `LowerStructure.arcs`.

    Each candidate is scored by the sum-objective routing LP on its arcs, and
    `flows.best_inner` finds the best total: it ranks the candidates by their
    `flows.sum_rate_cut` (the least total rate entering a receiver, which
    every session must reach) and routes them best first, so only those
    whose cut could still beat or tie the best routed total are routed. The
    result is bit for bit that of routing every candidate.
    """
    demands = net.demands
    sinks = sorted(demands[0].sinks)
    n = len(sinks)
    key1, key2 = ("bc", "S1"), ("bc", "S2")
    s1_first = {("mac", sink): ("S1", "S2") for sink in sinks}
    s2_first = {("mac", sink): ("S2", "S1") for sink in sinks}

    common = [
        LowerStructure(components, LowerParams(mac_order=order)) for order in (s2_first, s1_first)
    ]
    candidates = [structure.arcs({}) for structure in common]
    all_targets = tuple(sinks)
    two_layers = {key1: (1.0, 0.0), key2: (1.0, 0.0)}
    for split in range(1, n):
        targets = {
            (key1, 0): all_targets,
            (key1, 1): tuple(sinks[:split]),
            (key2, 0): all_targets,
            (key2, 1): tuple(sinks[split:]),
        }
        aligned = {
            ("mac", sink): (("S2", "S1") if index < split else ("S1", "S2"))
            for index, sink in enumerate(sinks)
        }
        structures = [
            LowerStructure(
                components,
                LowerParams(
                    bc_betas=two_layers, mac_order=order, bc_decode_targets=targets
                ),
            )
            for order in (s2_first, s1_first, aligned)
        ]
        for share in (0.125, 0.25):
            betas = {key1: (1.0 - share, share), key2: (1.0 - share, share)}
            candidates += [structure.arcs(betas) for structure in structures]
    [(total, _index)] = best_inner(common[0].node_ids, candidates, demands, "sum")
    return total


def multicast_experiment(
    num_receivers: int,
    p_db_values,
    delta_ratio_db: float,
    q: int,
    xi: float,
) -> list[dict]:
    """Sum-rate bounds for the two-source fan, one row per power level.

    The coop benchmark is the worst-receiver coherent-combining rate, the mac
    benchmark the worst-receiver non-coherent sum rate, each taken from the
    SNRs of the decomposed MAC components; both close over the fan since
    received powers pair up to 2P.
    """
    ratio = db_to_linear(delta_ratio_db)
    c12 = qsc_capacity(q, xi)
    rows = []
    for p_db in p_db_values:
        power = db_to_linear(p_db)
        delta_power = power * ratio
        net = multicast_network(num_receivers, power, delta_power, q, xi)
        components = decompose(net)
        sinks = sorted(net.demands[0].sinks)
        specs = [MacSpec(comp.gamma_list()) for comp in components if comp.kind == "mac"]
        coop = min(awgn_capacity(spec.coherent_sum_snr) for spec in specs)
        mac = min(awgn_capacity(ltr_sum(spec.gammas)) for spec in specs)
        rows.append(
            {
                "p_db": p_db,
                "eq_upper_sum": multicast_eq_upper(components, sinks),
                "eq_lower_sum": multicast_eq_lower(net, components),
                "coop": coop,
                "mac": mac,
                "c12": c12,
            }
        )
    return rows
