"""Command-line front end for the bounding-network toolkit.

Subcommands:
    bounds     Parse a network file, sweep the bounding-model parameters, and
               report the best outer and inner rate bound per demand.
    decouple   Parse a network file and print its decoupled channel
               components, including shared noise partitions.
    validate   Parse a network file and dry-run both bounding constructions,
               reporting any structural problems.
    repro      Deterministic experiment sweeps (relay, layered, multicast)
               that emit CSV tables.

SNR parameters cross this boundary in dB and are converted to linear scale
here; library code works in linear scale throughout. Every CSV starts with a
'#'-prefixed comment block carrying the tool version and the exact
invocation, rows appear in sweep order, and no timestamps or machine state
are recorded, so identical invocations produce byte-identical output.

Exit codes: 0 on success, 2 on input problems (unreadable or malformed
files, bad parameter syntax), 3 on internal problems (solver failures,
violated numerical checks).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import shlex
import sys
from pathlib import Path

from . import __version__
from .assemble import (
    LowerParams,
    LowerStructure,
    UpperParams,
    UpperStructure,
    build_lower,
    build_upper,
    link_capacity,
)
from .bc import simplex_grid
from .benchmarks import RelaySpec, cf_bound, cutset_bound, df_bound
from .decouple import decompose
from .flows import (
    blend_inner,
    combine_bounds,
    hyper_inner,
    max_flow,
    max_flow_arcs,
    multicast_outer,
    multicast_outer_arcs,
    sum_rate_cut,
    unicast_inner,
    unicast_inner_arcs,
)
from .info import awgn_capacity, db_to_linear, qsc_capacity
from .mac import MacSpec, mac_upper
from .netmodel import (
    Demand,
    NetworkFormatError,
    Node,
    NoiselessNetwork,
    NoisyLink,
    NoisyNetwork,
    parse_network,
    validate_bounding_network,
)

# Default sweep over the noise fraction assigned to the multi-access sum
# constraint; alpha = 1 recovers the classical sum rate.
ALPHA_GRID = tuple(k / 10 for k in range(11))

# A candidate replaces the incumbent only on strict improvement beyond this
# tolerance, so earlier-enumerated (simpler) constructions win exact ties.
_IMPROVE_TOL = 1e-9

# Margin of multicast_eq_lower's cut test: far above the slack (about 1e-8)
# that validate_hyper_result's tolerances leave a solved total over its cut.
_CUT_MARGIN = 1e-6

_MAX_BETA_COMBOS = 4096
_MAX_SWEEP_POINTS = 10_000

C12_NOTE = (
    "the q=8, xi=0.1 collaboration link has capacity "
    "log2(8) - H(0.1) - 0.1*log2(7) = 2.250269 bits per use; a previously "
    "circulated figure of 2.85 bits for the same link does not follow from "
    "this formula under any logarithm base, so the formula value is used"
)


def _fmt(value: float) -> str:
    """Fixed-precision cell formatting so output is byte-stable."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.9f}"


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a start:stop:step sweep into an inclusive tuple of floats.

    The stop value is included whenever it sits within 1e-9 of a grid point,
    so "0:1:0.1" yields eleven values despite binary rounding. A sweep of
    more than _MAX_SWEEP_POINTS values is refused before any is made.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ValueError(f"sweep must hold three numbers, got {text!r}") from None
    if not all(math.isfinite(value) for value in (start, stop, step)):
        raise ValueError(f"sweep values must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"sweep step must be positive, got {step:g}")
    if stop < start:
        raise ValueError(f"sweep stop {stop:g} lies below start {start:g}")
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep {text!r} would hold more than {_MAX_SWEEP_POINTS} points; "
            "widen the step"
        )
    count = int(math.floor(steps)) + 1
    return tuple(start + k * step for k in range(count))


def _load_network(path: str) -> NoisyNetwork:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkFormatError(f"cannot read {path}: {exc}") from None
    return parse_network(text)


def _write_csv(stream, header_lines, columns, rows) -> None:
    for line in header_lines:
        stream.write(f"# {line}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def _emit_csv(args, extra_header, columns, rows) -> None:
    header = [
        f"netbounds {__version__}",
        f"invocation: netbounds {args.invocation}".rstrip(),
        *extra_header,
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            _write_csv(stream, header, columns, rows)
        print(f"wrote {args.out}")
    else:
        _write_csv(sys.stdout, header, columns, rows)


def _link_detail(link: NoisyLink) -> str:
    if link.kind == "awgn":
        return f"awgn snr={link.snr:g}"
    if link.kind == "qsc":
        return f"qsc q={link.q} xi={link.xi:g}"
    return f"bsc eps={link.eps:g}"


# ---------------------------------------------------------------------------
# bounds


def _beta_steps(step: float) -> int:
    if not 0 < step <= 1:
        raise ValueError(f"beta step must lie in (0, 1], got {step:g}")
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise ValueError(f"beta step must divide 1 evenly, got {step:g}")
    return count


def _inner_rates(lower: NoiselessNetwork, demands) -> dict[Demand, float]:
    demands = tuple(demands)
    if len(demands) == 1 and demands[0].kind == "unicast":
        return {demands[0]: unicast_inner(lower, demands[0]).rate}
    results = hyper_inner(lower, demands, objective="maxmin")
    return {result.demand: result.rate for result in results}


def _component_counts(components) -> dict[str, int]:
    counts = {"bc": 0, "mac": 0, "p2p": 0}
    for comp in components:
        counts[comp.kind] += 1
    return counts


def cmd_bounds(args) -> int:
    net = _load_network(args.file)
    if not net.demands:
        raise NetworkFormatError(f"{args.file}: no demands; nothing to bound")
    components = decompose(net)
    alphas = parse_grid(args.alpha_grid)
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0 + 1e-12:
            raise ValueError(f"alpha sweep value {alpha:g} lies outside [0, 1]")
    steps = _beta_steps(args.beta_step)
    mac_keys = [comp.key for comp in components if comp.kind == "mac"]
    bc_comps = [comp for comp in components if comp.kind == "bc"]

    outer_runs = []
    for alpha in alphas:
        upper = build_upper(
            components, UpperParams(mac_alpha={key: min(alpha, 1.0) for key in mac_keys})
        )
        problems = validate_bounding_network(upper, "upper")
        if problems:
            raise RuntimeError("upper network failed validation: " + "; ".join(problems))
        rates = {}
        for demand in net.demands:
            if demand.kind == "unicast":
                rates[demand] = max_flow(upper, demand).rate
            else:
                rates[demand] = multicast_outer(upper, demand).rate
        outer_runs.append((f"upper alpha={alpha:g}", rates))

    grids = [list(simplex_grid(len(comp.links), steps)) for comp in bc_comps]
    total = math.prod(len(grid) for grid in grids)
    if total > _MAX_BETA_COMBOS:
        raise ValueError(
            f"beta sweep would evaluate {total} share combinations "
            f"(cap {_MAX_BETA_COMBOS}); coarsen --beta-step"
        )
    inner_runs = []
    structure = LowerStructure(components)
    for combo in itertools.product(*grids):
        lower = structure.network(
            {comp.key: betas for comp, betas in zip(bc_comps, combo)}
        )
        problems = validate_bounding_network(lower, "lower")
        if problems:
            raise RuntimeError("lower network failed validation: " + "; ".join(problems))
        if combo:
            label = "lower " + " ".join(
                f"{comp.key[1]}=" + "/".join(f"{beta:g}" for beta in betas)
                for comp, betas in zip(bc_comps, combo)
            )
        else:
            label = "lower default"
        inner_runs.append((label, _inner_rates(lower, net.demands)))

    report = combine_bounds(outer_runs, inner_runs)

    counts = _component_counts(components)
    lines = [
        f"netbounds {__version__}",
        f"file: {args.file}",
        (
            f"network: {len(net.nodes)} nodes, {len(net.links)} links, "
            f"{len(net.demands)} demands"
        ),
        (
            f"components: {counts['bc']} broadcast, {counts['mac']} multi-access, "
            f"{counts['p2p']} point-to-point"
        ),
        (
            f"runs: {len(outer_runs)} outer (alpha sweep {args.alpha_grid}), "
            f"{len(inner_runs)} inner (beta step {args.beta_step:g})"
        ),
    ]
    rows = []
    for demand in net.demands:
        outer_rate, outer_label = report.outer[demand]
        inner_rate, inner_label = report.inner[demand]
        sinks = ";".join(demand.sink_list)
        gap = outer_rate - inner_rate
        lines.append("")
        lines.append(f"demand {demand.source} -> {sinks} ({demand.kind})")
        lines.append(f"  outer {_fmt(outer_rate)}  via {outer_label}")
        lines.append(f"  inner {_fmt(inner_rate)}  via {inner_label}")
        lines.append(f"  gap   {_fmt(gap)}")
        rows.append(
            [
                demand.source,
                sinks,
                demand.kind,
                _fmt(outer_rate),
                outer_label,
                _fmt(inner_rate),
                inner_label,
                _fmt(gap),
            ]
        )
    print("\n".join(lines))
    if args.out:
        _emit_csv(
            args,
            [f"file: {args.file}"],
            [
                "source",
                "sinks",
                "kind",
                "outer_rate",
                "outer_label",
                "inner_rate",
                "inner_label",
                "gap",
            ],
            rows,
        )
    violations = report.sandwich_violations()
    if violations:
        for violation in violations:
            print(f"internal error: {violation}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# decouple / validate


def cmd_decouple(args) -> int:
    net = _load_network(args.file)
    components = decompose(net)
    print(f"{len(components)} components")
    for index, comp in enumerate(components, start=1):
        tag = ", coupled noise partition" if comp.coupled else ""
        if comp.kind == "p2p":
            link = comp.links[0]
            head = f"point-to-point {link.src} -> {link.dst}"
        elif comp.kind == "bc":
            receivers = ", ".join(link.dst for link in comp.links)
            head = f"broadcast {comp.inputs[0]} -> {receivers}"
        else:
            senders = ", ".join(link.src for link in comp.links)
            head = f"multi-access {senders} -> {comp.outputs[0]}"
        print(f"component {index}: {head}{tag}")
        for link in comp.links:
            extras = []
            if comp.kind == "p2p":
                extras.append(f"capacity={link_capacity(link):.6g}")
            elif link in comp.effective_snrs:
                extras.append(f"effective_snr={comp.effective_snrs[link]:.6g}")
            if link in comp.alpha_shares:
                extras.append(f"noise_share={comp.alpha_shares[link]:.6g}")
            if link in comp.shared_links:
                extras.append("shared")
            suffix = "  " + " ".join(extras) if extras else ""
            print(f"  {link.src} -> {link.dst}: {_link_detail(link)}{suffix}")
    return 0


def cmd_validate(args) -> int:
    net = _load_network(args.file)
    components = decompose(net)
    upper = build_upper(components)
    lower = build_lower(components)
    problems = validate_bounding_network(upper, "upper")
    problems += validate_bounding_network(lower, "lower")
    links = {"awgn": 0, "qsc": 0, "bsc": 0}
    for link in net.links:
        links[link.kind] += 1
    counts = _component_counts(components)
    print(f"nodes: {len(net.nodes)}")
    print(
        f"links: {len(net.links)} "
        f"(awgn {links['awgn']}, qsc {links['qsc']}, bsc {links['bsc']})"
    )
    print(f"demands: {len(net.demands)}")
    print(
        f"components: {len(components)} (broadcast {counts['bc']}, "
        f"multi-access {counts['mac']}, point-to-point {counts['p2p']})"
    )
    print(f"upper network: {len(upper.pipes)} pipes; lower network: {len(lower.pipes)} pipes")
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 3
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# repro relay


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


_RELAY_SOURCE_SETS = (frozenset({"S"}), frozenset({"S", "R"}))


def _relay_demand() -> Demand:
    return Demand(kind="unicast", source="S", sinks=frozenset({"D"}))


def relay_eq_upper(components, alphas=ALPHA_GRID) -> float:
    """Tightest flow bound over the noise-split sweep and both receiver orders
    of the cumulative BC upper model: one upper structure per order."""
    demand = _relay_demand()
    structures = [
        UpperStructure(components, {("bc", "S"): perm}) for perm in (("D", "R"), ("R", "D"))
    ]
    best = float("inf")
    for alpha in alphas:
        for structure in structures:
            arcs = [arc[:3] for arc in structure.arcs({("mac", "D"): alpha})]
            best = min(best, max_flow_arcs(structure.node_ids, arcs, demand).rate)
    return best


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


def _relay_cut_rate(arcs, crossing: dict) -> float:
    """The least total, over the relay's source-side sets {S} and {S, R}, of
    the ``(tail, heads, rate, label)`` arcs leaving the set, summed in arc
    order; a hyper-arc counts once if any head is outside. By max-flow/min-cut
    on the split-node rewrite, this is `unicast_inner_arcs`' rate. ``crossing``
    keeps the sets each ``(tail, heads)`` leaves: one dict per structure."""
    totals = [0.0] * len(_RELAY_SOURCE_SETS)
    for tail, heads, rate, _ in arcs:
        cuts = crossing.get((tail, heads))
        if cuts is None:
            cuts = crossing[(tail, heads)] = tuple(
                k
                for k, side in enumerate(_RELAY_SOURCE_SETS)
                if tail in side and not side.issuperset(heads)
            )
        for k in cuts:
            totals[k] += rate
    return min(totals)


def relay_eq_lower(components) -> float:
    """Best achievable rate over superposition splits and decode orders.

    Candidates are enumerated from simplest to richest and only a strict
    improvement replaces the incumbent, so when the relay cannot help the
    relay-off construction is reported and the direct-link capacity is hit
    exactly. The per-family share search starts on a coarse 1/8 grid and
    zooms three times around the best point. Each (targets, decode order)
    structure is built once and rated for every share, as arcs: no candidate
    becomes a network of pipes.

    Candidates are rated by `_relay_cut_rate`. The reported rate is the
    winner's certified `unicast_inner_arcs` max flow, one per search, which
    equals the winner's cut rate bit for bit unless an arc is thinner than
    the max flow's residual tolerance.
    """
    orders = (("R", "S"), ("S", "R"))
    demand = _relay_demand()
    best, winner = 0.0, None
    crossings: dict[LowerStructure, dict] = {}

    def rate_at(structure: LowerStructure, betas) -> float:
        """The candidate's cut rate; a strict improvement becomes the winner."""
        nonlocal best, winner
        arcs = structure.arcs({("bc", "S"): betas})
        rate = _relay_cut_rate(arcs, crossings.setdefault(structure, {}))
        if rate > best + _IMPROVE_TOL:
            best, winner = rate, (structure.node_ids, arcs)
        return rate

    for order in orders:
        single = _relay_structure(components, 1, {(("bc", "S"), 0): ("D",)}, order)
        rate_at(single, (1.0,))

    structures: dict[tuple[str, tuple], LowerStructure] = {}
    threads: dict[tuple[str, tuple], tuple[float, float]] = {}
    coarse = tuple(k / 8 for k in range(9))
    for family in ("strong", "direct"):
        for order in orders:
            structure = structures[(family, order)] = _relay_structure(
                components, 2, _relay_targets(family), order
            )
            for share in coarse:
                if family == "direct" and share == 0.0:
                    continue
                rate = rate_at(structure, (1.0 - share, share))
                incumbent = threads.get((family, order))
                if incumbent is None or rate > incumbent[0] + _IMPROVE_TOL:
                    threads[(family, order)] = (rate, share)

    for (family, order), (_rate, center) in sorted(threads.items()):
        structure = structures[(family, order)]
        for step in (1 / 64, 1 / 512, 1 / 4096):
            candidates = sorted(
                {min(1.0, max(0.0, center + j * step)) for j in range(-8, 9)}
            )
            local_best = None
            for share in candidates:
                rate = rate_at(structure, (1.0 - share, share))
                if local_best is None or rate > local_best[0] + _IMPROVE_TOL:
                    local_best = (rate, share)
            center = local_best[1]

    if winner is not None:
        node_ids, arcs = winner
        certified = unicast_inner_arcs(node_ids, [arc[:3] for arc in arcs], demand).rate
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
    alphas=ALPHA_GRID,
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
                "eq_upper": relay_eq_upper(components, alphas),
                "eq_lower": relay_eq_lower(components),
                "cutset": cutset_bound(spec),
                "df": df_bound(spec),
                "cf": cf_bound(spec),
            }
        )
    return rows


def cmd_repro_relay(args) -> int:
    grid = parse_grid(args.gamma_sr_db)
    rows = relay_experiment(args.gamma_sd_db, args.gamma_rd_db, grid)
    table = [
        [
            f"{row['gamma_sr_db']:g}",
            _fmt(row["eq_upper"]),
            _fmt(row["eq_lower"]),
            _fmt(row["cutset"]),
            _fmt(row["df"]),
            _fmt(row["cf"]),
            f"{args.gamma_sd_db:g}",
            f"{args.gamma_rd_db:g}",
        ]
        for row in rows
    ]
    _emit_csv(
        args,
        ["experiment: three-node relay bounds sweep"],
        [
            "gamma_sr_db",
            "eq_upper",
            "eq_lower",
            "cutset",
            "df",
            "cf",
            "gamma_sd_db",
            "gamma_rd_db",
        ],
        table,
    )
    return 0


# ---------------------------------------------------------------------------
# repro layered


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


def layered_experiment(num_pairs: int, gamma: float, alphas=ALPHA_GRID) -> dict:
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
    mac_keys = [comp.key for comp in components if comp.kind == "mac"]

    rows = []
    for alpha in alphas:
        upper = build_upper(
            components, UpperParams(mac_alpha={key: alpha for key in mac_keys})
        )
        results = hyper_inner(upper, demands, objective="maxmin")
        outer_sym = min(result.rate for result in results)
        if abs(outer_sym - capacity_sym) > 1e-6:
            raise RuntimeError(
                f"outer symmetric rate {outer_sym:.9f} at alpha={alpha:g} deviates "
                f"from the closed form {capacity_sym:.9f}"
            )
        mac_rates, _partition = mac_upper(MacSpec(gammas=(gamma, gamma)), alpha)
        rows.append(
            {
                "alpha": alpha,
                "link_rate": link_rate,
                "bc_sum_rate": bc_sum_rate,
                "mac_input_rate": mac_rates.individual[0],
                "mac_sum_rate": mac_rates.sum_rate,
                "sic_sum_rate": sic_sum_rate,
                "outer_sym_flow": outer_sym,
                "capacity_sym": capacity_sym,
            }
        )

    runs = []
    for stage in range(n):
        order = {}
        for i in range(1, n):
            if i <= stage:
                order[("mac", f"R{i + 1}")] = (f"S{i}", f"R{i}")
            else:
                order[("mac", f"R{i + 1}")] = (f"R{i}", f"S{i}")
        runs.append(build_lower(components, LowerParams(mac_order=order)))
    results, weights = blend_inner(runs, demands, objective="maxmin")
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


def cmd_repro_layered(args) -> int:
    gamma = db_to_linear(args.gamma_db)
    result = layered_experiment(args.pairs, gamma)
    table = [
        [
            str(args.pairs),
            f"{args.gamma_db:g}",
            f"{row['alpha']:g}",
            _fmt(row["link_rate"]),
            _fmt(row["bc_sum_rate"]),
            _fmt(row["mac_input_rate"]),
            _fmt(row["mac_sum_rate"]),
            _fmt(row["sic_sum_rate"]),
            _fmt(row["outer_sym_flow"]),
            _fmt(row["capacity_sym"]),
            _fmt(result["inner_sym_flow"]),
            _fmt(result["inner_sym_closed"]),
            result["regime"],
        ]
        for row in result["rows"]
    ]
    _emit_csv(
        args,
        ["experiment: layered line network symmetric rate"],
        [
            "pairs",
            "gamma_db",
            "alpha",
            "link_rate",
            "bc_sum_rate",
            "mac_input_rate",
            "mac_sum_rate",
            "sic_sum_rate",
            "outer_sym_flow",
            "capacity_sym",
            "inner_sym_flow",
            "inner_sym_closed",
            "regime",
        ],
        table,
    )
    return 0


# ---------------------------------------------------------------------------
# repro multicast


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
    infinite arcs from the merged source JOINT_SRC (``_`` added while taken).
    """
    mac_keys = [comp.key for comp in components if comp.kind == "mac"]
    structure = UpperStructure(components)
    name = "JOINT_SRC"
    while name in structure.node_ids:
        name = name + "_"
    node_ids = (*structure.node_ids, name)
    feeds = [(name, (source,), math.inf) for source in ("S1", "S2")]
    demand = Demand(kind="multicast", source=name, sinks=frozenset(sinks))
    best = float("inf")
    for alpha in alphas:
        arcs = [arc[:3] for arc in structure.arcs({key: alpha for key in mac_keys})]
        best = min(best, multicast_outer_arcs(node_ids, arcs + feeds, demand).rate)
    return best


def multicast_eq_lower(net: NoisyNetwork, components) -> float:
    """Achievable sum rate over superposition and decode-order candidates.

    Candidates: a common layer only (each global decode order), and split
    constructions where S1 sends a private layer to the receivers that hear
    it strongest (the low end of the fan) while S2 covers the high end, over
    two private-share values and three decode-order policies. Each candidate
    is scored by the sum-objective routing LP on the lower network. Each
    (split, decode order) structure is built once and rated at both shares;
    candidates are scored share by share, so ties resolve as listed.

    Each candidate is rated as arcs first, and its sum_rate_cut (the least
    total rate entering a receiver, which every session must reach) is
    compared with the incumbent: the LP is skipped when the cut plus
    _CUT_MARGIN cannot beat the incumbent by more than _IMPROVE_TOL. A
    solved total exceeds its cut by at most the validator's slack (about
    1e-8), far below the margin, so a skipped candidate could never have
    replaced the incumbent and the result is bit for bit the exhaustive
    search's; each solved total is checked against its cut. Only the
    candidates that reach the LP become networks of pipes.
    """
    demands = net.demands
    sinks = sorted(demands[0].sinks)
    n = len(sinks)
    key1, key2 = ("bc", "S1"), ("bc", "S2")
    s1_first = {("mac", sink): ("S1", "S2") for sink in sinks}
    s2_first = {("mac", sink): ("S2", "S1") for sink in sinks}

    best = 0.0

    def consider(structure: LowerStructure, betas) -> None:
        nonlocal best
        arcs = structure.arcs(betas)
        cut = sum_rate_cut([(heads, rate) for _, heads, rate, _ in arcs], demands)
        if cut + _CUT_MARGIN <= best + _IMPROVE_TOL:
            return
        results = hyper_inner(structure.network_of(arcs), demands, objective="sum")
        total = sum(result.rate for result in results)
        assert total <= cut + _CUT_MARGIN, f"rate total {total} exceeds cut {cut}"
        if total > best + _IMPROVE_TOL:
            best = total

    for order in (s2_first, s1_first):
        consider(LowerStructure(components, LowerParams(mac_order=order)), {})

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
            for structure in structures:
                consider(structure, betas)
    return best


def multicast_experiment(
    num_receivers: int,
    p_db_values,
    delta_ratio_db: float,
    q: int,
    xi: float,
    alphas=ALPHA_GRID,
) -> list[dict]:
    """Sum-rate bounds for the two-source fan, one row per power level.

    The coop benchmark is the worst-receiver coherent-combining rate, the mac
    benchmark the worst-receiver non-coherent sum rate; both close over the
    fan since received powers pair up to 2P.
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
        n = num_receivers
        coop = min(
            awgn_capacity(
                (
                    math.sqrt(power - (k / n) * delta_power)
                    + math.sqrt(power + (k / n) * delta_power)
                )
                ** 2
            )
            for k in range(1, n + 1)
        )
        mac = min(
            awgn_capacity(
                (power - (k / n) * delta_power) + (power + (k / n) * delta_power)
            )
            for k in range(1, n + 1)
        )
        rows.append(
            {
                "p_db": p_db,
                "eq_upper_sum": multicast_eq_upper(components, sinks, alphas),
                "eq_lower_sum": multicast_eq_lower(net, components),
                "coop": coop,
                "mac": mac,
                "c12": c12,
            }
        )
    return rows


def cmd_repro_multicast(args) -> int:
    grid = parse_grid(args.p_db)
    rows = multicast_experiment(
        args.receivers, grid, args.delta_ratio_db, args.q, args.xi
    )
    header = ["experiment: two-source multicast sum-rate bounds"]
    if args.q == 8 and abs(args.xi - 0.1) < 1e-12:
        header.append(f"note: {C12_NOTE}")
    table = [
        [
            f"{row['p_db']:g}",
            _fmt(row["eq_upper_sum"]),
            _fmt(row["eq_lower_sum"]),
            _fmt(row["coop"]),
            _fmt(row["mac"]),
            _fmt(row["c12"]),
            str(args.receivers),
            f"{args.delta_ratio_db:g}",
            str(args.q),
            f"{args.xi:g}",
        ]
        for row in rows
    ]
    _emit_csv(
        args,
        header,
        [
            "p_db",
            "eq_upper_sum",
            "eq_lower_sum",
            "coop",
            "mac",
            "c12",
            "receivers",
            "delta_ratio_db",
            "q",
            "xi",
        ],
        table,
    )
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbounds",
        description=(
            "Replace the noisy links of a memoryless network with noiseless "
            "bit pipes and bound the achievable rates by flow computations."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"netbounds {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    bounds = sub.add_parser(
        "bounds", help="outer and inner rate bounds for a network file"
    )
    bounds.add_argument("file", help="network description in JSON")
    bounds.add_argument(
        "--alpha-grid",
        default="0:1:0.1",
        metavar="A:B:S",
        help="noise-split sweep for multi-access sides (default 0:1:0.1)",
    )
    bounds.add_argument(
        "--beta-step",
        type=float,
        default=0.125,
        metavar="S",
        help="power-share grid step for broadcast sides (default 0.125)",
    )
    bounds.add_argument("--out", metavar="PATH", help="also write a CSV summary here")
    bounds.set_defaults(func=cmd_bounds)

    dec = sub.add_parser(
        "decouple", help="show the decoupled channel components of a network file"
    )
    dec.add_argument("file", help="network description in JSON")
    dec.set_defaults(func=cmd_decouple)

    val = sub.add_parser(
        "validate", help="parse a network file and dry-run both bounding constructions"
    )
    val.add_argument("file", help="network description in JSON")
    val.set_defaults(func=cmd_validate)

    repro = sub.add_parser("repro", help="deterministic experiment sweeps emitting CSV")
    repro_sub = repro.add_subparsers(dest="experiment", required=True, metavar="experiment")

    relay = repro_sub.add_parser(
        "relay", help="three-node relay bounds against classical benchmarks"
    )
    relay.add_argument(
        "--gamma-sd-db",
        type=float,
        default=0.0,
        help="source-destination SNR in dB (default 0)",
    )
    relay.add_argument(
        "--gamma-rd-db",
        type=float,
        default=10.0,
        help="relay-destination SNR in dB (default 10)",
    )
    relay.add_argument(
        "--gamma-sr-db",
        default="-10:30:1",
        metavar="A:B:S",
        help="source-relay SNR sweep in dB (default -10:30:1)",
    )
    relay.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    relay.set_defaults(func=cmd_repro_relay)

    layered = repro_sub.add_parser(
        "layered", help="layered line network symmetric rate against closed forms"
    )
    layered.add_argument(
        "--pairs", type=int, default=4, help="number of source/sink pairs (default 4)"
    )
    layered.add_argument(
        "--gamma-db", type=float, default=0.0, help="per-link SNR in dB (default 0)"
    )
    layered.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    layered.set_defaults(func=cmd_repro_layered)

    multicast = repro_sub.add_parser(
        "multicast", help="two-source multicast sum-rate bounds over a power sweep"
    )
    multicast.add_argument(
        "--receivers", type=int, default=10, help="number of receivers (default 10)"
    )
    multicast.add_argument(
        "--p-db",
        default="-5:25:1",
        metavar="A:B:S",
        help="power sweep in dB (default -5:25:1)",
    )
    multicast.add_argument(
        "--delta-ratio-db",
        type=float,
        default=-3.0,
        help="power spread relative to P in dB (default -3)",
    )
    multicast.add_argument(
        "--q", type=int, default=8, help="collaboration link alphabet size (default 8)"
    )
    multicast.add_argument(
        "--xi",
        type=float,
        default=0.1,
        help="collaboration link symbol error rate (default 0.1)",
    )
    multicast.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    multicast.set_defaults(func=cmd_repro_multicast)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    args.invocation = shlex.join(argv)
    try:
        return args.func(args)
    except (NetworkFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
