"""Assemble noiseless bounding networks from decoupled components.

The upper network replaces every component by its upper model: point-to-point
pipes routed through one auxiliary node per multi-terminal component, with a
link shared by a broadcast side and a multi-access side carried by a single
pipe at the larger of the two required rates. The rates come from
`bc.bc_upper_cumulative` and `mac.mac_upper`; point-to-point links get their
capacity from `link_capacity`.

The lower network replaces every component by an achievable coding scheme:
superposition layers on broadcast sides (hyper-arcs to the receivers that
decode each layer) and successive interference cancellation at multi-access
receivers. Both rate formulas live here, in `build_lower`, and nowhere else.
Couplings are handled in two steps: first `interference_ledger` fixes every
broadcast side's layers and every receiver's decode order and charges every
receiver with the power it will never decode, then `build_lower` computes all
rates against that ledger, so each rate in the lower network is achievable
with every cross-component interference accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bc import BcSpec, bc_upper_cumulative
from .decouple import DecoupledComponent
from .info import awgn_capacity, bsc_capacity, qsc_capacity
from .mac import MacSpec, mac_upper
from .netmodel import AUXILIARY, BitPipe, NoiselessNetwork, NoisyLink, Node

__all__ = [
    "UpperParams",
    "LowerParams",
    "InterferenceLedger",
    "link_capacity",
    "build_upper",
    "interference_ledger",
    "build_lower",
]


@dataclass(frozen=True)
class UpperParams:
    """Choices parameterizing the upper bounding network.

    `mac_alpha` maps a MAC component key ("mac", receiver) to the share of
    receiver noise backing the sum constraint; missing entries default to 1
    (full cooperation, unconstrained per-input pipes). `bc_perm` maps a BC
    component key ("bc", transmitter) to the receiver id order of the
    cumulative upper model; missing entries default to effective-SNR
    descending order.
    """

    mac_alpha: dict[tuple, float] = field(default_factory=dict)
    bc_perm: dict[tuple, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class LowerParams:
    """Choices parameterizing the lower bounding network.

    `bc_betas` maps a BC component key to per-layer power shares (nonnegative,
    summing to 1); the default puts all power in one layer decodable by every
    receiver. `mac_order` maps a MAC component key to the decode order as a
    tuple of input node ids; the default decodes stronger effective SNRs
    first. `bc_decode_targets` maps (BC key, layer index) to the receiver ids
    intended to decode that layer; targets must be nested (each layer's set
    contained in the previous layer's), and the default gives layer l the
    receivers at ascending-SNR positions l and above.
    """

    bc_betas: dict[tuple, tuple[float, ...]] = field(default_factory=dict)
    mac_order: dict[tuple, tuple[str, ...]] = field(default_factory=dict)
    bc_decode_targets: dict[tuple, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class InterferenceLedger:
    """Undecoded-power bookkeeping for the lower network.

    `gamma_residual[(i, j)]` is the received power from input i that receiver
    j never decodes. `receiver_floor[j]` is the total residual interference
    at j after all cancellation. `extrinsic[(i, j)]` is the interference from
    other inputs seen at j while decoding input i: residual power of inputs
    decoded earlier plus full power of inputs decoded later.
    `bc_layers[key]` holds a broadcast component's validated (betas, targets)
    per layer and `mac_order[key]` a multi-access component's decode order.
    """

    gamma_residual: dict[tuple[str, str], float]
    receiver_floor: dict[str, float]
    extrinsic: dict[tuple[str, str], float]
    bc_layers: dict[tuple, tuple[tuple[float, ...], tuple[tuple[str, ...], ...]]]
    mac_order: dict[tuple, tuple[str, ...]]

    def __post_init__(self):
        totals = _residual_totals(self.gamma_residual)
        for (i, j), value in self.gamma_residual.items():
            if value < -1e-12:
                raise AssertionError(f"negative residual at ({i}, {j}): {value}")
        for j, floor in self.receiver_floor.items():
            total = totals.get(j, 0)
            if abs(total - floor) > 1e-9:
                raise AssertionError(
                    f"receiver {j} floor {floor} != residual total {total}"
                )


def _residual_totals(residual: dict[tuple[str, str], float]) -> dict[str, float]:
    """Residual power per receiver, summed in one pass in the ledger's order."""
    totals: dict[str, float] = {}
    for (_i, j), value in residual.items():
        totals[j] = totals.get(j, 0) + value
    return totals


def link_capacity(link: NoisyLink) -> float:
    """Shannon capacity of one noisy link in bits per channel use."""
    if link.kind == "awgn":
        return awgn_capacity(link.snr)
    if link.kind == "bsc":
        return bsc_capacity(link.eps)
    if link.kind == "qsc":
        return qsc_capacity(link.q, link.xi)
    raise ValueError(f"unknown link kind {link.kind!r}")


def _component_maps(components):
    bc_by_key = {}
    mac_by_key = {}
    for comp in components:
        if comp.kind == "bc":
            bc_by_key[comp.key] = comp
        elif comp.kind == "mac":
            mac_by_key[comp.key] = comp
    return bc_by_key, mac_by_key


def _check_param_keys(params_map: dict, known: dict, label: str):
    for key in params_map:
        if key not in known:
            raise ValueError(f"{label} entry {key} matches no component")


def _bc_receivers(comp: DecoupledComponent) -> tuple[str, ...]:
    return tuple(link.dst for link in comp.links)


def _mac_inputs(comp: DecoupledComponent) -> tuple[str, ...]:
    return tuple(link.src for link in comp.links)


def _default_perm(comp: DecoupledComponent) -> tuple[str, ...]:
    receivers = _bc_receivers(comp)
    snrs = comp.gamma_list()
    return tuple(
        r for _, r in sorted(zip(snrs, receivers), key=lambda t: (-t[0], t[1]))
    )


def _p2p_pipe(link: NoisyLink) -> BitPipe:
    return BitPipe(
        tail=link.src,
        heads=(link.dst,),
        rate=link_capacity(link),
        provenance=f"p2p {link.kind} {link.src}->{link.dst}",
    )


def _all_nodes(components) -> tuple[str, ...]:
    names: list[str] = []
    for comp in components:
        for name in (*comp.inputs, *comp.outputs):
            if name not in names:
                names.append(name)
    return tuple(names)


def build_upper(components, params: UpperParams | None = None) -> NoiselessNetwork:
    """Build the point-to-point upper bounding network.

    Every broadcast component becomes pipes through an auxiliary node
    "<tx>_out": the transmitter feeds the auxiliary at the component sum rate
    and each receiver is fed at its cumulative-group rate. Every multi-access
    component becomes pipes through "<rx>_in": each input feeds the auxiliary
    at its per-input rate and the auxiliary feeds the receiver at the sum
    rate. A link on both a broadcast and a multi-access side becomes a single
    auxiliary-to-auxiliary pipe at the larger of its two rates; any lossless
    representation must support the bigger requirement.

    Args:
        components: output of decompose.
        params: upper-model choices; None means all defaults.

    Raises:
        ValueError: on parameter entries that match no component or invalid
            permutations.
    """
    params = params or UpperParams()
    bc_by_key, mac_by_key = _component_maps(components)
    _check_param_keys(params.mac_alpha, mac_by_key, "mac_alpha")
    _check_param_keys(params.bc_perm, bc_by_key, "bc_perm")

    nodes = [Node(id=name) for name in _all_nodes(components)]
    taken = {node.id for node in nodes}
    pipes: list[BitPipe] = []

    # Per-link rates demanded by each side, keyed by (src, dst).
    bc_rate: dict[tuple[str, str], float] = {}
    mac_rate: dict[tuple[str, str], float] = {}
    bc_label: dict[tuple[str, str], str] = {}
    mac_label: dict[tuple[str, str], str] = {}

    for comp in components:
        if comp.kind != "bc":
            continue
        tx = comp.inputs[0]
        receivers = _bc_receivers(comp)
        perm_ids = params.bc_perm.get(comp.key, _default_perm(comp))
        if sorted(perm_ids) != sorted(receivers):
            raise ValueError(
                f"bc_perm for {comp.key} must order receivers {sorted(receivers)}, "
                f"got {perm_ids}"
            )
        spec = BcSpec(gammas=comp.gamma_list())
        perm = tuple(receivers.index(r) for r in perm_ids)
        rv = bc_upper_cumulative(spec, perm)
        aux = f"{tx}_out"
        if aux in taken:
            raise ValueError(f"auxiliary id {aux!r} collides with a node id")
        taken.add(aux)
        nodes.append(Node(id=aux, kind=AUXILIARY))
        pipes.append(
            BitPipe(
                tail=tx,
                heads=(aux,),
                rate=rv.sum_rate,
                provenance=f"bc {tx}: sum over {len(receivers)} receivers",
            )
        )
        for position, receiver in enumerate(perm_ids):
            bc_rate[(tx, receiver)] = rv.individual[position]
            bc_label[(tx, receiver)] = (
                f"bc {tx}: receiver {receiver} (cumulative position {position + 1})"
            )

    for comp in components:
        if comp.kind != "mac":
            continue
        rx = comp.outputs[0]
        inputs = _mac_inputs(comp)
        alpha = params.mac_alpha.get(comp.key, 1.0)
        spec = MacSpec(gammas=comp.gamma_list())
        rv, _partition = mac_upper(spec, alpha)
        aux = f"{rx}_in"
        if aux in taken:
            raise ValueError(f"auxiliary id {aux!r} collides with a node id")
        taken.add(aux)
        nodes.append(Node(id=aux, kind=AUXILIARY))
        pipes.append(
            BitPipe(
                tail=aux,
                heads=(rx,),
                rate=rv.sum_rate,
                provenance=f"mac {rx}: sum (alpha={alpha:g})",
            )
        )
        for position, tx in enumerate(inputs):
            mac_rate[(tx, rx)] = rv.individual[position]
            mac_label[(tx, rx)] = f"mac {rx}: input {tx} (alpha={alpha:g})"

    bc_tx = {comp.inputs[0] for comp in components if comp.kind == "bc"}
    mac_rx = {comp.outputs[0] for comp in components if comp.kind == "mac"}

    emitted: set[tuple[str, str]] = set()
    for (tx, rx), rate in bc_rate.items():
        tail = f"{tx}_out"
        head = f"{rx}_in" if rx in mac_rx else rx
        if (tx, rx) in mac_rate:
            other = mac_rate[(tx, rx)]
            provenance = (
                f"shared: {bc_label[(tx, rx)]} / {mac_label[(tx, rx)]}, max"
            )
            rate = max(rate, other)
        else:
            provenance = bc_label[(tx, rx)]
        pipes.append(BitPipe(tail=tail, heads=(head,), rate=rate, provenance=provenance))
        emitted.add((tx, rx))
    for (tx, rx), rate in mac_rate.items():
        if (tx, rx) in emitted:
            continue
        tail = f"{tx}_out" if tx in bc_tx else tx
        pipes.append(
            BitPipe(
                tail=tail, heads=(f"{rx}_in",), rate=rate, provenance=mac_label[(tx, rx)]
            )
        )

    pipes.extend(_p2p_pipe(comp.links[0]) for comp in components if comp.kind == "p2p")

    return NoiselessNetwork(nodes=tuple(nodes), pipes=tuple(pipes))


def _bc_setup(
    comp: DecoupledComponent, params: LowerParams
) -> tuple[tuple[float, ...], tuple[tuple[str, ...], ...]]:
    """Per-layer power shares and intended receiver sets, validated.

    Default targets follow the receivers' original marginal SNRs, not the
    inflated decoupled values.
    """
    betas = params.bc_betas.get(comp.key)
    if betas is None:
        betas = (1.0,) + (0.0,) * (len(comp.links) - 1)
    betas = tuple(float(b) for b in betas)
    if any(b < 0 for b in betas):
        raise ValueError(f"bc_betas for {comp.key} must be nonnegative, got {betas}")
    if abs(sum(betas) - 1.0) > 1e-9:
        raise ValueError(f"bc_betas for {comp.key} must sum to 1, got {betas}")
    sorted_receivers = tuple(
        link.dst for link in sorted(comp.links, key=lambda link: (link.snr, link.dst))
    )
    m = len(sorted_receivers)
    targets: list[tuple[str, ...]] = []
    for layer in range(len(betas)):
        explicit = params.bc_decode_targets.get((comp.key, layer))
        if explicit is None:
            if len(betas) != m:
                raise ValueError(
                    f"bc_betas for {comp.key} has {len(betas)} layers; default "
                    f"targets need one per receiver ({m}); set bc_decode_targets"
                )
            chosen = sorted_receivers[layer:]
        else:
            chosen = tuple(sorted(explicit))
            unknown = set(chosen) - set(sorted_receivers)
            if unknown:
                raise ValueError(
                    f"bc_decode_targets for {comp.key} layer {layer} references "
                    f"non-receivers {sorted(unknown)}"
                )
            if not chosen:
                raise ValueError(
                    f"bc_decode_targets for {comp.key} layer {layer} is empty"
                )
        targets.append(chosen)
    for earlier, later in zip(targets, targets[1:]):
        if not set(later) <= set(earlier):
            raise ValueError(
                f"bc_decode_targets for {comp.key} must be nested: layer set "
                f"{sorted(later)} is not contained in {sorted(earlier)}"
            )
    return betas, tuple(targets)


def _mac_order(
    comp: DecoupledComponent,
    params: LowerParams,
    residual: dict[tuple[str, str], float],
) -> tuple[str, ...]:
    """The decode order of a MAC, validated; by default stronger decodable
    powers first, ties by node id."""
    order = params.mac_order.get(comp.key)
    if order is None:
        rx = comp.outputs[0]
        decodable = {
            link.src: link.snr - residual.get((link.src, rx), 0.0) for link in comp.links
        }
        return tuple(sorted(decodable, key=lambda tx: (-decodable[tx], tx)))
    inputs = _mac_inputs(comp)
    if sorted(order) != sorted(inputs):
        raise ValueError(
            f"mac_order for {comp.key} must order inputs {sorted(inputs)}, "
            f"got {order}"
        )
    return tuple(order)


def interference_ledger(components, params: LowerParams | None = None) -> InterferenceLedger:
    """Charge every receiver with the power it will never decode.

    For each broadcast component the power share of every layer a receiver is
    not intended to decode stays as interference: residual(i, j) =
    gamma_ij * sum of betas over layers whose target set excludes j. Inputs
    without a broadcast side leave no residual at their own receiver. The
    receiver floor adds residuals over all inputs; the extrinsic term for
    decoding input i at receiver j follows j's decode order: inputs decoded
    before i contribute their residual, inputs decoded after i their full
    power. The ledger also keeps each broadcast side's validated layers and
    each multi-access receiver's decode order, which `build_lower` rates.

    Raises:
        ValueError: on parameter entries naming unknown components, invalid
            betas, non-nested targets, or decode orders that do not match a
            component's inputs.
    """
    params = params or LowerParams()
    bc_by_key, mac_by_key = _component_maps(components)
    _check_param_keys(params.bc_betas, bc_by_key, "bc_betas")
    _check_param_keys(params.mac_order, mac_by_key, "mac_order")
    for key, _layer in params.bc_decode_targets:
        if key not in bc_by_key:
            raise ValueError(f"bc_decode_targets entry {key} matches no component")

    residual: dict[tuple[str, str], float] = {}
    bc_layers = {}
    for comp in components:
        if comp.kind == "bc":
            tx = comp.inputs[0]
            betas, targets = bc_layers[comp.key] = _bc_setup(comp, params)
            for link in comp.links:
                undecoded = sum(
                    beta
                    for beta, chosen in zip(betas, targets)
                    if link.dst not in chosen
                )
                residual[(tx, link.dst)] = link.snr * undecoded
        elif comp.kind == "mac":
            for link in comp.links:
                residual.setdefault((link.src, link.dst), 0.0)

    floors = _residual_totals(residual)

    extrinsic: dict[tuple[str, str], float] = {}
    for comp in components:
        if comp.kind == "bc":
            for link in comp.links:
                extrinsic.setdefault((link.src, link.dst), 0.0)
    mac_order = {}
    for comp in components:
        if comp.kind != "mac":
            continue
        rx = comp.outputs[0]
        inputs = _mac_inputs(comp)
        order = mac_order[comp.key] = _mac_order(comp, params, residual)
        gamma = {link.src: link.snr for link in comp.links}
        position = {tx: k for k, tx in enumerate(order)}
        for i in inputs:
            before = sum(
                residual[(k, rx)] for k in inputs if position[k] < position[i]
            )
            after = sum(gamma[k] for k in inputs if position[k] > position[i])
            extrinsic[(i, rx)] = before + after
    return InterferenceLedger(
        gamma_residual=residual,
        receiver_floor=floors,
        extrinsic=extrinsic,
        bc_layers=bc_layers,
        mac_order=mac_order,
    )


def build_lower(components, params: LowerParams | None = None) -> NoiselessNetwork:
    """Build the achievable lower bounding network (may contain hyper-arcs).

    Point-to-point links become capacity pipes. Each multi-access receiver
    runs successive cancellation on effective SNRs (gamma - residual) /
    (1 + receiver floor), which equals the physical per-position rate with
    earlier inputs cancelled down to their residual and later inputs at full
    power. Each broadcast side emits one arc per positive-power layer to the
    receivers intended to decode it, re-rated against extrinsic interference:

        rate(layer l) = min over intended j of
            0.5*log2(1 + g_j*beta_l / (1 + extrinsic(i, j) + g_j*later)),

    with g_j the original SNR at j and `later` the power of higher layers.
    Summed over the layers receiver j decodes, these layer rates never exceed
    j's multi-access rate for input i, so every shared link respects both
    sides; the per-layer arc keeps the smaller (broadcast-side) requirement.
    """
    ledger = interference_ledger(components, params)
    nodes = [Node(id=name) for name in _all_nodes(components)]
    pipes: list[BitPipe] = []

    bc_inputs = {comp.inputs[0] for comp in components if comp.kind == "bc"}

    for comp in components:
        if comp.kind == "p2p":
            pipes.append(_p2p_pipe(comp.links[0]))
        elif comp.kind == "bc":
            tx = comp.inputs[0]
            betas, targets = ledger.bc_layers[comp.key]
            gamma = {link.dst: link.snr for link in comp.links}
            for layer, (beta, chosen) in enumerate(zip(betas, targets)):
                if beta == 0.0:
                    continue
                later = sum(betas[layer + 1 :])
                rate = min(
                    awgn_capacity(
                        gamma[j] * beta
                        / (1.0 + ledger.extrinsic[(tx, j)] + gamma[j] * later)
                    )
                    for j in chosen
                )
                if rate == 0.0:
                    continue
                shared = [j for j in chosen if (tx, j) in ledger.extrinsic
                          and ledger.extrinsic[(tx, j)] > 0]
                note = f" (interference-adjusted at {shared})" if shared else ""
                pipes.append(
                    BitPipe(
                        tail=tx,
                        heads=tuple(chosen),
                        rate=rate,
                        provenance=(
                            f"bc {tx}: layer {layer + 1} beta={beta:g} -> "
                            f"{list(chosen)}{note}"
                        ),
                    )
                )
        elif comp.kind == "mac":
            rx = comp.outputs[0]
            order = ledger.mac_order[comp.key]
            floor = ledger.receiver_floor.get(rx, 0.0)
            effective = {
                link.src: max(0.0, link.snr - ledger.gamma_residual[(link.src, rx)])
                / (1.0 + floor)
                for link in comp.links
            }
            undecoded = sum(effective.values())
            for tx in order:
                undecoded -= effective[tx]
                rate = awgn_capacity(effective[tx] / (1.0 + undecoded))
                if tx in bc_inputs:
                    # This link's traffic rides on the broadcast side's layer
                    # arcs, which already respect this rate; no separate pipe.
                    continue
                if rate == 0.0:
                    continue
                pipes.append(
                    BitPipe(
                        tail=tx,
                        heads=(rx,),
                        rate=rate,
                        provenance=f"mac {rx}: input {tx} sic (order {list(order)})",
                    )
                )

    return NoiselessNetwork(nodes=tuple(nodes), pipes=tuple(pipes))
