"""Assemble noiseless bounding networks from decoupled components.

The upper network replaces every component by its upper model: point-to-point
pipes routed through one auxiliary node per multi-terminal component, with a
link shared by a broadcast side and a multi-access side carried by a single
pipe at the larger of the two required rates. The rates come from
`bc.bc_upper_cumulative` and `mac.mac_upper`; point-to-point links get their
capacity from `link_capacity`. `UpperStructure` fixes what does not depend
on the noise split alpha: nodes, auxiliary ids, each broadcast side's
cumulative rates for its receiver order, point-to-point arcs and shared
links. Its `arcs(mac_alpha)` rates the multi-access pipes (and the shared
ones, at the larger rate) as ``(tail, heads, rate, label)`` tuples, and
`network(mac_alpha)` adds the pipes and their provenance.

The lower network replaces every component by an achievable coding scheme:
superposition layers on broadcast sides (hyper-arcs to the receivers that
decode each layer) and successive interference cancellation at multi-access
receivers. It is built in steps (structure, ledger, arcs, network), and both
rate formulas live in the arcs step, nowhere else:

- `LowerStructure` fixes and validates what does not depend on the power
  split beta: each broadcast side's layer count and decode targets, explicit
  decode orders, the node list and the point-to-point arcs.
- `LowerStructure.ledger(betas)` charges every receiver with the power it
  will never decode and resolves default decode orders, which depend on those
  residuals.
- `LowerStructure.arcs(betas)` rates every layer arc and SIC arc against
  that ledger, so each rate is achievable with every cross-component
  interference accounted for. It returns plain ``(tail, heads, rate, label)``
  tuples, which is all a search needs to score a candidate.
- `LowerStructure.network(betas)` is those arcs as a `NoiselessNetwork`, each
  label formatted into its pipe's provenance; `network_of(arcs)` does that
  last step for arcs already rated, so a search builds pipes only for the
  candidates it routes.

`build_upper` and `build_lower` are these steps for one `UpperParams` or
`LowerParams`; a search over alpha or beta builds each structure once and
evaluates it per candidate.
"""

from __future__ import annotations

import math
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
    "UpperStructure",
    "LowerStructure",
    "link_capacity",
    "build_upper",
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


class UpperStructure:
    """The part of an upper network that does not depend on the noise split.

    Built once from the components and `bc_perm` (as in `UpperParams`). Every
    broadcast component becomes pipes through an auxiliary node "<tx>_out":
    the transmitter feeds it at the component sum rate and it feeds each
    receiver at its cumulative-group rate. Every multi-access component
    becomes pipes through "<rx>_in": each input feeds it at its per-input
    rate and it feeds the receiver at the sum rate; `arcs(mac_alpha)` rates
    these. A link on both sides becomes one auxiliary-to-auxiliary pipe at
    the larger of its two rates, which any lossless representation needs.

    Raises:
        ValueError: on `bc_perm` entries that match no component or do not
            order its receivers, and on auxiliary ids taken by a node.
    """

    def __init__(self, components, bc_perm: dict | None = None):
        bc_perm = bc_perm or {}
        bc_by_key, self._mac_keys = _component_maps(components)
        _check_param_keys(bc_perm, bc_by_key, "bc_perm")
        nodes = [Node(id=name) for name in _all_nodes(components)]
        taken = {node.id for node in nodes}

        def auxiliary(name: str) -> str:
            if name in taken:
                raise ValueError(f"auxiliary id {name!r} collides with a node id")
            taken.add(name)
            nodes.append(Node(id=name, kind=AUXILIARY))
            return name

        # (tail, heads, fixed rate, MAC rate, label) per pipe, in order. A MAC
        # rate (index, input position or None for the sum) is read per alpha,
        # at least the fixed rate; its label is the text around the alpha.
        self._slots: list[tuple] = []
        bc_links: dict[tuple[str, str], tuple[float, str]] = {}
        for comp in [comp for comp in components if comp.kind == "bc"]:
            tx, receivers = comp.inputs[0], _bc_receivers(comp)
            perm_ids = bc_perm.get(comp.key, _default_perm(comp))
            if sorted(perm_ids) != sorted(receivers):
                raise ValueError(
                    f"bc_perm for {comp.key} must order receivers {sorted(receivers)}, "
                    f"got {perm_ids}"
                )
            perm = tuple(receivers.index(r) for r in perm_ids)
            rv = bc_upper_cumulative(BcSpec(gammas=comp.gamma_list()), perm)
            label = f"bc {tx}: sum over {len(receivers)} receivers"
            self._slots.append((tx, (auxiliary(f"{tx}_out"),), rv.sum_rate, None, label))
            for position, rx in enumerate(perm_ids):
                label = f"bc {tx}: receiver {rx} (cumulative position {position + 1})"
                bc_links[(tx, rx)] = (rv.individual[position], label)
        self._macs: list[tuple[tuple, MacSpec]] = []
        mac_links: dict[tuple[str, str], tuple[int, int]] = {}
        for comp in [comp for comp in components if comp.kind == "mac"]:
            rx, index = comp.outputs[0], len(self._macs)
            self._macs.append((comp.key, MacSpec(gammas=comp.gamma_list())))
            label = (f"mac {rx}: sum (alpha=", ")")
            self._slots.append((auxiliary(f"{rx}_in"), (rx,), None, (index, None), label))
            for position, tx in enumerate(_mac_inputs(comp)):
                mac_links[(tx, rx)] = (index, position)

        mac_rx = {rx for _, rx in mac_links}
        for (tx, rx), (rate, label) in bc_links.items():
            head = (f"{rx}_in",) if rx in mac_rx else (rx,)
            mac = mac_links.get((tx, rx))
            if mac is not None:
                label = (f"shared: {label} / mac {rx}: input {tx} (alpha=", "), max")
            self._slots.append((f"{tx}_out", head, rate, mac, label))
        bc_tx = {tx for tx, _ in bc_links}
        for (tx, rx), mac in mac_links.items():
            if (tx, rx) not in bc_links:
                tail = f"{tx}_out" if tx in bc_tx else tx
                label = (f"mac {rx}: input {tx} (alpha=", ")")
                self._slots.append((tail, (f"{rx}_in",), None, mac, label))
        for comp in components:
            if comp.kind == "p2p":
                pipe = _p2p_pipe(comp.links[0])
                self._slots.append((pipe.tail, pipe.heads, pipe.rate, None, pipe.provenance))
        self._nodes = tuple(nodes)
        self.node_ids = tuple(node.id for node in nodes)

    def arcs(self, mac_alpha: dict) -> list[tuple]:
        """One ``(tail, heads, rate, label)`` per pipe of `network`, in order,
        with one `mac_upper` per MAC at its `mac_alpha` entry (as in
        `UpperParams`). A label is the provenance, or ``(text before, alpha,
        text after)`` on a MAC-rated pipe. Raises ValueError on unknown keys.
        """
        _check_param_keys(mac_alpha, self._mac_keys, "mac_alpha")
        alphas = [mac_alpha.get(key, 1.0) for key, _ in self._macs]
        rated = [mac_upper(spec, a)[0] for (_, spec), a in zip(self._macs, alphas)]
        arcs: list[tuple] = []
        for tail, heads, fixed, mac, label in self._slots:
            if mac is None:
                arcs.append((tail, heads, fixed, label))
                continue
            rv = rated[mac[0]]
            rate = rv.sum_rate if mac[1] is None else rv.individual[mac[1]]
            if fixed is not None:
                rate = max(fixed, rate)
            arcs.append((tail, heads, rate, (label[0], alphas[mac[0]], label[1])))
        return arcs

    def network(self, mac_alpha: dict) -> NoiselessNetwork:
        """The pipes of `arcs(mac_alpha)` with their provenance; raises as `arcs`."""
        pipes = tuple(
            BitPipe(tail, heads, rate, label if isinstance(label, str) else "%s%g%s" % label)
            for tail, heads, rate, label in self.arcs(mac_alpha)
        )
        return NoiselessNetwork(nodes=self._nodes, pipes=pipes)


def build_upper(components, params: UpperParams | None = None) -> NoiselessNetwork:
    """Build the point-to-point upper bounding network: the network of
    `UpperStructure(components, params.bc_perm)` at `params.mac_alpha`
    (None means all defaults). Raises ValueError as those two do."""
    params = params or UpperParams()
    return UpperStructure(components, params.bc_perm).network(params.mac_alpha)


def _bc_targets(
    comp: DecoupledComponent, layers: int, params: LowerParams
) -> tuple[tuple[str, ...], ...]:
    """Intended receiver sets of a broadcast side's layers, validated.

    Default targets follow the receivers' original marginal SNRs, not the
    inflated decoupled values.
    """
    key = comp.key
    sorted_receivers = tuple(
        link.dst for link in sorted(comp.links, key=lambda link: (link.snr, link.dst))
    )
    m = len(sorted_receivers)
    targets: list[tuple[str, ...]] = []
    for layer in range(layers):
        explicit = params.bc_decode_targets.get((key, layer))
        if explicit is None:
            if layers != m:
                raise ValueError(
                    f"bc_betas for {key} has {layers} layers; default "
                    f"targets need one per receiver ({m}); set bc_decode_targets"
                )
            chosen = sorted_receivers[layer:]
        else:
            chosen = tuple(sorted(explicit))
            unknown = set(chosen) - set(sorted_receivers)
            if unknown:
                raise ValueError(
                    f"bc_decode_targets for {key} layer {layer} references "
                    f"non-receivers {sorted(unknown)}"
                )
            if not chosen:
                raise ValueError(
                    f"bc_decode_targets for {key} layer {layer} is empty"
                )
        targets.append(chosen)
    for earlier, later in zip(targets, targets[1:]):
        if not set(later) <= set(earlier):
            raise ValueError(
                f"bc_decode_targets for {key} must be nested: layer set "
                f"{sorted(later)} is not contained in {sorted(earlier)}"
            )
    return tuple(targets)


class _BcSide:
    """A broadcast side's layers and who decodes each."""

    def __init__(self, comp: DecoupledComponent, params: LowerParams):
        self.key = comp.key
        self.tx = comp.inputs[0]
        given = params.bc_betas.get(self.key)
        self.layers = len(comp.links) if given is None else len(given)
        self.targets = _bc_targets(comp, self.layers, params)
        self.gamma = {link.dst: link.snr for link in comp.links}
        # Targets are nested, so each receiver decodes the first k layers and
        # none after: (receiver, its SNR, k) per link.
        decoded = dict.fromkeys(self.gamma, 0)
        for chosen in self.targets:
            for j in chosen:
                decoded[j] += 1
        self.decoded = tuple((j, snr, decoded[j]) for j, snr in self.gamma.items())

    def betas(self, given) -> tuple[float, ...]:
        """The power shares of one evaluation, validated."""
        if given is None:
            return (1.0,) + (0.0,) * (self.layers - 1)
        betas = tuple(float(b) for b in given)
        if not all(0.0 <= b < math.inf for b in betas):
            raise ValueError(
                f"bc_betas for {self.key} must be nonnegative and finite, got {betas}"
            )
        if abs(sum(betas) - 1.0) > 1e-9:
            raise ValueError(f"bc_betas for {self.key} must sum to 1, got {betas}")
        if len(betas) != self.layers:
            raise ValueError(
                f"bc_betas for {self.key} has {len(betas)} layers; the lower "
                f"structure was built with {self.layers}"
            )
        return betas


class _MacSide:
    """A multi-access receiver: its inputs and, per decode order, which
    inputs it has decoded (residual power) or not yet (full power) while
    decoding each one."""

    def __init__(self, comp: DecoupledComponent, params: LowerParams, bc_inputs):
        self.key = comp.key
        self.rx = comp.outputs[0]
        self.links = tuple((link.src, link.snr) for link in comp.links)
        # Inputs that are broadcast transmitters get no SIC pipe: their
        # traffic rides on the broadcast side's layer arcs.
        self.piped = any(src not in bc_inputs for src, _ in self.links)
        self.order = params.mac_order.get(self.key)
        self._sic: dict[tuple[str, ...], tuple] = {}
        if self.order is not None:
            inputs = _mac_inputs(comp)
            if sorted(self.order) != sorted(inputs):
                raise ValueError(
                    f"mac_order for {self.key} must order inputs {sorted(inputs)}, "
                    f"got {self.order}"
                )
            self.order = tuple(self.order)

    def default_order(self, residual) -> tuple[str, ...]:
        """Stronger decodable powers first, ties by node id."""
        rx = self.rx
        decodable = {src: snr - residual.get((src, rx), 0.0) for src, snr in self.links}
        return tuple(sorted(decodable, key=lambda tx: (-decodable[tx], tx)))

    def sic(self, order) -> tuple:
        """(input, residual keys of inputs decoded before it, full power of
        inputs decoded after it) per input, in link order."""
        terms = self._sic.get(order)
        if terms is None:
            rx = self.rx
            position = {tx: k for k, tx in enumerate(order)}
            terms = self._sic[order] = tuple(
                (
                    i,
                    tuple((k, rx) for k, _ in self.links if position[k] < position[i]),
                    sum(snr for k, snr in self.links if position[k] > position[i]),
                )
                for i, _ in self.links
            )
        return terms


class LowerStructure:
    """The part of a lower network that does not depend on the power split.

    Built once from the components and the structural choices of `params`:
    each broadcast side's layer count (the length of its `bc_betas` entry,
    by default one layer per receiver; the values are not read), its layers'
    decode targets and any explicit multi-access decode orders, all
    validated here. `ledger(bc_betas)` and `arcs(bc_betas)` then charge
    and rate it for one power split, and `network(bc_betas)` builds its
    pipes; default decode orders depend on the residuals and are resolved
    in the ledger. A search that sweeps betas over one
    structure builds it once and keeps it for that search only.

    Raises:
        ValueError: on parameter entries naming unknown components,
            non-nested or empty targets, or decode orders that do not match
            a component's inputs.
    """

    def __init__(self, components, params: LowerParams | None = None):
        params = params or LowerParams()
        self.components = tuple(components)
        self.params = params
        bc_by_key, mac_by_key = _component_maps(self.components)
        _check_param_keys(params.bc_betas, bc_by_key, "bc_betas")
        _check_param_keys(params.mac_order, mac_by_key, "mac_order")
        for key, _layer in params.bc_decode_targets:
            if key not in bc_by_key:
                raise ValueError(f"bc_decode_targets entry {key} matches no component")
        self._bc_keys = bc_by_key
        self.node_ids = _all_nodes(self.components)
        self._nodes = tuple(Node(id=name) for name in self.node_ids)
        self._bc_inputs = {comp.inputs[0] for comp in self.components if comp.kind == "bc"}
        # Components in order: a prebuilt p2p arc, a _BcSide or a _MacSide.
        self._steps: list = []
        self._bcs: list[_BcSide] = []
        self._macs: list[_MacSide] = []
        residual_keys: dict[tuple[str, str], None] = {}
        for comp in self.components:
            if comp.kind == "p2p":
                pipe = _p2p_pipe(comp.links[0])
                self._steps.append((pipe.tail, pipe.heads, pipe.rate, pipe.provenance))
                continue
            if comp.kind == "bc":
                side = _BcSide(comp, params)
            else:
                side = _MacSide(comp, params, self._bc_inputs)
            (self._bcs if comp.kind == "bc" else self._macs).append(side)
            self._steps.append(side)
            for link in comp.links:
                residual_keys.setdefault((link.src, link.dst))
        self._residual_keys = tuple(residual_keys)

    def ledger(self, bc_betas: dict) -> InterferenceLedger:
        """The interference ledger of this structure at one power split.

        For each broadcast component the power share of every layer a
        receiver is not intended to decode stays as interference:
        residual(i, j) = gamma_ij * sum of betas over layers whose target set
        excludes j. Inputs without a broadcast side leave no residual at
        their own receiver. The receiver floor adds residuals over all
        inputs; the extrinsic term for decoding input i at receiver j follows
        j's decode order: inputs decoded before i contribute their residual,
        inputs decoded after i their full power.

        Args:
            bc_betas: per-layer power shares by BC key (nonnegative, summing
                to 1, one per layer of the structure); a missing entry puts
                all power in the first layer.

        Raises:
            ValueError: on entries naming unknown components or invalid betas.
        """
        _check_param_keys(bc_betas, self._bc_keys, "bc_betas")
        bc_layers = {}
        bc_residual = {}
        for bc in self._bcs:
            betas = bc.betas(bc_betas.get(bc.key))
            bc_layers[bc.key] = (betas, bc.targets)
            for j, snr, k in bc.decoded:
                bc_residual[(bc.tx, j)] = snr * sum(betas[k:])
        residual = {key: bc_residual.get(key, 0.0) for key in self._residual_keys}
        extrinsic = {(bc.tx, j): 0.0 for bc in self._bcs for j in bc.gamma}
        mac_order = {}
        for mac in self._macs:
            order = mac.order or mac.default_order(residual)
            mac_order[mac.key] = order
            for i, before, after in mac.sic(order):
                extrinsic[(i, mac.rx)] = sum(residual[key] for key in before) + after
        return InterferenceLedger(
            gamma_residual=residual,
            receiver_floor=_residual_totals(residual),
            extrinsic=extrinsic,
            bc_layers=bc_layers,
            mac_order=mac_order,
        )

    def arcs(self, bc_betas: dict) -> list[tuple]:
        """The arcs of this structure at one power split, without pipes.

        One ``(tail, heads, rate, label)`` per arc, in the order of
        `network`'s pipes; `network` formats ``label`` into the pipe's
        provenance. Point-to-point links become capacity arcs. Each
        multi-access receiver runs successive cancellation on effective SNRs
        (gamma - residual) / (1 + receiver floor), which equals the physical
        per-position rate with earlier inputs cancelled down to their
        residual and later inputs at full power. Each broadcast side emits
        one arc per positive-power layer to the receivers intended to decode
        it, re-rated against extrinsic interference:

            rate(layer l) = min over intended j of
                0.5*log2(1 + g_j*beta_l / (1 + extrinsic(i, j) + g_j*later)),

        with g_j the original SNR at j and `later` the power of higher
        layers. Summed over the layers receiver j decodes, these layer rates
        never exceed j's multi-access rate for input i, so every shared link
        respects both sides; the per-layer arc keeps the smaller
        (broadcast-side) requirement, and the multi-access side emits no
        arc for an input that is a broadcast transmitter. Arcs of rate 0 are
        left out.

        Args and Raises: as `ledger`.
        """
        ledger = self.ledger(bc_betas)
        residual = ledger.gamma_residual
        extrinsic = ledger.extrinsic
        arcs: list[tuple] = []
        for step in self._steps:
            if isinstance(step, tuple):
                arcs.append(step)
            elif isinstance(step, _BcSide):
                tx, gamma = step.tx, step.gamma
                betas, targets = ledger.bc_layers[step.key]
                for layer, (beta, chosen) in enumerate(zip(betas, targets)):
                    if beta == 0.0:
                        continue
                    later = sum(betas[layer + 1 :])
                    rate = min(
                        awgn_capacity(
                            gamma[j] * beta / (1.0 + extrinsic[(tx, j)] + gamma[j] * later)
                        )
                        for j in chosen
                    )
                    if rate == 0.0:
                        continue
                    arcs.append((tx, chosen, rate, ("bc", layer, beta, extrinsic)))
            elif step.piped:
                rx = step.rx
                order = ledger.mac_order[step.key]
                floor = ledger.receiver_floor.get(rx, 0.0)
                effective = {
                    src: max(0.0, snr - residual[(src, rx)]) / (1.0 + floor)
                    for src, snr in step.links
                }
                undecoded = sum(effective.values())
                for tx in order:
                    undecoded -= effective[tx]
                    if tx in self._bc_inputs:
                        continue
                    rate = awgn_capacity(effective[tx] / (1.0 + undecoded))
                    if rate == 0.0:
                        continue
                    arcs.append((tx, (rx,), rate, ("mac", order)))
        return arcs

    def network(self, bc_betas: dict) -> NoiselessNetwork:
        """The lower network of this structure at one power split: the
        pipes of `arcs(bc_betas)`, with their provenance.

        Args and Raises: as `ledger`.
        """
        return self.network_of(self.arcs(bc_betas))

    def network_of(self, arcs) -> NoiselessNetwork:
        """The network whose pipes are ``arcs``, a list that `arcs` returned
        for this structure, each label formatted into its provenance."""
        return NoiselessNetwork(
            nodes=self._nodes,
            pipes=tuple(
                BitPipe(tail, heads, rate, _provenance(tail, heads, label))
                for tail, heads, rate, label in arcs
            ),
        )


def _provenance(tail: str, heads: tuple[str, ...], label) -> str:
    """The provenance text of one lower arc from its `LowerStructure.arcs`
    label: a point-to-point arc's text itself, ("bc", layer, beta, extrinsic)
    for a broadcast layer or ("mac", decode order) for a SIC arc."""
    if isinstance(label, str):
        return label
    if label[0] == "mac":
        return f"mac {heads[0]}: input {tail} sic (order {list(label[1])})"
    _kind, layer, beta, extrinsic = label
    shared = [j for j in heads if extrinsic[(tail, j)] > 0]
    note = f" (interference-adjusted at {shared})" if shared else ""
    return f"bc {tail}: layer {layer + 1} beta={beta:g} -> {list(heads)}{note}"


def build_lower(components, params: LowerParams | None = None) -> NoiselessNetwork:
    """Build the achievable lower bounding network (may contain hyper-arcs).

    The network of `LowerStructure(components, params)` at `params.bc_betas`;
    see `LowerStructure.arcs` for the rates.
    """
    params = params or LowerParams()
    return LowerStructure(components, params).network(params.bc_betas)
