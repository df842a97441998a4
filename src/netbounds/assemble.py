"""Assemble noiseless bounding networks from decoupled components.

The upper network replaces every component by its upper model: point-to-point
pipes routed through one auxiliary node per multi-terminal component, with a
link shared by a broadcast side and a multi-access side carried by a single
pipe at the larger of the two required rates. The rates come from
`bc.bc_upper_cumulative` and `mac.mac_upper`; point-to-point links get their
capacity from `link_capacity`. `UpperStructure` fixes what does not depend
on the noise split alpha: nodes, auxiliary ids, each broadcast side's
cumulative rates for its receiver order, point-to-point arcs and shared
links. Its `arcs(alpha)` rates the multi-access pipes (and the shared ones,
at the larger rate) as ``(tail, heads, rate, label)`` tuples, with one noise
split alpha common to every multi-access side.

The lower network replaces every component by an achievable coding scheme:
superposition layers on broadcast sides (hyper-arcs to the receivers that
decode each layer) and successive interference cancellation at multi-access
receivers. Its model is a two-step update, written once in one rating core:
`LowerStructure._charge` charges every receiver with the power it never
decodes, and `_rate` rates the layer and SIC arcs against those charges. The
core takes each broadcast side's betas in one of two forms: floats for one
power split, or one 1-D array per layer for a batch of splits. What differs
by form is in `_OneSplit` and `_Splits`: the capacity (both take the same
`np.log2`), the elementwise min, max(0, x), and how betas are checked and
decode orders resolved. Sums run from 0, left to right, in both, so a batch
row is bit for bit the float form.

- `LowerStructure` fixes and validates what does not depend on the power
  split beta: each broadcast side's layer count and decode targets, explicit
  decode orders, the node list and the point-to-point arcs.
- `LowerStructure.arcs(betas)` charges the residuals of one split (the float
  form), resolves default decode orders, which depend on those residuals, and
  rates every layer arc and SIC arc against them, so each rate is achievable
  with every cross-component interference accounted for. It returns plain
  ``(tail, heads, rate, label)`` tuples, which is all the flow layer reads.
  `bounds` and the multicast search rate one split at a time here.
- `LowerStructure.rate_batch(splits)` rates n splits in one NumPy pass (the
  array form) and returns a `LowerBatch`: the structure's arc slots and an
  n x slots rate array, from which any split's arcs can be read as `arcs`
  gives them. The relay search, whose grid and zoom steps are known before
  it rates any of their splits, rates each step this way.

A bounding network is its node ids and these arcs; there is no other form.
The flow functions in `netbounds.flows` and `validate_bounding_network` take
them as they are, so the searches and the `bounds` sweep build each
structure once and rate it per alpha or beta. A label is the data behind an
arc's provenance, and `describe(arc)` renders it as text. `build_upper` and
`build_lower` return ``(node_ids, arcs)`` at the defaults or, for the lower
network, at one `LowerParams`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bc import BcSpec, bc_upper_cumulative
from .decouple import DecoupledComponent
from .info import awgn_capacities, awgn_capacity, bsc_capacity, qsc_capacity
from .mac import MacSpec, mac_upper
from .netmodel import NoisyLink

__all__ = [
    "LowerParams",
    "UpperStructure",
    "LowerStructure",
    "LowerBatch",
    "link_capacity",
    "describe",
    "build_upper",
    "build_lower",
]


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


def _residual_totals(residual: dict[tuple[str, str], float]) -> dict[str, float]:
    """Residual power per receiver, summed in one pass in the residuals' order."""
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


def _p2p_arc(link: NoisyLink) -> tuple:
    return (link.src, (link.dst,), link_capacity(link), f"p2p {link.kind} {link.src}->{link.dst}")


def _all_nodes(components) -> tuple[str, ...]:
    names: list[str] = []
    for comp in components:
        for name in (*comp.inputs, *comp.outputs):
            if name not in names:
                names.append(name)
    return tuple(names)


class UpperStructure:
    """The part of an upper network that does not depend on the noise split.

    Built once from the components and `bc_perm`, which maps a BC component
    key ("bc", transmitter) to the receiver id order of its cumulative upper
    model; a missing entry puts receivers in descending effective SNR. Every
    broadcast component becomes pipes through an auxiliary node "<tx>_out":
    the transmitter feeds it at the component sum rate and it feeds each
    receiver at its cumulative-group rate. Every multi-access component
    becomes pipes through "<rx>_in": each input feeds it at its per-input
    rate and it feeds the receiver at the sum rate; `arcs(alpha)` rates
    these. A link on both sides becomes one auxiliary-to-auxiliary pipe at
    the larger of its two rates, which any lossless representation needs.

    Raises:
        ValueError: on `bc_perm` entries that match no component or do not
            order its receivers, and on auxiliary ids taken by a node.
    """

    def __init__(self, components, bc_perm: dict | None = None):
        bc_perm = bc_perm or {}
        bc_by_key, _ = _component_maps(components)
        _check_param_keys(bc_perm, bc_by_key, "bc_perm")
        nodes = list(_all_nodes(components))

        def auxiliary(name: str) -> str:
            if name in nodes:
                raise ValueError(f"auxiliary id {name!r} collides with a node id")
            nodes.append(name)
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
        self._macs: list[MacSpec] = []
        mac_links: dict[tuple[str, str], tuple[int, int]] = {}
        for comp in [comp for comp in components if comp.kind == "mac"]:
            rx, index = comp.outputs[0], len(self._macs)
            self._macs.append(MacSpec(gammas=comp.gamma_list()))
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
                tail, heads, rate, label = _p2p_arc(comp.links[0])
                self._slots.append((tail, heads, rate, None, label))
        self.node_ids = tuple(nodes)

    def arcs(self, alpha: float) -> list[tuple]:
        """One ``(tail, heads, rate, label)`` per pipe, in order, with one
        `mac_upper` per MAC at `alpha`, the share of every MAC receiver's
        noise backing its sum constraint (1 is full cooperation, with
        unconstrained per-input pipes). A label is the provenance text, or
        ``(text before, alpha, text after)`` on a MAC-rated pipe.
        """
        rated = [mac_upper(spec, alpha)[0] for spec in self._macs]
        arcs: list[tuple] = []
        for tail, heads, fixed, mac, label in self._slots:
            if mac is None:
                arcs.append((tail, heads, fixed, label))
                continue
            rv = rated[mac[0]]
            rate = rv.sum_rate if mac[1] is None else rv.individual[mac[1]]
            if fixed is not None:
                rate = max(fixed, rate)
            arcs.append((tail, heads, rate, (label[0], alpha, label[1])))
        return arcs


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

    def __init__(self, comp: DecoupledComponent, params: LowerParams, index: int):
        self.key = comp.key
        self.index = index  # its place among the structure's broadcast sides
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

    def columns(self, rows) -> tuple:
        """The power shares of a batch of evaluations, one array per layer
        holding every split's share. Each row passes the checks of `betas`,
        and the first that fails raises its error."""
        if rows is None:
            return self.betas(None)
        try:
            table = np.array(rows, dtype=float)
        except (TypeError, ValueError):
            table = None
        if table is not None and table.ndim == 2 and table.shape[1] == self.layers:
            columns = tuple(np.ascontiguousarray(table.T))
            in_range = 0.0 <= table.min() and table.max() < math.inf  # False on NaN
            if in_range and abs(sum(columns) - 1.0).max() <= 1e-9:
                return columns
        for row in rows:
            self.betas(row)
        raise AssertionError(f"bc_betas for {self.key}: batch check disagrees with betas")


class _MacSide:
    """A multi-access receiver: its inputs and, per decode order, which
    inputs it has decoded (residual power) or not yet (full power) while
    decoding each one."""

    def __init__(
        self, comp: DecoupledComponent, params: LowerParams, bc_inputs, index: int
    ):
        self.key = comp.key
        self.index = index  # its place among the structure's multi-access sides
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


class _OneSplit:
    """The rating core's input form for one power split: every beta, residual
    and rate is a float. Its helpers are picked by form, the formulas are not."""

    capacity = staticmethod(awgn_capacity)
    least = staticmethod(min)  # of an iterable
    clip = staticmethod(functools.partial(max, 0.0))
    lowest = staticmethod(float)  # a float's least entry is itself
    off = staticmethod(operator.not_)  # a layer without power

    @staticmethod
    def betas(bc: _BcSide, given):
        return bc.betas(given)

    @staticmethod
    def order(mac: _MacSide, residual) -> tuple[str, ...]:
        return mac.order or mac.default_order(residual)


class _Splits:
    """The rating core's input form for n power splits: what depends on the
    split is a 1-D array with one entry per split, the rest stays a float.
    Elementwise IEEE arithmetic rounds as the float form does."""

    capacity = staticmethod(awgn_capacities)
    clip = staticmethod(functools.partial(np.maximum, 0.0))

    def __init__(self, n: int):
        self.n = n

    @staticmethod
    def least(values):
        return functools.reduce(np.minimum, values)

    @staticmethod
    def lowest(value) -> float:
        return np.minimum.reduce(value) if isinstance(value, np.ndarray) else value

    @staticmethod
    def off(beta) -> bool:
        """Without power at every split."""
        return not (np.logical_or.reduce(beta) if isinstance(beta, np.ndarray) else beta)

    @staticmethod
    def betas(bc: _BcSide, given):
        return bc.columns(given)

    def order(self, mac: _MacSide, residual) -> tuple[str, ...]:
        if mac.order:
            return mac.order
        if self.n > 1:
            raise ValueError(
                f"mac_order for {mac.key} is needed to rate {self.n} splits in one "
                f"batch: its default decode order depends on the split"
            )
        return mac.default_order({key: _at(value, 0) for key, value in residual.items()})


def _at(value, row: int):
    """One split's entry of a `_Splits` value: an array's, or the float."""
    return float(value[row]) if isinstance(value, np.ndarray) else value


def _kept(rate, label) -> bool:
    """Whether `LowerStructure.arcs` keeps an arc: a point-to-point arc (its
    label is its provenance text) always, a layer or SIC arc if its rate is
    not 0."""
    return rate != 0.0 or isinstance(label, str)


@dataclass(frozen=True)
class LowerBatch:
    """The arcs of one lower structure at n power splits, rated in one pass.

    `slots` holds every arc the structure can have as ``(tail, heads)``, in
    the order of `LowerStructure.arcs`; `rates[r, s]` is slot s's rate at split r,
    0.0 wherever `LowerStructure.arcs` leaves the layer or SIC arc out.
    `arcs(r)` is split r's arcs as `LowerStructure.arcs` returns them.
    """

    slots: tuple[tuple[str, tuple[str, ...]], ...]
    rates: np.ndarray
    labels: tuple  # per slot, as `arcs` labels it, with arrays for the split's beta
    extrinsic: dict  # the broadcast labels' extrinsic terms, floats or arrays

    def arcs(self, row: int) -> list[tuple]:
        """Split `row`'s ``(tail, heads, rate, label)`` arcs, equal to what
        `LowerStructure.arcs` returns for that split, without re-rating."""
        extrinsic = {key: _at(value, row) for key, value in self.extrinsic.items()}
        arcs = []
        rates = self.rates[row].tolist()
        for (tail, heads), rate, label in zip(self.slots, rates, self.labels):
            if not _kept(rate, label):
                continue
            if label[0] == "bc":
                label = ("bc", label[1], _at(label[2], row), extrinsic)
            arcs.append((tail, heads, rate, label))
        return arcs


class LowerStructure:
    """The part of a lower network that does not depend on the power split.

    Built once from the components and the structural choices of `params`:
    each broadcast side's layer count (the length of its `bc_betas` entry,
    by default one layer per receiver; the values are not read), its layers'
    decode targets and any explicit multi-access decode orders, all
    validated here. `arcs(bc_betas)` then charges and rates it for one
    power split, and `rate_batch` rates many splits at once; default decode orders depend
    on the residuals and are resolved per split. A search that sweeps betas
    over one structure builds it once and keeps it for that search only.

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
        self._bc_inputs = {comp.inputs[0] for comp in self.components if comp.kind == "bc"}
        # Components in order: a prebuilt p2p arc, a _BcSide or a _MacSide.
        self._steps: list = []
        self._bcs: list[_BcSide] = []
        self._macs: list[_MacSide] = []
        residual_keys: dict[tuple[str, str], float] = {}
        for comp in self.components:
            if comp.kind == "p2p":
                self._steps.append(_p2p_arc(comp.links[0]))
                continue
            if comp.kind == "bc":
                side = _BcSide(comp, params, len(self._bcs))
                self._bcs.append(side)
            else:
                side = _MacSide(comp, params, self._bc_inputs, len(self._macs))
                self._macs.append(side)
            self._steps.append(side)
            for link in comp.links:
                residual_keys.setdefault((link.src, link.dst), 0.0)
        # No residual and no extrinsic interference: what each split starts from.
        self._no_residual = residual_keys
        self._no_extrinsic = {(bc.tx, j): 0.0 for bc in self._bcs for j in bc.gamma}

    def _charge(self, bc_betas: dict, form) -> tuple:
        """The charges of one evaluation, in either input form: each
        broadcast side's betas, the residuals, the extrinsic terms and each
        multi-access side's decode order.

        For each broadcast component the power share of every layer a
        receiver is not intended to decode stays as interference:
        residual(i, j) = gamma_ij * sum of betas over layers whose target set
        excludes j. Inputs without a broadcast side leave no residual at
        their own receiver. The extrinsic term for decoding input i at
        receiver j follows j's decode order: inputs decoded before i
        contribute their residual, inputs decoded after i their full power.
        """
        _check_param_keys(bc_betas, self._bc_keys, "bc_betas")
        sides = [form.betas(bc, bc_betas.get(bc.key)) for bc in self._bcs]
        residual = dict(self._no_residual)
        for bc, betas in zip(self._bcs, sides):
            for j, snr, k in bc.decoded:
                residual[(bc.tx, j)] = snr * sum(betas[k:])
        for (i, j), value in residual.items():
            if form.lowest(value) < -1e-12:
                raise AssertionError(f"negative residual at ({i}, {j}): {value}")
        extrinsic = dict(self._no_extrinsic)
        orders = []
        for mac in self._macs:
            order = form.order(mac, residual)
            orders.append(order)
            for i, before, after in mac.sic(order):
                extrinsic[(i, mac.rx)] = sum(residual[key] for key in before) + after
        return sides, residual, extrinsic, orders

    def _rate(self, bc_betas: dict, form) -> tuple[list[tuple], dict]:
        """The rating core, in either input form: every arc slot as ``(tail,
        heads, rate, label)`` in arc order, rate 0 where `arcs` leaves
        the arc out, and the extrinsic terms the broadcast labels hold."""
        sides, residual, extrinsic, orders = self._charge(bc_betas, form)
        floors = _residual_totals(residual)
        slots: list[tuple] = []
        for step in self._steps:
            if isinstance(step, tuple):
                slots.append(step)
            elif isinstance(step, _BcSide):
                tx, gamma, betas = step.tx, step.gamma, sides[step.index]
                for layer, (beta, chosen) in enumerate(zip(betas, step.targets)):
                    label = ("bc", layer, beta, extrinsic)
                    if form.off(beta):
                        slots.append((tx, chosen, 0.0, label))
                        continue
                    later = sum(betas[layer + 1 :])
                    rate = form.least(
                        form.capacity(
                            gamma[j] * beta / (1.0 + extrinsic[(tx, j)] + gamma[j] * later)
                        )
                        for j in chosen
                    )
                    slots.append((tx, chosen, rate, label))
            elif step.piped:
                rx, order = step.rx, orders[step.index]
                floor = floors.get(rx, 0.0)
                effective = {
                    src: form.clip(snr - residual[(src, rx)]) / (1.0 + floor)
                    for src, snr in step.links
                }
                undecoded = sum(effective.values())
                for tx in order:
                    undecoded = undecoded - effective[tx]
                    if tx in self._bc_inputs:
                        continue
                    rate = form.capacity(effective[tx] / (1.0 + undecoded))
                    slots.append((tx, (rx,), rate, ("mac", order)))
        return slots, extrinsic

    def arcs(self, bc_betas: dict) -> list[tuple]:
        """The arcs of this structure at one power split.

        One ``(tail, heads, rate, label)`` per arc; `describe` renders a
        label as provenance text. Point-to-point links become capacity arcs. Each
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
        arc for an input that is a broadcast transmitter. Layer and SIC arcs
        of rate 0 (a layer of zero power among them) are left out.

        Args:
            bc_betas: per-layer power shares by BC key (nonnegative, summing
                to 1, one per layer of the structure); a missing entry puts
                all power in the first layer.

        Raises:
            ValueError: on entries naming unknown components or invalid betas.
        """
        slots, _ = self._rate(bc_betas, _OneSplit)
        return [arc for arc in slots if _kept(arc[2], arc[3])]

    def rate_batch(self, bc_betas: dict) -> LowerBatch:
        """The arcs of this structure at n power splits, rated in one pass.

        The formulas of `arcs` run once, on one array per layer that holds
        every split's beta, and give each split the rates `arcs` gives it,
        bit for bit. A search whose splits are known before it rates any of
        them calls this; one split at a time goes through `arcs`.

        Args:
            bc_betas: by BC key, a sequence of n per-layer power splits, each
                as `arcs` takes it; every entry holds the same n >= 1. A
                missing entry puts all power in the first layer at every split.

        Raises:
            ValueError: as `arcs`, for the first split that `arcs` would
                refuse; on entries of different or zero lengths; and, for
                n > 1, on a multi-access side without an explicit decode
                order, whose default order depends on the split.
        """
        counts = {len(rows) for rows in bc_betas.values()}
        if len(counts) > 1 or 0 in counts:
            raise ValueError(
                f"bc_betas entries must hold the same number of splits, at least "
                f"one; got {sorted(counts)}"
            )
        n = counts.pop() if counts else 1
        slots, extrinsic = self._rate(bc_betas, _Splits(n))
        rates = np.empty((n, len(slots)))
        for s, arc in enumerate(slots):
            rates[:, s] = arc[2]
        return LowerBatch(
            slots=tuple((tail, heads) for tail, heads, _, _ in slots),
            rates=rates,
            labels=tuple(arc[3] for arc in slots),
            extrinsic=extrinsic,
        )


def describe(arc) -> str:
    """The provenance text of one arc of `UpperStructure.arcs` or
    `LowerStructure.arcs`, from its label: a text label is itself, ``(text
    before, alpha, text after)`` a MAC-rated upper pipe, ("bc", layer, beta,
    extrinsic) a broadcast layer and ("mac", decode order) a SIC arc."""
    tail, heads, _rate, label = arc
    if isinstance(label, str):
        return label
    if label[0] == "mac":
        return f"mac {heads[0]}: input {tail} sic (order {list(label[1])})"
    if label[0] != "bc":
        return "%s%g%s" % label
    _kind, layer, beta, extrinsic = label
    shared = [j for j in heads if extrinsic[(tail, j)] > 0]
    note = f" (interference-adjusted at {shared})" if shared else ""
    return f"bc {tail}: layer {layer + 1} beta={beta:g} -> {list(heads)}{note}"


def build_upper(components) -> tuple:
    """``(node_ids, arcs)`` of the upper network at the default receiver
    orders and alpha 1. Raises ValueError as `UpperStructure` does."""
    structure = UpperStructure(components)
    return structure.node_ids, structure.arcs(1.0)


def build_lower(components, params: LowerParams | None = None) -> tuple:
    """``(node_ids, arcs)`` of the lower network of `LowerStructure(components,
    params)` at `params.bc_betas` (None means all defaults); see
    `LowerStructure.arcs` for the rates."""
    params = params or LowerParams()
    structure = LowerStructure(components, params)
    return structure.node_ids, structure.arcs(params.bc_betas)
