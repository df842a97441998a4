"""Assemble noiseless bounding networks from decoupled components.

The upper network replaces every component by its upper model: point-to-point
pipes routed through one auxiliary node per multi-terminal component, with a
link shared by a broadcast side and a multi-access side carried by a single
pipe at the larger of the two required rates. The rates come from
`bc.bc_upper_cumulative` and `mac.mac_upper`; point-to-point links get their
capacity from `link_capacity`. `UpperStructure` fixes what does not depend
on the noise split alpha: nodes, auxiliary ids, each broadcast side's
cumulative rates for its receiver order, point-to-point arcs and shared
links. Its `rate_batch(alphas)` rates the multi-access pipes (and the shared
ones, at the larger rate) at a whole alpha sweep into an `UpperBatch`: the
pipe slots and an alphas x slots rate array, from which each alpha's
``(tail, heads, rate, label)`` arcs can be read. `arcs(alpha)` is the batch
of one alpha. One noise split alpha is common to every multi-access side.
`rate_batch` takes every MAC's rates at every alpha of the sweep from
`_mac_sweep`, a `functools.lru_cache` of the last 64 sweeps, keyed by the
structure's MACs and the alphas: a sweep not among them is computed in one
`mac_upper` call. The relay's two receiver-order structures share their one
MAC, and a relay sweep holds that MAC fixed at every point, so a whole sweep
computes 11 pairs, in one call. A multicast point (110 pairs) and a `bounds`
file's alpha sweep do not repeat, so each structure computes all of its pairs
in one call.

The lower network replaces every component by an achievable coding scheme:
superposition layers on broadcast sides (hyper-arcs to the receivers that
decode each layer) and successive interference cancellation at multi-access
receivers. Its model is a two-step update, written once in one rating core:
`LowerStructure._charge` charges every receiver with the power it never
decodes, and `_rate` rates the layer and SIC arcs against those charges at
given decode orders. The core takes each broadcast side's betas in one of two
forms: floats for one power split, or one 1-D array per layer for a batch of
splits. What differs by form is in `_OneSplit` and `_Splits`: the capacity
(both take the same `np.log2`), the elementwise min, max(0, x), and how betas
are checked. Every sum runs from 0.0, left to right, through `info.ltr_sum`
in both forms (from Python 3.12 on, builtin `sum` compensates a sum of floats
but not one of arrays), so a batch row is bit for bit the float form.

- `LowerStructure` fixes and validates what does not depend on the power
  split beta: each broadcast side's layer count and decode targets, explicit
  decode orders, which multi-access inputs get SIC arcs, and the node list.
  What one tuple of components fixes is one `_Frame`, shared by the upper
  and lower structures built on the tuple, built on its first use and kept
  in a `functools.lru_cache` of the last 4 (`_frame`): the node ids, key
  maps, point-to-point arcs with their capacities, broadcast inputs, zero
  residual and extrinsic maps, and per component one side per structural
  choice (`_BcSide` per layer count and decode targets, `_MacSide` per
  decode order, with one SIC table per order it is rated in), validated
  when it is built. A structure checks its parameters and takes the rest
  from the frame. So the 29 lower structures that the multicast search
  builds on one point's components build 20 broadcast sides and 20
  multi-access sides (one per component and structure made 58 and 290) and
  20 SIC tables.
- `LowerStructure.arcs(betas)` charges the residuals of one split (the float
  form), resolves default decode orders, which depend on those residuals, as
  `rate_batch` does (`_order_groups`), and rates every layer arc and SIC arc
  against them, so each rate is achievable with every cross-component
  interference accounted for. It returns plain
  ``(tail, heads, rate, label)`` tuples, which is all the flow layer reads.
  The multicast search rates one split at a time here: on one of its
  structures a one-split batch takes about 250 microseconds against 50 for
  `arcs`, which would about double a multicast pass (336 ratings).
- `LowerStructure.rate_batch(splits)` charges n splits at once (the array
  form), groups them by their decode orders and rates each group in one
  pass. It returns a `LowerBatch`: the arc slots and an n x slots rate
  array, from which any split's arcs can be read as `arcs` gives them. The
  relay search rates each grid and zoom step so, and `bounds` its sweep.

A bounding network is its node ids and these arcs; there is no other form.
The flow functions in `netbounds.flows` and `validate_bounding_network` take
them as they are, so the searches and the `bounds` sweep build each
structure once and rate it at every alpha or beta. A label is the data behind
an arc's provenance, and `describe(arc)` renders it as text. `build_upper`
and `build_lower` return ``(node_ids, arcs)`` at the defaults or, for the
lower network, at one `LowerParams`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .bc import BcSpec, bc_upper_cumulative
from .decouple import DecoupledComponent
from .info import awgn_capacities, awgn_capacity, bsc_capacity, ltr_sum, qsc_capacity
from .mac import MacRates, MacSpec, mac_upper
from .netmodel import NoisyLink

__all__ = [
    "LowerParams",
    "UpperStructure",
    "UpperBatch",
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


def _check_param_keys(params_map: dict, known: dict, label: str):
    for key in params_map:
        if key not in known:
            raise ValueError(f"{label} entry {key} matches no component")


def _default_perm(comp: DecoupledComponent) -> tuple[str, ...]:
    ranked = sorted(zip(comp.gamma_list(), comp.outputs), key=lambda t: (-t[0], t[1]))
    return tuple(r for _, r in ranked)


def _p2p_arc(link: NoisyLink) -> tuple:
    return (link.src, (link.dst,), link_capacity(link), f"p2p {link.kind} {link.src}->{link.dst}")


def _all_nodes(components) -> tuple[str, ...]:
    """Every component's inputs and outputs, each once, in order of first use."""
    return tuple(
        dict.fromkeys(name for comp in components for name in (*comp.inputs, *comp.outputs))
    )


@functools.lru_cache(maxsize=64)
def _mac_sweep(macs: tuple[MacSpec, ...], alphas: tuple[float, ...]) -> tuple[MacRates, ...]:
    """`mac_upper` of every MAC of `macs` at every alpha of `alphas`, alpha by
    alpha, in one call through this module's globals; the last 64 sweeps
    are kept."""
    return tuple(mac_upper([(spec, alpha) for alpha in alphas for spec in macs]))


@functools.lru_cache(maxsize=4)
def _frame(components: tuple) -> _Frame:
    """The `_Frame` of a tuple of components, built on its first use by an
    upper or lower structure. A search builds all of its structures on one
    tuple, so the last 4 are kept: each holds its components (about 75 kB on
    a multicast point) alive."""
    return _Frame(components)


def _sic_table(rx: str, links, order) -> tuple:
    """(input, residual keys of inputs decoded before it, full power of
    inputs decoded after it) per input of a multi-access receiver, in link
    order, for one decode order."""
    position = {tx: k for k, tx in enumerate(order)}
    return tuple(
        (
            i,
            tuple((k, rx) for k, _ in links if position[k] < position[i]),
            ltr_sum(snr for k, snr in links if position[k] > position[i]),
        )
        for i, _ in links
    )


def _clear_caches() -> None:
    """Empty every cache of this module: the frames and the MAC-rate sweeps."""
    _frame.cache_clear()
    _mac_sweep.cache_clear()


class UpperStructure:
    """The part of an upper network that does not depend on the noise split.

    Built once from the components and `bc_perm`, which maps a BC component
    key ("bc", transmitter) to the receiver id order of its cumulative upper
    model; a missing entry puts receivers in descending effective SNR. Every
    broadcast component becomes pipes through an auxiliary node "<tx>_out":
    the transmitter feeds it at the component sum rate and it feeds each
    receiver at its cumulative-group rate. Every multi-access component
    becomes pipes through "<rx>_in": each input feeds it at its per-input
    rate and it feeds the receiver at the sum rate; `rate_batch(alphas)`
    rates these. A link on both sides becomes one auxiliary-to-auxiliary pipe at
    the larger of its two rates, which any lossless representation needs.

    Raises:
        ValueError: on `bc_perm` entries that match no component or do not
            order its receivers, and on auxiliary ids taken by a node.
    """

    def __init__(self, components, bc_perm: dict | None = None):
        bc_perm = bc_perm or {}
        frame = _frame(tuple(components))
        _check_param_keys(bc_perm, frame.bc_by_key, "bc_perm")
        nodes = dict.fromkeys(frame.node_ids)

        def auxiliary(name: str) -> str:
            if name in nodes:
                raise ValueError(f"auxiliary id {name!r} collides with a node id")
            nodes[name] = None
            return name

        # (tail, heads, fixed rate, MAC rate, label) per pipe, in order. A MAC
        # rate (index, input position or None for the sum) is read per alpha,
        # at least the fixed rate; its label is the text around the alpha.
        self._slots: list[tuple] = []
        bc_links: dict[tuple[str, str], tuple[float, str]] = {}
        for comp in frame.bc_by_key.values():
            tx, receivers = comp.inputs[0], comp.outputs
            perm_ids = bc_perm.get(comp.key, _default_perm(comp))
            if sorted(perm_ids) != sorted(receivers):
                raise ValueError(
                    f"bc_perm for {comp.key} must order receivers {sorted(receivers)}, "
                    f"got {perm_ids}"
                )
            perm = tuple(receivers.index(r) for r in perm_ids)
            rates = bc_upper_cumulative(BcSpec(gammas=comp.gamma_list()), perm)
            label = f"bc {tx}: sum over {len(receivers)} receivers"
            self._slots.append((tx, (auxiliary(f"{tx}_out"),), rates[-1], None, label))
            for position, rx in enumerate(perm_ids):
                label = f"bc {tx}: receiver {rx} (cumulative position {position + 1})"
                bc_links[(tx, rx)] = (rates[position], label)
        self._macs: list[MacSpec] = []
        mac_links: dict[tuple[str, str], tuple[int, int]] = {}
        for comp in frame.mac_by_key.values():
            rx, index = comp.outputs[0], len(self._macs)
            self._macs.append(MacSpec(gammas=comp.gamma_list()))
            label = (f"mac {rx}: sum (alpha=", ")")
            self._slots.append((auxiliary(f"{rx}_in"), (rx,), None, (index, None), label))
            for position, tx in enumerate(comp.inputs):
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
        for comp, _key, arc in frame.parts:
            if comp.kind == "p2p":
                tail, heads, rate, label = arc
                self._slots.append((tail, heads, rate, None, label))
        self.node_ids = tuple(nodes)

    def rate_batch(self, alphas) -> UpperBatch:
        """The pipes of this structure at every noise split of `alphas`, the
        share of every MAC receiver's noise backing its sum constraint (1 is
        full cooperation, with unconstrained per-input pipes). Row r of the
        batch is, bit for bit, `arcs(alphas[r])`. MAC rates come from
        `_mac_sweep`, in one call for the whole sweep.
        """
        alphas = tuple(alphas)
        macs = len(self._macs)
        rated = _mac_sweep(tuple(self._macs), alphas) if macs else ()
        sweeps = [rated[index::macs] for index in range(macs)]  # per MAC, its rates per alpha
        rates = np.empty((len(alphas), len(self._slots)))
        for place, (_tail, _heads, fixed, mac, _label) in enumerate(self._slots):
            if mac is None:
                rates[:, place] = fixed
                continue
            index, position = mac
            column = [
                rv.sum_rate if position is None else rv.individual[position]
                for rv in sweeps[index]
            ]
            rates[:, place] = column if fixed is None else [max(fixed, rate) for rate in column]
        slots = tuple((tail, heads) for tail, heads, *_ in self._slots)
        labels = tuple(slot[4] for slot in self._slots)
        return UpperBatch(slots, rates, alphas, labels)

    def arcs(self, alpha: float) -> list[tuple]:
        """One ``(tail, heads, rate, label)`` per pipe, in order, at `alpha`
        (see `rate_batch`). A label is the provenance text, or ``(text
        before, alpha, text after)`` on a MAC-rated pipe.
        """
        return self.rate_batch((alpha,)).arcs(0)


@dataclass(frozen=True)
class UpperBatch:
    """The pipes of one upper structure at n noise splits.

    `slots` holds every pipe as ``(tail, heads)``, in the order of
    `UpperStructure.arcs`; `rates[r, s]` is slot s's rate at `alphas[r]`.
    `labels` holds per slot its provenance text, or on a MAC-rated pipe the
    texts before and after its alpha. `arcs(r)` is alpha r's arcs as
    `UpperStructure.arcs` returns them.
    """

    slots: tuple[tuple[str, tuple[str, ...]], ...]
    rates: np.ndarray
    alphas: tuple[float, ...]
    labels: tuple

    def arcs(self, row: int) -> list[tuple]:
        """Alpha `row`'s ``(tail, heads, rate, label)`` arcs."""
        alpha = self.alphas[row]
        return [
            (tail, heads, rate, label if isinstance(label, str) else (label[0], alpha, label[1]))
            for (tail, heads), rate, label in zip(self.slots, self.rates[row].tolist(), self.labels)
        ]


def _bc_targets(key: tuple, sorted_receivers: tuple[str, ...], explicit: tuple) -> tuple:
    """Intended receiver sets of a broadcast side's layers, validated:
    `explicit` holds per layer its `bc_decode_targets` entry, or None.

    Default targets follow the receivers' original marginal SNRs, not the
    inflated decoupled values: `sorted_receivers` ascend in them.
    """
    m, layers = len(sorted_receivers), len(explicit)
    targets: list[tuple[str, ...]] = []
    for layer, given in enumerate(explicit):
        if given is None:
            if layers != m:
                raise ValueError(
                    f"bc_betas for {key} has {layers} layers; default "
                    f"targets need one per receiver ({m}); set bc_decode_targets"
                )
            chosen = sorted_receivers[layer:]
        else:
            chosen = tuple(sorted(given))
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

    def __init__(self, comp: DecoupledComponent, explicit: tuple, index: int):
        self.key = comp.key
        self.index = index  # its place among the structure's broadcast sides
        self.tx = comp.inputs[0]
        self.gamma = {link.dst: link.snr for link in comp.links}
        self.layers = len(explicit)
        ascending = sorted(comp.links, key=lambda link: (link.snr, link.dst))
        self.targets = _bc_targets(self.key, tuple(link.dst for link in ascending), explicit)
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
        if abs(ltr_sum(betas) - 1.0) > 1e-9:
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
            if in_range and abs(ltr_sum(columns) - 1.0).max() <= 1e-9:
                return columns
        for row in rows:
            self.betas(row)
        raise AssertionError(f"bc_betas for {self.key}: batch check disagrees with betas")


class _MacSide:
    """A multi-access receiver at one decode order (None for the default):
    its (input, SNR) links in link order and, per decode order it is rated
    in, which inputs it has decoded (residual power) or not yet (full power)
    while decoding each one (`sic`). A default-order side is rated in every
    order its splits resolve to, so it keeps one table per order."""

    def __init__(self, comp: DecoupledComponent, order, bc_inputs, index: int):
        self.key = comp.key
        self.index = index  # its place among the structure's multi-access sides
        self.rx = comp.outputs[0]
        self.links = tuple((link.src, link.snr) for link in comp.links)
        # Inputs that are broadcast transmitters get no SIC pipe: their
        # traffic rides on the broadcast side's layer arcs.
        self.piped = any(src not in bc_inputs for src, _ in self.links)
        self.order = order
        if self.order is not None:
            inputs = sorted(src for src, _ in self.links)
            if sorted(self.order) != inputs:
                raise ValueError(
                    f"mac_order for {self.key} must order inputs {inputs}, got {self.order}"
                )
            self.order = tuple(self.order)
        self._tables: dict[tuple[str, ...], tuple] = {}

    def sic(self, order) -> tuple:
        """`_sic_table` at one decode order."""
        table = self._tables.get(order)
        if table is None:
            table = self._tables[order] = _sic_table(self.rx, self.links, order)
        return table


class _Frame:
    """What one tuple of components fixes for every upper and lower
    structure built on it: the node ids, the component keys, the broadcast
    inputs, the zero residual and zero extrinsic maps each split starts
    from, and per component its point-to-point arc or its sides. A side is
    built, and its choice validated, on first use: one `_BcSide` per (layer
    count, decode targets) and one `_MacSide` per decode order, shared by
    every lower structure that chooses it."""

    def __init__(self, components: tuple):
        self.node_ids = _all_nodes(components)
        # Per component in order: (component, key, its point-to-point arc or
        # its place among its kind's sides).
        self.parts: list[tuple] = []
        count = {"bc": 0, "mac": 0}
        by_key = {"bc": {}, "mac": {}}
        self.bc_by_key, self.mac_by_key = by_key["bc"], by_key["mac"]
        self.no_residual: dict[tuple[str, str], float] = {}
        for comp in components:
            if comp.kind == "p2p":
                self.parts.append((comp, comp.key, _p2p_arc(comp.links[0])))
                continue
            self.parts.append((comp, comp.key, count[comp.kind]))
            count[comp.kind] += 1
            by_key[comp.kind][comp.key] = comp
            # A link on two sides keeps its first place.
            self.no_residual.update(((link.src, link.dst), 0.0) for link in comp.links)
        self.bc_inputs = {comp.inputs[0] for comp in self.bc_by_key.values()}
        self.no_extrinsic = {
            (comp.inputs[0], link.dst): 0.0
            for comp in self.bc_by_key.values()
            for link in comp.links
        }
        self._sides: dict[tuple, _BcSide | _MacSide] = {}

    def steps(self, params: LowerParams) -> list:
        """Per component in order: its point-to-point arc, or the side that
        `params` choose for it, validated when it is built."""
        steps = []
        for place, (comp, key, arc_or_index) in enumerate(self.parts):
            if comp.kind == "p2p":
                steps.append(arc_or_index)
                continue
            if comp.kind == "bc":
                given = params.bc_betas.get(key)
                layers = len(comp.links) if given is None else len(given)
                explicit = tuple(
                    params.bc_decode_targets.get((key, layer)) for layer in range(layers)
                )
                choice = tuple(None if chosen is None else tuple(chosen) for chosen in explicit)
            else:
                explicit = params.mac_order.get(key)
                choice = None if explicit is None else tuple(explicit)
            side = self._sides.get((place, choice))
            if side is None:
                if comp.kind == "bc":
                    side = _BcSide(comp, explicit, arc_or_index)
                else:
                    side = _MacSide(comp, explicit, self.bc_inputs, arc_or_index)
                self._sides[(place, choice)] = side
            steps.append(side)
        return steps


class _OneSplit:
    """The rating core's input form for one power split: every beta, residual
    and rate is a float. Its helpers are picked by form, the formulas are not."""

    capacity = staticmethod(awgn_capacity)
    least = staticmethod(min)  # of an iterable
    clip = staticmethod(functools.partial(max, 0.0))
    lowest = staticmethod(float)  # a float's least entry is itself
    off = staticmethod(operator.not_)  # a layer without power

    betas = staticmethod(_BcSide.betas)  # of a side, checked


class _Splits:
    """The rating core's input form for n power splits: what depends on the
    split is a 1-D array with one entry per split, the rest stays a float.
    Elementwise IEEE arithmetic rounds as the float form does."""

    capacity = staticmethod(awgn_capacities)
    clip = staticmethod(functools.partial(np.maximum, 0.0))

    least = staticmethod(functools.partial(functools.reduce, np.minimum))

    @staticmethod
    def lowest(value) -> float:
        return np.minimum.reduce(value) if isinstance(value, np.ndarray) else value

    @staticmethod
    def off(beta) -> bool:
        """Without power at every split."""
        return not (np.logical_or.reduce(beta) if isinstance(beta, np.ndarray) else beta)

    betas = staticmethod(_BcSide.columns)  # of a side, one array per layer


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
    """The arcs of one lower structure at n power splits.

    `slots` holds every arc the structure can have as ``(tail, heads)``, in
    the order of `LowerStructure.arcs`; `rates[r, s]` is slot s's rate at
    split r, 0.0 wherever `LowerStructure.arcs` leaves the layer or SIC arc
    out. Split r is in decode-order group `group[r]`; `groups` holds per
    group the slots' labels and the broadcast labels' extrinsic terms, with
    arrays over all n splits where they vary. `present[r]` marks the slots
    that `LowerStructure.arcs` keeps at split r, and `arcs(r)` is split r's
    arcs as it returns them.
    """

    slots: tuple[tuple[str, tuple[str, ...]], ...]
    rates: np.ndarray
    groups: tuple[tuple, ...]
    group: np.ndarray

    @functools.cached_property
    def present(self) -> np.ndarray:
        """Per split and slot, whether the split's arcs hold the slot, by
        `_kept`: a point-to-point slot always, any other if its rate is not 0."""
        always = np.array(
            [[_kept(0.0, label) for label in labels] for labels, _ in self.groups], dtype=bool
        ).reshape(len(self.groups), len(self.slots))
        return (self.rates != 0.0) | always[self.group]

    def slot_arcs(self, row: int) -> list[tuple]:
        """Split `row`'s ``(tail, heads, rate, label)`` per slot, the arcs
        that `LowerStructure.arcs` leaves out included."""
        labels, extrinsic = self.groups[self.group[row]]
        extrinsic = {key: _at(value, row) for key, value in extrinsic.items()}
        arcs = []
        for (tail, heads), rate, label in zip(self.slots, self.rates[row].tolist(), labels):
            if label[0] == "bc":
                label = ("bc", label[1], _at(label[2], row), extrinsic)
            arcs.append((tail, heads, rate, label))
        return arcs

    def arcs(self, row: int) -> list[tuple]:
        """Split `row`'s ``(tail, heads, rate, label)`` arcs, equal to what
        `LowerStructure.arcs` returns for that split, without re-rating."""
        return list(compress(self.slot_arcs(row), self.present[row]))


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
    Structures built on one tuple of components share its `_Frame`: they
    check their parameters here and take everything else from it.

    Raises:
        ValueError: on parameter entries naming unknown components,
            non-nested or empty targets, or decode orders that do not match
            a component's inputs.
    """

    def __init__(self, components, params: LowerParams | None = None):
        params = params or LowerParams()
        self.components = tuple(components)
        self.params = params
        frame = _frame(self.components)
        _check_param_keys(params.bc_betas, frame.bc_by_key, "bc_betas")
        _check_param_keys(params.mac_order, frame.mac_by_key, "mac_order")
        for key, _layer in params.bc_decode_targets:
            if key not in frame.bc_by_key:
                raise ValueError(f"bc_decode_targets entry {key} matches no component")
        self._bc_keys = frame.bc_by_key
        self.node_ids = frame.node_ids
        self._bc_inputs = frame.bc_inputs
        # Components in order: a prebuilt p2p arc, a _BcSide or a _MacSide.
        self._steps = frame.steps(params)
        self._bcs = [step for step in self._steps if isinstance(step, _BcSide)]
        self._macs = [step for step in self._steps if isinstance(step, _MacSide)]
        # No residual and no extrinsic interference: what each split starts from.
        self._no_residual, self._no_extrinsic = frame.no_residual, frame.no_extrinsic

    def _charge(self, bc_betas: dict, form) -> tuple:
        """The charges of one evaluation, in either input form: each
        broadcast side's betas and the residuals, which do not depend on
        any decode order.

        For each broadcast component the power share of every layer a
        receiver is not intended to decode stays as interference:
        residual(i, j) = gamma_ij * sum of betas over layers whose target set
        excludes j. Inputs without a broadcast side leave no residual at
        their own receiver.
        """
        _check_param_keys(bc_betas, self._bc_keys, "bc_betas")
        sides = [form.betas(bc, bc_betas.get(bc.key)) for bc in self._bcs]
        residual = dict(self._no_residual)
        for bc, betas in zip(self._bcs, sides):
            for j, snr, k in bc.decoded:
                residual[(bc.tx, j)] = snr * ltr_sum(betas[k:])
        for (i, j), value in residual.items():
            if form.lowest(value) < -1e-12:
                raise AssertionError(f"negative residual at ({i}, {j}): {value}")
        return sides, residual

    def _rate(self, sides, residual, orders, form) -> tuple[list[tuple], dict]:
        """The rating core, in either input form, at the charges of `_charge`
        and one decode order per multi-access side: every arc slot as
        ``(tail, heads, rate, label)`` in arc order, rate 0 where `arcs`
        leaves the arc out, and the extrinsic terms the broadcast labels hold.
        The extrinsic term for decoding input i at receiver j follows j's
        decode order: inputs decoded before i contribute their residual,
        inputs decoded after i their full power."""
        extrinsic = dict(self._no_extrinsic)
        for mac, order in zip(self._macs, orders):
            for i, before, after in mac.sic(order):
                extrinsic[(i, mac.rx)] = ltr_sum(residual[key] for key in before) + after
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
                    later = ltr_sum(betas[layer + 1 :])
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
                for place, tx in enumerate(order):
                    if tx in self._bc_inputs:
                        continue
                    undecoded = ltr_sum(effective[src] for src in order[place + 1 :])
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
        sides, residual = self._charge(bc_betas, _OneSplit)
        _, [orders] = self._order_groups(residual, 1)
        slots, _ = self._rate(sides, residual, orders, _OneSplit)
        return [arc for arc in slots if _kept(arc[2], arc[3])]

    def _order_groups(self, residual, n: int) -> tuple:
        """Each of n splits' decode-order group, and per group one order per
        multi-access side. A free side (no explicit order) decodes stronger
        decodable powers first, ties by node id, by one lexsort."""
        free = [mac for mac in self._macs if mac.order is None]
        if not free:
            return np.zeros(n, dtype=np.intp), [[mac.order for mac in self._macs]]
        inputs, zero = [], np.zeros(n)  # per free side, its inputs in each split's decode order
        for mac in free:  # decodable powers, one per input
            power = {src: snr - residual[(src, mac.rx)] for src, snr in mac.links}
            ids = np.array(list(power))
            decodable = np.array([value + zero for value in power.values()])
            by_id = np.broadcast_to(ids[:, None], decodable.shape)
            inputs.append(ids[np.lexsort((by_id, -decodable), axis=0)])
        found, group = np.unique(np.concatenate(inputs).T, axis=0, return_inverse=True)
        orders = [
            [mac.order or tuple(next(free_order) for _ in dict(mac.links)) for mac in self._macs]
            for free_order in map(iter, found.tolist())
        ]
        return group.reshape(-1), orders

    def rate_batch(self, bc_betas: dict) -> LowerBatch:
        """The arcs of this structure at n power splits, rated in one pass
        per decode-order group.

        The residuals, which fix the default decode orders, are charged once
        on one array per layer that holds every split's beta. Each group of
        splits that share their orders is rated in one pass of the formulas
        of `arcs`, which gives each split the rates `arcs` gives it, bit for
        bit. A search whose splits are known before it rates any calls this.

        Args:
            bc_betas: by BC key, a sequence of n per-layer power splits, each
                as `arcs` takes it; every entry holds the same n >= 1. A
                missing entry puts all power in the first layer at every split.

        Raises:
            ValueError: as `arcs`, for the first split that `arcs` would
                refuse, and on entries of different or zero lengths.
        """
        counts = {len(rows) for rows in bc_betas.values()}
        if len(counts) > 1 or 0 in counts:
            raise ValueError(
                f"bc_betas entries must hold the same number of splits, at least "
                f"one; got {sorted(counts)}"
            )
        n = counts.pop() if counts else 1
        sides, residual = self._charge(bc_betas, _Splits)
        group, group_orders = self._order_groups(residual, n)
        groups = []
        for g, orders in enumerate(group_orders):
            rated, extrinsic = self._rate(sides, residual, orders, _Splits)  # at every split
            block = np.empty((n, len(rated)))
            for place, arc in enumerate(rated):
                block[:, place] = arc[2]
            if not groups:  # each later group then takes its own splits' rates
                slots, rates = tuple(arc[:2] for arc in rated), block
            else:
                # A decode order moves only broadcast transmitters against the
                # other inputs, and those get no SIC arc: the slots stay put.
                assert tuple(arc[:2] for arc in rated) == slots
                rates[group == g] = block[group == g]
            groups.append((tuple(arc[3] for arc in rated), extrinsic))
        return LowerBatch(slots, rates, tuple(groups), group)


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
