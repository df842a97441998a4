"""Data model for noisy networks and demands, and the bounding-network check.

A noisy network is a set of nodes joined by typed noisy links (AWGN links
described by a linear SNR, q-ary symmetric links by (q, xi), binary symmetric
links by eps) plus traffic demands. All values are immutable after
construction. Bounding constructions (`netbounds.assemble`) turn it into a
noiseless network, read everywhere as its node ids and its ``(tail, heads,
rate, label)`` arcs: point-to-point bit pipes and hyper-arcs, possibly
through auxiliary nodes. `validate_bounding_network` checks that form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .info import db_to_linear

__all__ = [
    "NetworkFormatError",
    "Node",
    "NoisyLink",
    "Demand",
    "NoisyNetwork",
    "parse_network",
    "serialize_network",
    "validate_bounding_network",
]

LINK_KINDS = ("awgn", "qsc", "bsc")
_LINK_FIELDS = {"awgn": ("snr",), "qsc": ("q", "xi"), "bsc": ("eps",)}
# AWGN SNRs accepted (-150..150 dB): the envelope that the `bounds` fuzz tests
# cover, where every run gives inner <= outer; nothing is claimed beyond it.
_SNR_RANGE = (1e-15, 1e15)
DEMAND_KINDS = ("unicast", "multicast")
_DOCUMENT_KEYS = frozenset({"nodes", "links", "demands"})
_LINK_KEYS = frozenset({"from", "to", "kind", "snr", "snr_db", "q", "xi", "eps"})
_LINK_REQUIRED_KEYS = frozenset({"from", "to", "kind"})
_DEMAND_KEYS = frozenset({"kind", "source", "sinks"})


class NetworkFormatError(ValueError):
    """Raised for malformed network documents or invariant violations."""


@dataclass(frozen=True)
class Node:
    """A node of a noisy network."""

    id: str


@dataclass(frozen=True)
class NoisyLink:
    """A directed noisy link.

    Exactly the parameters of the link's kind must be set: `snr` for awgn
    (linear scale, in [1e-15, 1e15]), `q` and `xi` for qsc (xi in [0, (q-1)/q]),
    `eps` for bsc.
    """

    src: str
    dst: str
    kind: str
    snr: float | None = None
    q: int | None = None
    xi: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise NetworkFormatError(f"{self._where}: unknown kind {self.kind!r}")
        required = _LINK_FIELDS[self.kind]
        for name in ("snr", "q", "xi", "eps"):
            value = getattr(self, name)
            if name in required and value is None:
                raise NetworkFormatError(f"{self._where}: missing field {name!r}")
            if name not in required and value is not None:
                raise NetworkFormatError(
                    f"{self._where}: field {name!r} not allowed for kind {self.kind!r}"
                )
        if self.kind == "awgn":
            if not 0.0 < self.snr < math.inf:
                raise NetworkFormatError(
                    f"{self._where}: snr must be positive and finite, got {self.snr}"
                )
            low, high = _SNR_RANGE
            if not low <= self.snr <= high:
                raise NetworkFormatError(
                    f"{self._where}: snr must lie in [{low:g}, {high:g}] (-150..150 dB), "
                    f"got {self.snr}"
                )
        elif self.kind == "qsc":
            if int(self.q) != self.q or self.q < 2:
                raise NetworkFormatError(
                    f"{self._where}: q must be an integer >= 2, got {self.q}"
                )
            boundary = (self.q - 1) / self.q
            if not 0.0 <= self.xi <= boundary:
                raise NetworkFormatError(
                    f"{self._where}: xi must lie in [0, {boundary:g}] for q={self.q}, "
                    f"got {self.xi}"
                )
        elif self.kind == "bsc":
            if not 0.0 <= self.eps <= 0.5:
                raise NetworkFormatError(
                    f"{self._where}: eps must lie in [0, 1/2], got {self.eps}"
                )

    def __hash__(self):
        # A network holds at most one link per (sender, receiver) pair, so the
        # endpoints alone spread the per-link maps of a network; equal links
        # have equal endpoints.
        return hash((self.src, self.dst))

    @property
    def _where(self) -> str:
        """The link as refusal messages name it."""
        return f"link {self.src!r}->{self.dst!r}"


@dataclass(frozen=True)
class Demand:
    """A unicast or multicast traffic demand between terminal nodes."""

    kind: str
    source: str
    sinks: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "sinks", frozenset(self.sinks))
        if self.kind not in DEMAND_KINDS:
            raise NetworkFormatError(f"{self._where}: unknown kind {self.kind!r}")
        if not self.sinks:
            raise NetworkFormatError(f"{self._where}: sinks must be nonempty")
        if self.source in self.sinks:
            raise NetworkFormatError(f"{self._where}: sinks must exclude the source")
        if self.kind == "unicast" and len(self.sinks) != 1:
            raise NetworkFormatError(
                f"{self._where}: unicast demand must have exactly one sink"
            )

    @property
    def _where(self) -> str:
        """The demand as refusal messages name it."""
        return f"demand from {self.source!r}"

    @cached_property
    def sink_list(self) -> tuple[str, ...]:
        """The sinks, sorted; built once per demand."""
        return tuple(sorted(self.sinks))


@dataclass(frozen=True)
class NoisyNetwork:
    """A memoryless noisy network with independent per-link noise."""

    nodes: tuple[Node, ...]
    links: tuple[NoisyLink, ...] = ()
    demands: tuple[Demand, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "demands", tuple(self.demands))
        known: dict[str, int] = {}
        for index, node in enumerate(self.nodes):
            first = known.setdefault(node.id, index)
            if first != index:
                raise NetworkFormatError(
                    f"nodes[{index}]: duplicate node id {node.id!r} repeats nodes[{first}]"
                )
        for index, link in enumerate(self.links):
            for node in (link.src, link.dst):
                if node not in known:
                    raise NetworkFormatError(
                        f"links[{index}]: {link._where}: unknown node {node!r}"
                    )
            if link.src == link.dst:
                raise NetworkFormatError(
                    f"links[{index}]: {link._where}: self-loops are not allowed"
                )
        # Discrete broadcast and superposition structures have no decoupling
        # rule, so a node sends and receives on at most one discrete link.
        sends: dict[str, int] = {}
        receives: dict[str, int] = {}
        for index, link in enumerate(self.links):
            if link.kind == "awgn":
                continue
            for node, seen, verb, structure in (
                (link.src, sends, "transmits", "broadcast"),
                (link.dst, receives, "receives", "superposition"),
            ):
                if node in seen:
                    raise NetworkFormatError(
                        f"links[{index}]: node {node!r} already {verb} on discrete "
                        f"link links[{seen[node]}]; discrete {structure} structures "
                        "have no decoupling rule"
                    )
                seen[node] = index
        # The lower model keys a receiver's inputs by sender, so a second link
        # on one (sender, receiver) pair would silently drop the first.
        pairs: dict[tuple[str, str], int] = {}
        for index, link in enumerate(self.links):
            first = pairs.setdefault((link.src, link.dst), index)
            if first != index:
                raise NetworkFormatError(
                    f"links[{index}]: link {link.src!r}->{link.dst!r} repeats links[{first}]; "
                    "parallel links are not modelled"
                )
        for index, demand in enumerate(self.demands):
            if demand.source not in known:
                raise NetworkFormatError(
                    f"demands[{index}]: {demand._where}: unknown node {demand.source!r}"
                )
            for sink in demand.sink_list:
                if sink not in known:
                    raise NetworkFormatError(
                        f"demands[{index}]: {demand._where}: unknown sink {sink!r}"
                    )

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


def validate_bounding_network(node_ids, arcs, role: str) -> list[str]:
    """Collect invariant violations of a noiseless bounding network.

    Args:
        node_ids: the candidate network's node ids.
        arcs: ``(tail, heads, rate, label)`` per pipe, as the structures in
            `netbounds.assemble` rate them; a label names the model behind
            the pipe (`assemble.describe` renders it) and must not be empty.
        role: "upper" or "lower". Upper-bounding networks must consist of
            point-to-point pipes only; lower-bounding networks may also carry
            hyper-arcs.

    Returns:
        A list of human-readable violation strings; empty iff the network is a
        well-formed bounding network for the given role.
    """
    if role not in ("upper", "lower"):
        raise ValueError(f"role must be 'upper' or 'lower', got {role!r}")
    violations: list[str] = []
    ids = list(node_ids)
    for dup in sorted({i for i in ids if ids.count(i) > 1}):
        violations.append(f"duplicate node id {dup!r}")
    known = set(ids)
    for index, (tail, heads, rate, label) in enumerate(arcs):
        where = f"pipe[{index}] {tail!r}->{list(heads)}"
        if not heads:
            violations.append(f"{where}: empty head set")
        if tail not in known:
            violations.append(f"{where}: unknown tail {tail!r}")
        for head in heads:
            if head not in known:
                violations.append(f"{where}: unknown head {head!r}")
            if head == tail:
                violations.append(f"{where}: tail appears among heads")
        if len(set(heads)) != len(heads):
            violations.append(f"{where}: repeated head")
        if math.isnan(rate) or rate < 0:
            violations.append(f"{where}: rate must be >= 0, got {rate}")
        if not label:
            violations.append(f"{where}: missing provenance")
        if role == "upper" and len(heads) > 1:
            violations.append(
                f"{where}: hyper-arcs are not allowed in upper bounding networks"
            )
    return violations


def _require_keys(obj: dict, allowed: frozenset, required: frozenset, where: str):
    if not obj.keys() <= allowed:
        raise NetworkFormatError(f"{where}: unknown keys {sorted(obj.keys() - allowed)}")
    if not obj.keys() >= required:
        raise NetworkFormatError(f"{where}: missing keys {sorted(required - obj.keys())}")


def _number(obj: dict, name: str, where: str, integral: bool = False):
    """Field `name` of a link object as a float, or as an int if `integral`.
    Only JSON numbers pass, booleans do not."""
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"{where}.{name}: expected a number, got {value!r}")
    if integral:
        if isinstance(value, float) and not value.is_integer():
            raise NetworkFormatError(f"{where}.{name}: expected an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise NetworkFormatError(f"{where}.{name}: number out of range") from None


def _node_id(value, where: str, field: str | int) -> str:
    """Node id `field` of `where`, a key or a list index; only JSON strings pass."""
    if not isinstance(value, str):
        at = f"{where}[{field}]" if isinstance(field, int) else f"{where}.{field}"
        raise NetworkFormatError(f"{at}: expected a node id string, got {value!r}")
    return value


def _parse_link(obj: dict, index: int) -> NoisyLink:
    where = f"links[{index}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    _require_keys(obj, _LINK_KEYS, _LINK_REQUIRED_KEYS, where)
    kind = obj["kind"]
    if kind not in LINK_KINDS:
        raise NetworkFormatError(f"{where}.kind: unknown kind {kind!r}")
    snr = None
    if kind == "awgn":
        if "snr" in obj and "snr_db" in obj:
            raise NetworkFormatError(
                f"{where}: provide exactly one of 'snr' and 'snr_db', not both"
            )
        if "snr" in obj:
            snr = _number(obj, "snr", where)
        elif "snr_db" in obj:
            snr = db_to_linear(_number(obj, "snr_db", where))
        else:
            raise NetworkFormatError(f"{where}: awgn link needs 'snr' or 'snr_db'")
    elif "snr" in obj or "snr_db" in obj:
        raise NetworkFormatError(f"{where}: SNR fields are only valid for awgn links")
    q = _number(obj, "q", where, integral=True) if "q" in obj else None
    xi = _number(obj, "xi", where) if "xi" in obj else None
    eps = _number(obj, "eps", where) if "eps" in obj else None
    src, dst = _node_id(obj["from"], where, "from"), _node_id(obj["to"], where, "to")
    try:
        return NoisyLink(
            src=src,
            dst=dst,
            kind=kind,
            snr=snr,
            q=q,
            xi=xi,
            eps=eps,
        )
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


def _parse_demand(obj: dict, index: int) -> Demand:
    where = f"demands[{index}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    _require_keys(obj, _DEMAND_KEYS, _DEMAND_KEYS, where)
    sinks, at_sinks = obj["sinks"], f"{where}.sinks"
    if not isinstance(sinks, list):
        raise NetworkFormatError(f"{at_sinks}: expected a list")
    source = _node_id(obj["source"], where, "source")
    first: dict[str, int] = {}
    for k, sink in enumerate(sinks):
        if first.setdefault(_node_id(sink, at_sinks, k), k) != k:
            raise NetworkFormatError(f"{where}.sinks[{k}]: repeats sinks[{first[sink]}]")
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise NetworkFormatError(f"{where}.kind: unknown kind {kind!r}")
    try:
        return Demand(kind=kind, source=source, sinks=frozenset(first))
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


def parse_network(text: str) -> NoisyNetwork:
    """Parse a JSON network document into a validated NoisyNetwork.

    The document holds `nodes` (list of id strings), `links` (objects with
    `from`, `to`, `kind`, and the kind's parameters; awgn links take `snr`
    in linear scale or `snr_db` in dB, never both), and optional `demands`
    (objects with `kind`, `source`, `sinks`, each node on at least one
    link, no demand listed twice). No two links share a sender and a receiver.
    Unknown keys are rejected.

    Raises:
        NetworkFormatError: on malformed JSON (with line/column context) or
            any violated invariant (with the offending field named).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("document root must be an object")
    _require_keys(doc, _DOCUMENT_KEYS, frozenset({"nodes"}), "document")
    nodes_raw = doc["nodes"]
    if not isinstance(nodes_raw, list):
        raise NetworkFormatError("nodes: expected a list of id strings")
    nodes = tuple(Node(_node_id(n, "nodes", i)) for i, n in enumerate(nodes_raw))
    links_raw = doc.get("links", [])
    if not isinstance(links_raw, list):
        raise NetworkFormatError("links: expected a list")
    links = tuple(_parse_link(obj, i) for i, obj in enumerate(links_raw))
    demands_raw = doc.get("demands", [])
    if not isinstance(demands_raw, list):
        raise NetworkFormatError("demands: expected a list")
    demands = tuple(_parse_demand(obj, i) for i, obj in enumerate(demands_raw))
    net = NoisyNetwork(nodes=nodes, links=links, demands=demands)
    linked = {end for link in links for end in (link.src, link.dst)}
    for index, demand in enumerate(demands):
        if demand in demands[:index]:  # bounds are reported once per demand
            raise NetworkFormatError(f"demands[{index}]: repeats demands[{demands.index(demand)}]")
        for node in (demand.source, *demand.sink_list):
            if node not in linked:
                raise NetworkFormatError(f"demands[{index}]: node {node!r} has no link")
    return net


def serialize_network(net: NoisyNetwork) -> str:
    """Serialize a NoisyNetwork to the JSON document format.

    SNRs are written in linear scale, so parse_network(serialize_network(net))
    reproduces the network exactly.
    """
    links = []
    for link in net.links:
        obj: dict = {"from": link.src, "to": link.dst, "kind": link.kind}
        if link.kind == "awgn":
            obj["snr"] = link.snr
        elif link.kind == "qsc":
            obj["q"] = link.q
            obj["xi"] = link.xi
        else:
            obj["eps"] = link.eps
        links.append(obj)
    demands = [
        {"kind": d.kind, "source": d.source, "sinks": list(d.sink_list)}
        for d in net.demands
    ]
    doc = {"nodes": list(net.node_ids), "links": links, "demands": demands}
    return json.dumps(doc, indent=2)
