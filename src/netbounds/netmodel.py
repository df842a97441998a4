"""Data model for noisy networks, noiseless bounding networks, and demands.

A noisy network is a set of terminal nodes joined by typed noisy links (AWGN
links described by a linear SNR, q-ary symmetric links by (q, xi), binary
symmetric links by eps) plus traffic demands. Bounding constructions turn it
into a noiseless network of point-to-point bit pipes and hyper-arcs, possibly
with auxiliary nodes. All values are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .info import db_to_linear

__all__ = [
    "NetworkFormatError",
    "Node",
    "NoisyLink",
    "Demand",
    "NoisyNetwork",
    "BitPipe",
    "NoiselessNetwork",
    "parse_network",
    "serialize_network",
    "validate_bounding_network",
]

TERMINAL = "terminal"
AUXILIARY = "auxiliary"

LINK_KINDS = ("awgn", "qsc", "bsc")
DEMAND_KINDS = ("unicast", "multicast")


class NetworkFormatError(ValueError):
    """Raised for malformed network documents or invariant violations."""


@dataclass(frozen=True)
class Node:
    """A network node. Auxiliary nodes appear only in noiseless networks."""

    id: str
    kind: str = TERMINAL

    def __post_init__(self):
        if self.kind not in (TERMINAL, AUXILIARY):
            raise NetworkFormatError(f"node {self.id!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class NoisyLink:
    """A directed noisy link.

    Exactly the parameters of the link's kind must be set: `snr` for awgn
    (linear scale, nonnegative), `q` and `xi` for qsc (xi in [0, (q-1)/q]),
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
        where = f"link {self.src!r}->{self.dst!r}"
        if self.kind not in LINK_KINDS:
            raise NetworkFormatError(f"{where}: unknown kind {self.kind!r}")
        required = {"awgn": ("snr",), "qsc": ("q", "xi"), "bsc": ("eps",)}[self.kind]
        for name in ("snr", "q", "xi", "eps"):
            value = getattr(self, name)
            if name in required and value is None:
                raise NetworkFormatError(f"{where}: missing field {name!r}")
            if name not in required and value is not None:
                raise NetworkFormatError(
                    f"{where}: field {name!r} not allowed for kind {self.kind!r}"
                )
        if self.kind == "awgn":
            if not self.snr >= 0:
                raise NetworkFormatError(f"{where}: snr must be >= 0, got {self.snr}")
        elif self.kind == "qsc":
            if int(self.q) != self.q or self.q < 2:
                raise NetworkFormatError(
                    f"{where}: q must be an integer >= 2, got {self.q}"
                )
            boundary = (self.q - 1) / self.q
            if not 0.0 <= self.xi <= boundary:
                raise NetworkFormatError(
                    f"{where}: xi must lie in [0, {boundary:g}] for q={self.q}, "
                    f"got {self.xi}"
                )
        elif self.kind == "bsc":
            if not 0.0 <= self.eps <= 0.5:
                raise NetworkFormatError(
                    f"{where}: eps must lie in [0, 1/2], got {self.eps}"
                )


@dataclass(frozen=True)
class Demand:
    """A unicast or multicast traffic demand between terminal nodes."""

    kind: str
    source: str
    sinks: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "sinks", frozenset(self.sinks))
        where = f"demand from {self.source!r}"
        if self.kind not in DEMAND_KINDS:
            raise NetworkFormatError(f"{where}: unknown kind {self.kind!r}")
        if not self.sinks:
            raise NetworkFormatError(f"{where}: sinks must be nonempty")
        if self.source in self.sinks:
            raise NetworkFormatError(f"{where}: sinks must exclude the source")
        if self.kind == "unicast" and len(self.sinks) != 1:
            raise NetworkFormatError(
                f"{where}: unicast demand must have exactly one sink"
            )

    @property
    def sink_list(self) -> tuple[str, ...]:
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
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkFormatError(f"duplicate node ids: {dup}")
        for node in self.nodes:
            if node.kind != TERMINAL:
                raise NetworkFormatError(
                    f"node {node.id!r}: noisy networks hold terminal nodes only"
                )
        known = set(ids)
        for link in self.links:
            where = f"link {link.src!r}->{link.dst!r}"
            if link.src not in known:
                raise NetworkFormatError(f"{where}: unknown node {link.src!r}")
            if link.dst not in known:
                raise NetworkFormatError(f"{where}: unknown node {link.dst!r}")
            if link.src == link.dst:
                raise NetworkFormatError(f"{where}: self-loops are not allowed")
        for demand in self.demands:
            where = f"demand from {demand.source!r}"
            if demand.source not in known:
                raise NetworkFormatError(f"{where}: unknown node {demand.source!r}")
            for sink in demand.sink_list:
                if sink not in known:
                    raise NetworkFormatError(f"{where}: unknown sink {sink!r}")

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)


@dataclass(frozen=True)
class BitPipe:
    """A noiseless pipe from one tail to one or more heads.

    With a single head this is a point-to-point bit pipe; with several heads it
    is a hyper-arc delivering the same bits to every head. The rate is in bits
    per channel use and may be infinite (an uncapacitated pipe). `provenance`
    names the model and constraint that produced the pipe.
    """

    tail: str
    heads: tuple[str, ...]
    rate: float
    provenance: str = ""

    def __post_init__(self):
        heads = self.heads
        if isinstance(heads, str):
            heads = (heads,)
        object.__setattr__(self, "heads", tuple(heads))
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def is_hyper(self) -> bool:
        return len(self.heads) > 1

    @property
    def head(self) -> str:
        if len(self.heads) != 1:
            raise ValueError("head is only defined for point-to-point pipes")
        return self.heads[0]


@dataclass(frozen=True)
class NoiselessNetwork:
    """A directed noiseless network of bit pipes and hyper-arcs.

    Construction is permissive so that malformed candidates can still be built
    and then examined; use validate_bounding_network to collect violations.
    """

    nodes: tuple[Node, ...]
    pipes: tuple[BitPipe, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "pipes", tuple(self.pipes))

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)

    @property
    def provenance(self) -> dict[BitPipe, str]:
        return {pipe: pipe.provenance for pipe in self.pipes}


def validate_bounding_network(net: NoiselessNetwork, role: str) -> list[str]:
    """Collect invariant violations of a noiseless bounding network.

    Args:
        net: the candidate network.
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
    ids = [node.id for node in net.nodes]
    for dup in sorted({i for i in ids if ids.count(i) > 1}):
        violations.append(f"duplicate node id {dup!r}")
    known = set(ids)
    for index, pipe in enumerate(net.pipes):
        where = f"pipe[{index}] {pipe.tail!r}->{list(pipe.heads)}"
        if not pipe.heads:
            violations.append(f"{where}: empty head set")
        if pipe.tail not in known:
            violations.append(f"{where}: unknown tail {pipe.tail!r}")
        for head in pipe.heads:
            if head not in known:
                violations.append(f"{where}: unknown head {head!r}")
            if head == pipe.tail:
                violations.append(f"{where}: tail appears among heads")
        if len(set(pipe.heads)) != len(pipe.heads):
            violations.append(f"{where}: repeated head")
        if math.isnan(pipe.rate) or pipe.rate < 0:
            violations.append(f"{where}: rate must be >= 0, got {pipe.rate}")
        if not pipe.provenance:
            violations.append(f"{where}: missing provenance")
        if role == "upper" and pipe.is_hyper:
            violations.append(
                f"{where}: hyper-arcs are not allowed in upper bounding networks"
            )
    return violations


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise NetworkFormatError(f"{where}: unknown keys {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise NetworkFormatError(f"{where}: missing keys {missing}")


def _parse_link(obj: dict, index: int) -> NoisyLink:
    where = f"links[{index}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    _require_keys(
        obj,
        allowed={"from", "to", "kind", "snr", "snr_db", "q", "xi", "eps"},
        required={"from", "to", "kind"},
        where=where,
    )
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
            snr = float(obj["snr"])
        elif "snr_db" in obj:
            snr = db_to_linear(float(obj["snr_db"]))
        else:
            raise NetworkFormatError(f"{where}: awgn link needs 'snr' or 'snr_db'")
    elif "snr" in obj or "snr_db" in obj:
        raise NetworkFormatError(f"{where}: SNR fields are only valid for awgn links")
    try:
        return NoisyLink(
            src=str(obj["from"]),
            dst=str(obj["to"]),
            kind=kind,
            snr=snr,
            q=int(obj["q"]) if "q" in obj else None,
            xi=float(obj["xi"]) if "xi" in obj else None,
            eps=float(obj["eps"]) if "eps" in obj else None,
        )
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


def _parse_demand(obj: dict, index: int) -> Demand:
    where = f"demands[{index}]"
    if not isinstance(obj, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    _require_keys(
        obj,
        allowed={"kind", "source", "sinks"},
        required={"kind", "source", "sinks"},
        where=where,
    )
    sinks = obj["sinks"]
    if not isinstance(sinks, list):
        raise NetworkFormatError(f"{where}.sinks: expected a list")
    try:
        return Demand(
            kind=str(obj["kind"]),
            source=str(obj["source"]),
            sinks=frozenset(str(s) for s in sinks),
        )
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


def parse_network(text: str) -> NoisyNetwork:
    """Parse a JSON network document into a validated NoisyNetwork.

    The document holds `nodes` (list of id strings), `links` (objects with
    `from`, `to`, `kind`, and the kind's parameters; awgn links take `snr`
    in linear scale or `snr_db` in dB, never both), and optional `demands`
    (objects with `kind`, `source`, `sinks`). Unknown keys are rejected.

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
    _require_keys(
        doc, allowed={"nodes", "links", "demands"}, required={"nodes"}, where="document"
    )
    nodes_raw = doc["nodes"]
    if not isinstance(nodes_raw, list):
        raise NetworkFormatError("nodes: expected a list of id strings")
    nodes = tuple(Node(str(n)) for n in nodes_raw)
    links_raw = doc.get("links", [])
    if not isinstance(links_raw, list):
        raise NetworkFormatError("links: expected a list")
    links = tuple(_parse_link(obj, i) for i, obj in enumerate(links_raw))
    demands_raw = doc.get("demands", [])
    if not isinstance(demands_raw, list):
        raise NetworkFormatError("demands: expected a list")
    demands = tuple(_parse_demand(obj, i) for i, obj in enumerate(demands_raw))
    return NoisyNetwork(nodes=nodes, links=links, demands=demands)


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
