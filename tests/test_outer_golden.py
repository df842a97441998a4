"""Every outer bound of a fixed set of inputs, pinned by one SHA-256.

The inputs are the upper networks that the outer searches rate: the relay
search at three source-relay SNRs, the multicast search at one power with 10
receivers, and the alpha sweep of `bounds` on two files under tests/data.
While the searches run, each (structure, alpha) is recorded where it is
rated, `UpperStructure.rate_batch`, with every `mac_upper` result behind it
and what the search returns (for `bounds`, its stdout). The networks are
hashed in the order the searches scan them (alpha by alpha, and within an
alpha the structures that one search built from one component list, in
order), each followed in the `mac_upper` part by its MACs' results, so a MAC
result that several structures or searches share counts once among the pairs
computed but is hashed for each. Each record is re-rated and hashed over its nodes
(each with the kind that network objects once carried: "auxiliary" for an id
of no component, else "terminal"), its arcs,
`repr` of every rate as a float and every arc's `describe` text. Each
network's outer bounds are then computed on those arcs as its search takes
them: `max_flow` for a unicast demand, `multicast_outer` for a multicast one,
and for the multicast search, on the network's arcs plus the merged source's
infinite feeds, `multicast_outer` and `max_flow` to each sink.
They are hashed over rate, flows (keys, order, `repr` of values), cut, cut capacity and
per-sink rates. The digest in tests/data/outer_results.json was recorded while
`mac_upper` still computed with NumPy, the multicast search still took one
`max_flow` per sink, upper networks were still pipe objects and every
(structure, alpha) took its own `mac_upper` calls, so it shows that none of
these changes moved an outer bound. Sharing MAC rates moved only the relay
count: from 66 to 33 when both receiver orders of a search shared them, and
to 11 when a cache let the three searches, all on one MAC, share them.
Since `mac_upper` rates a whole sweep's pairs in one call, its results are
recorded per pair at that call, and the counts are of pairs computed, not of
calls made, so they did not move. Re-record it (the failure message prints
the new value) only when a change is meant to move one.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from netbounds import assemble, cli, experiments
from netbounds.assemble import UpperStructure, describe
from netbounds.decouple import decompose
from netbounds.flows import max_flow, multicast_outer
from netbounds.info import db_to_linear
from netbounds.mac import MacSpec
from netbounds.netmodel import Demand, parse_network

DATA = Path(__file__).resolve().parent / "data"
BOUNDS_FILES = ("lower_bounds_2x3xunicast-0.json", "lower_bounds_3x2xmulticast-1.json")


def _unicast(source, sink):
    return Demand(kind="unicast", source=source, sinks=frozenset({sink}))


def _relay():
    """Returns (what the search returns, outer bounds of one upper network)."""
    gamma_sd, gamma_rd = db_to_linear(0.0), db_to_linear(10.0)
    values = [
        experiments.relay_eq_upper(
            decompose(experiments.relay_network(gamma_sd, db_to_linear(gamma_sr_db), gamma_rd))
        )
        for gamma_sr_db in (-10.0, 5.0, 20.0)
    ]
    return values, lambda upper: [
        max_flow(upper.node_ids, upper.arcs, _unicast("S", "D"))
    ]


def _multicast():
    power = db_to_linear(13.0)
    net = experiments.multicast_network(10, power, power * db_to_linear(-3.0), 8, 0.1)
    sinks = sorted(net.demands[0].sinks)
    value = experiments.multicast_eq_upper(decompose(net), sinks)

    def outer(upper):
        name = "JOINT_SRC"
        assert name not in upper.node_ids
        node_ids = (*upper.node_ids, name)
        feeds = [(name, (source,), math.inf, "") for source in ("S1", "S2")]
        arcs = [*upper.arcs, *feeds]
        demand = Demand(kind="multicast", source=name, sinks=frozenset(sinks))
        return [multicast_outer(node_ids, arcs, demand)] + [
            max_flow(node_ids, arcs, _unicast(name, sink)) for sink in sinks
        ]

    return [value], outer


def _bounds(name):
    path = DATA / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["bounds", str(path), "--beta-step", "0.25"]) == 0
    demands = parse_network(path.read_text(encoding="utf-8")).demands

    def outer(upper):
        return [
            (max_flow if demand.kind == "unicast" else multicast_outer)(
                upper.node_ids, upper.arcs, demand
            )
            for demand in demands
        ]

    # The path varies with the checkout; the file name does not.
    return [stdout.getvalue().replace(str(path), name)], outer


SECTIONS = {
    "relay": _relay,
    "multicast": _multicast,
    **{f"bounds {name}": (lambda name=name: _bounds(name)) for name in BOUNDS_FILES},
}


class _Upper:
    """One recorded upper network: node ids and arcs with float rates, as
    pipe objects held them."""

    def __init__(self, structure, alpha, terminals):
        self.node_ids = structure.node_ids
        self.arcs = [(t, h, float(r), label) for t, h, r, label in structure.arcs(alpha)]
        self.terminals = terminals

    def key(self):
        nodes = tuple(
            (i, "terminal" if i in self.terminals else "auxiliary") for i in self.node_ids
        )
        pipes = tuple((a[0], a[1], repr(a[2]), describe(a)) for a in self.arcs)
        return repr((nodes, pipes))


def _mac_key(spec, alpha, result):
    return repr(
        (spec.gammas, alpha, result.sum_rate, result.individual)
        + (result.alpha, result.shares, result.mu)
    )


def _flow_key(result):
    demand, witness = result.demand, result.witness
    return repr(
        (
            (demand.kind, demand.source, demand.sink_list, result.rate),
            tuple(sorted(witness)),
            tuple(witness["flows"].items()),
            witness.get("cut"),
            witness.get("cut_capacity"),
            tuple(witness.get("per_sink", {}).items()),
        )
    )


def _scanned(batches):
    """(structure, alpha) per candidate of the recorded `rate_batch` calls,
    in scan order: consecutive calls on structures built from one component
    list are one search's structures, interleaved alpha by alpha."""
    groups = []
    for structure, alphas, components in batches:
        if groups and groups[-1][2] is components:
            groups[-1][0].append(structure)
        else:
            groups.append(([structure], alphas, components))
    return [
        (structure, alpha)
        for structures, alphas, _ in groups
        for alpha in alphas
        for structure in structures
    ]


def test_outer_results_match_recorded_digest(monkeypatch):
    batches: list = []
    macs: dict = {}  # key per (MacSpec, alpha) rated
    calls: list = []  # one entry per (MAC, alpha) pair `mac_upper` computes
    specs: dict = {}  # the MACs of each structure, its component nodes and list
    init, rate, mac_upper = UpperStructure.__init__, UpperStructure.rate_batch, assemble.mac_upper

    def recording_init(self, components, bc_perm=None):
        init(self, components, bc_perm)
        specs[self] = (
            [MacSpec(gammas=c.gamma_list()) for c in components if c.kind == "mac"],
            {n for c in components for n in (*c.inputs, *c.outputs)},
            components,
        )

    def recording_batch(self, alphas):
        batches.append((self, tuple(alphas), specs[self][2]))
        return rate(self, alphas)

    def recording_mac(pairs):
        pairs = tuple(pairs)
        results = mac_upper(pairs)
        for (spec, alpha), result in zip(pairs, results):
            macs[(spec, alpha)] = _mac_key(spec, alpha, result)
            calls.append(spec)
        return results

    monkeypatch.setattr(UpperStructure, "__init__", recording_init)
    monkeypatch.setattr(UpperStructure, "rate_batch", recording_batch)
    monkeypatch.setattr(assemble, "mac_upper", recording_mac)
    runs = {}
    for name, run in SECTIONS.items():
        batch_start, call_start = len(batches), len(calls)
        values, outer = run()
        scanned = _scanned(batches[batch_start:])
        section_macs = [
            macs[(spec, alpha)] for structure, alpha in scanned for spec in specs[structure][0]
        ]
        runs[name] = (values, outer, scanned, section_macs, len(calls) - call_start)
    monkeypatch.undo()
    # Built after the hooks are gone, so no `mac_upper` call is counted twice.
    for _values, _outer, scanned, _macs, _calls in runs.values():
        scanned[:] = [_Upper(structure, alpha, specs[structure][1]) for structure, alpha in scanned]

    digest = hashlib.sha256()
    counts = {}
    for name, (values, outer, section_uppers, section_macs, section_calls) in runs.items():
        counts[name] = {"networks": len(section_uppers), "mac_upper": section_calls}
        digest.update(repr((name, values)).encode("utf-8"))
        for key in section_macs:
            digest.update(key.encode("utf-8"))
        for upper in section_uppers:
            digest.update(upper.key().encode("utf-8"))
            for result in outer(upper):
                digest.update(_flow_key(result).encode("utf-8"))
    want = json.loads((DATA / "outer_results.json").read_text(encoding="utf-8"))
    assert counts == want["counts"]
    assert digest.hexdigest() == want["sha256"], digest.hexdigest()
