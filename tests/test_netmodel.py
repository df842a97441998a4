"""Tests for the network data model, parser, and serializer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbounds.netmodel import (
    BitPipe,
    Demand,
    NetworkFormatError,
    Node,
    NoiselessNetwork,
    NoisyLink,
    NoisyNetwork,
    parse_network,
    serialize_network,
    validate_bounding_network,
)

RELAY_DOC = """
{
  "nodes": ["S", "R", "D"],
  "links": [
    {"from": "S", "to": "D", "kind": "awgn", "snr_db": 0},
    {"from": "S", "to": "R", "kind": "awgn", "snr_db": 10},
    {"from": "R", "to": "D", "kind": "awgn", "snr_db": 10}
  ],
  "demands": [{"kind": "unicast", "source": "S", "sinks": ["D"]}]
}
"""


def test_parse_relay_document():
    net = parse_network(RELAY_DOC)
    assert net.node_ids == ("S", "R", "D")
    snrs = {(l.src, l.dst): l.snr for l in net.links}
    assert abs(snrs[("S", "D")] - 1.0) < 1e-12
    assert abs(snrs[("S", "R")] - 10.0) < 1e-12
    assert abs(snrs[("R", "D")] - 10.0) < 1e-12
    assert net.demands[0].kind == "unicast"
    assert net.demands[0].sink_list == ("D",)


def test_parse_empty_links():
    net = parse_network('{"nodes": ["A", "B"], "links": [], "demands": []}')
    assert net.links == ()
    assert net.demands == ()


def test_parse_rejects_eps_out_of_range():
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "B", "kind": "bsc", "eps": 0.7}],
    }
    with pytest.raises(NetworkFormatError, match="eps"):
        parse_network(json.dumps(doc))


def test_parse_rejects_snr_and_snr_db_together():
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "B", "kind": "awgn", "snr": 1, "snr_db": 0}],
    }
    with pytest.raises(NetworkFormatError, match="snr"):
        parse_network(json.dumps(doc))


def test_parse_rejects_unknown_keys():
    with pytest.raises(NetworkFormatError, match="unknown keys"):
        parse_network('{"nodes": [], "extra": 1}')
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "B", "kind": "awgn", "snr": 1, "gain": 2}],
    }
    with pytest.raises(NetworkFormatError, match="unknown keys"):
        parse_network(json.dumps(doc))


def test_parse_rejects_wrong_kind_fields():
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "B", "kind": "bsc", "eps": 0.1, "q": 4}],
    }
    with pytest.raises(NetworkFormatError, match="not allowed"):
        parse_network(json.dumps(doc))
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "B", "kind": "qsc", "xi": 0.1}],
    }
    with pytest.raises(NetworkFormatError, match="missing"):
        parse_network(json.dumps(doc))


def test_parse_rejects_qsc_crossover_beyond_uniform():
    def qsc_doc(q, xi):
        link = {"from": "A", "to": "B", "kind": "qsc", "q": q, "xi": xi}
        return json.dumps({"nodes": ["A", "B"], "links": [link]})

    with pytest.raises(NetworkFormatError, match=r"link 'A'->'B': xi .*q=2, got 0\.9"):
        parse_network(qsc_doc(2, 0.9))
    with pytest.raises(NetworkFormatError, match="link 'A'->'B': xi"):
        parse_network(qsc_doc(4, 0.76))
    assert parse_network(qsc_doc(4, 0.75)).links[0].xi == 0.75


def test_parse_reports_json_position():
    with pytest.raises(NetworkFormatError, match="line"):
        parse_network('{"nodes": [,]}')


def test_parse_rejects_duplicate_nodes():
    with pytest.raises(NetworkFormatError, match="duplicate"):
        parse_network('{"nodes": ["A", "A"]}')


def test_parse_rejects_unknown_endpoints_and_self_loops():
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "C", "kind": "awgn", "snr": 1}],
    }
    with pytest.raises(NetworkFormatError, match="unknown node"):
        parse_network(json.dumps(doc))
    doc = {
        "nodes": ["A", "B"],
        "links": [{"from": "A", "to": "A", "kind": "awgn", "snr": 1}],
    }
    with pytest.raises(NetworkFormatError, match="self-loop"):
        parse_network(json.dumps(doc))


def test_demand_invariants():
    with pytest.raises(NetworkFormatError, match="exclude"):
        Demand(kind="unicast", source="A", sinks=frozenset({"A"}))
    with pytest.raises(NetworkFormatError, match="nonempty"):
        Demand(kind="multicast", source="A", sinks=frozenset())
    with pytest.raises(NetworkFormatError, match="one sink"):
        Demand(kind="unicast", source="A", sinks=frozenset({"B", "C"}))


def test_validate_upper_rejects_hyper_arc():
    net = NoiselessNetwork(
        nodes=(Node("A"), Node("B"), Node("C")),
        pipes=(BitPipe("A", ("B", "C"), 1.0, provenance="test"),),
    )
    violations = validate_bounding_network(net, "upper")
    assert len(violations) == 1
    assert "hyper" in violations[0]
    assert validate_bounding_network(net, "lower") == []


def test_validate_flags_negative_rate():
    net = NoiselessNetwork(
        nodes=(Node("A"), Node("B")),
        pipes=(BitPipe("A", ("B",), -1.0, provenance="test"),),
    )
    violations = validate_bounding_network(net, "lower")
    assert len(violations) == 1
    assert "rate" in violations[0]


def test_validate_flags_missing_provenance_and_bad_nodes():
    net = NoiselessNetwork(
        nodes=(Node("A"),),
        pipes=(BitPipe("A", ("B",), 1.0),),
    )
    violations = validate_bounding_network(net, "lower")
    assert any("unknown head" in v for v in violations)
    assert any("provenance" in v for v in violations)


def test_validate_accepts_lower_with_aux_nodes():
    # A source broadcast followed by a relay pipe, the shape produced by the
    # lower-bounding construction for a relay: one hyper-arc and two pipes.
    net = NoiselessNetwork(
        nodes=(Node("S"), Node("R"), Node("D"), Node("S_out", "auxiliary")),
        pipes=(
            BitPipe("S", ("S_out",), 1.5, provenance="source encoder"),
            BitPipe("S_out", ("R", "D"), 1.2, provenance="common layer"),
            BitPipe("R", ("D",), 1.7, provenance="relay forward"),
        ),
    )
    assert validate_bounding_network(net, "lower") == []


def test_bit_pipe_accessors():
    pipe = BitPipe("A", ("B",), 1.0, provenance="x")
    assert not pipe.is_hyper
    assert pipe.head == "B"
    hyper = BitPipe("A", ("B", "C"), 1.0, provenance="x")
    assert hyper.is_hyper
    with pytest.raises(ValueError):
        _ = hyper.head


def test_infinite_rate_pipe_is_valid():
    net = NoiselessNetwork(
        nodes=(Node("A"), Node("B")),
        pipes=(BitPipe("A", ("B",), float("inf"), provenance="uncapacitated"),),
    )
    assert validate_bounding_network(net, "upper") == []


_IDS = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    min_size=2,
    max_size=6,
    unique=True,
)


@st.composite
def _networks(draw):
    ids = draw(_IDS)
    n_links = draw(st.integers(min_value=0, max_value=8))
    links = []
    seen = set()
    for _ in range(n_links):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from([i for i in ids if i != src]))
        kind = draw(st.sampled_from(["awgn", "qsc", "bsc"]))
        key = (src, dst, kind, len(seen))
        seen.add(key)
        if kind == "awgn":
            snr = draw(st.floats(min_value=0.0, max_value=1e3))
            links.append(NoisyLink(src, dst, "awgn", snr=snr))
        elif kind == "qsc":
            q = draw(st.integers(min_value=2, max_value=16))
            xi = draw(st.floats(min_value=0.0, max_value=(q - 1) / q))
            links.append(NoisyLink(src, dst, "qsc", q=q, xi=xi))
        else:
            eps = draw(st.floats(min_value=0.0, max_value=0.5))
            links.append(NoisyLink(src, dst, "bsc", eps=eps))
    demands = []
    if draw(st.booleans()):
        source = draw(st.sampled_from(ids))
        others = [i for i in ids if i != source]
        n_sinks = draw(st.integers(min_value=1, max_value=len(others)))
        sinks = frozenset(draw(st.permutations(others))[:n_sinks])
        kind = "unicast" if n_sinks == 1 else "multicast"
        demands.append(Demand(kind=kind, source=source, sinks=sinks))
    return NoisyNetwork(
        nodes=tuple(Node(i) for i in ids),
        links=tuple(links),
        demands=tuple(demands),
    )


@given(_networks())
@settings(max_examples=50, deadline=None)
def test_serialize_parse_round_trip(net):
    assert parse_network(serialize_network(net)) == net
