"""Tests for the network data model, parser, and serializer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbounds.netmodel import (
    Demand,
    NetworkFormatError,
    Node,
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


def test_parse_rejects_awgn_snr_not_positive_and_finite():
    def awgn_doc(field, value):
        link = {"from": "A", "to": "B", "kind": "awgn", field: value}
        return json.dumps({"nodes": ["A", "B"], "links": [link]})

    for field, value in (("snr", 0), ("snr", -1.5), ("snr", float("inf")), ("snr_db", 1e6)):
        with pytest.raises(
            NetworkFormatError,
            match=r"links\[0\]: link 'A'->'B': snr must be positive and finite",
        ):
            parse_network(awgn_doc(field, value))
    with pytest.raises(NetworkFormatError, match="link 'A'->'B': snr"):
        NoisyLink("A", "B", "awgn", snr=float("nan"))
    # The models hold digits only within -150..150 dB.
    for field, value in (("snr", 1e-300), ("snr", 2e15), ("snr_db", -151), ("snr_db", 160)):
        with pytest.raises(
            NetworkFormatError,
            match=r"links\[0\]: link 'A'->'B': snr must lie in \[1e-15, 1e\+15\] \(-150\.\.150 dB\)",
        ):
            parse_network(awgn_doc(field, value))
    for field, value in (("snr", 1e-15), ("snr", 1e15), ("snr_db", -150), ("snr_db", 150)):
        assert parse_network(awgn_doc(field, value)).links[0].snr > 0.0


VALID_FIELDS = {"awgn": {"snr": 1}, "qsc": {"q": 2, "xi": 0.1}, "bsc": {"eps": 0.1}}


def link_doc(kind, field, value):
    """A one-link document of `kind` whose `field` is `value`."""
    link = {"from": "A", "to": "B", "kind": kind, **VALID_FIELDS[kind]}
    if field == "snr_db":
        del link["snr"]
    link[field] = value
    return json.dumps({"nodes": ["A", "B"], "links": [link]})


@pytest.mark.parametrize(
    ("kind", "field", "value", "expected"),
    [
        ("awgn", "snr", [1], "a number"),
        ("awgn", "snr", None, "a number"),
        ("awgn", "snr_db", [3], "a number"),
        ("awgn", "snr", "abc", "a number"),
        ("awgn", "snr", "3", "a number"),
        ("awgn", "snr", True, "a number"),
        pytest.param("awgn", "snr", 10**400, "out of range", id="awgn-snr-10**400"),
        ("qsc", "q", None, "a number"),
        ("qsc", "q", 2.5, "an integer"),
        ("qsc", "q", True, "a number"),
        ("qsc", "xi", "0.1", "a number"),
        ("bsc", "eps", False, "a number"),
        ("bsc", "eps", {"value": 0.1}, "a number"),
    ],
)
def test_parse_accepts_only_json_numbers(kind, field, value, expected):
    with pytest.raises(NetworkFormatError, match=rf"^links\[0\]\.{field}: .*{expected}"):
        parse_network(link_doc(kind, field, value))


def test_parse_accepts_integral_float_q():
    link = parse_network(link_doc("qsc", "q", 4.0)).links[0]
    assert link.q == 4 and isinstance(link.q, int)


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


@pytest.mark.parametrize(
    "demands",
    [
        [{"kind": "unicast", "source": "C", "sinks": ["B"]}],
        [
            {"kind": "unicast", "source": "A", "sinks": ["B"]},
            {"kind": "multicast", "source": "A", "sinks": ["B", "C"]},
        ],
    ],
    ids=["source", "sink"],
)
def test_parse_rejects_demand_on_a_node_without_links(demands):
    doc = {
        "nodes": ["A", "B", "C"],
        "links": [{"from": "A", "to": "B", "kind": "awgn", "snr": 1}],
        "demands": demands,
    }
    index = len(demands) - 1
    with pytest.raises(NetworkFormatError, match=rf"demands\[{index}\]: node 'C' has no link"):
        parse_network(json.dumps(doc))


def test_parse_rejects_a_demand_listed_twice():
    # A multicast demand is the same whatever the order of its sinks; a
    # unicast and a multicast demand over one pair are two demands.
    doc = {
        "nodes": ["A", "B", "C"],
        "links": [
            {"from": "A", "to": "B", "kind": "awgn", "snr": 1},
            {"from": "A", "to": "C", "kind": "awgn", "snr": 2},
        ],
        "demands": [
            {"kind": "multicast", "source": "A", "sinks": ["B", "C"]},
            {"kind": "unicast", "source": "A", "sinks": ["B"]},
            {"kind": "multicast", "source": "A", "sinks": ["B"]},
            {"kind": "multicast", "source": "A", "sinks": ["C", "B"]},
        ],
    }
    with pytest.raises(NetworkFormatError, match=r"^demands\[3\]: repeats demands\[0\]$"):
        parse_network(json.dumps(doc))
    del doc["demands"][3]
    assert len(parse_network(json.dumps(doc)).demands) == 3


def test_demand_invariants():
    with pytest.raises(NetworkFormatError, match="exclude"):
        Demand(kind="unicast", source="A", sinks=frozenset({"A"}))
    with pytest.raises(NetworkFormatError, match="nonempty"):
        Demand(kind="multicast", source="A", sinks=frozenset())
    with pytest.raises(NetworkFormatError, match="one sink"):
        Demand(kind="unicast", source="A", sinks=frozenset({"B", "C"}))


def test_validate_upper_rejects_hyper_arc():
    node_ids = ("A", "B", "C")
    arcs = [("A", ("B", "C"), 1.0, "test")]
    violations = validate_bounding_network(node_ids, arcs, "upper")
    assert len(violations) == 1
    assert "hyper" in violations[0]
    assert validate_bounding_network(node_ids, arcs, "lower") == []


def test_validate_flags_negative_rate():
    violations = validate_bounding_network(("A", "B"), [("A", ("B",), -1.0, "test")], "lower")
    assert len(violations) == 1
    assert "rate" in violations[0]


def test_validate_flags_missing_provenance_and_bad_nodes():
    violations = validate_bounding_network(("A",), [("A", ("B",), 1.0, "")], "lower")
    assert any("unknown head" in v for v in violations)
    assert any("provenance" in v for v in violations)


def test_validate_accepts_lower_with_aux_nodes():
    # A source broadcast followed by a relay pipe, the shape produced by the
    # lower-bounding construction for a relay: one hyper-arc and two pipes.
    node_ids = ("S", "R", "D", "S_out")
    arcs = [
        ("S", ("S_out",), 1.5, "source encoder"),
        ("S_out", ("R", "D"), 1.2, "common layer"),
        ("R", ("D",), 1.7, "relay forward"),
    ]
    assert validate_bounding_network(node_ids, arcs, "lower") == []


def test_infinite_rate_pipe_is_valid():
    arcs = [("A", ("B",), float("inf"), "uncapacitated")]
    assert validate_bounding_network(("A", "B"), arcs, "upper") == []


@pytest.mark.parametrize(
    "links, message",
    [
        (
            [("A", "B", "bsc"), ("A", "C", "awgn"), ("A", "C", "qsc")],
            r"links\[2\]: node 'A' already transmits on discrete link links\[0\]; "
            "discrete broadcast",
        ),
        (
            [("A", "C", "qsc"), ("B", "C", "awgn"), ("B", "C", "bsc")],
            r"links\[2\]: node 'C' already receives on discrete link links\[0\]; "
            "discrete superposition",
        ),
    ],
    ids=["sending", "receiving"],
)
def test_parse_rejects_a_node_on_two_discrete_links_naming_both(links, message):
    params = {"awgn": {"snr": 1}, "bsc": {"eps": 0.1}, "qsc": {"q": 3, "xi": 0.1}}
    doc = {
        "nodes": ["A", "B", "C"],
        "links": [
            {"from": src, "to": dst, "kind": kind, **params[kind]} for src, dst, kind in links
        ],
    }
    with pytest.raises(NetworkFormatError, match=message):
        parse_network(json.dumps(doc))
    # One discrete link per sender and receiver, next to any AWGN links, is fine.
    doc["links"].pop()
    assert len(parse_network(json.dumps(doc)).links) == 2


@pytest.mark.parametrize(
    "links",
    [
        [("A", "D", "awgn"), ("B", "D", "awgn"), ("A", "D", "awgn")],
        [("A", "D", "awgn"), ("B", "D", "awgn"), ("A", "D", "bsc")],
    ],
    ids=["awgn", "mixed-kinds"],
)
def test_parse_rejects_parallel_links_naming_both(links):
    params = {"awgn": {"snr": 2}, "bsc": {"eps": 0.1}}
    doc = {
        "nodes": ["A", "B", "D"],
        "links": [
            {"from": src, "to": dst, "kind": kind, **params[kind]} for src, dst, kind in links
        ],
    }
    with pytest.raises(
        NetworkFormatError, match=r"^links\[2\]: link 'A'->'D' repeats links\[0\]; parallel"
    ):
        parse_network(json.dumps(doc))
    # The reverse direction is a different link, not a parallel one.
    doc["links"][2].update({"from": "D", "to": "A"})
    assert len(parse_network(json.dumps(doc)).links) == 3


def _two_receiver_doc():
    return {
        "nodes": ["A", "B", "C"],
        "links": [
            {"from": "A", "to": "B", "kind": "awgn", "snr": 2},
            {"from": "A", "to": "C", "kind": "awgn", "snr": 3},
        ],
        "demands": [{"kind": "multicast", "source": "A", "sinks": ["B", "C"]}],
    }


@pytest.mark.parametrize(
    "value", [None, 7, True, ["A"], {"id": "A"}], ids=["null", "number", "boolean", "list", "object"]
)
@pytest.mark.parametrize(
    "path, field",
    [
        (("nodes", 1), r"nodes\[1\]"),
        (("links", 1, "from"), r"links\[1\]\.from"),
        (("links", 0, "to"), r"links\[0\]\.to"),
        (("demands", 0, "source"), r"demands\[0\]\.source"),
        (("demands", 0, "sinks", 1), r"demands\[0\]\.sinks\[1\]"),
    ],
    ids=["node", "from", "to", "source", "sink"],
)
def test_parse_refuses_a_node_id_that_is_not_a_string(path, field, value):
    # Node ids used to pass through str(), so null became the node 'None'.
    doc = _two_receiver_doc()
    assert len(parse_network(json.dumps(doc)).links) == 2
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    with pytest.raises(NetworkFormatError, match=rf"^{field}: expected a node id string, got "):
        parse_network(json.dumps(doc))


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
    discrete_ends = set()  # ("tx", node) and ("rx", node) of discrete links
    pairs = set()  # (src, dst) of the links kept
    for _ in range(n_links):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from([i for i in ids if i != src]))
        if (src, dst) in pairs:
            continue  # a parallel link, which NoisyNetwork refuses
        kind = draw(st.sampled_from(["awgn", "qsc", "bsc"]))
        if kind != "awgn":
            ends = {("tx", src), ("rx", dst)}
            if ends & discrete_ends:
                continue  # a second discrete link on a node, which NoisyNetwork refuses
            discrete_ends |= ends
        pairs.add((src, dst))
        if kind == "awgn":
            snr = draw(st.floats(min_value=1e-15, max_value=1e3))
            links.append(NoisyLink(src, dst, "awgn", snr=snr))
        elif kind == "qsc":
            q = draw(st.integers(min_value=2, max_value=16))
            xi = draw(st.floats(min_value=0.0, max_value=(q - 1) / q))
            links.append(NoisyLink(src, dst, "qsc", q=q, xi=xi))
        else:
            eps = draw(st.floats(min_value=0.0, max_value=0.5))
            links.append(NoisyLink(src, dst, "bsc", eps=eps))
    demands = []
    # Demand endpoints are drawn among the nodes that have a link, as the
    # parser requires.
    linked = sorted({end for link in links for end in (link.src, link.dst)})
    if linked and draw(st.booleans()):
        source = draw(st.sampled_from(linked))
        others = [i for i in linked if i != source]
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
@settings(max_examples=50, deadline=None, derandomize=True)
def test_serialize_parse_round_trip(net):
    assert parse_network(serialize_network(net)) == net
