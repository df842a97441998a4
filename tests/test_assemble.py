"""Tests for bounding-network assembly from decoupled components."""

import itertools
import math
import random
from collections.abc import MutableMapping
from pathlib import Path

import numpy as np
import pytest

from netbounds import assemble, experiments, flows
from netbounds.assemble import (
    LowerParams,
    LowerStructure,
    UpperStructure,
    build_lower,
    build_upper,
    describe,
    link_capacity,
)
from netbounds.decouple import decompose, relay_noise_share
from netbounds.bc import BcSpec, bc_upper_cumulative
from netbounds.flows import hyper_inner, max_flow
from netbounds.info import awgn_capacity, bsc_capacity, db_to_linear
from netbounds.mac import MacSpec, mac_upper
from netbounds.netmodel import (
    Demand,
    NoisyLink,
    NoisyNetwork,
    Node,
    parse_network,
    validate_bounding_network,
)

DATA = Path(__file__).resolve().parent / "data"


def awgn_network(links):
    """Build a noisy network from (src, dst, snr) triples."""
    names = []
    built = []
    for src, dst, snr in links:
        built.append(NoisyLink(src=src, dst=dst, kind="awgn", snr=snr))
        for name in (src, dst):
            if name not in names:
                names.append(name)
    return NoisyNetwork(
        nodes=tuple(Node(id=n) for n in names), links=tuple(built)
    )


def relay_components(gamma_sd=1.0, gamma_sr=10.0, gamma_rd=10.0):
    net = awgn_network(
        [("S", "D", gamma_sd), ("S", "R", gamma_sr), ("R", "D", gamma_rd)]
    )
    return decompose(net)


def pipe_map(arcs):
    return {(tail, heads): rate for tail, heads, rate, _ in arcs}


def upper_network(components, alpha=1.0, bc_perm=None):
    """``(node_ids, arcs)`` of the upper network at one alpha and one choice
    of receiver orders."""
    structure = UpperStructure(components, bc_perm)
    return structure.node_ids, structure.arcs(alpha)


def min_cut_p2p(node_ids, arcs, source, sink):
    others = [n for n in node_ids if n not in {source, sink}]
    best = float("inf")
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = {source, *chosen}
            cap = sum(
                rate for tail, heads, rate, _ in arcs if tail in side and heads[0] not in side
            )
            best = min(best, cap)
    return best


def unicast(source, sink):
    return Demand(kind="unicast", source=source, sinks=frozenset({sink}))


class TestLinkCapacity:
    def test_awgn(self):
        link = NoisyLink(src="a", dst="b", kind="awgn", snr=3.0)
        assert abs(link_capacity(link) - 1.0) < 1e-12

    def test_bsc(self):
        link = NoisyLink(src="a", dst="b", kind="bsc", eps=0.11)
        assert abs(link_capacity(link) - bsc_capacity(0.11)) < 1e-12


class TestBuildUpper:
    def test_single_awgn_link(self):
        comps = decompose(awgn_network([("a", "b", 3.0)]))
        node_ids, arcs = build_upper(comps)
        assert len(arcs) == 1
        assert abs(arcs[0][2] - 1.0) < 1e-12
        assert validate_bounding_network(node_ids, arcs, "upper") == []

    def test_relay_default_shape(self):
        comps = relay_components()
        node_ids, arcs = build_upper(comps)
        alpha = relay_noise_share(1.0, 10.0, 10.0)
        rates = pipe_map(arcs)
        bc_sum = awgn_capacity(10.0 + 1.0 / alpha)
        mac_sum = awgn_capacity((1.0 + math.sqrt(10.0)) ** 2)
        assert abs(rates[("S", ("S_out",))] - bc_sum) < 1e-9
        assert abs(rates[("D_in", ("D",))] - mac_sum) < 1e-9
        # Shared pipe takes the max of the BC-side rate and the unconstrained
        # per-input rate of the default full-cooperation model.
        assert rates[("S_out", ("D_in",))] == float("inf")
        assert rates[("R", ("D_in",))] == float("inf")
        assert abs(rates[("S_out", ("R",))] - awgn_capacity(10.0)) < 1e-9
        assert validate_bounding_network(node_ids, arcs, "upper") == []
        flow = max_flow(node_ids, arcs, unicast("S", "D"))
        assert abs(flow.rate - min(bc_sum, mac_sum)) < 1e-9

    def test_relay_finite_alpha_matches_cut_enumeration(self):
        comps = relay_components()
        node_ids, arcs = upper_network(comps, alpha=0.5)
        assert all(rate < float("inf") for _, _, rate, _ in arcs)
        flow = max_flow(node_ids, arcs, unicast("S", "D"))
        assert abs(flow.rate - min_cut_p2p(node_ids, arcs, "S", "D")) < 1e-9

    def test_relay_both_perms_differ(self):
        comps = relay_components()
        _, strong_first = upper_network(comps, bc_perm={("bc", "S"): ("R", "D")})
        _, weak_first = upper_network(comps, bc_perm={("bc", "S"): ("D", "R")})
        alpha = relay_noise_share(1.0, 10.0, 10.0)
        rates_s = pipe_map(strong_first)
        rates_w = pipe_map(weak_first)
        assert abs(rates_s[("S_out", ("R",))] - awgn_capacity(10.0)) < 1e-9
        assert abs(
            rates_w[("S_out", ("R",))] - awgn_capacity(10.0 + 1.0 / alpha)
        ) < 1e-9

    def test_independent_bc_perm_controls_weak_receiver(self):
        comps = decompose(awgn_network([("S", "A", 4.0), ("S", "B", 1.0)]))
        node_ids, arcs = upper_network(comps, bc_perm={("bc", "S"): ("B", "A")})
        flow = max_flow(node_ids, arcs, unicast("S", "B"))
        assert abs(flow.rate - awgn_capacity(1.0)) < 1e-9

    def test_independent_mac_alpha_zero_per_input(self):
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 10.0)]))
        node_ids, arcs = upper_network(comps, alpha=0.0)
        rates = pipe_map(arcs)
        assert rates[("C_in", ("C",))] == float("inf")
        assert rates[("A", ("C_in",))] < float("inf")
        flow = max_flow(node_ids, arcs, unicast("A", "C"))
        assert abs(flow.rate - rates[("A", ("C_in",))]) < 1e-9

    def test_xchannel_shape(self):
        comps = decompose(
            awgn_network(
                [
                    ("T1", "R1", 1.0),
                    ("T1", "R2", 1.0),
                    ("T2", "R1", 1.0),
                    ("T2", "R2", 1.0),
                ]
            )
        )
        node_ids, arcs = build_upper(comps)
        assert len(arcs) == 8
        rates = pipe_map(arcs)
        # 2x2 all-ones partition gives effective BC SNRs of 2 per receiver.
        assert abs(rates[("T1", ("T1_out",))] - awgn_capacity(4.0)) < 1e-9
        assert abs(rates[("R1_in", ("R1",))] - awgn_capacity(4.0)) < 1e-9
        assert validate_bounding_network(node_ids, arcs, "upper") == []

    def test_bsc_side_channel_pipe(self):
        net = NoisyNetwork(
            nodes=(Node(id="a"), Node(id="b")),
            links=(NoisyLink(src="a", dst="b", kind="bsc", eps=0.11),),
        )
        _, arcs = build_upper(decompose(net))
        assert abs(arcs[0][2] - bsc_capacity(0.11)) < 1e-12

    def test_bad_perm_raises(self):
        comps = relay_components()
        with pytest.raises(ValueError):
            upper_network(comps, bc_perm={("bc", "S"): ("R", "R")})

    def test_aux_collision_raises(self):
        comps = decompose(
            awgn_network([("S", "S_out", 1.0), ("S", "B", 2.0)])
        )
        with pytest.raises(ValueError):
            build_upper(comps)


def _reference_build_upper(components, alpha, bc_perm):
    """The upper network written as it was before UpperStructure: every step
    for one alpha, BC models and pipes rebuilt per call, each provenance
    written out as text."""
    bc_by_key = assemble._frame(tuple(components)).bc_by_key
    assemble._check_param_keys(bc_perm, bc_by_key, "bc_perm")
    nodes = list(assemble._all_nodes(components))
    pipes = []
    bc_rate, mac_rate, bc_label, mac_label = {}, {}, {}, {}
    for comp in components:
        if comp.kind != "bc":
            continue
        tx = comp.inputs[0]
        receivers = tuple(link.dst for link in comp.links)
        perm_ids = bc_perm.get(comp.key, assemble._default_perm(comp))
        if sorted(perm_ids) != sorted(receivers):
            raise ValueError(f"bad bc_perm {perm_ids}")
        perm = tuple(receivers.index(r) for r in perm_ids)
        rates = bc_upper_cumulative(BcSpec(gammas=comp.gamma_list()), perm)
        aux = f"{tx}_out"
        if aux in nodes:
            raise ValueError(f"auxiliary id {aux!r} collides with a node id")
        nodes.append(aux)
        pipes.append((tx, (aux,), rates[-1], f"bc {tx}: sum over {len(receivers)} receivers"))
        for position, receiver in enumerate(perm_ids):
            bc_rate[(tx, receiver)] = rates[position]
            bc_label[(tx, receiver)] = (
                f"bc {tx}: receiver {receiver} (cumulative position {position + 1})"
            )
    for comp in components:
        if comp.kind != "mac":
            continue
        rx = comp.outputs[0]
        (rv,) = mac_upper([(MacSpec(gammas=comp.gamma_list()), alpha)])
        aux = f"{rx}_in"
        if aux in nodes:
            raise ValueError(f"auxiliary id {aux!r} collides with a node id")
        nodes.append(aux)
        pipes.append((aux, (rx,), rv.sum_rate, f"mac {rx}: sum (alpha={alpha:g})"))
        for position, link in enumerate(comp.links):
            mac_rate[(link.src, rx)] = rv.individual[position]
            mac_label[(link.src, rx)] = f"mac {rx}: input {link.src} (alpha={alpha:g})"
    bc_tx = {comp.inputs[0] for comp in components if comp.kind == "bc"}
    mac_rx = {comp.outputs[0] for comp in components if comp.kind == "mac"}
    for (tx, rx), rate in bc_rate.items():
        head = f"{rx}_in" if rx in mac_rx else rx
        provenance = bc_label[(tx, rx)]
        if (tx, rx) in mac_rate:
            provenance = f"shared: {provenance} / {mac_label[(tx, rx)]}, max"
            rate = max(rate, mac_rate[(tx, rx)])
        pipes.append((f"{tx}_out", (head,), rate, provenance))
    for (tx, rx), rate in mac_rate.items():
        if (tx, rx) not in bc_rate:
            tail = f"{tx}_out" if tx in bc_tx else tx
            pipes.append((tail, (f"{rx}_in",), rate, mac_label[(tx, rx)]))
    for comp in components:
        if comp.kind == "p2p":
            link = comp.links[0]
            provenance = f"p2p {link.kind} {link.src}->{link.dst}"
            pipes.append((link.src, (link.dst,), link_capacity(link), provenance))
    return tuple(nodes), pipes


def _network_key(node_ids, arcs):
    return tuple(node_ids), tuple(
        (arc[0], arc[1], repr(float(arc[2])), describe(arc)) for arc in arcs
    )


def random_upper_inputs(rng):
    """A random decomposed network of 5 nodes (coupled groups share links),
    with a random receiver order per BC and a random alpha (0, 1 or a
    uniform draw)."""
    names = ["n0", "n1", "n2", "n3", "n4"]
    pairs = [(u, v) for u in names for v in names if u != v]
    chosen = rng.sample(pairs, rng.randint(2, 9))
    links = [
        NoisyLink(src=u, dst=v, kind="awgn", snr=db_to_linear(rng.uniform(-10.0, 30.0)))
        for u, v in chosen
    ]
    if rng.random() < 0.3:
        links.append(NoisyLink(src="n0", dst="b0", kind="bsc", eps=rng.uniform(0.0, 0.5)))
    comps = decompose(
        NoisyNetwork(nodes=tuple(Node(id=n) for n in names + ["b0"]), links=tuple(links))
    )
    perms = {}
    for comp in comps:
        if comp.kind == "bc" and rng.random() < 0.7:
            perms[comp.key] = tuple(rng.sample(comp.outputs, len(comp.outputs)))
    return comps, perms, rng.choice([0.0, 1.0, rng.random()])


class TestUpperStructure:
    def test_network_is_the_reference_build(self):
        rng = random.Random(20261018)
        shared = 0
        for _ in range(80):
            comps, perms, alpha = random_upper_inputs(rng)
            want = _network_key(*_reference_build_upper(comps, alpha, perms))
            structure = UpperStructure(comps, perms)
            assert _network_key(structure.node_ids, structure.arcs(alpha)) == want
            # One structure re-rated at another alpha is that alpha's build.
            assert _network_key(structure.node_ids, structure.arcs(1.0 - alpha)) == _network_key(
                *_reference_build_upper(comps, 1.0 - alpha, perms)
            )
            # build_upper is the structure at the defaults.
            assert _network_key(*build_upper(comps)) == _network_key(
                *_reference_build_upper(comps, 1.0, {})
            )
            shared += sum(describe(arc).startswith("shared") for arc in structure.arcs(1.0))
        assert shared > 20

    def test_rejects_unknown_keys_bad_perms_and_collisions(self):
        comps = relay_components()
        with pytest.raises(ValueError, match="bc_perm"):
            UpperStructure(comps, {("bc", "Z"): ("R", "D")})
        with pytest.raises(ValueError, match="must order receivers"):
            UpperStructure(comps, {("bc", "S"): ("R", "R")})
        comps = decompose(awgn_network([("S", "S_out", 1.0), ("S", "B", 2.0)]))
        with pytest.raises(ValueError, match="collides"):
            UpperStructure(comps)
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 2.0), ("X", "C_in", 1.0)]))
        with pytest.raises(ValueError, match="collides"):
            UpperStructure(comps)


def rated(components, bc_betas=None, mac_order=None):
    """{(tail, heads): (rate, label)} of a lower structure's arcs at one split."""
    bc_betas = bc_betas or {}
    params = LowerParams(bc_betas=bc_betas, mac_order=mac_order or {})
    arcs = LowerStructure(components, params).arcs(bc_betas)
    return {(tail, heads): (rate, label) for tail, heads, rate, label in arcs}


class TestInterferenceLedger:
    """The charges of `LowerStructure`, seen through the arcs they rate: each
    receiver's residual and floor through SIC rates, the extrinsic terms
    through the broadcast labels, default decode orders through the SIC
    labels ("mac", order)."""

    RELAY_D = {("mac", "D"): ("S", "R")}  # the relay decoded last at D
    HALF = {("bc", "S"): (0.5, 0.5)}

    def test_defaults_decode_everything(self):
        # No residual and no floor: decoded last, the relay sees its full SNR
        # 10; decoded first, the source's full power 1 on top of the noise.
        relay_last = rated(relay_components(), mac_order=self.RELAY_D)
        assert abs(relay_last[("R", ("D",))][0] - awgn_capacity(10.0)) < 1e-12
        relay_first = rated(relay_components())
        assert abs(relay_first[("R", ("D",))][0] - awgn_capacity(10.0 / 2.0)) < 1e-12
        extrinsic = relay_first[("S", ("D", "R"))][1][3]
        assert extrinsic[("S", "D")] == extrinsic[("S", "R")] == 0.0

    def test_relay_private_layer_residual(self):
        # D does not decode the private layer: residual(S, D) = 0.5, the relay
        # leaves none, so D's floor is 0.5.
        g_s = (1.0 - 0.5) / (1.0 + 0.5)
        g_r = (10.0 - 0.0) / (1.0 + 0.5)
        default = rated(relay_components(), self.HALF)
        relay_last = rated(relay_components(), self.HALF, self.RELAY_D)
        assert abs(default[("R", ("D",))][0] - awgn_capacity(g_r / (1.0 + g_s))) < 1e-12
        assert abs(relay_last[("R", ("D",))][0] - awgn_capacity(g_r)) < 1e-12
        # Default order decodes the relay first: the relay sees the source at
        # full power, then the source sees only the relay's zero residual.
        assert default[("R", ("D",))][1] == ("mac", ("R", "S"))
        extrinsic = default[("S", ("D", "R"))][1][3]
        assert abs(extrinsic[("S", "D")]) < 1e-12
        assert abs(extrinsic[("R", "D")] - 1.0) < 1e-12

    def test_relay_effective_snrs_and_sic_sum(self):
        # Effective SNRs at D: (gamma - residual) / (1 + floor).
        g_s = (1.0 - 0.5) / (1.0 + 0.5)
        g_r = (10.0 - 0.0) / (1.0 + 0.5)
        assert abs(g_s - 1.0 / 3.0) < 1e-12
        assert abs(g_r - 20.0 / 3.0) < 1e-12
        rates = rated(relay_components(), self.HALF)
        common, relay = rates[("S", ("D", "R"))][0], rates[("R", ("D",))][0]
        assert abs(common - awgn_capacity(g_s)) < 1e-12
        assert abs(relay - awgn_capacity(g_r / (1.0 + g_s))) < 1e-12
        # What D decodes adds up to the SIC sum rate C(g_s + g_r).
        assert abs(common + relay - 1.5) < 1e-12

    def test_pure_interference_input(self):
        comps = decompose(
            awgn_network([("X1", "J", 1.0), ("X2", "J", 2.0), ("X2", "K", 3.0)])
        )
        betas = {("bc", "X2"): (0.0, 1.0)}
        # J decodes no power of X2 (residual 2), so the default order puts X1
        # first, ahead of X2's stronger SNR ...
        assert rated(comps, betas)[("X1", ("J",))][1] == ("mac", ("X1", "X2"))
        # ... and X1, decoded last, still sees J's floor of 2.
        last = rated(comps, betas, {("mac", "J"): ("X2", "X1")})
        assert abs(last[("X1", ("J",))][0] - awgn_capacity(1.0 / (1.0 + 2.0))) < 1e-12

    def test_explicit_order_flips_extrinsic(self):
        rates = rated(relay_components(), self.HALF, self.RELAY_D)
        assert rates[("R", ("D",))][1] == ("mac", ("S", "R"))
        extrinsic = rates[("S", ("D", "R"))][1][3]
        assert abs(extrinsic[("S", "D")] - 10.0) < 1e-12
        assert abs(extrinsic[("R", "D")] - 0.5) < 1e-12

    def test_bad_beta_sum_raises(self):
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.4)})
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).arcs(params.bc_betas)

    def test_negative_beta_raises(self):
        params = LowerParams(bc_betas={("bc", "S"): (1.5, -0.5)})
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).arcs(params.bc_betas)

    def test_non_finite_beta_raises_naming_the_component(self):
        # NaN passes both the sign and the sum test, so it needs its own.
        nan = float("nan")
        structure = LowerStructure(relay_components())
        for bad in ((nan, 1.0), (1.0, nan), (nan, nan)):
            params = LowerParams(bc_betas={("bc", "S"): bad})
            with pytest.raises(ValueError, match=r"bc_betas for \('bc', 'S'\)"):
                build_lower(relay_components(), params)
            with pytest.raises(ValueError, match="finite"):
                structure.arcs({("bc", "S"): bad})

    def test_unknown_component_key_raises(self):
        with pytest.raises(ValueError):
            params = LowerParams(bc_betas={("bc", "Q"): (1.0,)})
            LowerStructure(relay_components(), params).arcs(params.bc_betas)
        with pytest.raises(ValueError, match="matches no component"):
            LowerStructure(relay_components()).arcs({("bc", "Q"): (1.0,)})

    def test_bad_order_raises(self):
        params = LowerParams(mac_order={("mac", "D"): ("S", "S")})
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).arcs(params.bc_betas)

    def test_non_nested_targets_raise(self):
        params = LowerParams(
            bc_betas={("bc", "S"): (0.5, 0.5)},
            bc_decode_targets={
                (("bc", "S"), 0): ("D",),
                (("bc", "S"), 1): ("R",),
            },
        )
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).arcs(params.bc_betas)

    def test_empty_target_raises(self):
        params = LowerParams(
            bc_betas={("bc", "S"): (1.0, 0.0)},
            bc_decode_targets={(("bc", "S"), 1): ()},
        )
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).arcs(params.bc_betas)


class TestBuildLower:
    def test_single_awgn_link(self):
        comps = decompose(awgn_network([("a", "b", 3.0)]))
        node_ids, arcs = build_lower(comps)
        assert len(arcs) == 1
        assert abs(arcs[0][2] - 1.0) < 1e-12
        assert validate_bounding_network(node_ids, arcs, "lower") == []

    def test_independent_bc_matches_superposition_model(self):
        comps = decompose(awgn_network([("S", "A", 1.0), ("S", "B", 4.0)]))
        params = LowerParams(bc_betas={("bc", "S"): (0.3, 0.7)})
        _, arcs = build_lower(comps, params)
        rates = pipe_map(arcs)
        # Layer 1 is decoded by both receivers under layer 2's interference,
        # so the weaker one sets its rate; layer 2 reaches the strong one.
        assert len(rates) == 2
        common = awgn_capacity(1.0 * 0.3 / (1.0 + 1.0 * 0.7))
        assert abs(rates[("S", ("A", "B"))] - common) < 1e-12
        assert abs(rates[("S", ("B",))] - awgn_capacity(4.0 * 0.7)) < 1e-12

    def test_default_single_layer_hyper_arc(self):
        comps = decompose(awgn_network([("S", "A", 1.0), ("S", "B", 4.0)]))
        _, arcs = build_lower(comps)
        [(_, heads, rate, _)] = arcs
        assert set(heads) == {"A", "B"}
        assert abs(rate - awgn_capacity(1.0)) < 1e-12

    def test_independent_mac_sic_corner(self):
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 10.0)]))
        _, arcs = build_lower(comps)
        rates = pipe_map(arcs)
        # Default decodes the strong input first against the weak one.
        assert abs(rates[("B", ("C",))] - awgn_capacity(10.0 / 2.0)) < 1e-12
        assert abs(rates[("A", ("C",))] - awgn_capacity(1.0)) < 1e-12
        total = sum(rates.values())
        assert abs(total - awgn_capacity(11.0)) < 1e-12

    def test_independent_mac_order_override(self):
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 10.0)]))
        params = LowerParams(mac_order={("mac", "C"): ("A", "B")})
        _, arcs = build_lower(comps, params)
        rates = pipe_map(arcs)
        assert abs(rates[("A", ("C",))] - awgn_capacity(1.0 / 11.0)) < 1e-12
        assert abs(rates[("B", ("C",))] - awgn_capacity(10.0)) < 1e-12

    def test_relay_off_is_exact_direct_capacity(self):
        comps = relay_components(gamma_sd=1.0, gamma_sr=0.5, gamma_rd=10.0)
        params = LowerParams(bc_betas={("bc", "S"): (0.0, 1.0)})
        node_ids, arcs = build_lower(comps, params)
        rates = pipe_map(arcs)
        assert rates[("S", ("D",))] == 0.5
        flow = max_flow(node_ids, arcs, unicast("S", "D"))
        assert flow.rate == 0.5

    def test_relay_beta_half_rates_and_flow(self):
        comps = relay_components()
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        node_ids, arcs = build_lower(comps, params)
        rates = pipe_map(arcs)
        assert abs(rates[("S", ("D", "R"))] - awgn_capacity(1.0 / 3.0)) < 1e-12
        assert abs(rates[("S", ("R",))] - awgn_capacity(5.0)) < 1e-12
        assert abs(rates[("R", ("D",))] - awgn_capacity(5.0)) < 1e-12
        results = hyper_inner(node_ids, arcs, (unicast("S", "D"),))
        assert abs(results[0].rate - 1.5) < 1e-8
        assert validate_bounding_network(node_ids, arcs, "lower") == []

    def test_relay_sandwich_over_beta_grid(self):
        comps = relay_components()
        outer = max_flow(*build_upper(comps), unicast("S", "D")).rate
        for k in range(9):
            beta2 = k / 8.0
            params = LowerParams(bc_betas={("bc", "S"): (1.0 - beta2, beta2)})
            inner = hyper_inner(*build_lower(comps, params), (unicast("S", "D"),))[0].rate
            assert inner <= outer + 1e-9

    def test_xchannel_lower_rates(self):
        comps = decompose(
            awgn_network(
                [
                    ("T1", "R1", 1.0),
                    ("T1", "R2", 1.0),
                    ("T2", "R1", 1.0),
                    ("T2", "R2", 1.0),
                ]
            )
        )
        node_ids, arcs = build_lower(comps)
        rates = pipe_map(arcs)
        # Default order decodes T1 first everywhere: T1's common layer sees
        # T2 at full power, T2's sees only T1's zero residual.
        assert abs(rates[("T1", ("R1", "R2"))] - awgn_capacity(0.5)) < 1e-12
        assert abs(rates[("T2", ("R1", "R2"))] - awgn_capacity(1.0)) < 1e-12
        assert validate_bounding_network(node_ids, arcs, "lower") == []

    def test_hyper_arcs_only_from_bc_inputs(self):
        comps = relay_components()
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        _, arcs = build_lower(comps, params)
        for tail, heads, _, _ in arcs:
            if len(heads) > 1:
                assert tail == "S"

    def test_determinism(self):
        params = LowerParams(bc_betas={("bc", "S"): (0.25, 0.75)})
        first = build_lower(relay_components(), params)
        second = build_lower(relay_components(), params)
        assert first == second

    def test_sic_rate_skipped_for_broadcast_transmitters(self, monkeypatch):
        # The source is both a broadcast transmitter and an input of the
        # destination's multi-access side; its traffic rides on the layer
        # arcs, so only the relay's SIC rate is computed.
        comps = relay_components()
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        calls = []

        def counting(gamma):
            calls.append(gamma)
            return awgn_capacity(gamma)

        # The float form of the rating core takes its capacity from here.
        monkeypatch.setattr(assemble._OneSplit, "capacity", staticmethod(counting))
        _, arcs = build_lower(comps, params)
        layer_rates = 2 + 1  # layer 1 to {D, R}, layer 2 to {R}
        sic_rates = 1  # R at D; S at D is skipped
        assert len(calls) == layer_rates + sic_rates
        assert len(arcs) == 3


class TestLowerStructure:
    def test_evaluations_match_build_lower(self):
        comps = relay_components(gamma_sd=2.0, gamma_sr=5.0, gamma_rd=8.0)
        targets = {(("bc", "S"), 0): ("D", "R"), (("bc", "S"), 1): ("D",)}
        for order in (None, ("S", "R"), ("R", "S")):
            mac_order = {} if order is None else {("mac", "D"): order}
            structure = LowerStructure(
                comps,
                LowerParams(
                    bc_betas={("bc", "S"): (1.0, 0.0)},
                    mac_order=mac_order,
                    bc_decode_targets=targets,
                ),
            )
            for k in range(9):
                betas = {("bc", "S"): (1.0 - k / 8, k / 8)}
                params = LowerParams(
                    bc_betas=betas, mac_order=mac_order, bc_decode_targets=targets
                )
                assert (structure.node_ids, structure.arcs(betas)) == build_lower(
                    comps, params
                )

    def test_searched_arcs_are_valid_and_described(self):
        # Every structure the searches rate, at random splits with some layers
        # at zero power, gives a valid lower network whose every arc has a
        # provenance text.
        rng = np.random.default_rng(20261018)
        checked = 0
        for structure, layers in self.searched_structures():
            for _ in range(12):
                betas = {}
                for key, count in layers.items():
                    shares = rng.dirichlet(np.ones(count))
                    if count > 1 and rng.random() < 0.3:
                        shares[rng.integers(count)] = 0.0
                        shares /= shares.sum()
                    betas[key] = tuple(shares.tolist())
                arcs = structure.arcs(betas)
                assert validate_bounding_network(structure.node_ids, arcs, "lower") == []
                assert all(describe(arc) for arc in arcs)
                checked += 1
        assert checked == 12 * 9  # 4 relay, 3 multicast and 2 bounds structures

    @staticmethod
    def searched_structures():
        """(structure, layer count per BC key) of the relay, the multicast
        fan and both tests/data bounds files."""
        targets = {(("bc", "S"), 0): ("D", "R"), (("bc", "S"), 1): ("D",)}
        for family in ({}, targets):
            for order in (("R", "S"), ("S", "R")):
                params = LowerParams(
                    mac_order={("mac", "D"): order}, bc_decode_targets=family
                )
                yield LowerStructure(relay_components(gamma_sr=3.0), params), {
                    ("bc", "S"): 2
                }
        power = db_to_linear(13.0)
        net = experiments.multicast_network(4, power, power * db_to_linear(-3.0), 8, 0.1)
        sinks = sorted(net.demands[0].sinks)
        two_layers = {("bc", "S1"): 2, ("bc", "S2"): 2}
        for split in range(1, len(sinks)):
            params = LowerParams(
                bc_betas={key: (1.0, 0.0) for key in two_layers},
                bc_decode_targets={
                    (("bc", "S1"), 0): tuple(sinks),
                    (("bc", "S1"), 1): tuple(sinks[:split]),
                    (("bc", "S2"), 0): tuple(sinks),
                    (("bc", "S2"), 1): tuple(sinks[split:]),
                },
            )
            yield LowerStructure(decompose(net), params), two_layers
        for name in ("lower_bounds_2x3xunicast-0.json", "lower_bounds_3x2xmulticast-1.json"):
            components = decompose(parse_network((DATA / name).read_text(encoding="utf-8")))
            layers = {c.key: len(c.links) for c in components if c.kind == "bc"}
            yield LowerStructure(components), layers

    def test_default_decode_order_follows_each_split(self):
        # With all power on the private layer the destination cannot decode
        # the source, so the default order moves the relay first.
        structure = LowerStructure(relay_components(gamma_sd=4.0, gamma_rd=2.0))

        def sic_label(betas):
            arcs = structure.arcs({("bc", "S"): betas})
            [label] = [label for tail, _, _, label in arcs if tail == "R"]
            return label

        assert sic_label((1.0, 0.0)) == ("mac", ("S", "R"))
        assert sic_label((0.0, 1.0)) == ("mac", ("R", "S"))

    def test_layer_count_is_fixed_by_the_structure(self):
        structure = LowerStructure(relay_components())
        with pytest.raises(ValueError, match="built with 2"):
            structure.arcs({("bc", "S"): (1.0,)})

    def test_evaluation_validates_betas(self):
        structure = LowerStructure(relay_components())
        for bad in ((0.5, 0.4), (1.5, -0.5)):
            with pytest.raises(ValueError):
                structure.arcs({("bc", "S"): bad})
        with pytest.raises(ValueError, match="matches no component"):
            structure.arcs({("bc", "Q"): (1.0,)})


class TestDescribe:
    def test_every_label_form_renders_its_provenance(self):
        upper = UpperStructure(relay_components()).arcs(0.25)
        assert [describe(arc) for arc in upper] == [
            "bc S: sum over 2 receivers",
            "mac D: sum (alpha=0.25)",
            "bc S: receiver R (cumulative position 1)",
            "shared: bc S: receiver D (cumulative position 2) / mac D: input S "
            "(alpha=0.25), max",
            "mac D: input R (alpha=0.25)",
        ]
        params = LowerParams(mac_order={("mac", "D"): ("S", "R")})
        lower = LowerStructure(relay_components(), params).arcs({("bc", "S"): (0.5, 0.5)})
        assert [describe(arc) for arc in lower] == [
            "bc S: layer 1 beta=0.5 -> ['D', 'R'] (interference-adjusted at ['D'])",
            "bc S: layer 2 beta=0.5 -> ['R']",
            "mac D: input R sic (order ['S', 'R'])",
        ]
        net = NoisyNetwork(
            nodes=(Node(id="a"), Node(id="b")),
            links=(NoisyLink(src="a", dst="b", kind="bsc", eps=0.11),),
        )
        for build in (build_upper, build_lower):
            _, [arc] = build(decompose(net))
            assert describe(arc) == "p2p bsc a->b"


def test_clear_caches_empties_every_module_cache():
    # `tests/conftest.py` isolates tests by `_clear_caches`: a module cache
    # that it leaves out fails here instead of making tests order-dependent.
    experiments.multicast_experiment(10, (13.0,), -3.0, 8, 0.1)
    caches = {
        name: value for name, value in vars(assemble).items() if hasattr(value, "cache_info")
    }
    assert {"_frame", "_mac_sweep"} <= set(caches)
    assert all(caches[name].cache_info().currsize > 0 for name in ("_frame", "_mac_sweep"))
    assemble._clear_caches()
    sizes = {name: cache.cache_info().currsize for name, cache in caches.items()}
    assert sizes == dict.fromkeys(caches, 0)
    stores = [
        name
        for name, value in vars(assemble).items()
        if not name.startswith("__") and isinstance(value, MutableMapping)
    ]
    assert stores == []


def test_conftest_clears_every_flows_cache_of_results():
    # `tests/conftest.py` clears the routing LP templates before every test.
    # `_highs` and `_solver` hold SciPy's HiGHS bindings and the one solver,
    # which every solve resets; a further module cache fails here until the
    # fixture clears it too.
    hyper_inner(("s", "t"), [("s", ("t",), 1.0, "pipe")], (Demand("unicast", "s", {"t"}),))
    caches = {name: value for name, value in vars(flows).items() if hasattr(value, "cache_info")}
    assert set(caches) == {"_highs", "_solver", "_compiled_routing_lp"}
    assert caches["_compiled_routing_lp"].cache_info().currsize == 1
    stores = [
        name
        for name, value in vars(flows).items()
        if not name.startswith("__") and isinstance(value, MutableMapping)
    ]
    assert stores == []
