"""Tests for bounding-network assembly from decoupled components."""

import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from netbounds import assemble, cli
from netbounds.assemble import (
    LowerParams,
    LowerStructure,
    UpperParams,
    UpperStructure,
    build_lower,
    build_upper,
    link_capacity,
)
from netbounds.decouple import decompose, relay_noise_share
from netbounds.bc import BcSpec, bc_upper_cumulative
from netbounds.flows import (
    hyper_inner,
    max_flow,
    max_flow_arcs,
    multicast_outer,
    multicast_outer_arcs,
)
from netbounds.info import awgn_capacity, bsc_capacity, db_to_linear
from netbounds.mac import MacSpec, mac_upper
from netbounds.netmodel import (
    AUXILIARY,
    BitPipe,
    Demand,
    NoiselessNetwork,
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


def pipe_map(net):
    return {(p.tail, p.heads): p.rate for p in net.pipes}


def min_cut_p2p(net, source, sink):
    others = [n for n in net.node_ids if n not in {source, sink}]
    best = float("inf")
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = {source, *chosen}
            cap = sum(
                p.rate for p in net.pipes if p.tail in side and p.head not in side
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
        net = build_upper(comps)
        assert len(net.pipes) == 1
        assert abs(net.pipes[0].rate - 1.0) < 1e-12
        assert validate_bounding_network(net, "upper") == []

    def test_relay_default_shape(self):
        comps = relay_components()
        net = build_upper(comps)
        alpha = relay_noise_share(1.0, 10.0, 10.0)
        rates = pipe_map(net)
        bc_sum = awgn_capacity(10.0 + 1.0 / alpha)
        mac_sum = awgn_capacity((1.0 + math.sqrt(10.0)) ** 2)
        assert abs(rates[("S", ("S_out",))] - bc_sum) < 1e-9
        assert abs(rates[("D_in", ("D",))] - mac_sum) < 1e-9
        # Shared pipe takes the max of the BC-side rate and the unconstrained
        # per-input rate of the default full-cooperation model.
        assert rates[("S_out", ("D_in",))] == float("inf")
        assert rates[("R", ("D_in",))] == float("inf")
        assert abs(rates[("S_out", ("R",))] - awgn_capacity(10.0)) < 1e-9
        assert validate_bounding_network(net, "upper") == []
        flow = max_flow(net, unicast("S", "D"))
        assert abs(flow.rate - min(bc_sum, mac_sum)) < 1e-9

    def test_relay_finite_alpha_matches_cut_enumeration(self):
        comps = relay_components()
        params = UpperParams(mac_alpha={("mac", "D"): 0.5})
        net = build_upper(comps, params)
        assert all(p.rate < float("inf") for p in net.pipes)
        flow = max_flow(net, unicast("S", "D"))
        assert abs(flow.rate - min_cut_p2p(net, "S", "D")) < 1e-9

    def test_relay_both_perms_differ(self):
        comps = relay_components()
        strong_first = build_upper(
            comps, UpperParams(bc_perm={("bc", "S"): ("R", "D")})
        )
        weak_first = build_upper(
            comps, UpperParams(bc_perm={("bc", "S"): ("D", "R")})
        )
        alpha = relay_noise_share(1.0, 10.0, 10.0)
        rates_s = pipe_map(strong_first)
        rates_w = pipe_map(weak_first)
        assert abs(rates_s[("S_out", ("R",))] - awgn_capacity(10.0)) < 1e-9
        assert abs(
            rates_w[("S_out", ("R",))] - awgn_capacity(10.0 + 1.0 / alpha)
        ) < 1e-9

    def test_independent_bc_perm_controls_weak_receiver(self):
        comps = decompose(awgn_network([("S", "A", 4.0), ("S", "B", 1.0)]))
        net = build_upper(
            comps, UpperParams(bc_perm={("bc", "S"): ("B", "A")})
        )
        flow = max_flow(net, unicast("S", "B"))
        assert abs(flow.rate - awgn_capacity(1.0)) < 1e-9

    def test_independent_mac_alpha_zero_per_input(self):
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 10.0)]))
        net = build_upper(comps, UpperParams(mac_alpha={("mac", "C"): 0.0}))
        rates = pipe_map(net)
        assert rates[("C_in", ("C",))] == float("inf")
        assert rates[("A", ("C_in",))] < float("inf")
        flow = max_flow(net, unicast("A", "C"))
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
        net = build_upper(comps)
        assert len(net.pipes) == 8
        rates = pipe_map(net)
        # 2x2 all-ones partition gives effective BC SNRs of 2 per receiver.
        assert abs(rates[("T1", ("T1_out",))] - awgn_capacity(4.0)) < 1e-9
        assert abs(rates[("R1_in", ("R1",))] - awgn_capacity(4.0)) < 1e-9
        assert validate_bounding_network(net, "upper") == []

    def test_bsc_side_channel_pipe(self):
        net = NoisyNetwork(
            nodes=(Node(id="a"), Node(id="b")),
            links=(NoisyLink(src="a", dst="b", kind="bsc", eps=0.11),),
        )
        upper = build_upper(decompose(net))
        assert abs(upper.pipes[0].rate - bsc_capacity(0.11)) < 1e-12

    def test_unknown_mac_alpha_key_raises(self):
        comps = relay_components()
        with pytest.raises(ValueError):
            build_upper(comps, UpperParams(mac_alpha={("mac", "Z"): 0.5}))

    def test_bad_perm_raises(self):
        comps = relay_components()
        with pytest.raises(ValueError):
            build_upper(comps, UpperParams(bc_perm={("bc", "S"): ("R", "R")}))

    def test_aux_collision_raises(self):
        comps = decompose(
            awgn_network([("S", "S_out", 1.0), ("S", "B", 2.0)])
        )
        with pytest.raises(ValueError):
            build_upper(comps)


def _reference_build_upper(components, params=None):
    """build_upper written as it was before UpperStructure: every step for
    one alpha, BC models and pipes rebuilt per call."""
    params = params or UpperParams()
    bc_by_key, mac_by_key = assemble._component_maps(components)
    assemble._check_param_keys(params.mac_alpha, mac_by_key, "mac_alpha")
    assemble._check_param_keys(params.bc_perm, bc_by_key, "bc_perm")
    nodes = [Node(id=name) for name in assemble._all_nodes(components)]
    taken = {node.id for node in nodes}
    pipes = []
    bc_rate, mac_rate, bc_label, mac_label = {}, {}, {}, {}
    for comp in components:
        if comp.kind != "bc":
            continue
        tx = comp.inputs[0]
        receivers = tuple(link.dst for link in comp.links)
        perm_ids = params.bc_perm.get(comp.key, assemble._default_perm(comp))
        if sorted(perm_ids) != sorted(receivers):
            raise ValueError(f"bad bc_perm {perm_ids}")
        perm = tuple(receivers.index(r) for r in perm_ids)
        rv = bc_upper_cumulative(BcSpec(gammas=comp.gamma_list()), perm)
        aux = f"{tx}_out"
        if aux in taken:
            raise ValueError(f"auxiliary id {aux!r} collides with a node id")
        taken.add(aux)
        nodes.append(Node(id=aux, kind=AUXILIARY))
        pipes.append(
            BitPipe(tx, (aux,), rv.sum_rate, f"bc {tx}: sum over {len(receivers)} receivers")
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
        alpha = params.mac_alpha.get(comp.key, 1.0)
        rv, _partition = mac_upper(MacSpec(gammas=comp.gamma_list()), alpha)
        aux = f"{rx}_in"
        if aux in taken:
            raise ValueError(f"auxiliary id {aux!r} collides with a node id")
        taken.add(aux)
        nodes.append(Node(id=aux, kind=AUXILIARY))
        pipes.append(BitPipe(aux, (rx,), rv.sum_rate, f"mac {rx}: sum (alpha={alpha:g})"))
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
        pipes.append(BitPipe(f"{tx}_out", (head,), rate, provenance))
    for (tx, rx), rate in mac_rate.items():
        if (tx, rx) not in bc_rate:
            tail = f"{tx}_out" if tx in bc_tx else tx
            pipes.append(BitPipe(tail, (f"{rx}_in",), rate, mac_label[(tx, rx)]))
    for comp in components:
        if comp.kind == "p2p":
            pipes.append(assemble._p2p_pipe(comp.links[0]))
    return NoiselessNetwork(nodes=tuple(nodes), pipes=tuple(pipes))


def _network_key(net):
    nodes = tuple((node.id, node.kind) for node in net.nodes)
    return nodes, tuple((p.tail, p.heads, repr(p.rate), p.provenance) for p in net.pipes)


def _flow_key(result):
    # repr keeps every dict's order: flows, per_sink.
    return result.demand, repr(result.rate), repr(result.witness)


def random_upper_inputs(rng):
    """A random decomposed network of 5 nodes (coupled groups share links),
    with a random receiver order per BC and a random alpha per MAC (0, 1, a
    uniform draw, or left at the default)."""
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
    perms, alphas = {}, {}
    for comp in comps:
        if comp.kind == "bc" and rng.random() < 0.7:
            perms[comp.key] = tuple(rng.sample(comp.outputs, len(comp.outputs)))
        if comp.kind == "mac" and rng.random() < 0.8:
            alphas[comp.key] = rng.choice([0.0, 1.0, rng.random()])
    return comps, perms, alphas


class TestUpperStructure:
    def test_network_is_the_reference_build(self):
        rng = random.Random(20261018)
        shared = 0
        for _ in range(80):
            comps, perms, alphas = random_upper_inputs(rng)
            want = _network_key(_reference_build_upper(comps, UpperParams(alphas, perms)))
            structure = UpperStructure(comps, perms)
            assert _network_key(structure.network(alphas)) == want
            assert _network_key(build_upper(comps, UpperParams(alphas, perms))) == want
            # One structure re-rated at another alpha is that alpha's build.
            other = {key: 1.0 - alpha for key, alpha in alphas.items()}
            assert _network_key(structure.network(other)) == _network_key(
                _reference_build_upper(comps, UpperParams(other, perms))
            )
            shared += sum(p.provenance.startswith("shared") for p in structure.network({}).pipes)
        assert shared > 20

    def test_arc_forms_match_network_forms(self):
        rng = random.Random(7)
        for _ in range(60):
            comps, perms, alphas = random_upper_inputs(rng)
            structure = UpperStructure(comps, perms)
            net = structure.network(alphas)
            arcs = [arc[:3] for arc in structure.arcs(alphas)]
            assert arcs == [(p.tail, p.heads, p.rate) for p in net.pipes]
            names = [node.id for node in net.nodes if node.kind != AUXILIARY]
            source, *sinks = rng.sample(names, min(4, len(names)))
            for sink in sinks:
                assert _flow_key(max_flow_arcs(net.node_ids, arcs, unicast(source, sink))) == (
                    _flow_key(max_flow(net, unicast(source, sink)))
                )
            demand = Demand(kind="multicast", source=source, sinks=frozenset(sinks))
            assert _flow_key(multicast_outer_arcs(net.node_ids, arcs, demand)) == (
                _flow_key(multicast_outer(net, demand))
            )

    def test_rejects_unknown_keys_bad_perms_and_collisions(self):
        comps = relay_components()
        with pytest.raises(ValueError, match="mac_alpha"):
            UpperStructure(comps).arcs({("mac", "Z"): 0.5})
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


class TestInterferenceLedger:
    def test_defaults_decode_everything(self):
        ledger = LowerStructure(relay_components()).ledger({})
        assert all(abs(v) < 1e-12 for v in ledger.gamma_residual.values())
        assert all(abs(v) < 1e-12 for v in ledger.receiver_floor.values())

    def test_relay_private_layer_residual(self):
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        ledger = LowerStructure(relay_components(), params).ledger(params.bc_betas)
        assert abs(ledger.gamma_residual[("S", "D")] - 0.5) < 1e-12
        assert abs(ledger.gamma_residual[("R", "D")]) < 1e-12
        assert abs(ledger.receiver_floor["D"] - 0.5) < 1e-12
        # Default order decodes the relay first: the relay sees the source at
        # full power, then the source sees only the relay's zero residual.
        assert abs(ledger.extrinsic[("S", "D")]) < 1e-12
        assert abs(ledger.extrinsic[("R", "D")] - 1.0) < 1e-12

    def test_relay_effective_snrs_and_sic_sum(self):
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        ledger = LowerStructure(relay_components(), params).ledger(params.bc_betas)
        floor = ledger.receiver_floor["D"]
        g_s = (1.0 - ledger.gamma_residual[("S", "D")]) / (1.0 + floor)
        g_r = (10.0 - ledger.gamma_residual[("R", "D")]) / (1.0 + floor)
        assert abs(g_s - 1.0 / 3.0) < 1e-12
        assert abs(g_r - 20.0 / 3.0) < 1e-12
        assert abs(awgn_capacity(g_s + g_r) - 1.5) < 1e-12

    def test_pure_interference_input(self):
        comps = decompose(
            awgn_network([("X1", "J", 1.0), ("X2", "J", 2.0), ("X2", "K", 3.0)])
        )
        params = LowerParams(bc_betas={("bc", "X2"): (0.0, 1.0)})
        ledger = LowerStructure(comps, params).ledger(params.bc_betas)
        assert abs(ledger.gamma_residual[("X2", "J")] - 2.0) < 1e-12
        assert abs(ledger.receiver_floor["J"] - 2.0) < 1e-12

    def test_explicit_order_flips_extrinsic(self):
        params = LowerParams(
            bc_betas={("bc", "S"): (0.5, 0.5)},
            mac_order={("mac", "D"): ("S", "R")},
        )
        ledger = LowerStructure(relay_components(), params).ledger(params.bc_betas)
        assert abs(ledger.extrinsic[("S", "D")] - 10.0) < 1e-12
        assert abs(ledger.extrinsic[("R", "D")] - 0.5) < 1e-12

    def test_bad_beta_sum_raises(self):
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.4)})
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).ledger(params.bc_betas)

    def test_negative_beta_raises(self):
        params = LowerParams(bc_betas={("bc", "S"): (1.5, -0.5)})
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).ledger(params.bc_betas)

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
            LowerStructure(relay_components(), params).ledger(params.bc_betas)

    def test_bad_order_raises(self):
        params = LowerParams(mac_order={("mac", "D"): ("S", "S")})
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).ledger(params.bc_betas)

    def test_non_nested_targets_raise(self):
        params = LowerParams(
            bc_betas={("bc", "S"): (0.5, 0.5)},
            bc_decode_targets={
                (("bc", "S"), 0): ("D",),
                (("bc", "S"), 1): ("R",),
            },
        )
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).ledger(params.bc_betas)

    def test_empty_target_raises(self):
        params = LowerParams(
            bc_betas={("bc", "S"): (1.0, 0.0)},
            bc_decode_targets={(("bc", "S"), 1): ()},
        )
        with pytest.raises(ValueError):
            LowerStructure(relay_components(), params).ledger(params.bc_betas)


class TestBuildLower:
    def test_single_awgn_link(self):
        comps = decompose(awgn_network([("a", "b", 3.0)]))
        net = build_lower(comps)
        assert len(net.pipes) == 1
        assert abs(net.pipes[0].rate - 1.0) < 1e-12
        assert validate_bounding_network(net, "lower") == []

    def test_independent_bc_matches_superposition_model(self):
        comps = decompose(awgn_network([("S", "A", 1.0), ("S", "B", 4.0)]))
        params = LowerParams(bc_betas={("bc", "S"): (0.3, 0.7)})
        net = build_lower(comps, params)
        rates = pipe_map(net)
        # Layer 1 is decoded by both receivers under layer 2's interference,
        # so the weaker one sets its rate; layer 2 reaches the strong one.
        assert len(rates) == 2
        common = awgn_capacity(1.0 * 0.3 / (1.0 + 1.0 * 0.7))
        assert abs(rates[("S", ("A", "B"))] - common) < 1e-12
        assert abs(rates[("S", ("B",))] - awgn_capacity(4.0 * 0.7)) < 1e-12

    def test_default_single_layer_hyper_arc(self):
        comps = decompose(awgn_network([("S", "A", 1.0), ("S", "B", 4.0)]))
        net = build_lower(comps)
        assert len(net.pipes) == 1
        pipe = net.pipes[0]
        assert set(pipe.heads) == {"A", "B"}
        assert abs(pipe.rate - awgn_capacity(1.0)) < 1e-12

    def test_independent_mac_sic_corner(self):
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 10.0)]))
        net = build_lower(comps)
        rates = pipe_map(net)
        # Default decodes the strong input first against the weak one.
        assert abs(rates[("B", ("C",))] - awgn_capacity(10.0 / 2.0)) < 1e-12
        assert abs(rates[("A", ("C",))] - awgn_capacity(1.0)) < 1e-12
        total = sum(rates.values())
        assert abs(total - awgn_capacity(11.0)) < 1e-12

    def test_independent_mac_order_override(self):
        comps = decompose(awgn_network([("A", "C", 1.0), ("B", "C", 10.0)]))
        params = LowerParams(mac_order={("mac", "C"): ("A", "B")})
        net = build_lower(comps, params)
        rates = pipe_map(net)
        assert abs(rates[("A", ("C",))] - awgn_capacity(1.0 / 11.0)) < 1e-12
        assert abs(rates[("B", ("C",))] - awgn_capacity(10.0)) < 1e-12

    def test_relay_off_is_exact_direct_capacity(self):
        comps = relay_components(gamma_sd=1.0, gamma_sr=0.5, gamma_rd=10.0)
        params = LowerParams(bc_betas={("bc", "S"): (0.0, 1.0)})
        net = build_lower(comps, params)
        rates = pipe_map(net)
        assert rates[("S", ("D",))] == 0.5
        flow = max_flow(net, unicast("S", "D"))
        assert flow.rate == 0.5

    def test_relay_beta_half_rates_and_flow(self):
        comps = relay_components()
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        net = build_lower(comps, params)
        rates = pipe_map(net)
        assert abs(rates[("S", ("D", "R"))] - awgn_capacity(1.0 / 3.0)) < 1e-12
        assert abs(rates[("S", ("R",))] - awgn_capacity(5.0)) < 1e-12
        assert abs(rates[("R", ("D",))] - awgn_capacity(5.0)) < 1e-12
        results = hyper_inner(net, (unicast("S", "D"),))
        assert abs(results[0].rate - 1.5) < 1e-8
        assert validate_bounding_network(net, "lower") == []

    def test_relay_sandwich_over_beta_grid(self):
        comps = relay_components()
        outer = max_flow(build_upper(comps), unicast("S", "D")).rate
        for k in range(9):
            beta2 = k / 8.0
            params = LowerParams(bc_betas={("bc", "S"): (1.0 - beta2, beta2)})
            net = build_lower(comps, params)
            inner = hyper_inner(net, (unicast("S", "D"),))[0].rate
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
        net = build_lower(comps)
        rates = pipe_map(net)
        # Default order decodes T1 first everywhere: T1's common layer sees
        # T2 at full power, T2's sees only T1's zero residual.
        assert abs(rates[("T1", ("R1", "R2"))] - awgn_capacity(0.5)) < 1e-12
        assert abs(rates[("T2", ("R1", "R2"))] - awgn_capacity(1.0)) < 1e-12
        assert validate_bounding_network(net, "lower") == []

    def test_hyper_arcs_only_from_bc_inputs(self):
        comps = relay_components()
        params = LowerParams(bc_betas={("bc", "S"): (0.5, 0.5)})
        net = build_lower(comps, params)
        for pipe in net.pipes:
            if pipe.is_hyper:
                assert pipe.tail == "S"

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

        monkeypatch.setattr(assemble, "awgn_capacity", counting)
        net = build_lower(comps, params)
        layer_rates = 2 + 1  # layer 1 to {D, R}, layer 2 to {R}
        sic_rates = 1  # R at D; S at D is skipped
        assert len(calls) == layer_rates + sic_rates
        assert len(net.pipes) == 3


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
                assert structure.network(betas) == build_lower(comps, params)
                assert structure.ledger(betas) == LowerStructure(comps, params).ledger(
                    params.bc_betas
                )

    def test_network_pipes_are_the_arcs_in_order(self):
        # network(b) is arcs(b) plus provenance: same (tail, heads, rate), in
        # order, on every structure the searches rate, at random splits with
        # some layers at zero power.
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
                pipes = structure.network(betas).pipes
                assert [(p.tail, p.heads, p.rate) for p in pipes] == [
                    (tail, heads, rate) for tail, heads, rate, _ in arcs
                ]
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
        net = cli.multicast_network(4, power, power * db_to_linear(-3.0), 8, 0.1)
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
        even = structure.ledger({("bc", "S"): (1.0, 0.0)})
        private = structure.ledger({("bc", "S"): (0.0, 1.0)})
        assert even.mac_order[("mac", "D")] == ("S", "R")
        assert private.mac_order[("mac", "D")] == ("R", "S")

    def test_layer_count_is_fixed_by_the_structure(self):
        structure = LowerStructure(relay_components())
        with pytest.raises(ValueError, match="built with 2"):
            structure.network({("bc", "S"): (1.0,)})

    def test_evaluation_validates_betas(self):
        structure = LowerStructure(relay_components())
        for bad in ((0.5, 0.4), (1.5, -0.5)):
            with pytest.raises(ValueError):
                structure.network({("bc", "S"): bad})
        with pytest.raises(ValueError, match="matches no component"):
            structure.network({("bc", "Q"): (1.0,)})
