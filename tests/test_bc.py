"""Tests for the broadcast bounding models.

The upper model is checked through `bc_upper_cumulative` and the arcs of
`UpperStructure`; the superposition lower model exists only inside
`LowerStructure`, so its identities are checked on the lower arcs of an
independent broadcast channel.
"""

from math import comb

import numpy as np
import pytest

from netbounds.assemble import LowerParams, UpperStructure, build_lower
from netbounds.bc import BcSpec, bc_sum_gap, bc_upper_cumulative, simplex_grid
from netbounds.decouple import decompose
from netbounds.info import awgn_capacity
from netbounds.netmodel import NoisyLink, NoisyNetwork, Node


def broadcast(gammas, receivers=None):
    """Components of one transmitter S heard by each receiver at its SNR."""
    receivers = receivers or tuple(f"R{k + 1}" for k in range(len(gammas)))
    net = NoisyNetwork(
        nodes=tuple(Node(id=n) for n in ("S", *receivers)),
        links=tuple(
            NoisyLink(src="S", dst=r, kind="awgn", snr=g)
            for r, g in zip(receivers, gammas)
        ),
    )
    return decompose(net)


def upper_rates(components, perm=None):
    bc_perm = {("bc", "S"): perm} if perm else None
    arcs = UpperStructure(components, bc_perm).arcs(1.0)
    return {(tail, heads): rate for tail, heads, rate, _ in arcs}


def layer_rates(components, betas=None):
    """Lower-network rate per receiver set of the layers that carry power."""
    params = LowerParams(bc_betas={("bc", "S"): betas}) if betas else None
    _, arcs = build_lower(components, params)
    return {heads: rate for _, heads, rate, _ in arcs}


def test_upper_basic_variant1():
    # All receivers cooperating: the transmitter's sum pipe.
    rates = upper_rates(broadcast((1.0, 4.0)))
    assert abs(rates[("S", ("S_out",))] - 0.5 * np.log2(6.0)) < 1e-12


def test_upper_basic_variant2():
    # Each receiver alone: the first receiver of a permutation gets its own
    # capacity.
    comps = broadcast((1.0, 4.0))
    for perm, rate in ((("R1", "R2"), 0.5), (("R2", "R1"), 0.5 * np.log2(5.0))):
        rates = upper_rates(comps, perm)
        assert abs(rates[("S_out", (perm[0],))] - rate) < 1e-12


def test_upper_basic_single_receiver():
    # A broadcast side with one receiver is that link's capacity pipe.
    rates = upper_rates(broadcast((3.0,)))
    assert rates == {("S", ("R1",)): pytest.approx(1.0, abs=1e-12)}


def test_upper_cumulative_identity_perm():
    rates = bc_upper_cumulative(BcSpec(gammas=(1.0, 4.0)), (0, 1))
    assert abs(rates[0] - 0.5) < 1e-12
    assert abs(rates[1] - 0.5 * np.log2(6.0)) < 1e-12
    assert abs(rates[-1] - 0.5 * np.log2(6.0)) < 1e-12


def test_upper_cumulative_swapped_perm():
    rates = bc_upper_cumulative(BcSpec(gammas=(1.0, 4.0)), (1, 0))
    assert abs(rates[0] - 0.5 * np.log2(5.0)) < 1e-12
    assert abs(rates[1] - 0.5 * np.log2(6.0)) < 1e-12


def test_upper_cumulative_two_layouts():
    # The two m=2 permutations give (sum, weak-receiver capacity, sum) and
    # (sum, sum, strong-receiver capacity) as per-receiver pipes.
    comps = broadcast((1.0, 4.0))
    layout_a = upper_rates(comps, ("R1", "R2"))
    assert abs(layout_a[("S_out", ("R1",))] - 0.5 * np.log2(2.0)) < 1e-12
    assert abs(layout_a[("S_out", ("R2",))] - 0.5 * np.log2(6.0)) < 1e-12
    layout_b = upper_rates(comps, ("R2", "R1"))
    assert abs(layout_b[("S_out", ("R1",))] - 0.5 * np.log2(6.0)) < 1e-12
    assert abs(layout_b[("S_out", ("R2",))] - 0.5 * np.log2(5.0)) < 1e-12
    for layout in (layout_a, layout_b):
        assert abs(layout[("S", ("S_out",))] - 0.5 * np.log2(6.0)) < 1e-12


def test_upper_cumulative_monotone_and_matches_basic_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        spec = BcSpec(gammas=tuple(rng.uniform(0.1, 50.0, size=m)))
        perm = tuple(rng.permutation(m))
        rates = bc_upper_cumulative(spec, perm)
        assert all(rates[k] <= rates[k + 1] + 1e-12 for k in range(m - 1))
        assert abs(rates[-1] - awgn_capacity(sum(spec.gammas))) < 1e-12
        assert len(rates) == m  # the last entry is the sum rate itself


def test_upper_cumulative_single_receiver():
    rates = bc_upper_cumulative(BcSpec(gammas=(3.0,)), (0,))
    assert abs(rates[-1] - 1.0) < 1e-12


def test_lower_superposition_even_split():
    rates = layer_rates(broadcast((1.0, 4.0)), (0.5, 0.5))
    # Layer for both receivers and layer for the strong one.
    assert abs(rates[("R1", "R2")] - 0.5 * np.log2(4.0 / 3.0)) < 1e-12
    assert abs(rates[("R2",)] - 0.5 * np.log2(3.0)) < 1e-12
    assert abs(sum(rates.values()) - 1.0) < 1e-12
    assert abs(rates[("R1", "R2")] - 0.2075) < 1e-4
    assert abs(rates[("R2",)] - 0.7925) < 1e-4


def test_lower_superposition_all_power_strongest():
    rates = layer_rates(broadcast((1.0, 2.0, 8.0)), (0.0, 0.0, 1.0))
    assert list(rates) == [("R3",)]
    assert abs(rates[("R3",)] - 0.5 * np.log2(9.0)) < 1e-12


def test_lower_superposition_single_receiver():
    # A broadcast side with one receiver is that link's capacity pipe.
    rates = layer_rates(broadcast((3.0,)))
    assert list(rates) == [("R1",)]
    assert abs(rates[("R1",)] - 1.0) < 1e-12


def test_lower_superposition_unsorted_input():
    # Receivers listed strong first: layers still follow ascending SNR, so
    # the common layer goes to both and the private layer to the strong one.
    rates = layer_rates(broadcast((4.0, 1.0), ("A", "B")), (0.5, 0.5))
    assert set(rates) == {("B", "A"), ("A",)}
    assert abs(rates[("B", "A")] - 0.5 * np.log2(4.0 / 3.0)) < 1e-12
    assert abs(rates[("A",)] - 0.5 * np.log2(3.0)) < 1e-12


def test_lower_superposition_sum_bound_on_grid():
    comps = broadcast((0.8, 3.0, 11.0))
    cap = 0.5 * np.log2(12.0)
    for betas in simplex_grid(3, 8):
        assert sum(layer_rates(comps, betas).values()) <= cap + 1e-9
    full = layer_rates(comps, (0.0, 0.0, 1.0))
    assert abs(sum(full.values()) - cap) < 1e-12


def test_lower_superposition_rejects_bad_betas():
    comps = broadcast((1.0, 4.0))
    with pytest.raises(ValueError):
        layer_rates(comps, (0.4, 0.4))
    with pytest.raises(ValueError):
        layer_rates(comps, (-0.1, 1.1))


def test_search_betas_unconstrained_puts_power_on_strongest():
    # The beta sweep of `netbounds bounds`: the best sum of layer rates over
    # the grid puts all power on the strongest receiver's layer.
    comps = broadcast((1.0, 4.0))
    best = max(simplex_grid(2, 32), key=lambda b: sum(layer_rates(comps, b).values()))
    assert best == (0.0, 1.0)
    assert abs(sum(layer_rates(comps, best).values()) - 0.5 * np.log2(5.0)) < 1e-12


def test_simplex_grid_order_and_values():
    assert list(simplex_grid(2, 2)) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    assert list(simplex_grid(1, 4)) == [(1.0,)]
    for parts in range(1, 5):
        grid = list(simplex_grid(parts, 8))
        assert len(grid) == comb(8 + parts - 1, parts - 1)
        assert len(set(grid)) == len(grid)
        assert all(abs(sum(split) - 1.0) < 1e-12 for split in grid)


def test_bc_sum_gap_values():
    gap = bc_sum_gap(BcSpec(gammas=(1.0, 2.0, 100.0)))
    assert abs(gap - 0.5 * np.log2(104.0 / 101.0)) < 1e-12
    assert abs(gap - 0.02) < 2e-3
    gap_equal = bc_sum_gap(BcSpec(gammas=(1.0, 1.0, 1.0)))
    assert abs(gap_equal - 0.5) < 1e-12
    assert bc_sum_gap(BcSpec(gammas=(9.0,))) == 0.0


def test_bc_sum_gap_below_half_log_m():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        spec = BcSpec(gammas=tuple(np.exp(rng.uniform(np.log(0.01), np.log(100), m))))
        assert bc_sum_gap(spec) < 0.5 * np.log2(m)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_spec_rejects_snrs_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
        BcSpec(gammas=(bad, 2.0))
