"""Tests for network decomposition and the Gaussian noise partition."""

import numpy as np
import pytest

from netbounds.decouple import (
    GaussPartition,
    decompose,
    decoupled_bc_snrs,
    gauss_noise_partition,
    partition_objective,
    relay_noise_share,
)
from netbounds.mac import MacSpec, mac_upper
from netbounds.netmodel import Node, NoisyLink, NoisyNetwork


def _net(links, demands=()):
    ids = sorted({l.src for l in links} | {l.dst for l in links})
    return NoisyNetwork(
        nodes=tuple(Node(i) for i in ids), links=tuple(links), demands=demands
    )


def awgn(src, dst, snr):
    return NoisyLink(src, dst, "awgn", snr=snr)


RELAY_LINKS = (awgn("S", "D", 1.0), awgn("S", "R", 10.0), awgn("R", "D", 10.0))


def test_decompose_relay():
    components = decompose(_net(RELAY_LINKS))
    assert len(components) == 2
    by_kind = {c.kind: c for c in components}
    bc = by_kind["bc"]
    mac = by_kind["mac"]
    assert bc.inputs == ("S",)
    assert bc.outputs == ("D", "R")
    assert mac.outputs == ("D",)
    assert mac.inputs == ("R", "S")
    assert bc.coupled and mac.coupled
    # The direct link is the only shared one.
    assert [(l.src, l.dst) for l in bc.shared_links] == [("S", "D")]
    assert [(l.src, l.dst) for l in mac.shared_links] == [("S", "D")]


def test_decompose_relay_effective_snrs():
    components = decompose(_net(RELAY_LINKS))
    bc = next(c for c in components if c.kind == "bc")
    mac = next(c for c in components if c.kind == "mac")
    alpha = relay_noise_share(1.0, 10.0, 10.0)
    snr_sd = next(bc.effective_snrs[l] for l in bc.links if l.dst == "D")
    snr_sr = next(bc.effective_snrs[l] for l in bc.links if l.dst == "R")
    assert abs(snr_sd - 1.0 / alpha) < 1e-6
    assert abs(snr_sr - 10.0) < 1e-12
    # The MAC side keeps marginal SNRs.
    assert sorted(mac.effective_snrs.values()) == [1.0, 10.0]


def test_decompose_disjoint_p2p():
    components = decompose(_net((awgn("A", "B", 3.0), awgn("C", "D", 8.0))))
    assert [c.kind for c in components] == ["p2p", "p2p"]
    assert components[0].effective_snrs[components[0].links[0]] == 3.0


def test_decompose_chain_is_two_p2p():
    # A node's transmitter role does not interfere with its receiver role.
    components = decompose(_net((awgn("A", "B", 1.0), awgn("B", "C", 2.0))))
    assert [c.kind for c in components] == ["p2p", "p2p"]


def test_decompose_x_channel():
    links = (
        awgn("T1", "Ra", 1.0),
        awgn("T1", "Rb", 2.0),
        awgn("T2", "Ra", 3.0),
        awgn("T2", "Rb", 4.0),
    )
    components = decompose(_net(links))
    kinds = sorted(c.kind for c in components)
    assert kinds == ["bc", "bc", "mac", "mac"]
    for c in components:
        assert c.coupled
        assert set(c.shared_links) == set(c.links)
    # Link union over the MAC side equals the original link set, and the same
    # for the BC side.
    mac_links = {l for c in components if c.kind == "mac" for l in c.links}
    bc_links = {l for c in components if c.kind == "bc" for l in c.links}
    assert mac_links == set(links)
    assert bc_links == set(links)


def test_decompose_independent_mac_and_bc():
    mac_net = _net((awgn("A", "C", 1.0), awgn("B", "C", 2.0)))
    components = decompose(mac_net)
    assert len(components) == 1
    assert components[0].kind == "mac"
    assert not components[0].coupled
    assert components[0].gamma_list() == (1.0, 2.0)

    bc_net = _net((awgn("A", "B", 1.0), awgn("A", "C", 2.0)))
    components = decompose(bc_net)
    assert len(components) == 1
    assert components[0].kind == "bc"
    assert not components[0].coupled
    assert components[0].gamma_list() == (1.0, 2.0)


def test_decompose_discrete_side_channel():
    links = (
        awgn("S1", "D1", 1.0),
        awgn("S1", "D2", 2.0),
        NoisyLink("S1", "S2", "qsc", q=8, xi=0.1),
    )
    components = decompose(_net(links))
    kinds = sorted(c.kind for c in components)
    assert kinds == ["bc", "p2p"]
    p2p = next(c for c in components if c.kind == "p2p")
    assert p2p.links[0].kind == "qsc"


def test_decompose_rejects_discrete_sharing():
    links = (
        NoisyLink("A", "B", "qsc", q=4, xi=0.1),
        NoisyLink("A", "C", "qsc", q=4, xi=0.1),
    )
    with pytest.raises(ValueError, match="discrete"):
        decompose(_net(links))
    links = (
        NoisyLink("A", "C", "bsc", eps=0.1),
        NoisyLink("B", "C", "bsc", eps=0.2),
    )
    with pytest.raises(ValueError, match="discrete"):
        decompose(_net(links))


def test_decompose_link_union_preserved():
    links = RELAY_LINKS + (awgn("X", "Y", 4.0), NoisyLink("R", "X", "bsc", eps=0.05))
    components = decompose(_net(links))
    seen = {l for c in components for l in c.links}
    assert seen == set(links)


def test_partition_symmetric_2x2():
    partition = gauss_noise_partition(np.ones((2, 2)))
    assert np.allclose(partition.alphas, 0.5, atol=1e-9)
    assert np.allclose(partition.mus, 5.0, atol=1e-7)
    assert np.allclose(partition.lambdas, 0.8, atol=1e-7)
    assert partition.residual <= 1e-8
    effective = decoupled_bc_snrs(partition, np.ones((2, 2)))
    assert np.allclose(effective, 2.0, atol=1e-8)


def test_partition_single_column_matches_mac_shares():
    gamma = np.array([[1.0], [10.0]])
    partition = gauss_noise_partition(gamma)
    (rates,) = mac_upper([(MacSpec(gammas=(1.0, 10.0)), 0.0)])
    assert abs(partition.alphas[0, 0] - rates.shares[0]) < 1e-8
    assert abs(partition.alphas[1, 0] - rates.shares[1]) < 1e-8


def test_partition_trivial_1x1():
    gamma = np.array([[5.0]])
    partition = gauss_noise_partition(gamma)
    assert abs(partition.alphas[0, 0] - 1.0) < 1e-12
    assert abs(decoupled_bc_snrs(partition, gamma)[0, 0] - 5.0) < 1e-12


def test_partition_column_sums_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gamma = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=(3, 3)))
        gamma[rng.integers(0, 3), rng.integers(0, 3)] = 0.0
        if not (gamma > 0).any(axis=0).all():
            continue
        partition = gauss_noise_partition(gamma)
        mask = gamma > 0
        sums = partition.alphas.sum(axis=0)
        assert np.all(np.abs(sums[mask.any(axis=0)] - 1.0) < 1e-9)
        assert partition.residual <= 1e-8


def test_partition_beats_grid_on_2x2():
    rng = np.random.default_rng(9)
    grid = np.arange(1e-3, 1.0, 1e-3)
    a_grid, b_grid = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(5):
        gamma = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=(2, 2)))
        partition = gauss_noise_partition(gamma)
        objective = partition_objective(gamma, partition.alphas)
        grid_obj = 0.5 * np.log2(
            1.0 + gamma[0, 0] / a_grid + gamma[0, 1] / b_grid
        ) + 0.5 * np.log2(
            1.0 + gamma[1, 0] / (1.0 - a_grid) + gamma[1, 1] / (1.0 - b_grid)
        )
        assert objective <= float(grid_obj.min()) + 1e-5


def test_partition_update_maps_are_monotone():
    # The lambda update is componentwise decreasing in mu and the mu update
    # componentwise increasing in lambda.
    rng = np.random.default_rng(21)
    for _ in range(50):
        gamma = np.exp(rng.uniform(np.log(0.05), np.log(80.0), size=(3, 2)))
        sqrt_gamma = np.sqrt(gamma)
        mu = np.exp(rng.uniform(0.0, 3.0, size=3))
        mu_larger = mu * np.exp(rng.uniform(0.0, 1.0, size=3))
        lam_small = ((sqrt_gamma / np.sqrt(mu_larger)[:, None]).sum(axis=0)) ** 2
        lam_big = ((sqrt_gamma / np.sqrt(mu)[:, None]).sum(axis=0)) ** 2
        assert np.all(lam_small <= lam_big + 1e-12)

        lam = np.exp(rng.uniform(-2.0, 2.0, size=2))
        lam_larger = lam * np.exp(rng.uniform(0.0, 1.0, size=2))

        def mu_update(lam_vec):
            s = np.sqrt(gamma * lam_vec[None, :]).sum(axis=1)
            return (0.5 * (np.sqrt(s**2 + 4.0) + s)) ** 2

        assert np.all(mu_update(lam) <= mu_update(lam_larger) + 1e-12)


def test_partition_converges_on_wide_high_snr_group():
    # A strongly coupled 2 x 10 matrix drives the plain alternation into a
    # slowly decaying two-cycle; the accelerated solve must still converge to
    # a clean stationary point.
    base = 10**2.5
    spread = base * 10 ** (-0.3)
    k = np.arange(1, 11) / 10.0
    gamma = np.vstack([base - k * spread, base + k * spread])
    partition = gauss_noise_partition(gamma)
    assert partition.residual <= 1e-10
    assert np.max(np.abs(partition.alphas.sum(axis=0) - 1.0)) < 1e-9
    # The solved run must not beat a fine single-split grid, and must not
    # lose to it either beyond grid resolution.
    splits = np.linspace(0.01, 0.99, 99)
    grid_best = min(
        partition_objective(gamma, np.where(gamma > 0, np.array([[a], [1 - a]]), 0.0))
        for a in splits
    )
    assert partition_objective(gamma, partition.alphas) <= grid_best + 1e-5


def test_partition_converges_in_tens_of_iterations_on_relay_grid():
    # Iteration counts do not depend on machine speed, so this guards the
    # solver's convergence rate on criterion 6's grid where a timer cannot.
    axis = np.linspace(-10.0, 20.0, 10)
    worst = 0
    for sd_db in axis:
        for sr_db in axis:
            for rd_db in axis:
                sd, sr, rd = (10.0 ** (x / 10.0) for x in (sd_db, sr_db, rd_db))
                partition = gauss_noise_partition(np.array([[sd, sr], [rd, 0.0]]))
                worst = max(worst, partition.iterations)
    assert worst <= 30


def test_partition_rejects_empty_column():
    with pytest.raises(ValueError, match="column"):
        gauss_noise_partition(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        gauss_noise_partition(np.array([[1.0, -2.0], [2.0, 1.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            gauss_noise_partition(np.array([[1.0, bad], [2.0, 1.0]]))


# The solver loop as it stood before its arithmetic was trimmed of
# interpreter and NumPy call overhead, kept verbatim as the bit-exact oracle
# of `gauss_noise_partition`.
_REFERENCE_MEMORY = 5


def reference_multiplier_maps(sqrt_gamma, log_mu):
    sqrt_lam = sqrt_gamma.T @ np.exp(-0.5 * log_mu)
    s = sqrt_gamma @ sqrt_lam
    return sqrt_lam**2, 2.0 * np.log(0.5 * (np.sqrt(s**2 + 4.0) + s)) - log_mu


def reference_partition(gamma, tol=1e-12, max_iter=10000):
    gamma = np.asarray(gamma, dtype=float)
    mask = gamma > 0
    sqrt_gamma = np.sqrt(gamma)
    log_mu = np.log1p(sqrt_gamma @ sqrt_gamma.sum(axis=0))
    lam, step = reference_multiplier_maps(sqrt_gamma, log_mu)
    change = float(np.max(np.abs(step)))
    log_mu_steps = []
    residual_steps = []
    iterations = 0
    while not change < tol:
        if iterations == max_iter:
            raise RuntimeError("no convergence")
        iterations += 1
        plain = log_mu + step
        candidate = None
        if residual_steps:
            d_log_mu = np.column_stack(log_mu_steps)
            d_residual = np.column_stack(residual_steps)
            weights = np.linalg.lstsq(d_residual, step, rcond=None)[0]
            extrapolated = plain - (d_log_mu + d_residual) @ weights
            if np.all(np.isfinite(extrapolated)):
                with np.errstate(over="ignore", invalid="ignore"):
                    lam_new, step_new = reference_multiplier_maps(sqrt_gamma, extrapolated)
                if np.max(np.abs(step_new)) < change:
                    candidate = extrapolated
        if candidate is None:
            candidate = plain
            lam_new, step_new = reference_multiplier_maps(sqrt_gamma, candidate)
        log_mu_steps.append(candidate - log_mu)
        residual_steps.append(step_new - step)
        if len(residual_steps) > _REFERENCE_MEMORY:
            del log_mu_steps[0], residual_steps[0]
        log_mu, lam, step = candidate, lam_new, step_new
        change = float(np.max(np.abs(step)))
    mu = np.exp(log_mu)

    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = np.where(
            mask, sqrt_gamma / (np.sqrt(lam)[None, :] * np.sqrt(mu)[:, None]), 0.0
        )
    col_sums = alphas.sum(axis=0)
    alphas = np.where(mask, alphas / col_sums[None, :], 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        mu_fresh = 1.0 + np.where(mask, gamma / alphas, 0.0).sum(axis=1)
        ratios = np.where(mask, gamma / alphas**2 / mu_fresh[:, None], np.nan)
    residual = 0.0
    for j in range(gamma.shape[1]):
        column = ratios[mask[:, j], j]
        if column.size > 1:
            spread = (column.max() - column.min()) / column.max()
            residual = max(residual, float(spread))
    return GaussPartition(
        alphas=alphas,
        lambdas=lam,
        mus=mu_fresh,
        residual=residual,
        iterations=iterations,
    )


def partition_bits(partition):
    """Every field of a partition as exact bytes, NaN and signed zeros included."""
    assert type(partition.residual) is float and type(partition.iterations) is int
    arrays = (partition.alphas, partition.lambdas, partition.mus)
    return (
        *((a.shape, a.dtype.str, a.tobytes()) for a in arrays),
        np.float64(partition.residual).tobytes(),
        partition.iterations,
    )


def random_groups(rng, count, log10_range):
    """`count` groups of 2-6 inputs by 2-12 receivers, SNRs log-uniform over a
    random sub-range of `log10_range`, about 30% zero entries, and at least one
    positive entry per receiver."""
    for _ in range(count):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 13)))
        low, high = np.sort(rng.uniform(*log10_range, size=2))
        gamma = 10.0 ** rng.uniform(low, high, size=shape)
        gamma[rng.random(shape) < 0.3] = 0.0
        for j in np.flatnonzero(~(gamma > 0).any(axis=0)):
            gamma[rng.integers(shape[0]), j] = 10.0 ** rng.uniform(low, high)
        yield gamma


def test_partition_keeps_every_bit_of_the_reference_loop():
    # SNRs across the parser's -150..150 dB envelope, where every group of
    # this corpus converges within a few tens of steps.
    rng = np.random.default_rng(20261020)
    iterations = []
    for gamma in random_groups(rng, 600, (-15.0, 15.0)):
        got = gauss_noise_partition(gamma)
        assert partition_bits(got) == partition_bits(reference_partition(gamma))
        iterations.append(got.iterations)
    assert 5 <= np.median(iterations) <= 12 and max(iterations) <= 30


def nonfinite_ratio_groups():
    """Groups whose subnormal SNRs next to large ones make some alpha^2
    underflow to 0, so the stationarity ratios gamma/alpha^2 become infinite
    while every alpha stays finite. A group with a share that is not finite
    is refused by `GaussPartition` and left out."""
    rng = np.random.default_rng(7)
    found = []
    while len(found) < 40:
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        gamma = 10.0 ** rng.uniform(5.0, 30.0, size=shape)
        tiny = rng.random(shape) < 0.3
        gamma[tiny] = 10.0 ** rng.uniform(-322.0, -310.0, size=int(tiny.sum()))
        with np.errstate(all="ignore"):
            try:
                partition = reference_partition(gamma)
            except ValueError:
                continue
            ratios = gamma / partition.alphas**2
        if not np.isfinite(ratios).all():
            found.append(gamma)
    return found


def test_partition_residual_matches_the_loop_on_nonfinite_ratios():
    # The reference loop divides inf by inf in its per-column spread here and
    # skips the NaN it gets; the solver must give the same bits without
    # warning (warnings are errors in this suite).
    for gamma in nonfinite_ratio_groups():
        with np.errstate(invalid="ignore"):
            expected = reference_partition(gamma)
        assert partition_bits(gauss_noise_partition(gamma)) == partition_bits(expected)


def test_partition_refuses_shares_that_are_not_finite():
    # The subnormal column's lambda underflows to 0, so its raw shares are inf
    # and renormalizing them gives NaN. That is refused, without a warning
    # (warnings are errors in this suite).
    with pytest.raises(ValueError, match=r"noise shares must be finite and in \[0, 1\]"):
        gauss_noise_partition([[5e-324, 1e15], [5e-324, 1e15]])


def test_relay_noise_share_value_and_solver_agreement():
    alpha = relay_noise_share(1.0, 10.0, 10.0)
    assert abs(alpha - 0.2324) < 1e-4
    for sd_db, sr_db, rd_db in [(0, 10, 10), (-5, 3, 12), (8, -2, 4)]:
        sd, sr, rd = (10 ** (x / 10) for x in (sd_db, sr_db, rd_db))
        gamma = np.array([[sd, sr], [rd, 0.0]])
        partition = gauss_noise_partition(gamma)
        assert abs(partition.alphas[0, 0] - relay_noise_share(sd, sr, rd)) < 1e-6


def test_relay_noise_share_rejects_nonpositive():
    with pytest.raises(ValueError):
        relay_noise_share(0.0, 1.0, 1.0)
