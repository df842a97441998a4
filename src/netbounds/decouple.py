"""Channel decoupling: split a noisy network into independent components.

Transmitter and receiver roles of a node are independent (a node's outgoing
signal does not interfere with its own reception), so links are grouped by a
bipartite incidence structure: two AWGN links interact exactly when they share
a transmitting node (broadcast) or a receiving node (superposition at one
antenna). A group with several transmitters and several receivers is coupled
and is split into one decoupled MAC per multi-input receiver and one decoupled
BC per broadcasting transmitter, with shared links cross-referenced.

Decoupled MACs keep the original marginal SNRs. Decoupled BCs see inflated
SNRs gamma/alpha, where the noise shares alpha are the solution of a convex
partition program: each receiver's unit noise is divided among the inputs that
reach it so as to minimize the total of the per-input cooperative sum rates.

Discrete links (qsc, bsc) use their own alphabets, so they are orthogonal
point-to-point side channels and never join a Gaussian group. Two discrete
links sharing a transmitter or a receiver would form a discrete MAC or BC,
which has no decoupling rule here; `NoisyNetwork` rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import NoisyLink, NoisyNetwork

__all__ = [
    "DecoupledComponent",
    "GaussPartition",
    "decompose",
    "gauss_noise_partition",
    "partition_objective",
    "decoupled_bc_snrs",
    "relay_noise_share",
]


@dataclass(frozen=True, eq=False)
class DecoupledComponent:
    """One independent piece of a decomposed network.

    kind is "p2p" (one link), "mac" (several inputs, one output), or "bc"
    (one input, several outputs). `coupled` marks components carved out of a
    coupled group by decoupling; their shared links appear in one MAC and one
    BC component simultaneously. `effective_snrs` maps each AWGN link to the
    SNR the bounding models should use: the original value for p2p, MAC, and
    independent BC components, and gamma/alpha for decoupled BCs, whose
    `alpha_shares` hold the noise shares themselves.
    """

    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    links: tuple[NoisyLink, ...]
    effective_snrs: dict[NoisyLink, float] = field(default_factory=dict)
    alpha_shares: dict[NoisyLink, float] = field(default_factory=dict)
    shared_links: tuple[NoisyLink, ...] = ()
    coupled: bool = False

    @property
    def key(self) -> tuple:
        """Stable identifier used to address the component in parameter maps."""
        if self.kind == "p2p":
            link = self.links[0]
            return ("p2p", link.src, link.dst, link.kind)
        if self.kind == "bc":
            return ("bc", self.inputs[0])
        return ("mac", self.outputs[0])

    def gamma_list(self) -> tuple[float, ...]:
        """Effective SNRs in the order of `links` (AWGN components only)."""
        return tuple(self.effective_snrs[link] for link in self.links)


@dataclass(frozen=True, eq=False)
class GaussPartition:
    """Solution of the Gaussian noise-partition program for one group.

    `alphas[i, j]` is the share of receiver j's unit noise assigned to input
    i; columns sum to 1 over the inputs that reach the receiver and are 0
    elsewhere. `lambdas` and `mus` are the stationarity multipliers
    (per-receiver and per-input), `residual` is the largest relative spread of
    the stationarity ratios after the final column renormalization, and
    `iterations` counts the accelerated solver steps.
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        mask = self.alphas > 0
        col_sums = self.alphas.sum(axis=0)
        used = mask.any(axis=0)
        if np.any(np.abs(col_sums[used] - 1.0) > 1e-9):
            raise AssertionError(
                f"column sums deviate from 1: {col_sums[used]}"
            )


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, item):
        self.parent.setdefault(item, item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


_ANDERSON_MEMORY = 5


def _multiplier_maps(
    sqrt_gamma: np.ndarray, log_mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One plain pass of the stationarity maps, taken in log mu.

    Returns lambda(mu) and the fixed-point residual log(mu') - log(mu), where
    mu' is the row-multiplier update driven by lambda(mu). Zero gamma entries
    contribute zero to both reductions, so the maps are plain matrix-vector
    products in sqrt space.
    """
    sqrt_lam = sqrt_gamma.T @ np.exp(-0.5 * log_mu)
    s = sqrt_gamma @ sqrt_lam
    return sqrt_lam**2, 2.0 * np.log(0.5 * (np.sqrt(s**2 + 4.0) + s)) - log_mu


def gauss_noise_partition(
    gamma: np.ndarray, tol: float = 1e-12, max_iter: int = 10000
) -> GaussPartition:
    """Solve the noise-partition program for a coupled Gaussian group.

    Minimizes sum_i log(1 + sum_j gamma[i,j]/alpha[i,j]) subject to unit
    column sums. The stationarity conditions are the fixed point of the maps

        sqrt(lambda_j) = sum_i sqrt(gamma[i,j]) / sqrt(mu_i)
        sqrt(mu_i) = (s_i + sqrt(s_i^2 + 4)) / 2,
        s_i = sum_j sqrt(gamma[i,j] * lambda_j)

    which, with lambda eliminated, form one map mu -> G(mu) on the row
    multipliers. Zero entries of gamma mean input i does not reach receiver
    j; their alpha is fixed to 0 and the column-sum constraint covers existing
    links only.

    Plain iteration of G converges only linearly and, at strong coupling,
    through a slowly decaying two-cycle (a nearly scale-free mode whose map
    eigenvalue approaches -1). The fixed point is therefore found by Anderson
    acceleration of G in log mu (Walker & Ni, SIAM J. Numer. Anal. 49(4),
    2011), with a memory of the last five steps: each iterate extrapolates
    from the recent steps the point whose linearized residual
    log G(mu) - log mu is least. The safeguard takes the plain step
    log G(mu) instead whenever the extrapolated point is not finite or does
    not lower the largest residual entry. Both kinds of step keep the fixed
    points of G, so the returned partition is the same stationary point.

    Args:
        gamma: (inputs x outputs) finite nonnegative SNR matrix; every
            column needs at least one positive entry.
        tol: convergence threshold on the fixed-point residual, the largest
            |log G(mu)_i - log mu_i|, i.e. the relative change of a row
            multiplier under one plain map step.
        max_iter: cap on accelerated iterations (each costs one or two map
            evaluations); exceeding it raises with the last residual.

    Returns:
        GaussPartition with exactly renormalized columns and the fresh
        stationarity residual of the returned alphas.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise ValueError(f"gamma must be 2-D, got shape {gamma.shape}")
    if not np.all((gamma >= 0) & np.isfinite(gamma)):
        raise ValueError("SNRs must be finite and nonnegative")
    mask = gamma > 0
    if not np.all(mask.any(axis=0)):
        missing = [int(j) for j in np.flatnonzero(~mask.any(axis=0))]
        raise ValueError(f"columns {missing} have no incoming link")
    sqrt_gamma = np.sqrt(gamma)

    # Warm start from the proportional split alpha[i,j] ~ sqrt(gamma[i,j]),
    # which is stationary whenever all row multipliers coincide; for columns
    # with a single positive entry it reduces to mu = 1 + row SNR sum.
    log_mu = np.log1p(sqrt_gamma @ sqrt_gamma.sum(axis=0))
    lam, step = _multiplier_maps(sqrt_gamma, log_mu)
    change = float(np.max(np.abs(step)))
    log_mu_steps: list[np.ndarray] = []
    residual_steps: list[np.ndarray] = []
    iterations = 0
    while not change < tol:
        if iterations == max_iter:
            raise RuntimeError(
                f"noise partition did not converge in {max_iter} iterations; "
                f"last change {change:.3e}"
            )
        iterations += 1
        plain = log_mu + step
        candidate = None
        if residual_steps:
            d_log_mu = np.column_stack(log_mu_steps)
            d_residual = np.column_stack(residual_steps)
            weights = np.linalg.lstsq(d_residual, step, rcond=None)[0]
            extrapolated = plain - (d_log_mu + d_residual) @ weights
            if np.all(np.isfinite(extrapolated)):
                # A wild extrapolation may overflow; its non-finite residual
                # then fails the comparison and the plain step is taken.
                with np.errstate(over="ignore", invalid="ignore"):
                    lam_new, step_new = _multiplier_maps(sqrt_gamma, extrapolated)
                if np.max(np.abs(step_new)) < change:
                    candidate = extrapolated
        if candidate is None:
            candidate = plain
            lam_new, step_new = _multiplier_maps(sqrt_gamma, candidate)
        log_mu_steps.append(candidate - log_mu)
        residual_steps.append(step_new - step)
        if len(residual_steps) > _ANDERSON_MEMORY:
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

    # Fresh optimality check on the renormalized shares: within each column
    # the ratio (gamma/alpha^2) / mu must be constant at the optimum.
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


def partition_objective(gamma: np.ndarray, alphas: np.ndarray) -> float:
    """Objective of the partition program, in bits.

    sum_i 0.5*log2(1 + sum_j gamma[i,j]/alpha[i,j]), the total of the
    per-input cooperative BC sum rates at inflated SNRs.
    """
    gamma = np.asarray(gamma, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    mask = gamma > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        inflated = np.where(mask, gamma / alphas, 0.0)
    return float(np.sum(0.5 * np.log2(1.0 + inflated.sum(axis=1))))


def decoupled_bc_snrs(partition: GaussPartition, gamma: np.ndarray) -> np.ndarray:
    """Inflated SNR matrix gamma/alpha for the decoupled BCs of a group."""
    gamma = np.asarray(gamma, dtype=float)
    mask = gamma > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mask, gamma / partition.alphas, 0.0)


def relay_noise_share(gamma_sd: float, gamma_sr: float, gamma_rd: float) -> float:
    """Closed-form noise share of the direct link in a relay network.

    For the three-link relay (source -> destination gamma_sd, source -> relay
    gamma_sr, relay -> destination gamma_rd), the partition program reduces to
    one variable, the share alpha of the destination noise assigned to the
    source. Its stationarity condition solves to

        alpha = sqrt(gamma_sd*(1+gamma_rd)) /
                (sqrt(gamma_rd*(1+gamma_sr+gamma_sd)) +
                 sqrt(gamma_sd*(1+gamma_rd))).
    """
    if min(gamma_sd, gamma_sr, gamma_rd) <= 0:
        raise ValueError("all three SNRs must be positive")
    a = np.sqrt(gamma_sd * (1.0 + gamma_rd))
    b = np.sqrt(gamma_rd * (1.0 + gamma_sr + gamma_sd))
    return float(a / (a + b))


def _p2p_component(link: NoisyLink) -> DecoupledComponent:
    """One link as a point-to-point component; an AWGN link keeps its SNR."""
    return DecoupledComponent(
        kind="p2p",
        inputs=(link.src,),
        outputs=(link.dst,),
        links=(link,),
        effective_snrs={link: link.snr} if link.kind == "awgn" else {},
    )


def _component_for_group(
    links: list[NoisyLink],
) -> list[DecoupledComponent]:
    tx_nodes = sorted({link.src for link in links})
    rx_nodes = sorted({link.dst for link in links})
    if len(links) == 1:
        return [_p2p_component(links[0])]
    # An independent BC or MAC is the coupled loop below without a partition:
    # it keeps its raw SNRs and holds no shared link. A coupled group solves
    # one shared noise partition, then emits a decoupled BC per broadcasting
    # transmitter and a decoupled MAC per multi-input receiver.
    coupled = len(tx_nodes) > 1 and len(rx_nodes) > 1
    if coupled:
        tx_index = {node: i for i, node in enumerate(tx_nodes)}
        rx_index = {node: j for j, node in enumerate(rx_nodes)}
        gamma = np.zeros((len(tx_nodes), len(rx_nodes)))
        for link in links:
            gamma[tx_index[link.src], rx_index[link.dst]] = link.snr
        partition = gauss_noise_partition(gamma)
        inflated = decoupled_bc_snrs(partition, gamma)

    out_degree = {node: 0 for node in tx_nodes}
    in_degree = {node: 0 for node in rx_nodes}
    for link in links:
        out_degree[link.src] += 1
        in_degree[link.dst] += 1

    def is_shared(link: NoisyLink) -> bool:
        return out_degree[link.src] >= 2 and in_degree[link.dst] >= 2

    components: list[DecoupledComponent] = []
    for node in tx_nodes:
        own = tuple(sorted((l for l in links if l.src == node), key=lambda l: l.dst))
        if len(own) < 2:
            continue
        components.append(
            DecoupledComponent(
                kind="bc",
                inputs=(node,),
                outputs=tuple(l.dst for l in own),
                links=own,
                effective_snrs={
                    l: float(inflated[tx_index[node], rx_index[l.dst]]) if coupled else l.snr
                    for l in own
                },
                alpha_shares={
                    l: float(partition.alphas[tx_index[node], rx_index[l.dst]])
                    for l in own
                    if coupled
                },
                shared_links=tuple(l for l in own if is_shared(l)),
                coupled=coupled,
            )
        )
    for node in rx_nodes:
        own = tuple(sorted((l for l in links if l.dst == node), key=lambda l: l.src))
        if len(own) < 2:
            continue
        components.append(
            DecoupledComponent(
                kind="mac",
                inputs=tuple(l.src for l in own),
                outputs=(node,),
                links=own,
                effective_snrs={l: l.snr for l in own},
                shared_links=tuple(l for l in own if is_shared(l)),
                coupled=coupled,
            )
        )
    return components


def decompose(net: NoisyNetwork) -> list[DecoupledComponent]:
    """Decompose a noisy network into independent bounding components.

    Discrete links become point-to-point components outright. AWGN links are
    grouped by shared transmitters and shared receivers; each group becomes a
    p2p link, an independent MAC, an independent BC, or (when coupled) a set
    of decoupled MACs and BCs with a shared noise partition. `NoisyNetwork`
    already holds at most one discrete link per sender and per receiver.
    """
    components = [_p2p_component(l) for l in net.links if l.kind != "awgn"]

    awgn = [l for l in net.links if l.kind == "awgn"]
    uf = _UnionFind()
    for link in awgn:
        uf.union(("tx", link.src), ("rx", link.dst))
    groups: dict = {}
    for link in awgn:
        groups.setdefault(uf.find(("tx", link.src)), []).append(link)
    ordered_groups = sorted(
        groups.values(), key=lambda ls: min((l.src, l.dst) for l in ls)
    )
    for group in ordered_groups:
        components.extend(_component_for_group(group))
    return components
