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
    `iterations` counts the accelerated solver steps. A share that is not
    finite or lies outside [0, 1] is refused.
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        if not ((self.alphas >= 0.0) & (self.alphas <= 1.0)).all():  # NaN fails too
            raise ValueError(f"noise shares must be finite and in [0, 1]: {self.alphas}")
        col_sums = self.alphas.sum(axis=0)
        used = (self.alphas > 0).any(axis=0)
        if (abs(col_sums[used] - 1.0) > 1e-9).any():
            raise AssertionError(
                f"column sums deviate from 1: {col_sums[used]}"
            )


_ANDERSON_MEMORY = 5


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
    links only, so in sqrt space both maps are plain matrix-vector products.

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
    A group of a few inputs and up to a dozen receivers takes about 8 steps,
    so a call costs mostly NumPy call overhead: the loop holds only the
    arithmetic above, and the final residual is one masked reduction.

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

    Raises:
        ValueError: on a gamma that breaks these rules, and on a share that
            is not finite (where a subnormal column's lambda underflows to 0).
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise ValueError(f"gamma must be 2-D, got shape {gamma.shape}")
    if not ((gamma >= 0) & np.isfinite(gamma)).all():
        raise ValueError("SNRs must be finite and nonnegative")
    mask = gamma > 0
    reached = mask.any(axis=0)
    if not reached.all():
        missing = [int(j) for j in np.flatnonzero(~reached)]
        raise ValueError(f"columns {missing} have no incoming link")
    sqrt_gamma = np.sqrt(gamma)
    sqrt_gamma_t = sqrt_gamma.T

    def maps(log_mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # lambda(mu) and the fixed-point residual log G(mu) - log mu.
        sqrt_lam = sqrt_gamma_t @ np.exp(-0.5 * log_mu)
        s = sqrt_gamma @ sqrt_lam
        return sqrt_lam**2, 2.0 * np.log(0.5 * (np.sqrt(s**2 + 4.0) + s)) - log_mu

    # Warm start from the proportional split alpha[i,j] ~ sqrt(gamma[i,j]),
    # which is stationary whenever all row multipliers coincide; for columns
    # with a single positive entry it reduces to mu = 1 + row SNR sum.
    log_mu = np.log1p(sqrt_gamma @ sqrt_gamma.sum(axis=0))
    lam, step = maps(log_mu)
    change = float(abs(step).max())
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
            # The steps as columns. The product below takes its matrix in C
            # order: that layout fixes the order in which BLAS sums it.
            d_residual = np.array(residual_steps).T
            weights = np.linalg.lstsq(d_residual, step, rcond=None)[0]
            d_both = np.add(np.array(log_mu_steps).T, d_residual, order="C")
            extrapolated = plain - d_both @ weights
            if np.isfinite(extrapolated).all():
                # A wild extrapolation may overflow; its non-finite residual
                # then fails the comparison and the plain step is taken.
                with np.errstate(over="ignore", invalid="ignore"):
                    lam_new, step_new = maps(extrapolated)
                if abs(step_new).max() < change:
                    candidate = extrapolated
        if candidate is None:
            candidate = plain
            lam_new, step_new = maps(candidate)
        log_mu_steps.append(candidate - log_mu)
        residual_steps.append(step_new - step)
        if len(residual_steps) > _ANDERSON_MEMORY:
            del log_mu_steps[0], residual_steps[0]
        log_mu, lam, step = candidate, lam_new, step_new
        change = float(abs(step).max())
    mu = np.exp(log_mu)

    # A column sum of 0 or inf gives NaN shares, which GaussPartition refuses.
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = np.where(
            mask, sqrt_gamma / (np.sqrt(lam)[None, :] * np.sqrt(mu)[:, None]), 0.0
        )
        alphas = np.where(mask, alphas / alphas.sum(axis=0)[None, :], 0.0)

    # Fresh optimality check on the renormalized shares: within each column
    # the ratio (gamma/alpha^2) / mu must be constant at the optimum. The
    # spread (max - min) / max of a column with two or more links is NaN where
    # a ratio is not finite, and NaN spreads do not count.
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_fresh = 1.0 + np.where(mask, gamma / alphas, 0.0).sum(axis=1)
        ratios = gamma / alphas**2 / mu_fresh[:, None]
        high = np.where(mask, ratios, -np.inf).max(axis=0)
        spread = (high - np.where(mask, ratios, np.inf).min(axis=0)) / high
    spread = spread[mask.sum(axis=0) > 1]
    residual = float(np.fmax.reduce(spread, initial=0.0))
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
    """The components of one group of AWGN links: one link is a p2p component;
    otherwise each sender of two or more links is a BC and each receiver of two
    or more a MAC, from one grouping of the links by sender and by receiver. An
    independent BC or MAC keeps its raw SNRs and holds no shared link; the BCs
    of a coupled group read their inflated SNRs and noise shares from the rows
    of the group's one noise partition."""
    if len(links) == 1:
        return [_p2p_component(links[0])]
    by_src: dict[str, list[NoisyLink]] = {}
    by_dst: dict[str, list[NoisyLink]] = {}
    for link in links:
        by_src.setdefault(link.src, []).append(link)
        by_dst.setdefault(link.dst, []).append(link)
    tx_nodes = sorted(by_src)
    rx_nodes = sorted(by_dst)
    coupled = len(tx_nodes) > 1 and len(rx_nodes) > 1
    if coupled:
        rx_index = {node: j for j, node in enumerate(rx_nodes)}
        gamma = np.zeros((len(tx_nodes), len(rx_nodes)))
        for i, node in enumerate(tx_nodes):
            for link in by_src[node]:
                gamma[i, rx_index[link.dst]] = link.snr
        partition = gauss_noise_partition(gamma)
        inflated = decoupled_bc_snrs(partition, gamma).tolist()
        shares = partition.alphas.tolist()

    # A link is shared when its sender is a BC and its receiver a MAC.
    components: list[DecoupledComponent] = []
    for i, node in enumerate(tx_nodes):
        own = tuple(sorted(by_src[node], key=lambda l: l.dst))
        if len(own) < 2:
            continue
        if coupled:
            effective = {l: inflated[i][rx_index[l.dst]] for l in own}
            alpha_shares = {l: shares[i][rx_index[l.dst]] for l in own}
        else:
            effective, alpha_shares = {l: l.snr for l in own}, {}
        components.append(
            DecoupledComponent(
                kind="bc",
                inputs=(node,),
                outputs=tuple(l.dst for l in own),
                links=own,
                effective_snrs=effective,
                alpha_shares=alpha_shares,
                shared_links=tuple(l for l in own if len(by_dst[l.dst]) > 1),
                coupled=coupled,
            )
        )
    for node in rx_nodes:
        own = tuple(sorted(by_dst[node], key=lambda l: l.src))
        if len(own) < 2:
            continue
        components.append(
            DecoupledComponent(
                kind="mac",
                inputs=tuple(l.src for l in own),
                outputs=(node,),
                links=own,
                effective_snrs={l: l.snr for l in own},
                shared_links=tuple(l for l in own if len(by_src[l.src]) > 1),
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
    parent: dict = {}  # union-find over transmitter and receiver roles

    def find(item):
        parent.setdefault(item, item)
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    for link in awgn:
        parent[find(("tx", link.src))] = find(("rx", link.dst))
    groups: dict = {}
    for link in awgn:
        groups.setdefault(find(("tx", link.src)), []).append(link)
    ordered_groups = sorted(
        groups.values(), key=lambda ls: min((l.src, l.dst) for l in ls)
    )
    for group in ordered_groups:
        components.extend(_component_for_group(group))
    return components
