"""Bounding models for a 1-to-m Gaussian broadcast channel.

Upper models are point-to-point pipe sets: two basic variants (cooperative
receivers, or per-receiver capacities) and a permutation-parameterized family
whose k-th rate lets the first k receivers in the permutation cooperate. The
lower model is superposition coding with power shares beta: each layer is a
hyper-arc carrying common bits to the receivers strong enough to decode it,
indexed by receiver subset.

Receiver subsets are encoded as bit masks: bit i of the index is set when
receiver i+1 (1-based, in ascending-SNR order) belongs to the subset.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .info import awgn_capacity
from .mac import RateVector

__all__ = [
    "BcSpec",
    "BcLowerModel",
    "subset_index",
    "subset_members",
    "bc_upper_basic",
    "bc_upper_cumulative",
    "cumulative_receiver_rates",
    "bc_lower_superposition",
    "simplex_grid",
    "search_betas",
    "bc_sum_gap",
]


@dataclass(frozen=True)
class BcSpec:
    """A one-to-many channel: one input heard by m receivers.

    Args:
        gammas: received linear SNR at each receiver, all positive. Receiver
            noises are independent.
        alphabet_bits_in: optional log2 input alphabet size; None = Gaussian.
        alphabet_bits_out: optional per-receiver log2 output alphabet sizes.
    """

    gammas: tuple[float, ...]
    alphabet_bits_in: float | None = None
    alphabet_bits_out: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.gammas) < 1:
            raise ValueError("a BC needs at least one receiver")
        if any(g <= 0 for g in self.gammas):
            raise ValueError(f"SNRs must be positive, got {self.gammas}")
        if self.alphabet_bits_out is not None:
            object.__setattr__(
                self,
                "alphabet_bits_out",
                tuple(float(b) for b in self.alphabet_bits_out),
            )
            if len(self.alphabet_bits_out) != len(self.gammas):
                raise ValueError("alphabet_bits_out must match the receiver count")

    @property
    def m(self) -> int:
        return len(self.gammas)


def subset_index(members: tuple[int, ...]) -> int:
    """Bit-mask index of a set of 1-based receiver numbers."""
    index = 0
    for member in members:
        if member < 1:
            raise ValueError(f"receiver numbers are 1-based, got {member}")
        index |= 1 << (member - 1)
    return index


def subset_members(index: int) -> tuple[int, ...]:
    """1-based receiver numbers contained in a subset index."""
    if index < 1:
        raise ValueError(f"subset index must be >= 1, got {index}")
    members = []
    position = 1
    while index:
        if index & 1:
            members.append(position)
        index >>= 1
        position += 1
    return tuple(members)


@dataclass(frozen=True)
class BcLowerModel:
    """Superposition lower model: nested multicast rates by receiver subset.

    `rates` maps a subset index to the rate of the layer decodable exactly by
    that subset; present subsets are nested sets {i, ..., m} in ascending-SNR
    numbering. `order` maps sorted receiver number (1-based) to the caller's
    0-based receiver position, so callers can translate subsets back to their
    own labels. `sum_rate` is the total over layers and never exceeds the best
    single receiver's capacity.
    """

    rates: dict[int, float]
    sum_rate: float
    betas: tuple[float, ...]
    order: tuple[int, ...]
    gamma_max: float = field(repr=False, default=0.0)

    def __post_init__(self):
        total = sum(self.rates.values())
        if abs(total - self.sum_rate) > 1e-9:
            raise ValueError(
                f"sum_rate {self.sum_rate} does not match layer total {total}"
            )
        if self.gamma_max > 0:
            cap = awgn_capacity(self.gamma_max)
            if self.sum_rate > cap + 1e-9:
                raise ValueError(
                    f"sum rate {self.sum_rate} exceeds the best receiver "
                    f"capacity {cap}"
                )

    def caller_members(self, index: int) -> tuple[int, ...]:
        """Caller receiver positions (0-based) in a subset index."""
        return tuple(self.order[member - 1] for member in subset_members(index))


def bc_upper_basic(spec: BcSpec, variant: int) -> RateVector:
    """Basic BC upper models.

    Variant 1 lets all receivers cooperate: the sum rate is
    0.5*log2(1 + sum gamma_i) (independent noises combine additively) and
    per-receiver rates are unconstrained for continuous outputs. Variant 2
    constrains each receiver to its own capacity 0.5*log2(1 + gamma_i) and
    leaves the sum unconstrained for continuous inputs.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    labels = tuple(f"receiver {i}" for i in range(spec.m))
    if variant == 1:
        if spec.alphabet_bits_out is not None:
            individual = spec.alphabet_bits_out
        else:
            individual = (float("inf"),) * spec.m
        return RateVector(
            sum_rate=awgn_capacity(float(np.sum(spec.gammas))),
            individual=individual,
            labels=labels,
        )
    sum_rate = (
        spec.alphabet_bits_in if spec.alphabet_bits_in is not None else float("inf")
    )
    individual = tuple(awgn_capacity(g) for g in spec.gammas)
    return RateVector(sum_rate=sum_rate, individual=individual, labels=labels)


def bc_upper_cumulative(spec: BcSpec, perm: tuple[int, ...]) -> RateVector:
    """Permutation-parameterized BC upper model.

    The k-th rate along the permutation bounds what the first k receivers in
    `perm` can jointly decode: 0.5*log2(1 + sum of their SNRs). Rates are
    nondecreasing along the permutation and the last one equals the
    all-receiver sum rate of bc_upper_basic variant 1.

    Args:
        spec: Gaussian BC spec.
        perm: permutation of range(m), receiver 0-based positions in
            cumulative order. The returned individual rates are in
            permutation position order; use cumulative_receiver_rates for the
            per-receiver view.
    """
    if sorted(perm) != list(range(spec.m)):
        raise ValueError(f"perm must be a permutation of 0..{spec.m - 1}")
    running = 0.0
    rates = []
    labels = []
    for k, receiver in enumerate(perm):
        running += spec.gammas[receiver]
        rates.append(awgn_capacity(running))
        group = ", ".join(str(r) for r in perm[: k + 1])
        labels.append(f"receivers {{{group}}}")
    return RateVector(
        sum_rate=rates[-1], individual=tuple(rates), labels=tuple(labels)
    )


def cumulative_receiver_rates(spec: BcSpec, perm: tuple[int, ...]) -> tuple[float, ...]:
    """Per-receiver rates of bc_upper_cumulative, in caller receiver order."""
    rv = bc_upper_cumulative(spec, perm)
    rates = [0.0] * spec.m
    for position, receiver in enumerate(perm):
        rates[receiver] = rv.individual[position]
    return tuple(rates)


def bc_lower_superposition(spec: BcSpec, betas: tuple[float, ...]) -> BcLowerModel:
    """Superposition-coding BC lower model.

    Receivers are sorted by SNR ascending; layer i (power share beta_i) is
    aimed at receiver i and, being decodable by every stronger receiver too,
    becomes a hyper-arc to the subset {i, ..., m} with rate

        0.5*log2(1 + beta_i*gamma_i / (1 + gamma_i * sum_{j>i} beta_j)),

    where later layers are treated as interference. Layers with beta = 0 are
    omitted. `betas` pairs with the caller's receiver order and is re-sorted
    together with the SNRs.

    Args:
        spec: Gaussian BC spec.
        betas: per-receiver power shares, nonnegative, summing to 1.
    """
    betas = tuple(float(b) for b in betas)
    if len(betas) != spec.m:
        raise ValueError("betas must match the receiver count")
    if any(b < 0 for b in betas):
        raise ValueError(f"power shares must be nonnegative, got {betas}")
    if abs(sum(betas) - 1.0) > 1e-12:
        raise ValueError(f"power shares must sum to 1, got {sum(betas)}")
    order = tuple(sorted(range(spec.m), key=lambda i: spec.gammas[i]))
    gam = [spec.gammas[i] for i in order]
    beta_sorted = [betas[i] for i in order]
    m = spec.m
    rates: dict[int, float] = {}
    for i in range(m):
        if beta_sorted[i] == 0.0:
            continue
        later = sum(beta_sorted[i + 1 :])
        rate = awgn_capacity(beta_sorted[i] * gam[i] / (1.0 + gam[i] * later))
        rates[(1 << m) - (1 << i)] = rate
    return BcLowerModel(
        rates=rates,
        sum_rate=sum(rates.values()),
        betas=betas,
        order=order,
        gamma_max=max(spec.gammas),
    )


def simplex_grid(parts: int, steps: int) -> Iterator[tuple[float, ...]]:
    """Every ``parts``-way split of 1 into multiples of 1/``steps``.

    Splits come in the order of their cut points, which run through
    ``combinations_with_replacement(range(steps + 1), parts - 1)``.
    """
    for cuts in combinations_with_replacement(range(steps + 1), parts - 1):
        edges = (0, *cuts, steps)
        yield tuple((high - low) / steps for low, high in zip(edges, edges[1:]))


def search_betas(
    spec: BcSpec,
    min_rates: dict[int, float] | None = None,
    resolution: int = 32,
) -> tuple[tuple[float, ...], BcLowerModel]:
    """Grid-search power shares maximizing the superposition sum rate.

    Enumerates beta on the simplex grid with the given per-dimension
    resolution and returns the allocation with the best sum rate among those
    meeting the per-subset minimum rates.

    Args:
        spec: Gaussian BC spec with at most 4 receivers.
        min_rates: optional map from subset index to a minimum layer rate.
        resolution: grid denominator; beta components are multiples of
            1/resolution.

    Raises:
        ValueError: when no grid point satisfies the minimum rates.
    """
    if spec.m > 4:
        raise ValueError("grid search supports at most 4 receivers")
    best: tuple[tuple[float, ...], BcLowerModel] | None = None
    for betas in simplex_grid(spec.m, resolution):
        model = bc_lower_superposition(spec, betas)
        if min_rates is not None:
            ok = all(
                model.rates.get(index, 0.0) >= minimum - 1e-12
                for index, minimum in min_rates.items()
            )
            if not ok:
                continue
        if best is None or model.sum_rate > best[1].sum_rate:
            best = (betas, model)
    if best is None:
        raise ValueError("no power allocation satisfies the minimum rates")
    return best


def bc_sum_gap(spec: BcSpec) -> float:
    """Sum-rate gap between the cooperative upper model and the best
    superposition allocation.

    The best lower sum rate is the strongest receiver's capacity (all power on
    the last layer), so the gap is
    0.5*log2((1 + sum gamma_i) / (1 + max gamma_i)), below 0.5*log2(m).
    """
    total = float(np.sum(spec.gammas))
    peak = max(spec.gammas)
    return float(0.5 * np.log2((1.0 + total) / (1.0 + peak)))
