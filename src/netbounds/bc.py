"""Bounding models for a 1-to-m Gaussian broadcast channel.

This module holds the broadcast upper model: a permutation-parameterized
family of point-to-point pipes whose k-th rate lets the first k receivers in
the permutation cooperate (`bc_upper_cumulative`, rated into the upper
network's arcs by `assemble.UpperStructure`). It also holds the power-share
grid that `netbounds bounds` sweeps (`simplex_grid`) and the closed-form
sum-rate gap between the two models (`bc_sum_gap`).

The lower model, superposition coding with power shares beta, lives in
`assemble.LowerStructure` alone: each layer becomes a hyper-arc to the
receivers that decode it, rated against the power that every receiver of the
whole network never decodes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .info import awgn_capacity
from .mac import check_snrs

__all__ = [
    "BcSpec",
    "bc_upper_cumulative",
    "simplex_grid",
    "bc_sum_gap",
]


@dataclass(frozen=True)
class BcSpec:
    """A one-to-many channel: one input heard by m receivers.

    Args:
        gammas: received linear SNR at each receiver, all positive and
            finite. Receiver noises are independent.
    """

    gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.gammas) < 1:
            raise ValueError("a BC needs at least one receiver")
        check_snrs(self.gammas)

    @property
    def m(self) -> int:
        return len(self.gammas)


def bc_upper_cumulative(spec: BcSpec, perm: tuple[int, ...]) -> tuple[float, ...]:
    """Permutation-parameterized BC upper model: one rate per position of `perm`.

    The k-th rate along the permutation bounds what the first k receivers in
    `perm` can jointly decode: 0.5*log2(1 + sum of their SNRs). Rates are
    nondecreasing along the permutation and the last one is the sum rate
    0.5*log2(1 + sum gamma_i) of all receivers cooperating.

    Args:
        spec: Gaussian BC spec.
        perm: permutation of range(m), receiver 0-based positions in
            cumulative order.
    """
    if sorted(perm) != list(range(spec.m)):
        raise ValueError(f"perm must be a permutation of 0..{spec.m - 1}")
    running = 0.0
    rates = []
    for receiver in perm:
        running += spec.gammas[receiver]
        rates.append(awgn_capacity(running))
    return tuple(rates)


def simplex_grid(parts: int, steps: int) -> Iterator[tuple[float, ...]]:
    """Every ``parts``-way split of 1 into multiples of 1/``steps``.

    Splits come in the order of their cut points, which run through
    ``combinations_with_replacement(range(steps + 1), parts - 1)``.
    """
    for cuts in combinations_with_replacement(range(steps + 1), parts - 1):
        edges = (0, *cuts, steps)
        yield tuple((high - low) / steps for low, high in zip(edges, edges[1:]))


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
