"""Bounding models for an m-transmitter Gaussian multiple-access channel.

This module holds the multi-access upper model: a family of point-to-point
pipes that splits the unit receiver noise into a share alpha on the sum
constraint and shares alpha_i on the per-input constraints (`mac_upper`, with
its multiplier `solve_mu` and bracket `mu_bracket`). alpha = 1 is the basic
model with the cooperative sum rate and unconstrained per-input rates.
`assemble.build_upper` turns it into pipes; `mac_sum_gap` is the closed-form
sum-rate gap between the basic upper model and the lower model.

The lower model, successive interference cancellation in a chosen decode
order, lives in `assemble.build_lower` alone, where it runs on effective SNRs
from the interference ledger of the whole network.

SNRs are linear and all rates are bits per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .info import awgn_capacity

__all__ = [
    "MacSpec",
    "RateVector",
    "NoisePartition",
    "solve_mu",
    "mu_bracket",
    "optimal_noise_shares",
    "mac_upper",
    "mac_sum_gap",
]


@dataclass(frozen=True)
class MacSpec:
    """A many-to-one channel: m inputs received at one output.

    Args:
        gammas: received linear SNR of each input, all positive.
    """

    gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.gammas) < 1:
            raise ValueError("a MAC needs at least one input")
        if any(g <= 0 for g in self.gammas):
            raise ValueError(f"SNRs must be positive, got {self.gammas}")

    @property
    def m(self) -> int:
        return len(self.gammas)

    @property
    def coherent_sum_snr(self) -> float:
        """Effective SNR when all inputs cooperate coherently."""
        return float(np.sum(np.sqrt(self.gammas)) ** 2)


@dataclass(frozen=True)
class RateVector:
    """An ordered set of rate constraints: a sum rate plus per-entry rates."""

    sum_rate: float
    individual: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "individual", tuple(float(r) for r in self.individual)
        )
        if self.sum_rate < 0 or any(r < 0 for r in self.individual):
            raise ValueError("rates must be nonnegative")


@dataclass(frozen=True)
class NoisePartition:
    """A split of the unit receiver noise across rate constraints.

    `alpha` is the share assigned to the sum constraint and `alphas` the shares
    assigned to the per-input constraints; they add to 1. For alpha < 1 every
    per-input share is strictly positive; the alpha = 1 endpoint is the
    degenerate limit with all per-input shares zero.
    """

    alpha: float
    alphas: tuple[float, ...]
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if any(a < 0 for a in self.alphas):
            raise ValueError(f"noise shares must be nonnegative, got {self.alphas}")
        total = sum(self.alphas)
        if abs(total - (1.0 - self.alpha)) > 1e-9:
            raise ValueError(
                f"noise shares must sum to 1 - alpha = {1.0 - self.alpha}, "
                f"got {total}"
            )
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")


def mu_bracket(gammas: tuple[float, ...], alpha: float) -> tuple[float, float]:
    """Bracket containing the noise-share multiplier mu.

    For m inputs with SNRs gamma_i and sum-constraint share alpha, the
    multiplier lies in

        [(1-alpha)/m + (1-alpha)^2/(m*sum(gamma)),
         (1-alpha)/m + (1-alpha)^2/(m^2*min(gamma))],

    with both endpoints equal exactly when all SNRs coincide.
    """
    gam = np.asarray(gammas, dtype=float)
    m = gam.size
    budget = 1.0 - alpha
    lo = budget / m + budget**2 / (m * float(gam.sum()))
    hi = budget / m + budget**2 / (m * m * float(gam.min()))
    return lo, hi


def _share_sum(gam: np.ndarray, mu: float) -> float:
    return float(0.5 * np.sum(np.sqrt(gam * (gam + 4.0 * mu)) - gam))


def solve_mu(
    gammas: tuple[float, ...],
    alpha: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> float:
    """Solve for the multiplier mu of the optimal noise-share partition.

    mu is the unique positive root of

        0.5 * sum_i (sqrt(gamma_i*(gamma_i + 4*mu)) - gamma_i) = 1 - alpha,

    located by bisection inside the analytic bracket from mu_bracket. The left
    side is strictly increasing in mu, so the root is unique.

    Args:
        gammas: positive SNRs.
        alpha: sum-constraint noise share in [0, 1).
        tol: residual tolerance on the constraint.
        max_iter: bisection iteration cap.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    gam = np.asarray(gammas, dtype=float)
    if gam.size < 1 or np.any(gam <= 0):
        raise ValueError(f"SNRs must be positive, got {gammas}")
    budget = 1.0 - alpha
    lo, hi = mu_bracket(tuple(gam), alpha)
    if hi - lo <= 1e-15 * max(1.0, hi):
        mu = 0.5 * (lo + hi)
        assert abs(_share_sum(gam, mu) - budget) < 1e-8, "bracket degenerated badly"
        return mu
    # Guard the bracket against floating-point rounding of the endpoints.
    lo *= 1.0 - 1e-12
    hi *= 1.0 + 1e-12
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        residual = _share_sum(gam, mid) - budget
        if abs(residual) < tol:
            return mid
        if residual < 0:
            lo = mid
        else:
            hi = mid
    raise AssertionError(
        f"bisection failed to reach residual {tol} within {max_iter} iterations"
    )


def optimal_noise_shares(gammas: tuple[float, ...], alpha: float) -> NoisePartition:
    """Optimal per-input noise shares for the parameterized MAC upper model.

    With multiplier mu from solve_mu, the share tightening input i is

        alpha_i = (sqrt(gamma_i*(gamma_i + 4*mu)) - gamma_i) / 2,

    and the shares add to 1 - alpha. Smaller shares mean looser per-input
    rates, so stronger inputs receive larger shares.
    """
    gam = np.asarray(gammas, dtype=float)
    mu = solve_mu(tuple(gam), alpha)
    shares = 0.5 * (np.sqrt(gam * (gam + 4.0 * mu)) - gam)
    # The bisection residual can leave the total a hair off 1 - alpha; scale
    # it out so downstream consumers see an exact partition.
    shares *= (1.0 - alpha) / float(shares.sum())
    return NoisePartition(alpha=float(alpha), alphas=tuple(shares), mu=float(mu))


def mac_upper(spec: MacSpec, alpha: float) -> tuple[RateVector, NoisePartition]:
    """Parameterized MAC upper model with sum-share alpha.

    A share alpha of the unit receiver noise backs the sum constraint and the
    remaining 1 - alpha is split optimally across per-input constraints:

        R_sum(alpha) = 0.5*log2(1 + ((sum sqrt(gamma_i))^2 + 1 - alpha)/alpha)
        R_i(alpha)   = 0.5*log2(1 + gamma_i/alpha_i)

    The endpoints are exact limits: alpha = 1 recovers the basic sum model
    with unconstrained inputs, and alpha = 0 leaves the sum unconstrained
    while tightening the per-input rates the most.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 1.0:
        rv = RateVector(
            sum_rate=awgn_capacity(spec.coherent_sum_snr),
            individual=(float("inf"),) * spec.m,
        )
        return rv, NoisePartition(alpha=1.0, alphas=(0.0,) * spec.m, mu=0.0)
    partition = optimal_noise_shares(spec.gammas, alpha)
    individual = tuple(
        awgn_capacity(g / a) for g, a in zip(spec.gammas, partition.alphas)
    )
    if alpha == 0.0:
        sum_rate = float("inf")
    else:
        sum_rate = awgn_capacity((spec.coherent_sum_snr + 1.0 - alpha) / alpha)
    return RateVector(sum_rate=sum_rate, individual=individual), partition


def mac_sum_gap(spec: MacSpec) -> float:
    """Sum-rate gap between the basic upper model and the SIC lower model.

    Equals 0.5*log2((1 + (sum sqrt(gamma_i))^2) / (1 + sum gamma_i)) and is
    always below 0.5*log2(m).
    """
    gam = np.asarray(spec.gammas, dtype=float)
    return float(
        0.5 * np.log2((1.0 + spec.coherent_sum_snr) / (1.0 + float(gam.sum())))
    )
