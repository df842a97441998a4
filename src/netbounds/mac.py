"""Bounding models for an m-transmitter Gaussian multiple-access channel.

This module holds the multi-access upper model: a family of point-to-point
pipes that splits the unit receiver noise into a share alpha on the sum
constraint and shares alpha_i on the per-input constraints (`mac_upper`, with
its multiplier `solve_mu` and bracket `mu_bracket`). alpha = 1 is the basic
model with the cooperative sum rate and unconstrained per-input rates.
`assemble.UpperStructure` rates it into arcs; `mac_sum_gap` is the
closed-form sum-rate gap between the basic upper model and the lower model.

The lower model, successive interference cancellation in a chosen decode
order, lives in `assemble.LowerStructure` alone, where it runs on effective
SNRs after every receiver is charged with the power it never decodes.

SNRs are linear and all rates are bits per channel use.

`mac_upper` is called once per distinct (MAC, alpha) pair that a search
rates (`assemble` keeps a small cache of its rate vectors), on MACs of a few
inputs, so the module works in plain Python floats and `math`, not NumPy.
Sums run left to right in an explicit loop (`_sum`, and `_share_sum`, which
the bisection calls about 25 times per solve), which is what `np.sum` does
below 8 terms, and the coherent sum is squared as `s ** 2`, which rounds
as NumPy's scalar square does (`s * s` does not always). So for up to 7
inputs `mac_upper` and its helpers give bit for bit what the same formulas
give in NumPy; from 8 terms `np.sum` adds pairwise, and the last bits may
differ. `mac_sum_gap` takes `math.log2`, which may round the last bit unlike
`np.log2`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        gammas: received linear SNR of each input, all positive and finite.
    """

    gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.gammas) < 1:
            raise ValueError("a MAC needs at least one input")
        check_snrs(self.gammas)

    @property
    def m(self) -> int:
        return len(self.gammas)

    @property
    def coherent_sum_snr(self) -> float:
        """Effective SNR when all inputs cooperate coherently."""
        return _sum(math.sqrt(g) for g in self.gammas) ** 2


def check_snrs(gammas) -> None:
    """Raise ValueError naming the first SNR that is not positive and finite.

    The rule of `MacSpec` and `bc.BcSpec`; NaN and infinite SNRs would
    otherwise run the bisection to its cap or give NaN rates.
    """
    for g in gammas:
        if not 0.0 < g < math.inf:
            raise ValueError(f"SNRs must be positive and finite, got {g} in {gammas}")


def _sum(values) -> float:
    """Left-to-right float sum: `np.sum`'s order below 8 terms. The builtin
    `sum` is compensated from Python 3.12 on, so it is not used here."""
    total = 0.0
    for value in values:
        total += value
    return total


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
    m = len(gammas)
    budget = 1.0 - alpha
    lo = budget / m + budget**2 / (m * _sum(gammas))
    hi = budget / m + budget**2 / (m * m * min(gammas))
    return lo, hi


def _share_sum(gammas: tuple[float, ...], mu: float) -> float:
    """0.5 * sum_i (sqrt(gamma_i*(gamma_i + 4*mu)) - gamma_i), summed left to
    right as `_sum` does, in one loop: the bisection's inner step."""
    sqrt, four_mu, total = math.sqrt, 4.0 * mu, 0.0
    for g in gammas:
        total += sqrt(g * (g + four_mu)) - g
    return 0.5 * total


def _equal_share(g: float, mu: float) -> float:
    """0.5 * (sqrt(g*(g + 4*mu)) - g) in the equal form 2*g*mu/(sqrt(g*(g +
    4*mu)) + g), which does not cancel when mu is far below g."""
    return 2.0 * g * mu / (math.sqrt(g * (g + 4.0 * mu)) + g)


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
    gam = tuple(float(g) for g in gammas)
    if len(gam) < 1:
        raise ValueError("a MAC needs at least one input")
    check_snrs(gam)
    budget = 1.0 - alpha
    lo, hi = mu_bracket(gam, alpha)
    if hi - lo <= 1e-15 * max(1.0, hi):
        mu = 0.5 * (lo + hi)
        # `_share_sum` cancels here with an error of about eps * gamma, which
        # exceeds the check from about 80 dB on; the equal form does not.
        residual = _sum(_equal_share(g, mu) for g in gam) - budget
        assert abs(residual) < 1e-8, "bracket degenerated badly"
        return mu
    # Guard the bracket against floating-point rounding of the endpoints.
    lo *= 1.0 - 1e-12
    hi *= 1.0 + 1e-12
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        residual = _share_sum(gam, mid) - budget
        # Once mid equals an endpoint the bracket cannot shrink any further:
        # above about 64 dB the residual's cancellation error exceeds tol.
        if abs(residual) < tol or mid in (lo, hi):
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
    mu = solve_mu(gammas, alpha)
    shares = [0.5 * (math.sqrt(g * (g + 4.0 * mu)) - g) for g in gammas]
    # For mu far below gamma_i the difference above cancels, down to 0.0 when
    # alpha is within about 1e-13 of 1; such a share takes the equal form
    # that does not cancel. Positive shares keep the form the bisection used.
    shares = [a if a > 0.0 else _equal_share(g, mu) for a, g in zip(shares, gammas)]
    # The bisection residual can leave the total a hair off 1 - alpha; scale
    # it out so downstream consumers see an exact partition.
    scale = (1.0 - alpha) / _sum(shares)
    return NoisePartition(
        alpha=float(alpha), alphas=tuple(a * scale for a in shares), mu=float(mu)
    )


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
    return 0.5 * math.log2((1.0 + spec.coherent_sum_snr) / (1.0 + _sum(spec.gammas)))
