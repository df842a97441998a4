"""Bounding models for an m-transmitter Gaussian multiple-access channel.

This module holds the multi-access upper model: a family of point-to-point
pipes that splits the unit receiver noise into a share alpha on the sum
constraint and shares alpha_i on the per-input constraints (`mac_upper`,
with the multiplier's bracket `mu_bracket`). alpha = 1 is the basic model
with the cooperative sum rate and unconstrained per-input rates.
`assemble.UpperStructure` rates it into arcs; `mac_sum_gap` is the
closed-form sum-rate gap between the basic upper model and the lower model.

The lower model, successive interference cancellation in a chosen decode
order, lives in `assemble.LowerStructure` alone, where it runs on effective
SNRs after every receiver is charged with the power it never decodes.

SNRs are linear and all rates are bits per channel use.

`mac_upper` rates a whole sweep of (MAC, alpha) pairs in one call: it groups
the pairs by input count and solves each group's multipliers in one
bisection on arrays (`_solve_mu`, whose step is `_share_sums`), one entry
per pair, then takes every share and rate in array form. Each entry goes
through the same IEEE operations in the same order as a solve of its pair
alone would: sums run from 0.0 left to right (`info.ltr_sum`, over an
array's rows for its columns), which is what `np.sum` does below 8 terms
(no row holds -0.0, so starting from 0.0 changes no bit), and a bisection
entry stops at the iterate where it alone would. Squares are taken as
Python's `x ** 2`, as NumPy's scalar square does, and not as `np.square` or
an array's `** 2`, which round as `x * x` and differ on about 1 in 1200
inputs. So a pair's result does not depend on the other pairs in its call,
and for up to 7 inputs it is bit for bit what the same formulas give in
NumPy scalars; from 8 terms `np.sum` adds pairwise, and the last bits may
differ. `mac_sum_gap` takes `math.log2`, which may round the last bit unlike
`np.log2`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .info import awgn_capacities, awgn_capacity, ltr_sum

__all__ = [
    "MacSpec",
    "MacRates",
    "mu_bracket",
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

    @functools.cached_property
    def coherent_sum_snr(self) -> float:
        """Effective SNR when all inputs cooperate coherently."""
        return ltr_sum(math.sqrt(g) for g in self.gammas) ** 2


def check_snrs(gammas) -> None:
    """Raise ValueError naming the first SNR that is not positive and finite.

    The rule of `MacSpec` and `bc.BcSpec`; NaN and infinite SNRs would
    otherwise run the bisection to its cap or give NaN rates.
    """
    for g in gammas:
        if not 0.0 < g < math.inf:
            raise ValueError(f"SNRs must be positive and finite, got {g} in {gammas}")


class MacRates(NamedTuple):
    """The upper model of one MAC at one sum share alpha.

    `sum_rate` and `individual` (one rate per input, in link order) are its
    pipes. `shares` split the unit receiver noise that alpha leaves over
    across the per-input constraints, and mu is their multiplier: for alpha
    < 1 every share is positive and they add to 1 - alpha; at alpha = 1
    they and mu are 0.
    """

    sum_rate: float
    individual: tuple[float, ...]
    alpha: float
    shares: tuple[float, ...]
    mu: float


def _brackets(gammas: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`mu_bracket` of every column of an m x n array of SNRs, at the budgets
    1 - alpha of the columns."""
    m = len(gammas)
    square = np.array([b**2 for b in budget.tolist()])
    lo = budget / m + square / (m * ltr_sum(gammas))
    hi = budget / m + square / (m * m * gammas.min(axis=0))
    return lo, hi


def mu_bracket(gammas: tuple[float, ...], alpha: float) -> tuple[float, float]:
    """Bracket containing the noise-share multiplier mu.

    For m inputs with SNRs gamma_i and sum-constraint share alpha, the
    multiplier lies in

        [(1-alpha)/m + (1-alpha)^2/(m*sum(gamma)),
         (1-alpha)/m + (1-alpha)^2/(m^2*min(gamma))],

    with both endpoints equal exactly when all SNRs coincide.
    """
    lo, hi = _brackets(np.array(gammas, dtype=float)[:, None], np.array([1.0 - alpha]))
    return float(lo[0]), float(hi[0])


def _share_sums(gammas: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """0.5 * sum_i (sqrt(gamma_i*(gamma_i + 4*mu)) - gamma_i) of every column
    of an m x n array of SNRs at its own mu: the bisection's step."""
    return 0.5 * ltr_sum(np.sqrt(gammas * (gammas + 4.0 * mu)) - gammas)


def _equal_shares(gammas: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """0.5 * (sqrt(g*(g + 4*mu)) - g) in the equal form 2*g*mu/(sqrt(g*(g +
    4*mu)) + g), which does not cancel when mu is far below g."""
    return 2.0 * gammas * mu / (np.sqrt(gammas * (gammas + 4.0 * mu)) + gammas)


def _solve_mu(
    gammas: np.ndarray, budget: np.ndarray, tol: float = 1e-10, max_iter: int = 200
) -> np.ndarray:
    """The multiplier mu of the optimal noise-share partition of every column
    of an m x n array of SNRs, at the budgets 1 - alpha of the columns.

    mu is the unique positive root of

        0.5 * sum_i (sqrt(gamma_i*(gamma_i + 4*mu)) - gamma_i) = 1 - alpha,

    located by bisection inside the analytic bracket from `mu_bracket`. The
    left side is strictly increasing in mu, so the root is unique. All open
    columns take each step together, and a column leaves once its residual
    is within `tol` or its bracket cannot shrink any further.
    """
    lo, hi = _brackets(gammas, budget)
    mu = 0.5 * (lo + hi)
    degenerate = hi - lo <= 1e-15 * np.maximum(1.0, hi)
    if degenerate.any():
        # The share sum cancels here with an error of about eps * gamma, which
        # exceeds the check from about 80 dB on; the equal form does not.
        shares = _equal_shares(gammas[:, degenerate], mu[degenerate])
        residual = ltr_sum(shares) - budget[degenerate]
        assert (abs(residual) < 1e-8).all(), "bracket degenerated badly"
    rows = np.flatnonzero(~degenerate)
    gammas, budget = gammas[:, rows], budget[rows]
    # Guard the bracket against floating-point rounding of the endpoints.
    lo = lo[rows] * (1.0 - 1e-12)
    hi = hi[rows] * (1.0 + 1e-12)
    for _ in range(max_iter):
        if not rows.size:
            return mu
        mid = 0.5 * (lo + hi)
        residual = _share_sums(gammas, mid) - budget
        # Once mid equals an endpoint the bracket cannot shrink any further:
        # above about 64 dB the residual's cancellation error exceeds tol.
        done = abs(residual) < tol
        done |= mid == lo
        done |= mid == hi
        if np.count_nonzero(done):
            mu[rows[done]] = mid[done]
            left = ~done
            rows, gammas, budget = rows[left], gammas[:, left], budget[left]
            lo, hi, mid, residual = lo[left], hi[left], mid[left], residual[left]
        below = residual < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    if rows.size:
        raise AssertionError(
            f"bisection failed to reach residual {tol} within {max_iter} iterations"
        )
    return mu


def _solve_group(specs, alphas) -> list[MacRates]:
    """`mac_upper` of pairs whose MACs have one input count and whose alphas
    lie in [0, 1)."""
    gammas = np.array([spec.gammas for spec in specs]).T.copy()  # one row per input
    alpha = np.array(alphas, dtype=float)
    budget = 1.0 - alpha
    mu = _solve_mu(gammas, budget)
    shares = 0.5 * (np.sqrt(gammas * (gammas + 4.0 * mu)) - gammas)
    # For mu far below gamma_i the difference above cancels, down to 0.0 when
    # alpha is within about 1e-13 of 1; such a share takes the equal form
    # that does not cancel. Positive shares keep the form the bisection used.
    shares = np.where(shares > 0.0, shares, _equal_shares(gammas, mu))
    # The bisection residual can leave the total a hair off 1 - alpha; scale
    # it out so downstream consumers see an exact partition.
    shares = shares * (budget / ltr_sum(shares))
    individual = awgn_capacities(gammas / shares)
    coherent = np.array([spec.coherent_sum_snr for spec in specs])
    with np.errstate(divide="ignore", over="ignore"):  # inf at alpha 0
        sum_rate = awgn_capacities((coherent + 1.0 - alpha) / alpha)
    if not (shares > 0.0).all() or (abs(ltr_sum(shares) - budget) > 1e-9).any():
        raise ValueError(f"noise shares must be positive and sum to 1 - alpha, got {shares.T}")
    return list(
        map(
            MacRates,
            sum_rate.tolist(),
            map(tuple, individual.T.tolist()),
            alpha.tolist(),
            map(tuple, shares.T.tolist()),
            mu.tolist(),
        )
    )


def mac_upper(pairs) -> list[MacRates]:
    """Parameterized MAC upper model of every (MacSpec, alpha) pair, in order.

    A share alpha of the unit receiver noise backs the sum constraint and the
    remaining 1 - alpha is split optimally across per-input constraints:

        R_sum(alpha) = 0.5*log2(1 + ((sum sqrt(gamma_i))^2 + 1 - alpha)/alpha)
        R_i(alpha)   = 0.5*log2(1 + gamma_i/alpha_i)

    with the share alpha_i = (sqrt(gamma_i*(gamma_i + 4*mu)) - gamma_i) / 2
    for the multiplier mu at which the shares add to 1 - alpha. Smaller
    shares mean looser per-input rates, so stronger inputs receive larger
    shares. The endpoints are exact limits: alpha = 1 recovers the basic sum
    model with unconstrained inputs, and alpha = 0 leaves the sum
    unconstrained while tightening the per-input rates the most.

    Pairs with the same input count are solved together, in one bisection.

    Raises:
        ValueError: on an alpha outside [0, 1].
    """
    pairs = tuple(pairs)
    results: list = [None] * len(pairs)
    groups: dict[int, list[int]] = {}  # by input count, the rows with alpha < 1
    for row, (spec, alpha) in enumerate(pairs):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if alpha == 1.0:
            m = spec.m
            sum_rate = awgn_capacity(spec.coherent_sum_snr)
            results[row] = MacRates(sum_rate, (math.inf,) * m, 1.0, (0.0,) * m, 0.0)
        else:
            groups.setdefault(spec.m, []).append(row)
    for rows in groups.values():
        solved = _solve_group([pairs[r][0] for r in rows], [pairs[r][1] for r in rows])
        for row, result in zip(rows, solved):
            results[row] = result
    return results


def mac_sum_gap(spec: MacSpec) -> float:
    """Sum-rate gap between the basic upper model and the SIC lower model.

    Equals 0.5*log2((1 + (sum sqrt(gamma_i))^2) / (1 + sum gamma_i)) and is
    always below 0.5*log2(m).
    """
    return 0.5 * math.log2((1.0 + spec.coherent_sum_snr) / (1.0 + ltr_sum(spec.gammas)))
