"""Capacity primitives shared by every bounding-model formula.

All rates are in bits per channel use (base-2 logs). Gaussian links follow the
half-log convention: a point-to-point AWGN link with linear SNR gamma supports
0.5 * log2(1 + gamma) bits per use.

`dmc_capacity` (Blahut-Arimoto for any discrete channel) and `qsc_matrix` are
not used by the pipeline; they are the independent reference against which
the closed form of `qsc_capacity` is checked.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "awgn_capacity",
    "awgn_capacities",
    "ltr_sum",
    "binary_entropy",
    "bsc_capacity",
    "qsc_capacity",
    "qsc_matrix",
    "dmc_capacity",
]


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio from dB to linear scale; overflow gives inf."""
    try:
        return 10.0 ** (float(value_db) / 10.0)
    except OverflowError:
        return math.inf


def linear_to_db(value: float) -> float:
    """Convert a positive linear power ratio to dB."""
    if value <= 0:
        raise ValueError(f"linear value must be positive, got {value}")
    return float(10.0 * np.log10(value))


def awgn_capacity(gamma: float) -> float:
    """Capacity of a unit-noise AWGN link with linear SNR gamma.

    Args:
        gamma: linear signal-to-noise ratio, >= 0. May be +inf.

    Returns:
        0.5 * log2(1 + gamma) in bits per channel use.
    """
    if gamma < 0:
        raise ValueError(f"SNR must be nonnegative, got {gamma}")
    if math.isinf(gamma):
        return float("inf")
    # np.log2, not math.log2: the two round differently on some inputs.
    return float(0.5 * np.log2(1.0 + gamma))


def awgn_capacities(gammas: np.ndarray) -> np.ndarray:
    """`awgn_capacity` of every entry of an array of SNRs >= 0 (+inf allowed),
    in one `np.log2` pass, bit for bit as long as the host's array log2
    rounds as its scalar one does (tests/test_info.py checks this)."""
    return 0.5 * np.log2(1.0 + gammas)


def ltr_sum(values):
    """Sum of ``values`` from 0.0, left to right: the order `np.sum` takes
    below 8 terms. Every sum whose bits are pinned goes through here, since
    builtin `sum` compensates float sums from Python 3.12 on. Over arrays it
    sums elementwise into a new array and writes through none of them."""
    total = 0.0
    for value in values:
        total = total + value
    return total


def binary_entropy(p: float) -> float:
    """Binary entropy H(p) in bits, with H(0) = H(1) = 0."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def bsc_capacity(eps: float) -> float:
    """Capacity of a binary symmetric channel with crossover probability eps."""
    if eps < 0.0 or eps > 0.5:
        raise ValueError(f"crossover probability must lie in [0, 1/2], got {eps}")
    return 1.0 - binary_entropy(eps)


def qsc_capacity(q: int, xi: float) -> float:
    """Capacity of a q-ary symmetric channel.

    The channel keeps the input symbol with probability 1 - xi and flips it to
    each of the other q - 1 symbols with probability xi / (q - 1).

    Args:
        q: alphabet size, an integer >= 2.
        xi: total crossover probability, in [0, (q-1)/q]. At the upper end the
            output is uniform regardless of the input and the capacity is 0.

    Returns:
        log2(q) - H(xi) - xi * log2(q - 1) in bits per channel use.
    """
    if int(q) != q or q < 2:
        raise ValueError(f"alphabet size must be an integer >= 2, got {q}")
    q = int(q)
    boundary = (q - 1) / q
    if xi < 0.0 or xi > boundary:
        raise ValueError(
            f"crossover probability must lie in [0, {boundary}] for q={q}, got {xi}"
        )
    value = np.log2(q) - binary_entropy(xi) - xi * np.log2(q - 1)
    # Clip the tiny negative residue that floating point leaves at the
    # uniform-output boundary.
    return float(max(value, 0.0))


def qsc_matrix(q: int, xi: float) -> np.ndarray:
    """Row-stochastic transition matrix of the q-ary symmetric channel."""
    if int(q) != q or q < 2:
        raise ValueError(f"alphabet size must be an integer >= 2, got {q}")
    q = int(q)
    if xi < 0.0 or xi > 1.0:
        raise ValueError(f"crossover probability must lie in [0, 1], got {xi}")
    off = xi / (q - 1)
    matrix = np.full((q, q), off)
    np.fill_diagonal(matrix, 1.0 - xi)
    return matrix


def _room(r: np.ndarray, step: np.ndarray) -> float:
    """99% of the largest t with r + t * step >= 0 (inf when nothing falls)."""
    falling = step < 0
    if not falling.any():
        return float("inf")
    return 0.99 * float(np.min(r[falling] / -step[falling]))


def _second_order_steps(p, q_out, d, r) -> list[tuple[np.ndarray, float]]:
    """Newton and flat-direction steps of I(r), each with its longest length.

    On the inputs in use, I(r) has gradient d (up to a constant) and
    curvature -P diag(1/q) P^T / ln 2 within sum(step) = 0. Along directions
    of positive curvature the Newton step is taken. Along the rest, mixtures
    of inputs with the same output distribution, I is linear, so the step
    follows the slope until some input weight nearly reaches zero.
    """
    active = np.flatnonzero(r > 1e-9 * r.max())
    k = active.size
    if k < 2:
        return []
    rows = p[active]
    inv_q = np.where(q_out > 0, 1.0 / np.where(q_out > 0, q_out, 1.0), 0.0)
    # Orthonormal basis of {step : sum(step) = 0} on the active inputs.
    basis = np.linalg.qr(np.eye(k)[:, :-1] - 1.0 / k)[0]
    rows_b = basis.T @ rows
    lam, vec = np.linalg.eigh((rows_b * inv_q) @ rows_b.T / np.log(2.0))
    directions = basis @ vec
    slope = directions.T @ d[active]
    curved = lam > 1e-9 * max(float(lam.max()), 0.0)
    newton = np.zeros_like(r)
    newton[active] = directions[:, curved] @ (slope[curved] / lam[curved])
    flat = np.zeros_like(r)
    flat[active] = directions[:, ~curved] @ slope[~curved]
    return [(newton, 1.0), (flat, float("inf"))]


def dmc_capacity(
    transition: np.ndarray, tol: float = 1e-9, max_iter: int = 100000
) -> float:
    """Capacity of a discrete memoryless channel by Blahut-Arimoto iteration.

    Each iteration yields a certified bracket [L, U] around the capacity:
    L is the mutual information of the current input distribution and U is the
    maximum over inputs of the divergence D(P(.|x) || current output). The
    iteration stops once U - L < tol and the midpoint is returned.

    Plain Blahut-Arimoto crawls where inputs have nearly the same output
    distribution (two rows 3e-5 apart took over 10^5 iterations). So each
    Blahut-Arimoto step is followed by a Newton step and a flat-direction step
    (see _second_order_steps), each halved up to 10 times and kept only when
    it raises L. The bracket holds for every input distribution, so these
    steps change how fast it closes, not what it certifies.

    Args:
        transition: row-stochastic matrix, rows indexed by input symbols.
        tol: width of the final capacity bracket, > 0.
        max_iter: iteration cap.

    Returns:
        Capacity in bits, within tol/2 of the true maximum.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise ValueError(f"transition must be a 2-D matrix, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("transition probabilities must be nonnegative")
    row_sums = p.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-12):
        worst = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(
            f"rows must sum to 1 within 1e-12; row {worst} sums to {row_sums[worst]}"
        )

    m = p.shape[0]
    log_p = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)

    def evaluate(r):
        q_out = r @ p
        # Per-input divergence D(P(.|x) || q_out) in bits. Zero-probability
        # outputs of q_out only occur where every row is zero too, so the
        # masked log never multiplies a positive p entry.
        log_q = np.where(q_out > 0, np.log2(np.where(q_out > 0, q_out, 1.0)), 0.0)
        d = np.sum(p * (log_p - log_q[np.newaxis, :]), axis=1)
        return q_out, d, float(np.dot(r, d))

    r = np.full(m, 1.0 / m)
    q_out, d, lower = evaluate(r)
    upper = float(np.max(d))
    for _ in range(int(max_iter)):
        if upper - lower < tol:
            return 0.5 * (lower + upper)
        weights = r * np.exp2(d)
        r = weights / weights.sum()
        q_out, d, lower = evaluate(r)
        for step, longest in _second_order_steps(p, q_out, d, r):
            length = min(longest, _room(r, step))
            if not (step.any() and np.isfinite(length)):
                continue
            for _ in range(10):
                trial = np.maximum(r + length * step, 0.0)
                trial /= trial.sum()
                trial_q, trial_d, trial_lower = evaluate(trial)
                if trial_lower > lower:
                    r, q_out, d, lower = trial, trial_q, trial_d, trial_lower
                    break
                length *= 0.5
        upper = float(np.max(d))

    raise RuntimeError(
        f"no convergence within {max_iter} iterations; bracket [{lower}, {upper}]"
    )
