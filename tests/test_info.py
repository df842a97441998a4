"""Tests for the capacity primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netbounds.info import (
    awgn_capacities,
    awgn_capacity,
    binary_entropy,
    bsc_capacity,
    db_to_linear,
    dmc_capacity,
    linear_to_db,
    qsc_capacity,
    qsc_matrix,
)


def test_db_round_trip():
    for db in [-10.0, 0.0, 3.0, 10.0, 25.0]:
        assert abs(linear_to_db(db_to_linear(db)) - db) < 1e-12
    assert abs(db_to_linear(0.0) - 1.0) < 1e-15
    assert abs(db_to_linear(10.0) - 10.0) < 1e-12


def test_db_to_linear_is_the_numpy_formula_bit_for_bit():
    # The float form must give what the NumPy formula gives, overflow to inf
    # included, as a Python float.
    rng = np.random.default_rng(29)
    steps = (np.arange(-4000, 4001) / 10.0).tolist()
    special = [0.0, -0.0, np.inf, -np.inf, 3082.5, 1e6, -1e6]
    for db in [*rng.uniform(-400.0, 400.0, 20000).tolist(), *steps, *special]:
        with np.errstate(over="ignore"):
            want = float(10.0 ** (np.asarray(db, dtype=float) / 10.0))
        got = db_to_linear(db)
        assert type(got) is float
        assert got == want, db
    assert db_to_linear(4000.0) == np.inf
    assert np.isnan(db_to_linear(np.nan))


def test_awgn_capacities_match_the_scalar_form_bit_for_bit():
    # The batch rating of lower networks takes np.log2 over arrays, which may
    # run a SIMD kernel that the scalar call does not. A host whose kernel
    # rounds differently fails here instead of moving the relay search's bits.
    gammas = np.concatenate(
        ([0.0, 1e-300, 1e-12], np.logspace(-300, 300, 20001), [np.inf])
    )
    got = awgn_capacities(gammas)
    want = np.array([awgn_capacity(float(g)) for g in gammas])
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for start in range(8):  # every alignment of the kernel's vector tail
        part = slice(start, start + 37)
        assert np.array_equal(awgn_capacities(gammas[part]), want[part])


def test_awgn_capacity_values():
    assert awgn_capacity(0.0) == 0.0
    assert abs(awgn_capacity(3.0) - 1.0) < 1e-12
    assert abs(awgn_capacity(1.0) - 0.5) < 1e-12
    assert awgn_capacity(float("inf")) == float("inf")


def test_awgn_capacity_is_the_numpy_formula_bit_for_bit():
    # The capacity must stay the half-log of np.log2 (math.log2 rounds some
    # inputs differently); only the infinity test may avoid NumPy.
    rng = np.random.default_rng(23)
    subnormals = [5e-324, 1e-310, 2.2250738585072e-308]
    draws = np.concatenate(
        [rng.uniform(0.0, 4.0, 2000), 10.0 ** rng.uniform(-300, 300, 2000)]
    ).tolist()
    for g in [0.0, *subnormals, *draws, float("inf")]:
        got = awgn_capacity(g)
        assert type(got) is float
        assert got == float(0.5 * np.log2(1.0 + g)), g


def test_awgn_capacity_rejects_negative():
    with pytest.raises(ValueError):
        awgn_capacity(-0.1)


def test_awgn_capacity_monotone_concave():
    grid = np.linspace(0.0, 50.0, 501)
    values = np.array([awgn_capacity(g) for g in grid])
    diffs = np.diff(values)
    assert np.all(diffs > 0)
    # Concavity: first differences on the uniform grid are decreasing.
    assert np.all(np.diff(diffs) < 1e-12)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12
    assert abs(binary_entropy(0.11) - binary_entropy(0.89)) < 1e-12


def test_bsc_capacity_values():
    assert abs(bsc_capacity(0.0) - 1.0) < 1e-15
    assert abs(bsc_capacity(0.5)) < 1e-15
    assert abs(bsc_capacity(0.11) - 0.500084041835472) < 1e-12
    with pytest.raises(ValueError):
        bsc_capacity(0.7)


def test_qsc_capacity_values():
    assert abs(qsc_capacity(2, 0.0) - 1.0) < 1e-15
    # Frozen from the closed form log2(8) - H(0.1) - 0.1*log2(7), cross-checked
    # against Blahut-Arimoto on the 8x8 matrix below.
    assert abs(qsc_capacity(8, 0.1) - 2.250268914204958) < 1e-12
    # Uniform-output boundary: zero capacity, not an error.
    assert qsc_capacity(4, 0.75) == 0.0


def test_qsc_capacity_domain_errors():
    with pytest.raises(ValueError):
        qsc_capacity(1, 0.1)
    with pytest.raises(ValueError):
        qsc_capacity(4, 0.76)
    with pytest.raises(ValueError):
        qsc_capacity(4, -0.01)


def test_dmc_capacity_bsc():
    assert abs(dmc_capacity(qsc_matrix(2, 0.11)) - 0.500084041835472) < 1e-9


def test_dmc_capacity_identity():
    assert abs(dmc_capacity(np.eye(3)) - np.log2(3)) < 1e-9


def test_dmc_capacity_matches_qsc_closed_form():
    assert abs(dmc_capacity(qsc_matrix(8, 0.1)) - qsc_capacity(8, 0.1)) < 1e-8


def test_dmc_capacity_z_channel():
    # Z-channel with flip probability p has the known closed-form capacity
    # log2(1 + (1-p) * p^(p/(1-p))).
    p = 0.3
    transition = np.array([[1.0, 0.0], [p, 1.0 - p]])
    closed = np.log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p)))
    assert abs(dmc_capacity(transition, tol=1e-11) - closed) < 1e-9


def test_dmc_capacity_rejects_bad_matrix():
    with pytest.raises(ValueError):
        dmc_capacity(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        dmc_capacity(np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        dmc_capacity(qsc_matrix(2, 0.1), tol=0.0)


@given(
    q=st.integers(min_value=2, max_value=9),
    frac=st.floats(min_value=0.0, max_value=0.95),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_dmc_capacity_matches_qsc_randomized(q, frac):
    xi = frac * (q - 1) / q
    assert abs(dmc_capacity(qsc_matrix(q, xi)) - qsc_capacity(q, xi)) < 1e-8


@given(st.integers(min_value=0, max_value=10**6))
@example(seed=285)  # two rows 3e-5 apart: plain Blahut-Arimoto needs >1e5 steps
@settings(max_examples=30, deadline=None, derandomize=True)
def test_dmc_capacity_within_alphabet_bound(seed):
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(2, 6))
    n_out = int(rng.integers(2, 6))
    transition = rng.dirichlet(np.ones(n_out), size=n_in)
    cap = dmc_capacity(transition, tol=1e-7)
    assert cap >= -1e-9
    assert cap <= np.log2(min(n_in, n_out)) + 1e-7


def test_dmc_capacity_ignores_inputs_between_extreme_rows():
    # With two outputs every row is a mix of the two extreme rows, so the
    # middle inputs leave the capacity unchanged; rows 0 and 1 differ by 3e-5.
    transition = np.array(
        [
            [0.12776522, 0.87223478],
            [0.12773963, 0.87226037],
            [0.61208232, 0.38791768],
            [0.65441071, 0.34558929],
        ]
    )
    full = dmc_capacity(transition, tol=1e-10)
    extremes = dmc_capacity(transition[[1, 3]], tol=1e-10)
    assert abs(full - extremes) < 1e-10
