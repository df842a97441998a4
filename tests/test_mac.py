"""Tests for the multiple-access bounding models.

The upper model is checked through `mac_upper`; the successive-cancellation
lower model exists only inside `LowerStructure`, so its identities are checked
on the lower arcs of an independent multiple-access channel.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netbounds import mac
from netbounds.assemble import LowerParams, build_lower
from netbounds.decouple import decompose
from netbounds.info import awgn_capacity
from netbounds.mac import MacSpec, mac_sum_gap, mac_upper, mu_bracket
from netbounds.netmodel import NoisyLink, NoisyNetwork, Node

from util_mi import sample_system, system_quantities


def multiple_access(gammas):
    """Components of inputs T1..Tm heard by one receiver X at their SNRs."""
    inputs = tuple(f"T{k + 1}" for k in range(len(gammas)))
    net = NoisyNetwork(
        nodes=tuple(Node(id=n) for n in (*inputs, "X")),
        links=tuple(
            NoisyLink(src=t, dst="X", kind="awgn", snr=g) for t, g in zip(inputs, gammas)
        ),
    )
    return decompose(net)


def sic_rates(components, order=None):
    """Lower-network rate per input of the successive-cancellation receiver."""
    params = LowerParams(mac_order={("mac", "X"): order}) if order else None
    _, arcs = build_lower(components, params)
    return {tail: rate for tail, _, rate, _ in arcs}


def upper(gammas, alpha):
    """`mac_upper` of one (MAC, alpha) pair."""
    (rates,) = mac_upper([(MacSpec(gammas=gammas), alpha)])
    return rates


def two_user_split(gamma1, gamma2):
    """The noise share of input 1 when the sum constraint gets none."""
    rv = upper((gamma1, gamma2), 0.0)
    return rv, rv.shares[0]


def test_sum_model_values():
    # alpha = 1 is the basic model: cooperative sum rate, free inputs.
    rv = upper((1.0, 2.0, 100.0), 1.0)
    expected = 0.5 * np.log2(1.0 + (1.0 + np.sqrt(2.0) + 10.0) ** 2)
    assert abs(rv.sum_rate - expected) < 1e-12
    assert abs(rv.sum_rate - 3.638) < 1e-3
    assert rv.individual == (float("inf"),) * 3

    rv = upper((3.0,), 1.0)
    assert abs(rv.sum_rate - 1.0) < 1e-12


def test_two_user_split_symmetric():
    rv, alpha = two_user_split(1.0, 1.0)
    assert abs(alpha - 0.5) < 1e-12
    assert abs(rv.individual[0] - 0.5 * np.log2(3.0)) < 1e-12
    assert abs(rv.individual[1] - 0.5 * np.log2(3.0)) < 1e-12
    assert rv.sum_rate == float("inf")


def test_two_user_split_matches_grid_minimizer():
    # Stationarity of 0.5*log2(1 + g1/a) + 0.5*log2(1 + g2/(1 - a)) gives
    # a* = p / (p + q) with p = sqrt(g1*(1 + g2)), q = sqrt(g2*(1 + g1)).
    for gamma1, gamma2 in ((1.0, 1.0), (1.0, 10.0), (0.01, 100.0), (3.0, 7.0)):
        _, alpha = two_user_split(gamma1, gamma2)
        p = np.sqrt(gamma1 * (1.0 + gamma2))
        q = np.sqrt(gamma2 * (1.0 + gamma1))
        assert abs(alpha - p / (p + q)) < 5e-12
    gamma1, gamma2 = 1.0, 10.0
    _, alpha = two_user_split(gamma1, gamma2)
    grid = np.arange(1e-6, 1.0, 1e-6)
    values = 0.5 * np.log2(1.0 + gamma1 / grid) + 0.5 * np.log2(
        1.0 + gamma2 / (1.0 - grid)
    )
    assert abs(alpha - grid[np.argmin(values)]) < 1e-5


def test_two_user_split_weak_user_limit():
    rv, alpha = two_user_split(1e-12, 10.0)
    assert alpha < 1e-5
    assert abs(rv.individual[1] - 0.5 * np.log2(11.0)) < 1e-5


def test_solve_mu_equal_snrs():
    # With equal SNRs both bracket endpoints coincide and mu is exactly 3/4.
    lo, hi = mu_bracket((1.0, 1.0), 0.0)
    assert abs(lo - hi) < 1e-15
    assert abs(upper((1.0, 1.0), 0.0).mu - 0.75) < 1e-12


def test_solve_mu_single_input():
    assert abs(upper((5.0,), 0.0).mu - 1.2) < 1e-12


def test_solve_mu_residual_and_bracket():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        gammas = tuple(np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=m)))
        alpha = float(rng.uniform(0.0, 0.999))
        mu = upper(gammas, alpha).mu
        lo, hi = mu_bracket(gammas, alpha)
        assert lo - 1e-9 <= mu <= hi + 1e-9
        residual = 0.5 * sum(
            np.sqrt(g * (g + 4.0 * mu)) - g for g in gammas
        ) - (1.0 - alpha)
        assert abs(residual) < 1e-9


def test_mac_upper_at_70_db_stops_where_the_bisection_stalls():
    # The residual's cancellation error, about g * 2**-52 = 2e-9 at 70 dB,
    # exceeds the 1e-10 tolerance; the bisection ends when mid meets an
    # endpoint, and its mu still gives shares that sum to 1 - alpha.
    gammas, alpha = (1e7, 1.0), 0.9
    rv = upper(gammas, alpha)
    lo, hi = mu_bracket(gammas, alpha)
    assert lo * (1.0 - 1e-12) <= rv.mu <= hi * (1.0 + 1e-12)
    assert all(a > 0 for a in rv.shares)
    assert abs(sum(rv.shares) - (1.0 - alpha)) < 1e-15
    assert math.isfinite(rv.sum_rate)
    assert all(math.isfinite(rate) for rate in rv.individual)


def test_mu_bracket_endpoints_equal_iff_equal_snrs():
    lo, hi = mu_bracket((2.0, 2.0, 2.0), 0.3)
    assert abs(lo - hi) < 1e-12
    lo, hi = mu_bracket((1.0, 10.0), 0.3)
    assert hi - lo > 1e-9


def test_optimal_shares_sum_to_budget():
    shares = upper((1.0, 10.0), 0.25).shares
    assert abs(sum(shares) - 0.75) < 1e-9
    assert all(a > 0 for a in shares)
    # Stronger input gets the larger share.
    assert shares[1] > shares[0]


def test_mac_upper_alpha_next_to_one_keeps_every_share_positive():
    # 0.5*(sqrt(g*(g + 4*mu)) - g) cancels to 0.0 for the strong input here.
    alpha = 0.99999999999999
    rv = upper((0.836, 839.0), alpha)
    assert all(a > 0 for a in rv.shares)
    assert abs(sum(rv.shares) - (1.0 - alpha)) < 1e-20
    assert math.isfinite(rv.sum_rate)
    assert all(math.isfinite(rate) for rate in rv.individual)


def test_mac_upper_endpoint_alpha_one():
    spec = MacSpec(gammas=(1.0, 2.0, 100.0))
    (rv,) = mac_upper([(spec, 1.0)])
    assert abs(rv.sum_rate - awgn_capacity(spec.coherent_sum_snr)) < 1e-12
    assert rv.individual == (float("inf"),) * 3
    assert rv.alpha == 1.0 and rv.shares == (0.0,) * 3 and rv.mu == 0.0


def test_mac_upper_endpoint_alpha_zero():
    rv = upper((1.0, 1.0), 0.0)
    assert rv.sum_rate == float("inf")
    assert abs(rv.shares[0] - 0.5) < 1e-9
    assert abs(rv.shares[1] - 0.5) < 1e-9
    assert abs(rv.mu - 0.75) < 1e-9
    for rate in rv.individual:
        assert abs(rate - 0.5 * np.log2(3.0)) < 1e-9


def test_mac_upper_never_below_basic_sum():
    # No alpha improves on the basic model's sum rate; alpha = 1 attains it.
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        spec = MacSpec(
            gammas=tuple(np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=m)))
        )
        r_mac = awgn_capacity(spec.coherent_sum_snr)
        for rv in mac_upper([(spec, float(alpha)) for alpha in np.linspace(0.0, 1.0, 11)]):
            effective = min(rv.sum_rate, sum(rv.individual))
            assert effective >= r_mac - 1e-9
        (rv,) = mac_upper([(spec, 1.0)])
        assert abs(min(rv.sum_rate, sum(rv.individual)) - r_mac) < 1e-9


def test_mac_upper_monotone_in_alpha():
    spec = MacSpec(gammas=(0.5, 3.0, 20.0))
    alphas = np.linspace(0.01, 0.99, 25)
    previous = None
    for rv in mac_upper([(spec, float(alpha)) for alpha in alphas]):
        if previous is not None:
            assert rv.sum_rate <= previous.sum_rate + 1e-12
            for new, old in zip(rv.individual, previous.individual):
                assert new >= old - 1e-12
        previous = rv


def test_mac_lower_sic_values():
    rates = sic_rates(multiple_access((1.0, 2.0, 100.0)))
    assert len(rates) == 3
    assert abs(sum(rates.values()) - 0.5 * np.log2(104.0)) < 1e-12

    # A multiple-access side with one input is that link's capacity pipe.
    rates = sic_rates(multiple_access((3.0,)))
    assert rates == {"T1": pytest.approx(1.0, abs=1e-12)}


def test_mac_lower_sic_orders_share_sum():
    comps = multiple_access((1.0, 4.0))
    forward = sic_rates(comps, ("T1", "T2"))
    backward = sic_rates(comps, ("T2", "T1"))
    for rates in (forward, backward):
        assert abs(sum(rates.values()) - awgn_capacity(5.0)) < 1e-12
    # The first decoded input sees the other as interference.
    assert abs(forward["T1"] - awgn_capacity(1.0 / 5.0)) < 1e-12
    assert abs(forward["T2"] - awgn_capacity(4.0)) < 1e-12


def test_mac_lower_rejects_bad_order():
    with pytest.raises(ValueError):
        sic_rates(multiple_access((1.0, 2.0)), ("T1", "T1"))


def test_mac_sum_gap_values():
    gap = mac_sum_gap(MacSpec(gammas=(1.0, 2.0, 100.0)))
    assert abs(gap - 0.29) < 5e-3
    gap_equal = mac_sum_gap(MacSpec(gammas=(1.0, 1.0, 1.0)))
    assert abs(gap_equal - 0.5 * np.log2(10.0 / 4.0)) < 1e-12
    assert mac_sum_gap(MacSpec(gammas=(7.0,))) == 0.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_mac_sum_gap_below_half_log_m(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    spec = MacSpec(
        gammas=tuple(np.exp(rng.uniform(np.log(0.01), np.log(100.0), size=m)))
    )
    assert mac_sum_gap(spec) < 0.5 * np.log2(max(m, 2)) + 1e-12
    if m > 1:
        assert mac_sum_gap(spec) < 0.5 * np.log2(m)


def test_per_input_rate_bound_holds_on_samples():
    # I(X1,X2;Y|U) <= min{I(X2;V2), log|X2|, log|Y|} for systems where the
    # output is a function of an X1-only observation and an X2-only
    # observation. 500 random systems; the acceptance suite runs 10^4.
    rng = np.random.default_rng(2024)
    for _ in range(500):
        q = system_quantities(sample_system(rng))
        assert (
            q["conditional_mi"]
            <= min(q["mi_x2_v2"], q["log_x2"], q["log_y"]) + 1e-9
        )


def test_sum_rate_not_improvable_on_samples():
    # I(X1;U) + I(X1,X2;Y|U) >= I(X1,X2;Y) for the same structure.
    rng = np.random.default_rng(2025)
    for _ in range(500):
        q = system_quantities(sample_system(rng))
        assert q["mi_x1_u"] + q["conditional_mi"] >= q["mi_y"] - 1e-9


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_spec_rejects_snrs_not_positive_and_finite(bad):
    # A NaN SNR used to run the bisection to its cap; at alpha = 1 it gave a
    # NaN sum rate.
    with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
        MacSpec(gammas=(1.0, bad))


# The NumPy formulas that mac.py computed with before it moved to plain
# floats, kept as the reference of the float code.


def np_share_sum(gam, mu):
    return float(0.5 * np.sum(np.sqrt(gam * (gam + 4.0 * mu)) - gam))


def np_mu_bracket(gammas, alpha):
    gam = np.asarray(gammas, dtype=float)
    m = gam.size
    budget = 1.0 - alpha
    lo = budget / m + budget**2 / (m * float(gam.sum()))
    hi = budget / m + budget**2 / (m * m * float(gam.min()))
    return lo, hi


def np_solve_mu(gammas, alpha, tol=1e-10, max_iter=200):
    gam = np.asarray(gammas, dtype=float)
    budget = 1.0 - alpha
    lo, hi = np_mu_bracket(tuple(gam), alpha)
    if hi - lo <= 1e-15 * max(1.0, hi):
        mu = 0.5 * (lo + hi)
        assert abs(np_share_sum(gam, mu) - budget) < 1e-8, "bracket degenerated badly"
        return mu
    lo *= 1.0 - 1e-12
    hi *= 1.0 + 1e-12
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        residual = np_share_sum(gam, mid) - budget
        if abs(residual) < tol:
            return mid
        if residual < 0:
            lo = mid
        else:
            hi = mid
    raise AssertionError("bisection failed")


def np_optimal_noise_shares(gammas, alpha):
    gam = np.asarray(gammas, dtype=float)
    mu = np_solve_mu(tuple(gam), alpha)
    root = np.sqrt(gam * (gam + 4.0 * mu))
    shares = 0.5 * (root - gam)
    # The equal form where the difference cancels to 0.0, as mac.py takes it.
    shares = np.where(shares > 0.0, shares, 2.0 * gam * mu / (root + gam))
    shares *= (1.0 - alpha) / float(shares.sum())
    return tuple(float(a) for a in shares), float(mu)


def np_coherent_sum_snr(gammas):
    return float(np.sum(np.sqrt(gammas)) ** 2)


def np_mac_upper(gammas, alpha):
    """(sum rate, per-input rates, alpha, noise shares, mu) as mac_upper gives."""
    m = len(gammas)
    if alpha == 1.0:
        sum_rate = awgn_capacity(np_coherent_sum_snr(gammas))
        return sum_rate, (math.inf,) * m, 1.0, (0.0,) * m, 0.0
    shares, mu = np_optimal_noise_shares(gammas, alpha)
    individual = tuple(awgn_capacity(g / a) for g, a in zip(gammas, shares))
    if alpha == 0.0:
        sum_rate = math.inf
    else:
        sum_rate = awgn_capacity((np_coherent_sum_snr(gammas) + 1.0 - alpha) / alpha)
    return sum_rate, individual, float(alpha), shares, mu


def float_mac_upper(gammas, alpha):
    return tuple(upper(gammas, alpha))


def outcome(model, gammas, alpha):
    """The model's fields, or the type of the exception it raised."""
    try:
        return model(gammas, alpha)
    except (ArithmeticError, AssertionError, ValueError) as exc:
        return type(exc)


def flat(fields):
    return [x for field in fields for x in (field if isinstance(field, tuple) else (field,))]


@given(
    gammas=st.lists(
        st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
        min_size=1,
        max_size=12,
    ),
    alpha=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0)),
)
@example(gammas=[0.248, 4.495], alpha=1.0)  # where s * s != np.float64(s) ** 2
@settings(max_examples=400, deadline=None, derandomize=True)
def test_float_model_matches_numpy_formulas(gammas, alpha):
    # np.sum adds left to right below 8 terms, as mac.py does, so up to 7
    # inputs every bit agrees; from 8 terms np.sum adds pairwise.
    gammas = tuple(gammas)
    want = outcome(np_mac_upper, gammas, alpha)
    got = outcome(float_mac_upper, gammas, alpha)
    spec = MacSpec(gammas=gammas)
    coherent = spec.coherent_sum_snr
    # math.log2 and np.log2 may round the closed-form gap differently.
    np_gap = 0.5 * np.log2((1.0 + np_coherent_sum_snr(gammas)) / (1.0 + np.sum(gammas)))
    assert mac_sum_gap(spec) == pytest.approx(float(np_gap), rel=1e-14, abs=1e-15)
    if len(gammas) <= 7:
        assert got == want
        assert coherent == np_coherent_sum_snr(gammas)
        return
    assert coherent == pytest.approx(np_coherent_sum_snr(gammas), rel=1e-12, abs=0.0)
    if isinstance(want, type):
        assert got is want
        return
    for new, old in zip(flat(got), flat(want), strict=True):
        assert new == pytest.approx(old, rel=1e-12, abs=0.0)


# `mac_upper` as it was before it solved a sweep's pairs in one array
# bisection: one pair at a time, in plain floats (`ref_solve_mu` and its step
# `ref_share_sum`, summed left to right as `ref_sum` does). It is the
# reference of the array form, which must keep every bit of it.


def ref_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def ref_share_sum(gammas, mu):
    return 0.5 * ref_sum(math.sqrt(g * (g + 4.0 * mu)) - g for g in gammas)


def ref_equal_share(g, mu):
    return 2.0 * g * mu / (math.sqrt(g * (g + 4.0 * mu)) + g)


def ref_mu_bracket(gammas, alpha):
    m = len(gammas)
    budget = 1.0 - alpha
    lo = budget / m + budget**2 / (m * ref_sum(gammas))
    hi = budget / m + budget**2 / (m * m * min(gammas))
    return lo, hi


def ref_solve_mu(gammas, alpha, tol=1e-10, max_iter=200):
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    gam = tuple(float(g) for g in gammas)
    if len(gam) < 1:
        raise ValueError("a MAC needs at least one input")
    mac.check_snrs(gam)
    budget = 1.0 - alpha
    lo, hi = ref_mu_bracket(gam, alpha)
    if hi - lo <= 1e-15 * max(1.0, hi):
        mu = 0.5 * (lo + hi)
        residual = ref_sum(ref_equal_share(g, mu) for g in gam) - budget
        assert abs(residual) < 1e-8, "bracket degenerated badly"
        return mu
    lo *= 1.0 - 1e-12
    hi *= 1.0 + 1e-12
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        residual = ref_share_sum(gam, mid) - budget
        if abs(residual) < tol or mid in (lo, hi):
            return mid
        if residual < 0:
            lo = mid
        else:
            hi = mid
    raise AssertionError(
        f"bisection failed to reach residual {tol} within {max_iter} iterations"
    )


def ref_mac_upper(gammas, alpha):
    """(sum rate, per-input rates, alpha, noise shares, mu) of one pair."""
    m = len(gammas)
    coherent = ref_sum(math.sqrt(g) for g in gammas) ** 2
    if alpha == 1.0:
        return awgn_capacity(coherent), (math.inf,) * m, 1.0, (0.0,) * m, 0.0
    mu = ref_solve_mu(gammas, alpha)
    shares = [0.5 * (math.sqrt(g * (g + 4.0 * mu)) - g) for g in gammas]
    shares = [a if a > 0.0 else ref_equal_share(g, mu) for a, g in zip(shares, gammas)]
    scale = (1.0 - alpha) / ref_sum(shares)
    shares = tuple(a * scale for a in shares)
    individual = tuple(awgn_capacity(g / a) for g, a in zip(gammas, shares))
    if alpha == 0.0:
        sum_rate = math.inf
    else:
        sum_rate = awgn_capacity((coherent + 1.0 - alpha) / alpha)
    return sum_rate, individual, float(alpha), shares, float(mu)


def reference_grid():
    """(gammas, alpha) over m = 1..7 inputs: SNRs log-uniform over 1e-15 to
    1e15 (above about 64 dB the bisection stalls before its tolerance), all
    equal, and equal up to a few ulps; alpha at 0, at 1 - 1e-13 and drawn."""
    rng = np.random.default_rng(20261019)
    for m in range(1, 8):
        for _ in range(30):
            spread = tuple(10.0 ** rng.uniform(-15.0, 15.0, size=m))
            base = float(10.0 ** rng.uniform(-15.0, 15.0))
            near = tuple(base * (1.0 + k * 2.0**-52) for k in rng.integers(0, 4, size=m))
            for gammas in (spread, (base,) * m, near):
                for alpha in (0.0, 1.0 - 1e-13, *rng.uniform(0.0, 1.0, size=2)):
                    yield tuple(float(g) for g in gammas), float(alpha)


def test_share_sum_loop_keeps_every_bit_of_the_bisection(monkeypatch):
    # The whole grid, every input count mixed, plus rows at alpha = 1, in one
    # `mac_upper` call: every field of every row is the reference's, and at
    # every iterate each open row's share sum is the reference's step.
    share_sums, iterates = mac._share_sums, []

    def checked(gammas, mu):
        values = share_sums(gammas, mu)
        for column, value, at in zip(gammas.T.tolist(), values.tolist(), mu.tolist()):
            iterates.append(value == ref_share_sum(column, at))
        return values

    monkeypatch.setattr(mac, "_share_sums", checked)
    cases = list(reference_grid())
    cases += [(gammas, 1.0) for gammas, _alpha in cases[::4]]
    got = mac_upper([(MacSpec(gammas=gammas), alpha) for gammas, alpha in cases])
    assert {len(gammas) for gammas, _alpha in cases} == set(range(1, 8))
    assert [tuple(rates) for rates in got] == [ref_mac_upper(*case) for case in cases]
    assert len(iterates) > 10 * len(cases) and all(iterates)
    # Tied SNRs give a degenerate bracket, whose midpoint is mu; its shares
    # add to 1 - alpha at every SNR, where the cancelling form failed from
    # about 80 dB on.
    tied = [
        (gammas, alpha, rates)
        for (gammas, alpha), rates in zip(cases, got)
        if alpha < 1.0 and len(set(gammas)) == 1
    ]
    assert max(gammas[0] for gammas, _alpha, _rates in tied) > 1e8
    for gammas, alpha, rates in tied:
        assert rates.mu == 0.5 * sum(mu_bracket(gammas, alpha)), (gammas, alpha)
        assert sum(rates.shares) == pytest.approx(1.0 - alpha, rel=1e-12)
        assert all(math.isfinite(rate) for rate in rates.individual)


def test_tied_snrs_above_80_db_solve_at_the_bracket_midpoint():
    # Both bracket endpoints coincide; the residual check used to cancel here.
    rv = upper((1e9, 1e9), 0.1)
    assert rv.mu == 0.5 * sum(mu_bracket((1e9, 1e9), 0.1))
    assert rv.shares[0] == rv.shares[1] == pytest.approx(0.45, rel=1e-15)
    assert rv.individual[0] == rv.individual[1] and math.isfinite(rv.sum_rate)
