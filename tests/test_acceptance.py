"""End-to-end acceptance checks, one numbered criterion per test.

Every test prints a single `criterion N: PASS` or `criterion N: FAIL (...)`
line before asserting, so `pytest -s tests/test_acceptance.py` reads as a
checklist. Criteria that the shipped lower-bound construction cannot reach
are asserted at face value instead of being loosened, so a FAIL line marks a
real shortfall of the construction rather than a broken test run.

The three experiment sweeps are shared by several criteria and run once per
session through module-scoped fixtures that also record wall-clock runtime.
"""

import math
import time

import numpy as np
import pytest

from netbounds.bc import BcSpec, bc_sum_gap
from netbounds.cli import main
from netbounds.decouple import (
    gauss_noise_partition,
    partition_objective,
    relay_noise_share,
)
from netbounds.experiments import layered_experiment, multicast_experiment, relay_experiment
from netbounds.flows import hyper_inner, max_flow, validate_hyper_result
from netbounds.info import awgn_capacity
from netbounds.mac import MacSpec, mac_sum_gap, mac_upper, mu_bracket
from netbounds.netmodel import Demand
from util_mi import sample_system, system_quantities


def _finish(label, failures):
    """Print the one-line verdict for a criterion, then assert it."""
    if failures:
        print(f"criterion {label}: FAIL ({'; '.join(failures)})")
    else:
        print(f"criterion {label}: PASS")
    assert not failures, f"criterion {label}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def relay_sweep():
    start = time.perf_counter()
    rows = relay_experiment(0.0, 10.0, [float(db) for db in range(-10, 31)])
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def layered_sweep():
    start = time.perf_counter()
    results = [
        layered_experiment(num_pairs, gamma)
        for num_pairs in range(2, 7)
        for gamma in (0.25, 1.0, 1.5, 10.0)
    ]
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def multicast_sweep():
    start = time.perf_counter()
    rows = multicast_experiment(10, [float(p) for p in range(-5, 26)], -3.0, 8, 0.1)
    return rows, time.perf_counter() - start


def test_criterion_01_closed_form_gap_examples():
    mac_spec = MacSpec(gammas=(1.0, 2.0, 100.0))
    bc_spec = BcSpec(gammas=(1.0, 2.0, 100.0))
    mac_sum_gap(mac_spec)
    bc_sum_gap(bc_spec)
    start = time.perf_counter()
    mac_gap = mac_sum_gap(mac_spec)
    bc_gap = bc_sum_gap(bc_spec)
    elapsed = time.perf_counter() - start
    failures = []
    if abs(mac_gap - 0.29) > 0.01:
        failures.append(f"MAC sum gap {mac_gap:.4f} outside 0.29 +- 0.01")
    if abs(bc_gap - 0.02) > 0.005:
        failures.append(f"BC sum gap {bc_gap:.4f} outside 0.02 +- 0.005")
    if elapsed >= 1e-3:
        failures.append(f"runtime {elapsed * 1e3:.3f} ms, budget 1 ms")
    _finish("1", failures)


def test_criterion_02_gap_bounds_on_random_specs():
    rng = np.random.default_rng(20250824)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        gammas = tuple(10.0 ** rng.uniform(-2.0, 2.0, size=m))
        bound = 0.5 * math.log2(m) + 1e-9
        if mac_sum_gap(MacSpec(gammas=gammas)) >= bound:
            violations += 1
        if bc_sum_gap(BcSpec(gammas=gammas)) >= bound:
            violations += 1
    elapsed = time.perf_counter() - start
    failures = []
    if violations:
        failures.append(f"{violations} gaps at or above 0.5*log2(m)")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s, budget 1 s")
    _finish("2", failures)


def test_criterion_03_mu_bracket_and_sum_rate_floor():
    rng = np.random.default_rng(20250825)
    start = time.perf_counter()
    bracket_bad = floor_bad = endpoint_bad = 0
    pairs = []
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        spec = MacSpec(gammas=tuple(10.0 ** rng.uniform(-2.0, 2.0, size=m)))
        pairs += [(spec, float(rng.uniform(0.0, 1.0))), (spec, 1.0)]
    # One call rates every pair; each pair's rates do not depend on the others.
    results = mac_upper(pairs)
    for (spec, alpha), rates, rates_one in zip(pairs[::2], results[::2], results[1::2]):
        lo, hi = mu_bracket(spec.gammas, alpha)
        if not lo - 1e-9 <= rates.mu <= hi + 1e-9:
            bracket_bad += 1
        floor = awgn_capacity(spec.coherent_sum_snr)
        if min(rates.sum_rate, sum(rates.individual)) < floor - 1e-9:
            floor_bad += 1
        if abs(min(rates_one.sum_rate, sum(rates_one.individual)) - floor) > 1e-9:
            endpoint_bad += 1
    elapsed = time.perf_counter() - start
    failures = []
    if bracket_bad:
        failures.append(f"{bracket_bad} solved mu values outside their bracket")
    if floor_bad:
        failures.append(f"{floor_bad} sum-constraint minima below the basic model")
    if endpoint_bad:
        failures.append(f"{endpoint_bad} alpha=1 endpoints missing equality")
    if elapsed >= 2.0:
        failures.append(f"runtime {elapsed:.2f} s, budget 2 s")
    _finish("3", failures)


def test_criterion_04_degraded_observation_inequalities():
    rng = np.random.default_rng(20250826)
    start = time.perf_counter()
    cap_bad = chain_bad = 0
    for _ in range(10_000):
        quantities = system_quantities(sample_system(rng))
        cap = min(
            quantities["mi_x2_v2"], quantities["log_x2"], quantities["log_y"]
        )
        if quantities["conditional_mi"] > cap + 1e-9:
            cap_bad += 1
        low = quantities["mi_x1_u"] + quantities["conditional_mi"]
        if low < quantities["mi_y"] - 1e-9:
            chain_bad += 1
    elapsed = time.perf_counter() - start
    failures = []
    if cap_bad:
        failures.append(f"{cap_bad} conditional rates above the side-observation cap")
    if chain_bad:
        failures.append(f"{chain_bad} chained rates below the joint rate")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s, budget 30 s")
    _finish("4", failures)


def test_criterion_05_partition_matches_grid_oracle():
    rng = np.random.default_rng(20250827)
    start = time.perf_counter()
    shares = np.arange(1e-3, 1.0, 1e-3)
    grid_a, grid_b = np.meshgrid(shares, shares, indexing="ij")
    objective_bad = residual_bad = column_bad = 0
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(-2.0, 2.0, size=(2, 2))
        partition = gauss_noise_partition(gamma)
        if partition.residual > 1e-8:
            residual_bad += 1
        if np.max(np.abs(partition.alphas.sum(axis=0) - 1.0)) > 1e-9:
            column_bad += 1
        oracle = float(
            np.min(
                0.5 * np.log2(1.0 + gamma[0, 0] / grid_a + gamma[0, 1] / grid_b)
                + 0.5
                * np.log2(
                    1.0 + gamma[1, 0] / (1.0 - grid_a) + gamma[1, 1] / (1.0 - grid_b)
                )
            )
        )
        if partition_objective(gamma, partition.alphas) > oracle + 1e-5:
            objective_bad += 1
    elapsed = time.perf_counter() - start
    failures = []
    if objective_bad:
        failures.append(f"{objective_bad} objectives above the grid search")
    if residual_bad:
        failures.append(f"{residual_bad} residuals above 1e-8")
    if column_bad:
        failures.append(f"{column_bad} column sums off unity beyond 1e-9")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s, budget 30 s")
    _finish("5", failures)


def test_criterion_06_relay_share_closed_form_vs_solver():
    axis = np.linspace(-10.0, 20.0, 10)
    start = time.perf_counter()
    worst = 0.0
    for sd_db in axis:
        for sr_db in axis:
            for rd_db in axis:
                sd, sr, rd = (10.0 ** (x / 10.0) for x in (sd_db, sr_db, rd_db))
                partition = gauss_noise_partition(np.array([[sd, sr], [rd, 0.0]]))
                closed = relay_noise_share(sd, sr, rd)
                worst = max(worst, abs(partition.alphas[0, 0] - closed))
    elapsed = time.perf_counter() - start
    failures = []
    if worst > 1e-6:
        failures.append(f"worst closed-form deviation {worst:.3e} above 1e-6")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s, budget 5 s")
    _finish("6", failures)


def test_criterion_07a_relay_lower_exact_half_without_relay_gain(relay_sweep):
    rows, elapsed = relay_sweep
    failures = []
    for row in rows:
        if row["gamma_sr_db"] <= 0.0 and row["eq_lower"] != 0.5:
            failures.append(
                f"eq_lower {row['eq_lower']!r} at {row['gamma_sr_db']:g} dB "
                "is not exactly 0.5"
            )
    if elapsed >= 5.0:
        failures.append(f"sweep runtime {elapsed:.2f} s, budget 5 s")
    _finish("7a", failures)


def test_criterion_07b_relay_lower_tracks_compress_forward(relay_sweep):
    rows, _ = relay_sweep
    failures = []
    worst = max(row["cf"] - row["eq_lower"] for row in rows)
    behind = sum(1 for row in rows if row["eq_lower"] < row["cf"] - 0.02)
    if behind:
        failures.append(
            f"{behind} of {len(rows)} sweep points more than 0.02 below the "
            f"compress-forward benchmark, worst deficit {worst:.4f}"
        )
    _finish("7b", failures)


def test_criterion_07c_relay_lower_near_decode_forward_at_peak(relay_sweep):
    rows, _ = relay_sweep
    peak = next(row for row in rows if row["gamma_sr_db"] == 30.0)
    failures = []
    loss = peak["df"] - peak["eq_lower"]
    if loss > 0.35:
        failures.append(
            f"loss {loss:.4f} against decode-forward at 30 dB exceeds 0.35"
        )
    _finish("7c", failures)


def test_criterion_07d_relay_upper_brackets_cut_set(relay_sweep):
    rows, _ = relay_sweep
    failures = []
    for row in rows:
        slack = row["eq_upper"] - row["cutset"]
        if not -0.02 <= slack <= 0.5:
            failures.append(
                f"eq_upper - cutset {slack:.4f} at {row['gamma_sr_db']:g} dB "
                "outside [-0.02, 0.5]"
            )
            break
    peak = next(row for row in rows if row["gamma_sr_db"] == 30.0)
    if peak["eq_upper"] - peak["cutset"] > 0.05:
        failures.append(
            f"eq_upper - cutset {peak['eq_upper'] - peak['cutset']:.4f} at 30 dB "
            "exceeds 0.05"
        )
    _finish("7d", failures)


def test_criterion_08_line_network_closed_forms(layered_sweep):
    results, elapsed = layered_sweep
    boundary = (1.0 + math.sqrt(5.0)) / 2.0
    failures = []
    for result in results:
        pairs = result["num_pairs"]
        gamma = result["gamma"]
        tag = f"n={pairs} gamma={gamma:g}"
        outer_closed = awgn_capacity(gamma) / pairs
        inner_closed = min(outer_closed, awgn_capacity(2.0 * gamma) / (pairs + 1))
        worst_outer = max(
            abs(row["outer_sym_flow"] - outer_closed) for row in result["rows"]
        )
        if worst_outer > 1e-6:
            failures.append(f"{tag}: outer flow off by {worst_outer:.2e}")
        if abs(result["inner_sym_flow"] - inner_closed) > 1e-6:
            failures.append(
                f"{tag}: inner flow {result['inner_sym_flow']:.8f} differs from "
                f"closed form {inner_closed:.8f}"
            )
        expected = (
            "capacity"
            if outer_closed <= awgn_capacity(2.0 * gamma) / (pairs + 1) + 1e-12
            else "mac_sum"
        )
        if result["regime"] != expected:
            failures.append(f"{tag}: regime {result['regime']}, expected {expected}")
        if gamma < boundary and result["regime"] != "capacity":
            failures.append(f"{tag}: regime flipped below the boundary {boundary:.6f}")
    if elapsed >= 10.0:
        failures.append(f"sweep runtime {elapsed:.2f} s, budget 10 s")
    _finish("8", failures)


def test_criterion_09a_multicast_sandwich_and_runtime(multicast_sweep):
    rows, elapsed = multicast_sweep
    failures = []
    for row in rows:
        if row["eq_lower_sum"] > row["eq_upper_sum"] + 1e-9:
            failures.append(
                f"inner {row['eq_lower_sum']:.6f} above outer "
                f"{row['eq_upper_sum']:.6f} at P={row['p_db']:g} dB"
            )
    if elapsed >= 60.0:
        failures.append(f"sweep runtime {elapsed:.2f} s, budget 60 s")
    _finish("9a", failures)


def test_criterion_09b_multicast_upper_near_coherent_at_low_power(multicast_sweep):
    rows, _ = multicast_sweep
    failures = []
    worst = max(
        row["eq_upper_sum"] - row["coop"] for row in rows if row["p_db"] <= 5.0
    )
    if worst > 0.1:
        failures.append(
            f"outer exceeds the coherent benchmark by {worst:.4f} at low power"
        )
    _finish("9b", failures)


def test_criterion_09c_multicast_lower_within_half_bit_of_coherent(multicast_sweep):
    rows, _ = multicast_sweep
    failures = []
    worst_row = max(rows, key=lambda row: row["coop"] - row["eq_lower_sum"])
    worst = worst_row["coop"] - worst_row["eq_lower_sum"]
    behind = sum(1 for row in rows if row["coop"] - row["eq_lower_sum"] > 0.45)
    if behind:
        failures.append(
            f"{behind} of {len(rows)} power points more than 0.45 below the "
            f"coherent benchmark, worst {worst:.4f} at "
            f"P={worst_row['p_db']:g} dB"
        )
    _finish("9c", failures)


def test_criterion_09d_multicast_lower_beats_noncoherent_at_peak(multicast_sweep):
    rows, _ = multicast_sweep
    peak = next(row for row in rows if row["p_db"] == 25.0)
    failures = []
    if peak["eq_lower_sum"] < peak["mac"] - 1e-9:
        failures.append(
            f"inner sum {peak['eq_lower_sum']:.4f} below the non-coherent "
            f"benchmark {peak['mac']:.4f} at 25 dB"
        )
    _finish("9d", failures)


def test_criterion_09e_collaboration_link_capacity_and_note(multicast_sweep, tmp_path):
    rows, _ = multicast_sweep
    failures = []
    if abs(rows[0]["c12"] - 2.2503) > 1e-4:
        failures.append(f"collaboration capacity {rows[0]['c12']:.6f} not 2.2503")
    out = tmp_path / "multicast.csv"
    code = main(
        [
            "repro",
            "multicast",
            "--receivers",
            "2",
            "--p-db",
            "0:0:1",
            "--out",
            str(out),
        ]
    )
    if code != 0:
        failures.append(f"repro multicast exited {code}")
    else:
        header = [
            line for line in out.read_text().splitlines() if line.startswith("#")
        ]
        note = [line for line in header if "note:" in line]
        if not note or "2.250269" not in note[0]:
            failures.append("capacity note missing from the default repro header")
    _finish("9e", failures)


def test_criterion_10_flow_certificates():
    rng = np.random.default_rng(20250828)
    start = time.perf_counter()
    failures = []
    for trial in range(40):
        size = int(rng.integers(4, 13))
        names = [f"v{k}" for k in range(size)]
        capacity = {}
        pipes = []
        for u in range(size):
            for v in range(size):
                if u != v and rng.random() < 0.35:
                    rate = float(rng.integers(1, 10))
                    pipes.append((names[u], (names[v],), rate, ""))
                    capacity[(u, v)] = capacity.get((u, v), 0.0) + rate
        demand = Demand(
            kind="unicast", source=names[0], sinks=frozenset({names[-1]})
        )
        flow = max_flow(names, pipes, demand).rate
        edges = list(capacity.items())
        best = math.inf
        for mask in range(2 ** (size - 2)):
            members = {0}
            for k in range(size - 2):
                if mask >> k & 1:
                    members.add(k + 1)
            cut = sum(
                rate
                for (u, v), rate in edges
                if u in members and v not in members
            )
            best = min(best, cut)
        if flow != best:
            failures.append(
                f"trial {trial}: max flow {flow} differs from min cut {best}"
            )
            break
    for trial in range(12):
        size = int(rng.integers(5, 9))
        names = [f"h{k}" for k in range(size)]
        pipes = []
        for u in range(size):
            for v in range(size):
                if u != v and rng.random() < 0.4:
                    rate = float(rng.uniform(0.5, 4.5))
                    pipes.append((names[u], (names[v],), rate, ""))
        for _ in range(2):
            tail = int(rng.integers(0, size - 2))
            heads = tuple(names[h] for h in rng.choice(
                np.arange(tail + 1, size), size=2, replace=False
            ))
            pipes.append((names[tail], heads, float(rng.uniform(1, 3)), ""))
        demands = (
            Demand(
                kind="multicast",
                source=names[0],
                sinks=frozenset({names[-2], names[-1]}),
            ),
            Demand(kind="unicast", source=names[1], sinks=frozenset({names[-1]})),
        )
        results = hyper_inner(names, pipes, demands, objective="maxmin")
        try:
            validate_hyper_result(names, pipes, demands, results, tol=1e-9)
        except AssertionError as exc:
            failures.append(f"hyper witness trial {trial}: {exc}")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s, budget 30 s")
    _finish("10", failures)


def test_criterion_11_sandwich_across_experiments(
    relay_sweep, layered_sweep, multicast_sweep
):
    failures = []
    for row in relay_sweep[0]:
        if row["eq_lower"] > row["eq_upper"] + 1e-9:
            failures.append(f"relay inner above outer at {row['gamma_sr_db']:g} dB")
    for result in layered_sweep[0]:
        for row in result["rows"]:
            if result["inner_sym_flow"] > row["outer_sym_flow"] + 1e-9:
                failures.append(
                    f"line inner above outer at n={result['num_pairs']} "
                    f"gamma={result['gamma']:g} alpha={row['alpha']:g}"
                )
    for row in multicast_sweep[0]:
        if row["eq_lower_sum"] > row["eq_upper_sum"] + 1e-9:
            failures.append(f"multicast inner above outer at P={row['p_db']:g} dB")
    _finish("11", failures)
