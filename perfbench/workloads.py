"""The benchmark's four workloads: their inputs, one timed call per point, and checks.

A point is one sweep value (relay, multicast) or one generated network
(bounds, partition). Every workload is a closed loop: the next point is issued
only after the previous one returned.

Inputs of `bounds` and `partition` are networks drawn once from a fixed
generator seed, POOL_SEED, and their results at the recorded commit are stored
under `golden/`, so every output of every run is checked. A pass issues every
point of its workload; the run's seed fixes the order. Runs with different
seeds therefore do the same work, and their spread is the machine's. To
confirm a claim on other networks, change POOL_SEED and record golden/ again
at the parent commit.

Every call into `netbounds` goes through a module attribute looked up at call
time, so the tracer in `layertrace.py` sees it when it is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from netbounds import cli, decouple, netmodel

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

BOUND_TOL = 1e-9  # bound values; a different optimal LP vertex may move them this much
SHARE_TOL = 1e-6  # noise shares
RESIDUAL_TOL = 1e-8  # stationarity spread of the partition
SANDWICH_TOL = 1e-9  # inner <= outer + tol

# Seed of the pool generator. Changing it invalidates golden/.
POOL_SEED = 1401_4189
SNR_DB_RANGE = (-10.0, 30.0)

# relay_experiment at the acceptance-test size.
RELAY_GAMMA_SD_DB = 0.0
RELAY_GAMMA_RD_DB = 10.0
RELAY_GAMMA_SR_DB = tuple(float(g) for g in range(-10, 31))

# multicast_experiment with 10 receivers, every 6 dB of the -5..25 dB sweep, so
# that a run holds several passes.
MULTICAST_RECEIVERS = 10
MULTICAST_P_DB = tuple(float(p) for p in range(-5, 26, 6))
MULTICAST_DELTA_RATIO_DB = -3.0
MULTICAST_Q = 8
MULTICAST_XI = 0.1

# `bounds` network classes: (transmitters, receivers, demand kind). Three
# transmitters get two receivers: a 3x3 file takes about 9 s at beta step 0.25.
BOUNDS_CLASSES = (
    (2, 3, "unicast"),
    (2, 3, "multicast"),
    (3, 2, "unicast"),
    (3, 2, "multicast"),
)
BOUNDS_PER_CLASS = 2
BOUNDS_ARGS = ("--beta-step", "0.25")

# `partition` group shapes: 2-4 transmitters fully connected to 2-10 receivers.
PARTITION_SHAPES = tuple((t, r) for t in (2, 3, 4) for r in range(2, 11))
PARTITION_PER_SHAPE = 2


@dataclass(frozen=True)
class Point:
    key: str  # names the golden entry
    payload: object  # what the timed call receives


def network_json(rng: random.Random, transmitters: int, receivers: int, kind: str) -> str:
    """A fully connected AWGN network, SNRs uniform in SNR_DB_RANGE (dB)."""
    tx = [f"S{i + 1}" for i in range(transmitters)]
    rx = [f"D{j + 1}" for j in range(receivers)]
    links = [
        {"from": s, "to": d, "kind": "awgn", "snr_db": round(rng.uniform(*SNR_DB_RANGE), 6)}
        for s in tx
        for d in rx
    ]
    if kind == "unicast":
        demands = [
            {"kind": "unicast", "source": s, "sinks": [rx[i % receivers]]}
            for i, s in enumerate(tx)
        ]
    else:
        demands = [{"kind": "multicast", "source": s, "sinks": rx} for s in tx]
    return json.dumps({"nodes": tx + rx, "links": links, "demands": demands}, indent=1)


def _pool(shapes, per_shape: int) -> list[tuple[str, str]]:
    """[(key, json text), ...] drawn in a fixed order from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    pool = []
    for shape in shapes:
        name = "x".join(str(part) for part in shape)
        transmitters, receivers = shape[:2]
        kind = shape[2] if len(shape) > 2 else "unicast"
        pool.extend(
            (f"{name}-{k}", network_json(rng, transmitters, receivers, kind))
            for k in range(per_shape)
        )
    return pool


def make_points(workload: str, seed: int, workdir: Path) -> list[Point]:
    """The points of one pass, in the order the seed gives them.

    `bounds` writes its networks as JSON files under `workdir`; the program
    reads them like any user file.
    """
    if workload == "relay":
        points = [Point(f"{g:g}", g) for g in RELAY_GAMMA_SR_DB]
    elif workload == "multicast":
        points = [Point(f"{p:g}", p) for p in MULTICAST_P_DB]
    elif workload == "bounds":
        points = []
        for key, text in _pool(BOUNDS_CLASSES, BOUNDS_PER_CLASS):
            path = workdir / f"{key}.json"
            path.write_text(text, encoding="utf-8")
            points.append(Point(key, str(path)))
    elif workload == "partition":
        points = [Point(key, text) for key, text in _pool(PARTITION_SHAPES, PARTITION_PER_SHAPE)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(points)
    return points


# ---------------------------------------------------------------------------
# the timed call of one point


def run_point(workload: str, payload):
    if workload == "relay":
        return cli.relay_experiment(RELAY_GAMMA_SD_DB, RELAY_GAMMA_RD_DB, (payload,))[0]
    if workload == "multicast":
        return cli.multicast_experiment(
            MULTICAST_RECEIVERS,
            (payload,),
            MULTICAST_DELTA_RATIO_DB,
            MULTICAST_Q,
            MULTICAST_XI,
        )[0]
    if workload == "bounds":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["bounds", payload, *BOUNDS_ARGS])
        return code, out.getvalue(), err.getvalue()
    if workload == "partition":
        return decouple.decompose(netmodel.parse_network(payload))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# untimed: reduce an output to comparable values, and check it


def summarize(workload: str, output) -> dict:
    """Plain JSON-ready values of one point's output; compared with golden/."""
    if workload in ("relay", "multicast"):
        return {name: float(value) for name, value in output.items()}
    if workload == "bounds":
        code, stdout, stderr = output
        return {"exit": code, "demands": _parse_bounds(stdout), "stderr": stderr}
    shares = {}
    for comp in output:
        for link, share in comp.alpha_shares.items():
            shares[f"{link.src}>{link.dst}"] = float(share)
    return {"shares": dict(sorted(shares.items()))}


def _parse_bounds(stdout: str) -> list[list]:
    """[[demand line, outer, inner], ...] from `netbounds bounds` output."""
    demands = []
    for line in stdout.splitlines():
        if line.startswith("demand "):
            demands.append([line[len("demand "):], None, None])
        elif demands and line.startswith(("  outer ", "  inner ")):
            column = 1 if line.startswith("  outer ") else 2
            demands[-1][column] = float(line.split()[1])
    return demands


def gap_bits(workload: str, summary: dict) -> list[float]:
    """Outer minus inner bound of each demand of a point (empty for partition)."""
    if workload == "relay":
        return [summary["eq_upper"] - summary["eq_lower"]]
    if workload == "multicast":
        return [summary["eq_upper_sum"] - summary["eq_lower_sum"]]
    if workload == "bounds":
        return [outer - inner for _, outer, inner in summary["demands"]]
    return []


def check(workload: str, summary: dict, golden: dict, payload) -> str | None:
    """None when the point's output is correct, else the first problem found."""
    if workload in ("relay", "multicast"):
        if set(summary) != set(golden):
            return f"fields {sorted(summary)} differ from golden {sorted(golden)}"
        for name, want in golden.items():
            if not abs(summary[name] - want) <= BOUND_TOL:
                return f"{name} = {summary[name]!r}, golden {want!r}"
        outer, inner = ("eq_upper", "eq_lower") if workload == "relay" else (
            "eq_upper_sum",
            "eq_lower_sum",
        )
        if not summary[inner] <= summary[outer] + SANDWICH_TOL:
            return f"inner {summary[inner]!r} exceeds outer {summary[outer]!r}"
        return None
    if workload == "bounds":
        if summary["exit"] != 0:
            return f"exit code {summary['exit']}: {summary['stderr'].strip()[:200]}"
        got, want = summary["demands"], golden["demands"]
        if [d[0] for d in got] != [d[0] for d in want]:
            return f"demands {[d[0] for d in got]} differ from golden"
        for (demand, outer, inner), (_, g_outer, g_inner) in zip(got, want):
            if outer is None or inner is None:
                return f"{demand}: bound missing from output"
            # printed with 9 decimals, so a last-digit flip is within tolerance
            for label, value, ref in (("outer", outer, g_outer), ("inner", inner, g_inner)):
                if not abs(value - ref) <= BOUND_TOL + 1e-12:
                    return f"{demand}: {label} {value!r}, golden {ref!r}"
            if not inner <= outer + SANDWICH_TOL:
                return f"{demand}: inner {inner!r} exceeds outer {outer!r}"
        return None
    shares, want = summary["shares"], golden["shares"]
    if set(shares) != set(want):
        return f"shared links {sorted(shares)} differ from golden {sorted(want)}"
    for link, value in want.items():
        if not abs(shares[link] - value) <= SHARE_TOL:
            return f"share {link} = {shares[link]!r}, golden {value!r}"
    residual = partition_residual(payload, shares)
    if not residual <= RESIDUAL_TOL:
        return f"partition residual {residual:.3e} above {RESIDUAL_TOL:g}"
    return None


def partition_residual(text: str, shares: dict[str, float]) -> float:
    """Stationarity spread of the returned noise shares, computed from scratch.

    At the optimum of the noise-partition program, gamma/alpha^2/mu is equal
    across the inputs of each receiver, with mu_i = 1 + sum_j gamma_ij/alpha_ij.
    Returns the largest relative spread over receivers, or inf when the shares
    of a receiver do not sum to 1.
    """
    doc = json.loads(text)
    gamma = {
        (link["from"], link["to"]): 10.0 ** (link["snr_db"] / 10.0) for link in doc["links"]
    }
    alpha = {tuple(key.split(">")): value for key, value in shares.items()}
    if set(alpha) != set(gamma):
        return math.inf
    mu = {}
    for (src, dst), value in alpha.items():
        mu[src] = mu.get(src, 1.0) + gamma[(src, dst)] / value
    worst = 0.0
    for dst in {dst for _, dst in alpha}:
        column = [(src, value) for (src, d), value in alpha.items() if d == dst]
        if abs(sum(value for _, value in column) - 1.0) > 1e-9:
            return math.inf
        ratios = [gamma[(src, dst)] / value**2 / mu[src] for src, value in column]
        worst = max(worst, (max(ratios) - min(ratios)) / max(ratios))
    return worst


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["points"]
