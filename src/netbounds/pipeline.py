"""The bounding pipeline: outer and inner rate bounds of a noisy network.

`bound` decouples the network, builds one upper structure (bit pipes) and one
lower structure (hyper-arcs), and rates every run of two sweeps on their arcs,
each validated first: the outer sweep over the multi-access noise split alpha,
rated as one `UpperStructure.rate_batch` and validated once, and the inner
sweep over every combination of broadcast power splits, rated as one
`LowerStructure.rate_batch` and validated once per decode-order group. Each
batch's rates are also checked as one array. Each demand's outer bound is
`flows.least_outer` of the outer sweep, the search the example networks' outer
searches run: every alpha is rated by its exact min cut (by its certified flow
where `min_cut` refuses a sink's interior as too large), and one flow is
certified, on the least. The inner bounds of all demands are one
`flows.best_inner` of the inner sweep, the search the multicast example runs
too: each demand's `flows.demand_cut` bounds its rate on every run without a
flow, and the runs are routed best first, by one exact `unicast_inner` max
flow each where the one demand is unicast and otherwise by one routing LP
each, each routed rate capped at its run's cut, while a run's cut could
still beat or tie some demand's best routed rate. A run's arcs are listed
only for a flow, and a label is formatted only for each winner.

Every run gives a valid bound, so per demand the sweep keeps the least outer
and the largest inner rate, with its run's label; of tied runs the earliest
in sweep order wins. A run left unrouted could neither beat nor tie, so each
inner (rate, label) is the one that routing every run, with the same cap,
would give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .assemble import LowerStructure, UpperStructure
from .bc import simplex_grid
from .decouple import DecoupledComponent, decompose
from .flows import best_inner, least_outer
from .netmodel import Demand, NoisyNetwork, validate_bounding_network

__all__ = ["BoundReport", "bound"]

_MAX_BETA_COMBOS = 4096


@dataclass(frozen=True)
class BoundReport:
    """Per demand, the outer and inner (rate, run label); the components
    both sweeps rated; and the number of runs of each sweep."""

    components: tuple[DecoupledComponent, ...]
    outer: dict[Demand, tuple[float, str]]
    inner: dict[Demand, tuple[float, str]]
    outer_runs: int
    inner_runs: int

    def sandwich_violations(self, tol: float = 1e-9) -> list[str]:
        """Demands whose inner bound exceeds the outer bound beyond tol,
        ordered by source and sinks."""
        violations = []
        for demand in sorted(self.outer, key=lambda d: (d.source, sorted(d.sinks))):
            outer, inner = self.outer[demand][0], self.inner[demand][0]
            if inner > outer + tol:
                violations.append(
                    f"demand {demand.source}->{sorted(demand.sinks)}: "
                    f"inner {inner} exceeds outer {outer}"
                )
        return violations


def _beta_steps(step: float) -> int:
    if not 0 < step <= 1:
        raise ValueError(f"beta step must lie in (0, 1], got {step:g}")
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-9:
        raise ValueError(f"beta step must divide 1 evenly, got {step:g}")
    return count


def _require_valid(node_ids, arcs, role: str) -> None:
    problems = validate_bounding_network(node_ids, arcs, role)
    if problems:
        raise RuntimeError(f"{role} network failed validation: " + "; ".join(problems))


def _failed_row(rates) -> list[int]:
    """The first row of a batch's rates that holds a rate below 0 or NaN,
    if one does; inf passes."""
    return np.flatnonzero(~(rates >= 0.0).all(axis=1))[:1].tolist()


def bound(net: NoisyNetwork, alphas, beta_step: float) -> BoundReport:
    """Outer and inner rate bounds of every demand of ``net``.

    ``alphas`` are the outer sweep's noise splits, each in [0, 1];
    ``beta_step`` is the step of every broadcast side's power-split grid.
    Raises ValueError on a bad sweep, including a beta sweep of more than
    _MAX_BETA_COMBOS combinations (refused before any grid is built), and
    RuntimeError when a run's arcs fail validation or an LP is not solved.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("alpha sweep is empty")
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0 + 1e-12:
            raise ValueError(f"alpha sweep value {alpha:g} lies outside [0, 1]")
    steps = _beta_steps(beta_step)
    components = tuple(decompose(net))
    bc_comps = [comp for comp in components if comp.kind == "bc"]
    # A grid of k-way splits has comb(steps + k - 1, k - 1) points.
    total = math.prod(
        math.comb(steps + len(comp.links) - 1, len(comp.links) - 1) for comp in bc_comps
    )
    if total > _MAX_BETA_COMBOS:
        raise ValueError(
            f"beta sweep would evaluate {total} share combinations "
            f"(cap {_MAX_BETA_COMBOS}); coarsen --beta-step"
        )
    grids = [list(simplex_grid(len(comp.links), steps)) for comp in bc_comps]
    demands = tuple(net.demands)

    outer: dict[Demand, tuple[float, str]] = {}
    upper = UpperStructure(components)
    sweep = upper.rate_batch([min(alpha, 1.0) for alpha in alphas])
    # Every slot and label at the first alpha, and every rate (NaN fails, inf
    # passes), with the validator's message at the first alpha that fails.
    for row in [0, *_failed_row(sweep.rates)]:
        _require_valid(upper.node_ids, sweep.arcs(row), "upper")
    for demand in demands:
        rate, (_sweep, row) = least_outer(upper.node_ids, [sweep], demand)
        outer[demand] = (rate, f"upper alpha={alphas[row]:g}")

    lower = LowerStructure(components)
    combos = list(itertools.product(*grids))
    batch = lower.rate_batch({comp.key: rows for comp, rows in zip(bc_comps, zip(*combos))})
    # Every slot and label, at one run per decode-order group, and every rate
    # (NaN fails too), with the validator's message at the first run that fails.
    for row in [*np.unique(batch.group, return_index=True)[1], *_failed_row(batch.rates)]:
        _require_valid(lower.node_ids, batch.slot_arcs(row), "lower")

    inner: dict[Demand, tuple[float, str]] = {}
    for demand, (rate, row) in zip(demands, best_inner(lower.node_ids, batch, demands)):
        label = " ".join(
            f"{comp.key[1]}=" + "/".join(f"{beta:g}" for beta in betas)
            for comp, betas in zip(bc_comps, combos[row])
        )
        inner[demand] = (rate, f"lower {label or 'default'}")
    return BoundReport(components, outer, inner, len(alphas), len(combos))
