"""The bounding pipeline: outer and inner rate bounds of a noisy network.

`bound` decouples the network, builds one upper structure (bit pipes) and one
lower structure (hyper-arcs), and rates every run of two sweeps on their arcs,
each validated first: the outer sweep over the multi-access noise split alpha
(`max_flow` per unicast demand, `multicast_outer` per multicast one), and the
inner sweep over every combination of broadcast power splits, routed as one
`hyper_inner_batch`. A network whose one demand is unicast takes an exact
`unicast_inner` max flow per inner run instead, with its min-cut certificate.

Every run gives a valid bound, so per demand the sweep keeps the least outer
and the largest inner rate as it goes, with its run's label; only a strict
improvement replaces the incumbent, so the earliest run wins ties.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .assemble import LowerStructure, UpperStructure
from .bc import simplex_grid
from .decouple import DecoupledComponent, decompose
from .flows import hyper_inner_batch, max_flow, multicast_outer, unicast_inner
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


def _keep(best, rates, label: str, better) -> None:
    for demand, rate in rates.items():
        if demand not in best or better(rate, best[demand][0]):
            best[demand] = (rate, label)


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
    for alpha in alphas:
        arcs = upper.arcs(min(alpha, 1.0))
        _require_valid(upper.node_ids, arcs, "upper")
        rates = {}
        for demand in demands:
            flow = max_flow if demand.kind == "unicast" else multicast_outer
            rates[demand] = flow(upper.node_ids, arcs, demand).rate
        _keep(outer, rates, f"upper alpha={alpha:g}", operator.lt)

    # The batch reads (so rates and validates) every run's arcs before it
    # solves any.
    lower = LowerStructure(components)
    combos = list(itertools.product(*grids))

    def lower_arcs():
        for combo in combos:
            arcs = lower.arcs({comp.key: betas for comp, betas in zip(bc_comps, combo)})
            _require_valid(lower.node_ids, arcs, "lower")
            yield arcs

    if len(demands) == 1 and demands[0].kind == "unicast":
        runs = (
            {demands[0]: unicast_inner(lower.node_ids, arcs, demands[0]).rate}
            for arcs in lower_arcs()
        )
    else:
        runs = (
            {result.demand: result.rate for result in results}
            for results in hyper_inner_batch(lower.node_ids, lower_arcs(), demands, "maxmin")
        )
    inner: dict[Demand, tuple[float, str]] = {}
    for combo, rates in zip(combos, runs):
        label = " ".join(
            f"{comp.key[1]}=" + "/".join(f"{beta:g}" for beta in betas)
            for comp, betas in zip(bc_comps, combo)
        )
        _keep(inner, rates, f"lower {label or 'default'}", operator.gt)
    return BoundReport(components, outer, inner, len(alphas), len(combos))
