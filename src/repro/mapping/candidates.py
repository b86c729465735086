"""Candidate enumeration: every place one composite could run, costed.

For each dispatchable composite the engine considers all rule-accepted
accelerators *plus the CPU fallback*, and prices each candidate with
the same models the simulator charges at runtime:

* accelerator candidates — solve the DORY tiling for that target
  (through the :class:`~repro.core.cache.TilingCache`, so repeated
  geometries and re-planning are nearly free), then replay the exact
  per-tile cycle model (:func:`~repro.runtime.cost.cost_layer`) and the
  per-kernel energy model (:func:`~repro.soc.energy.kernel_energy_pj`);
  an infeasible tiling disqualifies the candidate with its reason,
* the CPU candidate — the fused-kernel event counts the executor
  charges for ``CpuKernelStep``s
  (:func:`~repro.soc.cpu.kernel_counts`), priced by
  :func:`~repro.runtime.cost.price`.

Because both paths reuse the runtime cost models verbatim, a mapping's
modeled per-layer latency equals the executor's measured kernel cycles.
Candidates are single layers: depth-first fused chains are planned
after mapping, over the compiled steps
(:func:`~repro.extensions.depthfirst.plan_depthfirst_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dory.heuristics import heuristic_set_for
from ..dory.layer_spec import LayerSpec
from ..dory.tiler import DoryTiler
from ..errors import TilingError
from ..ir import Composite, Graph
from ..runtime.cost import cost_layer, price
from ..soc.cpu import kernel_counts
from ..soc.energy import DEFAULT_ENERGY, EnergyParams, kernel_energy_pj
from .rules import dispatchable_layers


@dataclass
class CandidateCost:
    """One (composite, target) option and its modeled cost."""

    target: str
    latency_cycles: float = float("inf")
    energy_pj: float = float("inf")
    feasible: bool = True
    reason: str = ""  #: why the candidate is unusable ("" when feasible)


@dataclass
class MappingSite:
    """One dispatchable composite and everything known about it."""

    index: int                 #: position among dispatchable composites
    node_id: int               #: composite node id in the partitioned graph
    layer_name: str
    pattern: str
    spec: Optional[LayerSpec]
    spec_error: str            #: why no LayerSpec ("" when spec is set)
    eligibility: Dict[str, str]
    out_bytes: int             #: activation bytes the composite produces
    candidates: Dict[str, CandidateCost] = field(default_factory=dict)
    rejected: Dict[str, CandidateCost] = field(default_factory=dict)

    @property
    def accepted_targets(self) -> List[str]:
        """Rule-accepted accelerator names (CPU excluded)."""
        return [n for n, r in self.eligibility.items() if r == ""]


def cpu_candidate(comp: Composite, soc,
                  energy: EnergyParams = DEFAULT_ENERGY) -> CandidateCost:
    """Cost of running the composite body as one fused CPU kernel."""
    cycles = sum(price(kernel_counts(comp.body), soc.params).values())
    return CandidateCost(
        target="cpu", latency_cycles=cycles,
        energy_pj=cycles * energy.cpu_pj_per_cycle)


def accel_candidate(spec: LayerSpec, target: str, soc, config,
                    cache=None,
                    energy: EnergyParams = DEFAULT_ENERGY) -> CandidateCost:
    """Cost of offloading ``spec`` to ``target`` under ``config``.

    Solves the tiling exactly as :func:`~repro.core.compiler.compile_model`
    would (same heuristic set, ``alpha``, L1 budget), so a subsequent
    compile of the chosen mapping hits the cache.
    """
    tiler = DoryTiler(
        target, soc.params, heuristic_set_for(config.heuristics, target),
        alpha=config.alpha, l1_budget=config.l1_budget)
    try:
        sol = cache.solve(tiler, spec) if cache is not None else tiler.solve(spec)
    except TilingError as exc:
        return CandidateCost(target=target, feasible=False, reason=str(exc))
    rec = cost_layer(spec, sol, soc.accelerator(target), soc.params)
    return CandidateCost(
        target=target, latency_cycles=rec.total_cycles,
        energy_pj=kernel_energy_pj(rec, soc.params, energy))


def enumerate_sites(graph: Graph, soc, config, cache=None,
                    energy: EnergyParams = DEFAULT_ENERGY
                    ) -> List[MappingSite]:
    """All dispatchable composites of a partitioned graph, fully costed.

    Every site always carries a feasible ``"cpu"`` candidate; rejected
    or tiling-infeasible accelerator candidates are kept in
    ``site.rejected`` with their reasons for the decision table.
    """
    sites: List[MappingSite] = []
    for comp, spec, eligibility, spec_error in dispatchable_layers(graph, soc):
        site = MappingSite(
            index=len(sites), node_id=comp.node_id,
            layer_name=spec.name if spec else comp.pattern_name,
            pattern=comp.pattern_name,
            spec=spec, spec_error=spec_error, eligibility=eligibility,
            out_bytes=comp.ttype.storage_bytes,
        )
        site.candidates["cpu"] = cpu_candidate(comp, soc, energy)
        if spec is not None:
            for name, reason in eligibility.items():
                if reason:
                    site.rejected[name] = CandidateCost(
                        target=name, feasible=False, reason=reason)
                    continue
                cand = accel_candidate(spec, name, soc, config, cache, energy)
                (site.candidates if cand.feasible
                 else site.rejected)[name] = cand
        sites.append(site)
    return sites
