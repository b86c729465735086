"""Cost-driven global mapping search (paper Sec. III-A, generalized).

The rule-based selector picks each layer's target locally from its
weight dtype. This engine instead treats mapping as a *global*
optimization problem over the whole network:

1. :func:`~repro.mapping.candidates.enumerate_sites` prices every
   (composite, target) option with the runtime cycle and energy models
   (tilings solved through the :class:`~repro.core.cache.TilingCache`),
2. inter-layer *transfer penalties* charge the DMA + layout-conversion
   cost of handing activations between cores
   (:func:`~repro.soc.dma.cross_core_transfer_counts`, priced by
   :func:`~repro.runtime.cost.price`),
3. a search minimizes the selected objective over all assignments:
   exact dynamic programming when the layer-coupling graph is a linear
   chain, beam search for branching graphs (residual networks), with
   the rule-based assignment kept as a safety net so a cost-driven
   mapping is never worse than the rules under its own objective.

Objectives are scalarizations of (latency cycles, energy pJ):
``"latency"`` and ``"energy"`` are the two extremes of ``"weighted"``,
whose ``weight`` in [0, 1] interpolates between them (energy is
expressed in CPU-cycle equivalents, pJ / ``cpu_pj_per_cycle``, so the
two terms share a scale). Sweeping the weight traces the
latency/energy Pareto front (:mod:`repro.eval.mapping_dse`).

Selected via ``CompilerConfig.mapping_strategy``:

* ``"rules"`` (default) — the seed weight-dtype policy, bit-exact with
  the historical dispatcher (no candidate enumeration at all),
* ``"greedy"`` — per-layer cheapest feasible candidate, transfers
  ignored (a useful lower bound on how much coupling matters),
* ``"dp"`` — the global search described above.

The search prices layer-by-layer execution only. Whether a run of
mapped layers then executes depth-first is decided once, by the
compiler over its step list
(:func:`~repro.extensions.depthfirst.plan_depthfirst_steps`), and
``repro df`` reports those chains with their charged cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import DispatchError
from ..ir import Graph
from ..patterns import default_specs, partition
from ..runtime.cost import price
from ..soc.dma import cross_core_transfer_counts
from ..soc.energy import DEFAULT_ENERGY, EnergyParams
from ..transforms import (
    Pass, PassManager, canonicalize, eliminate_dead_code, fold_constants,
)
from .candidates import MappingSite, enumerate_sites
from .rules import DispatchDecision
from .selector import assign_targets, retarget_composites, rules_target

#: selectable mapping strategies (``CompilerConfig.mapping_strategy``).
STRATEGIES = ("rules", "greedy", "dp")
#: selectable objectives (``CompilerConfig.mapping_objective``).
OBJECTIVES = ("latency", "energy", "weighted")

_INF = float("inf")


@dataclass(frozen=True)
class Objective:
    """A linear scalarization of (latency cycles, energy pJ).

    ``weight`` = 0 is pure latency, 1 is pure energy; energy is scaled
    by ``pj_per_cycle`` (the CPU's energy per cycle) so both terms are
    in comparable cycle units and the scalarization stays additive —
    which is what lets the DP/beam searches optimize it exactly.
    """

    name: str
    weight: float
    pj_per_cycle: float = DEFAULT_ENERGY.cpu_pj_per_cycle

    def scalar(self, cycles: float, energy_pj: float) -> float:
        return ((1.0 - self.weight) * cycles
                + self.weight * energy_pj / self.pj_per_cycle)


def make_objective(name: str, weight: float = 0.5,
                   energy: EnergyParams = DEFAULT_ENERGY) -> Objective:
    """Build the :class:`Objective` one config selects."""
    if name == "latency":
        weight = 0.0
    elif name == "energy":
        weight = 1.0
    elif name != "weighted":
        raise DispatchError(
            f"unknown mapping objective {name!r}; expected one of {OBJECTIVES}")
    if not 0.0 <= weight <= 1.0:
        raise DispatchError(f"mapping weight {weight} outside [0, 1]")
    return Objective(name=name, weight=weight,
                     pj_per_cycle=energy.cpu_pj_per_cycle)


@dataclass(frozen=True)
class TransferEdge:
    """One activation hand-off whose cost depends on the assignment.

    ``src``/``dst`` are site indices; ``None`` marks a fixed CPU
    endpoint (graph inputs, unmatched ops between composites, the
    network output consumed by the host).
    """

    src: Optional[int]
    dst: Optional[int]
    nbytes: int


def transfer_penalty(src_target: str, dst_target: str, nbytes: int,
                     params, energy: EnergyParams = DEFAULT_ENERGY
                     ) -> Tuple[float, float]:
    """(cycles, pJ) of moving one activation tensor between targets."""
    counts = cross_core_transfer_counts(nbytes, src_target, dst_target)
    if not counts:
        return 0.0, 0.0
    cycles = price(counts, params)
    pj = (counts["act_byte"] * energy.dma_pj_per_byte
          + cycles["cpu_compute"] * energy.host_pj_per_cycle)
    return cycles["act_dma"] + cycles["cpu_compute"], pj


def build_edges(graph: Graph, sites: List[MappingSite]) -> List[TransferEdge]:
    """All assignment-dependent activation hand-offs of one graph."""
    site_of: Dict[int, int] = {s.node_id: s.index for s in sites}
    comps = {c.node_id: c for c in graph.composites()}
    edges: List[TransferEdge] = []
    for site in sites:
        comp = comps[site.node_id]
        for inp in comp.inputs:
            edges.append(TransferEdge(
                src=site_of.get(inp.node_id), dst=site.index,
                nbytes=inp.ttype.storage_bytes))
    users = graph.users()
    for site in sites:
        consumers = users.get(site.node_id, [])
        external = (graph.output.node_id == site.node_id
                    or any(u.node_id not in site_of for u in consumers))
        if external:
            edges.append(TransferEdge(src=site.index, dst=None,
                                      nbytes=site.out_bytes))
    return edges


@dataclass
class MappingPlan:
    """The outcome of one mapping search over one partitioned graph."""

    strategy: str
    objective: Objective
    sites: List[MappingSite]
    edges: List[TransferEdge]
    assignment: List[str]                 #: per-site chosen target
    decisions: List[DispatchDecision]
    total_cycles: float = 0.0             #: modeled latency incl. transfers
    total_energy_pj: float = 0.0
    total_cost: float = 0.0               #: scalarized objective value
    penalty_cycles: float = 0.0           #: transfer share of total_cycles
    baseline_assignment: List[str] = field(default_factory=list)
    baseline_cycles: float = 0.0          #: rules strategy, same objective
    baseline_energy_pj: float = 0.0
    baseline_cost: float = 0.0

    @property
    def target_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.assignment:
            out[t] = out.get(t, 0) + 1
        return out

    @property
    def signature(self) -> Tuple[str, ...]:
        """Hashable identity of the assignment (for Pareto dedup)."""
        return tuple(self.assignment)


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------


def _node_cost(site: MappingSite, target: str,
               objective: Objective) -> Tuple[float, float, float]:
    """(cycles, pJ, scalar) of running one site on one target."""
    cand = site.candidates.get(target)
    if cand is None or not cand.feasible:
        return _INF, _INF, _INF
    return (cand.latency_cycles, cand.energy_pj,
            objective.scalar(cand.latency_cycles, cand.energy_pj))


def evaluate_assignment(sites: List[MappingSite], edges: List[TransferEdge],
                        assignment: List[str], soc, objective: Objective,
                        energy: EnergyParams = DEFAULT_ENERGY
                        ) -> Tuple[float, float, float, float]:
    """(cycles, pJ, scalar cost, transfer cycles) of a full assignment."""
    cycles = pj = transfer = 0.0
    for site, target in zip(sites, assignment):
        c, e, _ = _node_cost(site, target, objective)
        cycles += c
        pj += e
    for edge in edges:
        src = "cpu" if edge.src is None else assignment[edge.src]
        dst = "cpu" if edge.dst is None else assignment[edge.dst]
        tc, te = transfer_penalty(src, dst, edge.nbytes, soc.params, energy)
        cycles += tc
        pj += te
        transfer += tc
    return cycles, pj, objective.scalar(cycles, pj), transfer


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def _rules_assignment(sites: List[MappingSite],
                      soc=None) -> List[str]:
    """The seed weight-dtype policy, as a per-site target list.

    Delegates to :func:`~repro.mapping.selector.rules_target` — the
    same function :func:`~repro.mapping.selector.assign_targets` uses —
    so the baseline here (and the CI drift gate built on it) cannot
    diverge from what ``mapping_strategy="rules"`` compiles. A
    registered platform's own ``prefer`` hook takes the same precedence
    it has in ``assign_targets``.
    """
    prefer = getattr(soc, "prefer", None) if soc is not None else None
    if prefer is None:
        return [rules_target(site.spec, site.accepted_targets)
                for site in sites]
    return [prefer(site.spec, site.accepted_targets)
            if site.spec is not None and site.accepted_targets else "cpu"
            for site in sites]


def _greedy_assignment(sites: List[MappingSite],
                       objective: Objective) -> List[str]:
    """Cheapest feasible candidate per site, transfers ignored."""
    out = []
    for site in sites:
        best = min(site.candidates,
                   key=lambda t: (_node_cost(site, t, objective)[2], t))
        out.append(best)
    return out


def _site_edges(edges: List[TransferEdge]) -> List[TransferEdge]:
    return [e for e in edges if e.src is not None and e.dst is not None]


def _fixed_costs(sites: List[MappingSite], edges: List[TransferEdge],
                 soc, objective: Objective, energy: EnergyParams):
    """Per-(site, target) scalar cost incl. fixed-CPU-endpoint edges."""
    extra: Dict[int, List[Tuple[bool, int]]] = {i: [] for i in
                                                range(len(sites))}
    for e in edges:
        if e.src is None and e.dst is not None:
            extra[e.dst].append((True, e.nbytes))
        elif e.dst is None and e.src is not None:
            extra[e.src].append((False, e.nbytes))

    def cost(i: int, target: str) -> float:
        c, e_pj, scalar = _node_cost(sites[i], target, objective)
        if scalar == _INF:
            return _INF
        for incoming, nbytes in extra[i]:
            tc, te = transfer_penalty(
                "cpu" if incoming else target,
                target if incoming else "cpu",
                nbytes, soc.params, energy)
            scalar += objective.scalar(tc, te)
        return scalar

    return cost


def _is_linear(sites: List[MappingSite],
               coupling: List[TransferEdge]) -> bool:
    """True when every site has <= 1 coupled predecessor and successor."""
    preds = {i: 0 for i in range(len(sites))}
    succs = {i: 0 for i in range(len(sites))}
    for e in coupling:
        succs[e.src] += 1
        preds[e.dst] += 1
    return all(p <= 1 for p in preds.values()) and all(
        s <= 1 for s in succs.values())


def _chain_dp(sites, coupling, node_cost, soc, objective, energy):
    """Exact DP over path components of the coupling graph.

    ``f[t]`` is the best cost of the prefix of one chain ending with
    the current site on target ``t``; edges contribute the transfer
    penalty between consecutive targets. Disconnected components are
    independent, so each chain is solved separately.
    """
    succ = {e.src: e for e in coupling}
    pred = {e.dst: e for e in coupling}
    assignment: List[Optional[str]] = [None] * len(sites)
    for start in range(len(sites)):
        if start in pred or assignment[start] is not None:
            continue
        # walk the chain
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]].dst)
        frontier: Dict[str, Tuple[float, List[str]]] = {
            t: (node_cost(start, t), [t])
            for t in sites[start].candidates}
        for i in chain[1:]:
            edge = pred[i]
            nxt: Dict[str, Tuple[float, List[str]]] = {}
            for t in sites[i].candidates:
                base = node_cost(i, t)
                best = None
                for prev_t, (prev_cost, prev_path) in frontier.items():
                    tc, te = transfer_penalty(prev_t, t, edge.nbytes,
                                              soc.params, energy)
                    total = prev_cost + base + objective.scalar(tc, te)
                    if best is None or total < best[0] or (
                            total == best[0] and prev_path < best[1]):
                        best = (total, prev_path)
                nxt[t] = (best[0], best[1] + [t])
            frontier = nxt
        _, path = min(frontier.values(),
                      key=lambda item: (item[0], item[1]))
        for i, t in zip(chain, path):
            assignment[i] = t
    return assignment


def _beam_search(sites, coupling, node_cost, soc, objective, energy,
                 beam_width: int):
    """Topological-order beam search for branching coupling graphs.

    Sites are expanded in topological order, so every coupled
    predecessor of the next site is already assigned in each beam
    entry; ties break lexicographically for determinism.
    """
    preds: Dict[int, List[TransferEdge]] = {}
    for e in coupling:
        preds.setdefault(e.dst, []).append(e)
    beam: List[Tuple[float, List[str]]] = [(0.0, [])]
    for i, site in enumerate(sites):
        expanded: List[Tuple[float, List[str]]] = []
        for cost_so_far, assigned in beam:
            for t in site.candidates:
                total = cost_so_far + node_cost(i, t)
                for e in preds.get(i, []):
                    tc, te = transfer_penalty(assigned[e.src], t, e.nbytes,
                                              soc.params, energy)
                    total += objective.scalar(tc, te)
                expanded.append((total, assigned + [t]))
        expanded.sort(key=lambda item: (item[0], item[1]))
        beam = expanded[:max(1, beam_width)]
    return beam[0][1]


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def prepare_graph(graph: Graph) -> Graph:
    """Frontend passes + BYOC partitioning, as ``compile_model`` runs them.

    Lets the mapping engine analyze a model without compiling it (the
    ``repro map`` decision table, the Pareto sweep).
    """
    pm = PassManager([
        Pass("canonicalize", canonicalize),
        Pass("fold_constants", fold_constants),
        Pass("dead_code", eliminate_dead_code),
    ])
    return partition(pm.run(graph), default_specs())


def _decisions_for(sites: List[MappingSite], assignment: List[str],
                   objective: Objective) -> List[DispatchDecision]:
    decisions = []
    for site, target in zip(sites, assignment):
        rejections = {n: r for n, r in site.eligibility.items() if r}
        rejections.update({n: c.reason for n, c in site.rejected.items()})
        costs = {t: _node_cost(site, t, objective)[2]
                 for t in site.candidates}
        decisions.append(DispatchDecision(
            layer_name=site.layer_name, pattern=site.pattern, target=target,
            candidates=site.accepted_targets, rejections=rejections,
            spec_error=site.spec_error, costs=costs,
            chosen_cost=costs.get(target),
        ))
    return decisions


def analyze_mapping(pgraph: Graph, soc, config, cache=None,
                    strategy: Optional[str] = None,
                    objective: Optional[Objective] = None,
                    energy: EnergyParams = DEFAULT_ENERGY) -> MappingPlan:
    """Run one mapping search over an already-partitioned graph.

    ``strategy``/``objective`` default to the config's; the returned
    plan also carries the rules baseline evaluated under the *same*
    objective, so cost-driven strategies can be compared against the
    seed policy apples to apples.
    """
    strategy = strategy or config.mapping_strategy
    if strategy not in STRATEGIES:
        raise DispatchError(
            f"unknown mapping strategy {strategy!r}; "
            f"expected one of {STRATEGIES}")
    if objective is None:
        objective = make_objective(config.mapping_objective,
                                   config.mapping_weight, energy)
    if cache is None and config.tiling_cache:
        from ..core.cache import get_default_cache  # avoid an import cycle
        cache = get_default_cache()

    from ..obs.trace import trace_span

    with trace_span("mapping.enumerate_sites", category="compile"):
        sites = enumerate_sites(pgraph, soc, config, cache, energy)
    edges = build_edges(pgraph, sites)
    baseline = _rules_assignment(sites, soc)

    with trace_span("mapping.search", category="compile",
                    strategy=strategy, sites=len(sites)):
        if strategy == "rules":
            assignment = list(baseline)
        elif strategy == "greedy":
            assignment = _greedy_assignment(sites, objective)
        else:  # "dp"
            coupling = _site_edges(edges)
            node_cost = _fixed_costs(sites, edges, soc, objective, energy)
            if _is_linear(sites, coupling):
                assignment = _chain_dp(sites, coupling, node_cost, soc,
                                       objective, energy)
            else:
                assignment = _beam_search(sites, coupling, node_cost, soc,
                                          objective, energy,
                                          config.mapping_beam_width)
            # safety net: never worse than the seed policy under the same
            # objective (beam search carries no optimality guarantee)
            best = evaluate_assignment(sites, edges, assignment, soc,
                                       objective, energy)[2]
            base = evaluate_assignment(sites, edges, baseline, soc,
                                       objective, energy)[2]
            if base < best:
                assignment = list(baseline)

    cycles, pj, cost, transfer = evaluate_assignment(
        sites, edges, assignment, soc, objective, energy)
    b_cycles, b_pj, b_cost, _ = evaluate_assignment(
        sites, edges, baseline, soc, objective, energy)
    return MappingPlan(
        strategy=strategy, objective=objective, sites=sites, edges=edges,
        assignment=assignment,
        decisions=_decisions_for(sites, assignment, objective),
        total_cycles=cycles, total_energy_pj=pj, total_cost=cost,
        penalty_cycles=transfer,
        baseline_assignment=baseline, baseline_cycles=b_cycles,
        baseline_energy_pj=b_pj, baseline_cost=b_cost,
    )


def plan_mapping(graph: Graph, soc, config, cache=None):
    """Assign a target to every composite of a partitioned graph.

    The dispatcher entry point :func:`~repro.core.compiler.compile_model`
    calls. ``mapping_strategy="rules"`` takes the historical rule-based
    path verbatim (no candidate enumeration, bit-exact with the seed
    dispatcher); cost-driven strategies run the full engine.

    Returns ``(retargeted_graph, decisions)``.
    """
    strategy = config.mapping_strategy
    if strategy not in STRATEGIES:
        raise DispatchError(
            f"unknown mapping strategy {strategy!r}; "
            f"expected one of {STRATEGIES}")
    if strategy == "rules":
        return assign_targets(graph, soc)
    plan = analyze_mapping(graph, soc, config, cache)
    target_of = {site.node_id: target
                 for site, target in zip(plan.sites, plan.assignment)}
    return retarget_composites(graph, target_of), plan.decisions


def format_plan(plan: MappingPlan) -> str:
    """Human-readable decision table + totals for ``repro map``."""
    from .selector import dispatch_summary

    lines = [dispatch_summary(plan.decisions), ""]
    counts = ", ".join(f"{t}: {n}" for t, n in
                       sorted(plan.target_counts.items()))
    lines.append(f"strategy={plan.strategy} objective={plan.objective.name}"
                 f" (weight={plan.objective.weight:.2f})  layers: {counts}")
    lines.append(
        f"modeled total : {plan.total_cycles:12.0f} cycles "
        f"({plan.penalty_cycles:.0f} in transfers), "
        f"{plan.total_energy_pj / 1e6:10.2f} uJ, cost {plan.total_cost:.0f}")
    lines.append(
        f"rules baseline: {plan.baseline_cycles:12.0f} cycles, "
        f"{plan.baseline_energy_pj / 1e6:10.2f} uJ, "
        f"cost {plan.baseline_cost:.0f}")
    if plan.baseline_cost > 0 and plan.total_cost < _INF:
        lines.append(f"cost vs rules : "
                     f"{plan.total_cost / plan.baseline_cost:.3f}x")
    return "\n".join(lines)
