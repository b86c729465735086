"""Mapping design-space exploration: the latency/energy Pareto sweep.

The cost-driven engine (:mod:`repro.mapping.engine`) optimizes a
scalarized objective; sweeping its latency/energy ``weight`` from 0 to
1 traces the achievable trade-off front per model. This module runs
that sweep across the MLPerf Tiny zoo, deduplicates the distinct
mappings it discovers, marks the Pareto-optimal ones, and writes the
``MAPPING_DSE.json`` artifact (regenerate with ``repro map --pareto``).

All numbers are *modeled* totals from the mapping engine's own cost
evaluation (per-layer kernel cycles/energy plus inter-core transfer
penalties) — no functional simulation runs, so the whole zoo sweeps in
seconds through the tiling cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import get_default_cache
from ..frontend.modelzoo import MLPERF_TINY
from ..mapping import analyze_mapping, make_objective, prepare_graph
from ..soc import latency_ms
from .grid import mark_pareto
from .harness import resolve_config
from .tables import format_table

#: default latency/energy weights of the sweep (0 = latency, 1 = energy).
DEFAULT_WEIGHTS: Tuple[float, ...] = tuple(w / 10.0 for w in range(11))


@dataclass
class ParetoPoint:
    """One distinct mapping discovered by the weight sweep."""

    model: str
    config: str
    weights: List[float]          #: sweep weights that produced it
    assignment: Tuple[str, ...]
    target_counts: Dict[str, int]
    cycles: float                 #: modeled latency incl. transfers
    energy_pj: float
    latency_ms: float
    energy_uj: float
    pareto: bool = False          #: on the (cycles, energy) front
    is_rules: bool = False        #: identical to the rules assignment


def sweep_model(model: str, config: str = "mixed",
                weights: Sequence[float] = DEFAULT_WEIGHTS,
                cache=None) -> List[ParetoPoint]:
    """All distinct ``"dp"`` mappings of one model across the weights.

    The rules baseline is always included (marked ``is_rules``), so
    the front can be read against the seed policy.
    """
    if model not in MLPERF_TINY:
        raise KeyError(f"unknown model {model!r}; have {sorted(MLPERF_TINY)}")
    precision, soc, cfg = resolve_config(config)
    pgraph = prepare_graph(MLPERF_TINY[model](precision=precision))
    if cache is None:
        cache = get_default_cache()

    by_sig: Dict[Tuple[str, ...], ParetoPoint] = {}

    def record(sig, cycles, pj, counts, weight: Optional[float],
               is_rules: bool = False):
        point = by_sig.get(sig)
        if point is None:
            point = ParetoPoint(
                model=model, config=config, weights=[], assignment=sig,
                target_counts=counts, cycles=cycles, energy_pj=pj,
                latency_ms=latency_ms(cycles, soc.params),
                energy_uj=pj / 1e6, is_rules=is_rules)
            by_sig[sig] = point
        if weight is not None:
            point.weights.append(weight)
        point.is_rules = point.is_rules or is_rules

    for w in weights:
        plan = analyze_mapping(
            pgraph, soc, cfg, cache=cache, strategy="dp",
            objective=make_objective("weighted", w))
        record(plan.signature, plan.total_cycles, plan.total_energy_pj,
               plan.target_counts, w)
        if w == weights[0]:
            base_sig = tuple(plan.baseline_assignment)
            counts: Dict[str, int] = {}
            for t in base_sig:
                counts[t] = counts.get(t, 0) + 1
            record(base_sig, plan.baseline_cycles, plan.baseline_energy_pj,
                   counts, None, is_rules=True)

    points = sorted(by_sig.values(), key=lambda p: (p.cycles, p.energy_pj))
    mark_pareto(points)
    return points


def pareto_sweep(models: Optional[Sequence[str]] = None,
                 config: str = "mixed",
                 weights: Sequence[float] = DEFAULT_WEIGHTS,
                 cache=None) -> Dict[str, List[ParetoPoint]]:
    """The full MLPerf-Tiny-zoo sweep: model -> distinct mappings."""
    models = list(models) if models else sorted(MLPERF_TINY)
    return {m: sweep_model(m, config=config, weights=list(weights),
                           cache=cache)
            for m in models}


def artifact_record(points_by_model: Dict[str, List[ParetoPoint]],
                    config: str = "mixed",
                    weights: Sequence[float] = DEFAULT_WEIGHTS) -> dict:
    """The JSON-serializable ``MAPPING_DSE.json`` payload."""
    models = {}
    for model, points in points_by_model.items():
        models[model] = [{
            "weights": p.weights,
            "targets": p.target_counts,
            "cycles": p.cycles,
            "energy_pj": p.energy_pj,
            "latency_ms": round(p.latency_ms, 6),
            "energy_uj": round(p.energy_uj, 6),
            "pareto": p.pareto,
            "rules": p.is_rules,
        } for p in points]
    return {"config": config, "weights": list(weights),
            "objective": "weighted(latency, energy)", "models": models}


def format_mapping_dse(points_by_model: Dict[str, List[ParetoPoint]]) -> str:
    """A per-model table of the distinct mappings and their front."""
    headers = ["model", "mapping (targets)", "latency ms", "energy uJ",
               "weights", "front"]
    rows = []
    for model in sorted(points_by_model):
        for p in points_by_model[model]:
            counts = ", ".join(f"{t.split('.')[-1]}:{n}" for t, n in
                               sorted(p.target_counts.items()))
            tag = ("rules+pareto" if p.is_rules and p.pareto
                   else "rules" if p.is_rules
                   else "pareto" if p.pareto else "")
            rows.append([
                model, counts, f"{p.latency_ms:.3f}", f"{p.energy_uj:.1f}",
                ",".join(f"{w:g}" for w in p.weights) or "-", tag,
            ])
    return format_table(
        headers, rows,
        title="Mapping DSE — distinct cost-driven mappings per model")
