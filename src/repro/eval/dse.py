"""Fleet-scale design-space exploration: ``repro dse``.

The registry (:mod:`repro.soc.registry`) makes platforms first-class
values, which turns the paper's per-platform evaluation into a grid
search: sweep **platform x model x L1-budget x mapping-objective**,
price every cell with the mapping engine's modeled totals (per-layer
kernel cycles/energy plus inter-core transfer penalties — no
functional simulation, so the whole grid runs in seconds through the
shared :class:`~repro.core.cache.TilingCache`), and mark the per-model
(latency, energy) Pareto front across platforms.

This generalizes the two earlier eval services it composes:

* the ``--jobs`` thread fan-out of ``repro table1`` prices independent
  cells concurrently (one cell = one ``analyze_mapping`` call), and
* the ``MAPPING_DSE.json`` Pareto artifact of ``repro map --pareto``
  becomes the committed ``DSE_GRID.json`` (schema ``repro-dse/1``),
  and tier-1 re-derives both files exactly.

Each platform prices the zoo at the precision its spec declares
(``PlatformSpec.model_precision``): the analog-only ablation explores
ternary networks, the digital-only ablation int8, the stock DIANA the
paper's mixed-precision deployments.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import TilingCache, get_default_cache
from ..core.config import HTVM
from ..errors import PlatformError, ReproError
from ..frontend.modelzoo import MLPERF_TINY
from ..mapping import analyze_mapping, make_objective, prepare_graph
from ..soc import get_platform, get_platform_spec, latency_ms
from .grid import fan_out, mark_pareto
from .tables import format_table

#: schema tag of the committed grid artifact.
DSE_SCHEMA = "repro-dse/1"

#: default grid axes (platforms x models x L1 budgets x objectives).
DEFAULT_PLATFORMS: Tuple[str, ...] = ("diana", "diana-noanalog",
                                      "diana-nodig")
DEFAULT_BUDGETS_KB: Tuple[int, ...] = (64, 256)
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("latency", "energy")


@dataclass
class DsePoint:
    """One priced cell of the DSE grid."""

    platform: str
    model: str
    budget_kb: int
    objective: str
    precision: str = ""
    strategy: str = "dp"
    feasible: bool = True
    error: str = ""
    cycles: float = 0.0
    energy_pj: float = 0.0
    latency_ms: float = 0.0
    energy_uj: float = 0.0
    target_counts: Dict[str, int] = field(default_factory=dict)
    signature: str = ""           #: digest of the chosen assignment
    pareto: bool = False          #: on the per-model (cycles, energy) front

    @property
    def key(self) -> Tuple[str, str, int, str]:
        return (self.platform, self.model, self.budget_kb, self.objective)


def _price_cell(platform: str, model: str, budget_kb: int, objective: str,
                strategy: str, cache: TilingCache) -> DsePoint:
    """Run one mapping search; errors become an infeasible point."""
    point = DsePoint(platform=platform, model=model, budget_kb=budget_kb,
                     objective=objective, strategy=strategy)
    try:
        spec = get_platform_spec(platform)
        point.precision = spec.model_precision
        soc = get_platform(platform)
        cfg = HTVM.with_overrides(platform=platform,
                                  l1_budget=budget_kb * 1024,
                                  mapping_strategy=strategy,
                                  mapping_objective=objective)
        pgraph = prepare_graph(MLPERF_TINY[model](
            precision=spec.model_precision))
        plan = analyze_mapping(pgraph, soc, cfg, cache=cache,
                               strategy=strategy,
                               objective=make_objective(objective))
    except ReproError as exc:
        point.feasible = False
        point.error = f"{type(exc).__name__}: {exc}"
        return point
    point.cycles = plan.total_cycles
    point.energy_pj = plan.total_energy_pj
    point.latency_ms = latency_ms(plan.total_cycles, soc.params)
    point.energy_uj = plan.total_energy_pj / 1e6
    point.target_counts = dict(plan.target_counts)
    point.signature = hashlib.sha256(
        json.dumps(list(plan.assignment)).encode()).hexdigest()[:16]
    return point


def _mark_pareto(points: List[DsePoint]) -> None:
    """Per-model (cycles, energy) front across platforms and budgets."""
    by_model: Dict[str, List[DsePoint]] = {}
    for p in points:
        if p.feasible:
            by_model.setdefault(p.model, []).append(p)
    for group in by_model.values():
        mark_pareto(group)


def sweep_grid(platforms: Optional[Sequence[str]] = None,
               models: Optional[Sequence[str]] = None,
               budgets_kb: Optional[Sequence[int]] = None,
               objectives: Optional[Sequence[str]] = None,
               strategy: str = "dp",
               jobs: int = 1,
               cache: Optional[TilingCache] = None) -> List[DsePoint]:
    """Price the full grid, fanning independent cells across threads.

    Cell order in the result is deterministic (the nested-loop order of
    the axes) regardless of ``jobs``, so the emitted artifact is
    byte-stable — the property the ``DSE_GRID.json`` drift test in
    ``tests/test_platforms.py`` relies on.
    """
    platforms = list(platforms) if platforms else list(DEFAULT_PLATFORMS)
    models = list(models) if models else sorted(MLPERF_TINY)
    budgets_kb = list(budgets_kb) if budgets_kb else list(DEFAULT_BUDGETS_KB)
    objectives = list(objectives) if objectives else list(DEFAULT_OBJECTIVES)

    for name in platforms:
        get_platform_spec(name)  # unknown platforms fail before the sweep
    for m in models:
        if m not in MLPERF_TINY:
            raise PlatformError(
                f"unknown model {m!r}; have {sorted(MLPERF_TINY)}")
    if cache is None:
        cache = get_default_cache()

    cells = [(p, m, b, o)
             for p in platforms
             for m in models
             for b in budgets_kb
             for o in objectives]
    points = fan_out(lambda c: _price_cell(*c, strategy, cache), cells, jobs)
    _mark_pareto(points)
    return points


def artifact_record(points: Sequence[DsePoint],
                    strategy: str = "dp",
                    jobs: int = 1) -> dict:
    """The JSON-serializable ``DSE_GRID.json`` payload (repro-dse/1).

    Deterministic for a given grid: cell order follows the sweep, and
    nothing host- or time-dependent is recorded (``jobs`` only states
    how the committed file was produced; it does not change content).
    """
    grid = []
    for p in points:
        cell = {
            "platform": p.platform,
            "model": p.model,
            "budget_kb": p.budget_kb,
            "objective": p.objective,
            "precision": p.precision,
            "feasible": p.feasible,
        }
        if p.feasible:
            cell.update({
                "cycles": p.cycles,
                "energy_pj": p.energy_pj,
                "latency_ms": round(p.latency_ms, 6),
                "energy_uj": round(p.energy_uj, 6),
                "targets": dict(sorted(p.target_counts.items())),
                "signature": p.signature,
                "pareto": p.pareto,
            })
        else:
            cell["error"] = p.error
        grid.append(cell)
    return {
        "schema": DSE_SCHEMA,
        "strategy": strategy,
        "platforms": sorted({p.platform for p in points}),
        "models": sorted({p.model for p in points}),
        "budgets_kb": sorted({p.budget_kb for p in points}),
        "objectives": sorted({p.objective for p in points}),
        "cells": len(grid),
        "grid": grid,
    }


def validate_record(record: dict) -> List[str]:
    """Schema-check one ``repro-dse/1`` document; returns problems."""
    problems = []
    if record.get("schema") != DSE_SCHEMA:
        problems.append(f"schema is {record.get('schema')!r}, "
                        f"expected {DSE_SCHEMA!r}")
        return problems
    for key in ("strategy", "platforms", "models", "budgets_kb",
                "objectives", "cells", "grid"):
        if key not in record:
            problems.append(f"missing top-level key {key!r}")
    grid = record.get("grid", [])
    if record.get("cells") != len(grid):
        problems.append(f"cells={record.get('cells')} but grid holds "
                        f"{len(grid)} entries")
    for i, cell in enumerate(grid):
        for key in ("platform", "model", "budget_kb", "objective",
                    "feasible"):
            if key not in cell:
                problems.append(f"grid[{i}] missing {key!r}")
        if cell.get("feasible"):
            for key in ("cycles", "energy_pj", "latency_ms", "energy_uj",
                        "targets", "signature", "pareto"):
                if key not in cell:
                    problems.append(f"grid[{i}] missing {key!r}")
        elif "error" not in cell and "feasible" in cell:
            problems.append(f"grid[{i}] infeasible but has no 'error'")
    return problems


def diff_records(committed: dict, fresh: dict) -> List[str]:
    """Cell-level drift between a committed grid and a fresh sweep.

    Only cells present in the committed grid are compared, so a
    committed full grid still gates a narrower CI re-sweep.
    """
    problems = []
    fresh_by_key = {(c["platform"], c["model"], c["budget_kb"],
                     c["objective"]): c for c in fresh.get("grid", [])}
    for cell in committed.get("grid", []):
        key = (cell["platform"], cell["model"], cell["budget_kb"],
               cell["objective"])
        other = fresh_by_key.get(key)
        if other is None:
            continue
        label = "/".join(str(k) for k in key)
        for attr in ("feasible", "cycles", "energy_pj", "signature",
                     "targets"):
            if cell.get(attr) != other.get(attr):
                problems.append(
                    f"{label}: {attr} drifted "
                    f"({cell.get(attr)!r} -> {other.get(attr)!r})")
    return problems


def format_dse(points: Sequence[DsePoint]) -> str:
    """The human-readable grid table ``repro dse`` prints."""
    headers = ["platform", "model", "prec", "L1 kB", "objective",
               "latency ms", "energy uJ", "mapping (targets)", "front"]
    rows = []
    for p in sorted(points, key=lambda q: (q.model, q.platform,
                                           q.budget_kb, q.objective)):
        if not p.feasible:
            rows.append([p.platform, p.model, p.precision,
                         str(p.budget_kb), p.objective, "-", "-",
                         f"infeasible: {p.error[:40]}", ""])
            continue
        counts = ", ".join(f"{t.split('.')[-1]}:{n}" for t, n in
                           sorted(p.target_counts.items()))
        rows.append([
            p.platform, p.model, p.precision, str(p.budget_kb),
            p.objective, f"{p.latency_ms:.3f}", f"{p.energy_uj:.1f}",
            counts, "pareto" if p.pareto else "",
        ])
    return format_table(
        headers, rows,
        title="Platform DSE — modeled platform x model x budget x "
              "objective grid")
