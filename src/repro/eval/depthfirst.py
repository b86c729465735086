"""Depth-first schedule report: what patch-based fusion buys per model.

Backs the ``repro df`` CLI command. For every requested model the
report compiles the configuration twice — layer-by-layer and with
``CompilerConfig.depthfirst`` engaged — then *executes* both
deployments and compares: adopted chains (span, patch grid, recompute
factor), the planned L2 activation arena, the measured execution L2
peak, modeled cycles, and the bit-exactness of the depth-first run
against the layer-by-layer one. Numbers are measured on the simulated
SoC, not estimated from the analysis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.compiler import compile_model
from ..core.program import CompiledModel, DepthFirstChain
from ..errors import OutOfMemoryError
from ..frontend.modelzoo import MLPERF_TINY
from ..runtime import Executor, random_inputs, run_reference
from ..soc import DEFAULT_PARAMS, DianaParams
from .harness import resolve_config


@dataclass
class DepthFirstReport:
    """Measured outcome of one (model, config) depth-first deployment."""

    model: str
    config: str
    mode: str
    chains: List[DepthFirstChain] = field(default_factory=list)
    arena_base: int = 0
    arena_df: int = 0
    l2_peak_base: int = 0
    l2_peak_df: int = 0
    cycles_base: float = 0.0
    cycles_df: float = 0.0
    bit_exact: Optional[bool] = None
    compiled: Optional[CompiledModel] = None

    @property
    def arena_reduction(self) -> float:
        return self.arena_base / self.arena_df if self.arena_df else 1.0

    @property
    def cycle_overhead(self) -> float:
        return self.cycles_df / self.cycles_base if self.cycles_base else 1.0


def depthfirst_report(model: str, config: str = "digital",
                      mode: str = "on",
                      params: Optional[DianaParams] = None,
                      l1_budget: Optional[int] = None,
                      seed: int = 0) -> DepthFirstReport:
    """Compile + execute one model with and without depth-first."""
    precision, soc, cfg = resolve_config(config, params=params)
    if l1_budget is not None:
        cfg = cfg.with_overrides(l1_budget=l1_budget)
    cfg = cfg.with_overrides(check_l2=False)
    graph = MLPERF_TINY[model](precision=precision, seed=seed)

    base = compile_model(graph, soc, cfg.with_overrides(depthfirst="off"))
    fused = compile_model(graph, soc, cfg.with_overrides(depthfirst=mode))
    feeds = random_inputs(graph, seed=seed + 1)
    run_df = Executor(soc, exec_mode="fast").run(fused, feeds)
    try:
        run_base = Executor(soc, exec_mode="fast").run(base, feeds)
        peak_base, cycles_base = run_base.l2_peak_bytes, run_base.total_cycles
        golden = run_base.output
    except OutOfMemoryError:
        # the layer-by-layer deployment cannot even execute on this L2
        # — the scenario depth-first rescues. Report its planned
        # residency and check exactness against the interpreter.
        peak_base = base.size.total + base.memory_plan.arena_bytes
        cycles_base = 0.0
        golden = np.asarray(run_reference(graph, feeds))
    return DepthFirstReport(
        model=model, config=config, mode=mode,
        chains=list(fused.depthfirst_chains),
        arena_base=base.memory_plan.arena_bytes,
        arena_df=fused.memory_plan.arena_bytes,
        l2_peak_base=peak_base,
        l2_peak_df=run_df.l2_peak_bytes,
        cycles_base=cycles_base,
        cycles_df=run_df.total_cycles,
        bit_exact=bool(np.array_equal(golden, run_df.output)),
        compiled=fused,
    )


def run_depthfirst_reports(models: Optional[List[str]] = None,
                           config: str = "digital", mode: str = "on",
                           l1_budget: Optional[int] = None,
                           l2_bytes: Optional[int] = None
                           ) -> List[DepthFirstReport]:
    """The ``repro df`` sweep over (a subset of) the model zoo.

    ``l2_bytes`` shrinks the platform L2 to exercise the
    memory-constrained scenario (``mode="auto"`` engages only under
    pressure).
    """
    params = (dataclasses.replace(DEFAULT_PARAMS, l2_bytes=l2_bytes)
              if l2_bytes else None)
    return [depthfirst_report(m, config=config, mode=mode, params=params,
                              l1_budget=l1_budget)
            for m in (models or sorted(MLPERF_TINY))]


def format_depthfirst_reports(reports: List[DepthFirstReport]) -> str:
    """Render the per-model table plus one line per adopted chain."""
    from ..mapping import format_columns

    headers = ["model", "chains", "arena kB", "df arena", "exec peak kB",
               "df peak", "cycles x", "exact"]
    rows = []
    for r in reports:
        rows.append([
            r.model, str(len(r.chains)),
            f"{r.arena_base / 1024:.1f}", f"{r.arena_df / 1024:.1f}",
            f"{r.l2_peak_base / 1024:.1f}", f"{r.l2_peak_df / 1024:.1f}",
            f"{r.cycle_overhead:.2f}", str(r.bit_exact),
        ])
    lines = [format_columns(headers, rows), ""]
    for r in reports:
        for c in r.chains:
            steps = r.compiled.steps[c.start:c.stop] if r.compiled else []
            span = (f"{steps[0].name}..{steps[-1].name}" if steps
                    else f"steps {c.start}..{c.stop - 1}")
            lines.append(
                f"  {r.model}: {span} grid={c.patch_grid[0]}x"
                f"{c.patch_grid[1]} recompute={c.recompute_factor:.2f}x "
                f"slabs={sum(c.per_layer_patch_bytes[:-1])} B "
                f"peak={c.peak_bytes} B")
    return "\n".join(lines)
