"""Depth-first schedule report: what patch-based fusion buys per model.

Backs the ``repro df`` CLI command. For every requested model the
report compiles the configuration twice — layer-by-layer and with
``CompilerConfig.depthfirst`` engaged — then *executes* both
deployments and compares: adopted chains (span, patch grid, recompute
factor, and the cycles each deployment charged over the chain's
steps), the planned L2 activation arena, the measured execution L2
peak, modeled cycles, and the bit-exactness of the depth-first run
against the layer-by-layer one. Numbers are the simulated SoC's
per-step kernel records, not estimates from the analysis.
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
    #: ``None`` when the layer-by-layer deployment does not fit L2
    cycles_base: Optional[float] = None
    cycles_df: float = 0.0
    #: cycles charged over each chain's steps, aligned with ``chains``
    chain_cycles_base: List[Optional[float]] = field(default_factory=list)
    chain_cycles_df: List[float] = field(default_factory=list)
    bit_exact: Optional[bool] = None
    compiled: Optional[CompiledModel] = None

    @property
    def arena_reduction(self) -> float:
        return self.arena_base / self.arena_df if self.arena_df else 1.0

    @property
    def cycle_overhead(self) -> Optional[float]:
        """Fused over layer-by-layer cycles; ``None`` when the
        layer-by-layer deployment cannot execute."""
        if self.cycles_base is None:
            return None
        return self.cycles_df / self.cycles_base


def _chain_cycles(perf, chain: DepthFirstChain) -> float:
    """Cycles of the kernel records of ``chain``'s steps."""
    return sum(r.total_cycles for r in perf.records[chain.start:chain.stop])


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
    chains = list(fused.depthfirst_chains)
    try:
        run_base = Executor(soc, exec_mode="fast").run(base, feeds)
        peak_base, cycles_base = run_base.l2_peak_bytes, run_base.total_cycles
        chain_base = [_chain_cycles(run_base.perf, c) for c in chains]
        golden = run_base.output
    except OutOfMemoryError:
        # the layer-by-layer deployment cannot even execute on this L2
        # — the scenario depth-first rescues. Report its planned
        # residency and check exactness against the interpreter.
        peak_base = base.size.total + base.memory_plan.arena_bytes
        cycles_base = None
        chain_base = [None] * len(chains)
        golden = np.asarray(run_reference(graph, feeds))
    return DepthFirstReport(
        model=model, config=config, mode=mode, chains=chains,
        arena_base=base.memory_plan.arena_bytes,
        arena_df=fused.memory_plan.arena_bytes,
        l2_peak_base=peak_base,
        l2_peak_df=run_df.l2_peak_bytes,
        cycles_base=cycles_base,
        cycles_df=run_df.total_cycles,
        chain_cycles_base=chain_base,
        chain_cycles_df=[_chain_cycles(run_df.perf, c) for c in chains],
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


def _fmt(value: Optional[float], spec: str) -> str:
    """``value`` formatted, or ``-`` when it was not measured."""
    return "-" if value is None else format(value, spec)


def format_depthfirst_reports(reports: List[DepthFirstReport]) -> str:
    """Render the per-model table plus one row per adopted chain.

    A chain row carries the cycles both deployments charged over the
    chain's steps: fused (halo recompute included) and layer by layer
    (``-`` when that deployment does not fit L2).
    """
    from ..mapping import format_columns

    headers = ["model", "chains", "arena kB", "df arena", "exec peak kB",
               "df peak", "cycles x", "exact"]
    rows = []
    for r in reports:
        rows.append([
            r.model, str(len(r.chains)),
            f"{r.arena_base / 1024:.1f}", f"{r.arena_df / 1024:.1f}",
            f"{r.l2_peak_base / 1024:.1f}", f"{r.l2_peak_df / 1024:.1f}",
            _fmt(r.cycle_overhead, ".2f"), str(r.bit_exact),
        ])
    lines = [format_columns(headers, rows), ""]
    chain_rows = []
    for r in reports:
        for c, df, base in zip(r.chains, r.chain_cycles_df,
                               r.chain_cycles_base):
            steps = r.compiled.steps[c.start:c.stop] if r.compiled else []
            span = (f"{steps[0].name}..{steps[-1].name}" if steps
                    else f"steps {c.start}..{c.stop - 1}")
            chain_rows.append([
                r.model, span, f"{c.patch_grid[0]}x{c.patch_grid[1]}",
                f"{c.recompute_factor:.2f}x",
                str(sum(c.per_layer_patch_bytes[:-1])), str(c.peak_bytes),
                f"{df:.0f}", _fmt(base, ".0f"),
            ])
    if chain_rows:
        lines.append(format_columns(
            ["model", "chain", "grid", "recompute", "slabs B", "peak B",
             "fused cycles", "layer-by-layer cycles"], chain_rows))
    return "\n".join(lines)
