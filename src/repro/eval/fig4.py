"""Fig. 4 experiment: hardware-aware tiling vs. L1 memory budget.

For each of the paper's layers L0..L3, sweep the Eq. 2 budget downward
and tile with the three strategies of the figure:

* ``baseline``  — only tile size (round markers),
* ``pe-only``   — + PE-utilization heuristics, Eqs. 3-4 (squares),
* ``full``      — + DMA heuristic, Eq. 5 (diamonds).

Latency is the full HTVM kernel-call cost on the digital accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.cache import get_default_cache
from ..dory.heuristics import (
    digital_heuristics, digital_pe_only_heuristics, no_heuristics,
)
from ..dory.layer_spec import LayerSpec
from ..dory.tiler import DoryTiler
from ..errors import TilingError
from ..frontend.modelzoo import fig4_layers
from .. import numerics as K
from ..runtime.cost import cost_layer
from ..runtime.executor import execute_layer_fast, execute_layer_tiled
from ..soc import DianaParams, get_platform
from .grid import fan_out
from .tables import format_table

STRATEGIES = {
    "baseline": no_heuristics,
    "pe-only": digital_pe_only_heuristics,
    "full": digital_heuristics,
}

#: default Eq. 2 budget sweep (bytes), 256 kB down to 8 kB.
DEFAULT_BUDGETS = [
    256 * 1024, 192 * 1024, 128 * 1024, 96 * 1024, 64 * 1024,
    48 * 1024, 32 * 1024, 24 * 1024, 16 * 1024, 12 * 1024, 8 * 1024,
]


@dataclass
class Fig4Point:
    layer: str
    strategy: str
    budget_bytes: int
    cycles: Optional[float]      #: None when no feasible tiling exists
    needs_tiling: Optional[bool] = None
    tile: Optional[str] = None
    verified: Optional[bool] = None  #: functional check result (if run)


def _verify_point(accel, spec: LayerSpec, sol, exec_mode: str) -> bool:
    """Execute one swept tiling functionally and byte-compare it.

    The layer gets seeded random weights/bias/input; the chosen
    ``exec_mode`` executes it through the runtime helpers and the result
    is compared against a golden full-layer computation written directly
    with the shared kernels. ``"tiled"`` therefore validates the whole
    DORY schedule (halos, edge padding, partial sums) of every swept
    point; ``"fast"`` is a cheap plumbing check.
    """
    rng = np.random.default_rng(0)
    cg = spec.in_channels // spec.groups
    w = rng.integers(-128, 128, (spec.out_channels, cg, spec.fy, spec.fx),
                     dtype=np.int64).astype(np.int8)
    bias = rng.integers(-(1 << 12), 1 << 12, spec.out_channels,
                        dtype=np.int64).astype(np.int32)
    vspec = replace(spec, weight=w, bias=bias)
    x = rng.integers(-128, 128, (1, spec.in_channels, spec.iy, spec.ix),
                     dtype=np.int64).astype(np.int8)
    if exec_mode == "tiled":
        got = execute_layer_tiled(accel, vspec, sol, x)
    else:
        got = execute_layer_fast(accel, vspec, x)
    acc = K.conv2d(x, w, vspec.strides, vspec.padding, vspec.groups)
    lo, hi = (-64, 63) if vspec.out_dtype == "int7" else (-128, 127)
    want = K.bias_requantize(acc, bias, vspec.shift, vspec.relu, lo, hi)
    return bool(np.array_equal(got, want))


def sweep(layers: Optional[Sequence[LayerSpec]] = None,
          budgets: Optional[Sequence[int]] = None,
          strategies: Optional[Sequence[str]] = None,
          params: Optional[DianaParams] = None,
          jobs: Optional[int] = None,
          verify: bool = False,
          exec_mode: str = "fast") -> List[Fig4Point]:
    """Run the Fig. 4 sweep; returns one point per (layer, strategy, budget).

    Tiling solutions (and infeasibility) route through the process-wide
    :class:`~repro.core.cache.TilingCache`, so repeated sweeps are
    warm. ``jobs > 1`` evaluates the independent points concurrently;
    the returned list keeps the serial layer/strategy/budget order.

    ``verify=True`` additionally executes every feasible point
    functionally in ``exec_mode`` and byte-compares it against the
    golden kernels (see :func:`_verify_point`); the outcome lands in
    :attr:`Fig4Point.verified`.
    """
    layers = list(layers) if layers is not None else fig4_layers()
    budgets = list(budgets) if budgets is not None else DEFAULT_BUDGETS
    strategies = list(strategies) if strategies is not None else list(STRATEGIES)
    soc = get_platform("diana", params=params)
    accel = soc.accelerator("soc.digital")
    cache = get_default_cache()

    def _point(task) -> Fig4Point:
        spec, strat, budget = task
        tiler = DoryTiler("soc.digital", soc.params, STRATEGIES[strat](),
                          l1_budget=budget)
        try:
            sol = (cache.solve(tiler, spec) if cache is not None
                   else tiler.solve(spec))
        except TilingError:
            return Fig4Point(spec.name, strat, budget, None)
        rec = cost_layer(spec, sol, accel, soc.params)
        cfg = sol.cfg
        return Fig4Point(
            spec.name, strat, budget, rec.total_cycles,
            needs_tiling=sol.needs_tiling,
            tile=f"K{cfg.k_t}xOY{cfg.oy_t}xOX{cfg.ox_t}",
            verified=(_verify_point(accel, spec, sol, exec_mode)
                      if verify and spec.kind in ("conv2d", "dwconv2d")
                      else None),
        )

    tasks = [(spec, strat, budget) for spec in layers
             for strat in strategies for budget in budgets]
    return fan_out(_point, tasks, jobs)


def max_heuristic_speedup(points: List[Fig4Point]) -> float:
    """Max baseline/full cycle ratio over all (layer, budget) pairs.

    This is the figure's headline "up to 6.2x faster execution".
    """
    by_key: Dict[tuple, Dict[str, float]] = {}
    for p in points:
        if p.cycles is not None:
            by_key.setdefault((p.layer, p.budget_bytes), {})[p.strategy] = p.cycles
    best = 1.0
    for cell in by_key.values():
        if "baseline" in cell and "full" in cell and cell["full"] > 0:
            best = max(best, cell["baseline"] / cell["full"])
    return best


def format_fig4(points: List[Fig4Point]) -> str:
    """Per-layer table: cycles per strategy across the budget sweep."""
    by_layer: Dict[str, Dict[int, Dict[str, Fig4Point]]] = {}
    for p in points:
        by_layer.setdefault(p.layer, {}).setdefault(
            p.budget_bytes, {})[p.strategy] = p
    blocks = []
    for layer, by_budget in by_layer.items():
        headers = ["L1 budget kB", "baseline", "pe-only", "full",
                   "speedup", "tiling?"]
        rows = []
        for budget in sorted(by_budget, reverse=True):
            cell = by_budget[budget]
            base = cell.get("baseline")
            full = cell.get("full")
            speedup = None
            if base and full and base.cycles and full.cycles:
                speedup = f"{base.cycles / full.cycles:.2f}x"
            rows.append([
                budget // 1024,
                None if not base or base.cycles is None else f"{base.cycles:.0f}",
                None if "pe-only" not in cell or cell["pe-only"].cycles is None
                else f"{cell['pe-only'].cycles:.0f}",
                None if not full or full.cycles is None else f"{full.cycles:.0f}",
                speedup,
                None if not full else
                ("no" if full.needs_tiling is False else "yes"),
            ])
        blocks.append(format_table(headers, rows,
                                   title=f"Fig. 4 — layer {layer} (cycles)"))
    return "\n\n".join(blocks)
