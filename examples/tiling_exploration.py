#!/usr/bin/env python3
"""Explore DORY's hardware-aware tiling (the paper's Fig. 4 machinery).

Takes one large convolution (the paper's L3: 64->128 channels, 3x3,
32x32 maps = 75.5 MMACs, 72 kB of weights) and shows, for a shrinking
L1 budget, which tile the solver picks under each heuristic strategy
and what it costs on the digital accelerator.

Run:  python examples/tiling_exploration.py
"""

from repro.dory import (
    DoryTiler, digital_heuristics, digital_pe_only_heuristics,
    no_heuristics,
)
from repro.eval.tables import format_table
from repro.frontend.modelzoo import fig4_layers
from repro.runtime.cost import cost_layer
from repro.soc import get_platform

STRATEGIES = [
    ("only tile size (baseline)", no_heuristics),
    ("+ PE utilization (Eqs. 3-4)", digital_pe_only_heuristics),
    ("+ DMA heuristic (Eqs. 3-5)", digital_heuristics),
]


def main():
    soc = get_platform("diana")
    accel = soc.accelerator("soc.digital")
    layer = fig4_layers()[3]  # L3
    print(f"layer {layer.name}: C={layer.in_channels} K={layer.out_channels} "
          f"{layer.iy}x{layer.ix}, {layer.macs() / 1e6:.1f} MMACs, "
          f"{layer.weight_elements() / 1024:.0f} kB weights\n")

    for kb in (256, 64, 16, 8, 4):
        budget = kb * 1024
        rows = []
        for label, factory in STRATEGIES:
            tiler = DoryTiler("soc.digital", soc.params, factory(),
                              l1_budget=budget)
            sol = tiler.solve(layer)
            rec = cost_layer(layer, sol, accel, soc.params)
            cfg = sol.cfg
            rows.append([
                label,
                f"C{cfg.c_t} K{cfg.k_t} OY{cfg.oy_t}",
                sol.num_tiles,
                f"{sol.l1_total_bytes / 1024:.1f}",
                f"{rec.total_cycles:,.0f}",
                f"{rec.macs / rec.total_cycles:.1f}",
            ])
        print(format_table(
            ["strategy", "tile", "#tiles", "L1 kB", "cycles", "MAC/cy"],
            rows, title=f"L1 budget = {kb} kB"
                        + ("  (no tiling needed)" if kb == 256 else "")))
        print()

    print("note how the baseline drifts to hardware-hostile tile sizes as")
    print("the budget shrinks, while the Eq. 3-5 heuristics keep channel /")
    print("width tiles aligned to the 16x16 PE array and rows streaming")
    print("contiguously (paper Fig. 4: up to 6.2x faster execution).")


if __name__ == "__main__":
    main()
