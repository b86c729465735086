"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but quantitative support for its design
arguments:

1. L2 buffer reuse (HTVM's memory schedule) vs. naive allocation,
2. individual tiling-heuristic terms (Eq. 3-4 vs. Eq. 5),
3. the double-buffered DMA pipeline vs. a serial-transfer model,
4. analog macro noise sensitivity (extension experiment).
"""

import numpy as np
import pytest

from repro.core import HTVM, TVM_CPU, compile_model
from repro.dory import (
    DoryTiler, digital_heuristics, digital_pe_only_heuristics,
    make_conv_spec, no_heuristics,
)
from repro.eval.tables import format_table
from repro.frontend.modelzoo import MLPERF_TINY, fig4_layers
from repro.runtime.cost import cost_layer
from repro.soc import get_platform


def test_ablation_memory_planner(report):
    """Buffer reuse shrinks the activation arena by large factors."""
    rows = []
    soc = get_platform("diana", enable_digital=False, enable_analog=False)
    for name, fn in sorted(MLPERF_TINY.items()):
        graph = fn()
        reuse = compile_model(graph, soc,
                              TVM_CPU.with_overrides(buffer_reuse=True,
                                                     check_l2=False))
        naive = compile_model(graph, soc,
                              TVM_CPU.with_overrides(check_l2=False))
        rows.append([
            name,
            f"{naive.memory_plan.arena_bytes / 1024:.1f}",
            f"{reuse.memory_plan.arena_bytes / 1024:.1f}",
            f"{naive.memory_plan.arena_bytes / max(reuse.memory_plan.arena_bytes, 1):.2f}x",
        ])
        assert reuse.memory_plan.arena_bytes <= naive.memory_plan.arena_bytes
    report(format_table(
        ["model", "naive arena kB", "planned arena kB", "reduction"],
        rows, title="Ablation 1 — L2 activation planning (reuse vs naive)"))


def test_ablation_heuristic_terms(report):
    """Contribution of each heuristic term across the Fig. 4 budgets."""
    soc = get_platform("diana")
    accel = soc.accelerator("soc.digital")
    rows = []
    for spec in fig4_layers():
        for budget_kb in (16, 8, 4):
            budget = budget_kb * 1024
            cyc = {}
            for label, heur in (("baseline", no_heuristics()),
                                ("pe-only", digital_pe_only_heuristics()),
                                ("full", digital_heuristics())):
                try:
                    sol = DoryTiler("soc.digital", soc.params, heur,
                                    l1_budget=budget).solve(spec)
                except Exception:
                    cyc[label] = None
                    continue
                cyc[label] = cost_layer(spec, sol, accel,
                                        soc.params).total_cycles
            if cyc.get("baseline") and cyc.get("full"):
                rows.append([
                    spec.name, budget_kb,
                    f"{cyc['baseline']:.0f}",
                    None if cyc["pe-only"] is None else f"{cyc['pe-only']:.0f}",
                    f"{cyc['full']:.0f}",
                    f"{cyc['baseline'] / cyc['full']:.2f}x",
                ])
    report(format_table(
        ["layer", "budget kB", "baseline", "pe-only", "full", "full vs base"],
        rows, title="Ablation 2 — tiling heuristic terms"))


def test_ablation_dma_bandwidth(report):
    """Sensitivity of end-to-end latency to the activation DMA port."""
    from repro.eval.harness import deploy
    from repro.soc import DianaParams
    rows = []
    for bw in (4.0, 8.0, 16.0, 32.0):
        params = DianaParams(dma_act_bytes_per_cycle=bw)
        r = deploy("resnet", "digital", params=params, verify=False)
        rows.append([f"{bw:.0f} B/cy", f"{r.latency_ms:.3f}"])
    report(format_table(["act DMA bandwidth", "ResNet digital ms"], rows,
                        title="Ablation 3 — DMA bandwidth sensitivity"))
    # monotone: more bandwidth never hurts
    vals = [float(r[1]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_ablation_analog_noise(report):
    """Extension: analog accumulator noise vs. output disagreement."""
    from repro.soc import AnalogAccelerator, DEFAULT_PARAMS
    accel = AnalogAccelerator(DEFAULT_PARAMS)
    spec = make_conv_spec("noise_probe", 32, 32, 16, 16, padding=(1, 1),
                          weight_dtype="ternary", shift=4)
    rng = np.random.default_rng(0)
    x = rng.integers(-64, 64, (1, 32, 16, 16)).astype(np.int8)
    w = rng.integers(-1, 2, (32, 32, 3, 3)).astype(np.int8)
    clean = accel.execute(spec, x, w, None)
    rows = []
    prev = 0.0
    for sigma in (0.0, 0.1, 0.5, 1.0, 2.0):
        noisy = accel.execute_noisy(spec, x, w, None, sigma,
                                    np.random.default_rng(42))
        frac = float((noisy != clean).mean())
        rows.append([f"{sigma:.1f}", f"{100 * frac:.2f}%"])
        assert frac >= prev - 0.02  # roughly monotone
        prev = frac
    report(format_table(["noise sigma / row", "outputs changed"], rows,
                        title="Ablation 4 — analog noise sensitivity"))
