"""Extensions beyond the paper's evaluation.

These modules explore directions the paper positions itself against or
defers to future work: depth-first (patch-based) execution as in
MCUNetV2 [11] / DepFiN [12], and the analog-noise study hooks.
"""

from .depthfirst import (
    DepthFirstPlan, analyze_depth_first, chain_runs_from_steps,
    chain_savings, layer_by_layer_span_bytes, plan_chain_grid,
    plan_depthfirst_steps,
)

__all__ = [
    "DepthFirstPlan", "analyze_depth_first", "chain_runs_from_steps",
    "chain_savings", "layer_by_layer_span_bytes", "plan_chain_grid",
    "plan_depthfirst_steps",
]
