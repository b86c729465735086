"""Heterogeneous mapping: rules, candidate costing, and global search.

The rule checks and the weight-dtype selector are the paper's
dispatcher (Sec. III-A); a cost-driven engine
(:mod:`repro.mapping.engine`) searches the full mapping design space
on top of them. See DESIGN.md "Layering".
"""

from .candidates import (
    CandidateCost, MappingSite, accel_candidate, cpu_candidate,
    enumerate_sites,
)
from .engine import (
    OBJECTIVES, STRATEGIES, MappingPlan, Objective, TransferEdge,
    analyze_mapping, build_edges, evaluate_assignment, format_plan,
    make_objective, plan_mapping, prepare_graph, transfer_penalty,
)
from .rules import (
    DispatchDecision, dispatchable_layers, eligible_targets,
    layer_spec_of, layer_spec_or_reason,
)
from .selector import (
    assign_targets, dispatch_summary, format_columns, retarget_composites,
    rules_target,
)

__all__ = [
    "CandidateCost", "MappingSite", "accel_candidate", "cpu_candidate",
    "enumerate_sites",
    "OBJECTIVES", "STRATEGIES", "MappingPlan", "Objective", "TransferEdge",
    "analyze_mapping", "build_edges", "evaluate_assignment", "format_plan",
    "make_objective", "plan_mapping", "prepare_graph", "transfer_penalty",
    "DispatchDecision", "dispatchable_layers", "eligible_targets",
    "layer_spec_of", "layer_spec_or_reason",
    "assign_targets", "dispatch_summary", "format_columns",
    "retarget_composites", "rules_target",
]
