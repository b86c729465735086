"""Evaluation harness: Tables I-II and Figs. 4-5 of the paper."""

from . import (
    depthfirst, dse, fig4, fig5, layer_report, mapping_dse, paper, sota,
    sweep,
)
from .depthfirst import (
    DepthFirstReport, depthfirst_report, format_depthfirst_reports,
    run_depthfirst_reports,
)
from .harness import (
    CONFIGS, DeploymentResult, deploy, deploy_artifact,
    format_table1, resolve_config, run_table1,
    summarize_claims,
)
from .tables import format_table

__all__ = [
    "depthfirst", "dse", "fig4", "fig5", "layer_report", "mapping_dse",
    "paper", "sota", "sweep",
    "DepthFirstReport", "depthfirst_report", "format_depthfirst_reports",
    "run_depthfirst_reports",
    "CONFIGS", "DeploymentResult", "deploy", "deploy_artifact",
    "format_table1", "resolve_config", "run_table1",
    "summarize_claims", "format_table",
]
