"""Verification entry points: one call per target kind, plus the grid.

``verify_graph`` / ``verify_model`` / ``verify_artifact`` wrap the
checker families into :class:`~repro.verify.diagnostics.CheckResult`
aggregates, ``assert_valid`` turns a failed result into a
:class:`~repro.errors.VerificationError`, and ``verify_grid`` runs the
clean-pass sweep CI gates on: every zoo model x every Table I
configuration, checked both as a fresh compile and as a packed ``.dna``
artifact.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, List, Optional

from ..errors import OutOfMemoryError, VerificationError
from .artifact_checks import check_artifact_dict, check_artifact_file
from .diagnostics import CHECK_SCHEMA, CheckResult, info
from .graph_checks import check_graph
from .memory_checks import check_memory_plan
from .plan_checks import check_compiled_plan


def verify_graph(graph: Any, stage: str = "graph",
                 target: str = "") -> CheckResult:
    """Run the graph verifier over one IR graph."""
    result = CheckResult(target=target or getattr(graph, "name", "graph"))
    result.add(check_graph(graph, stage=stage), "graph")
    return result


def verify_model(compiled: Any, soc: Any = None,
                 config: Any = None) -> CheckResult:
    """Run graph + memory-plan + compiled-plan checks over a compile.

    ``soc`` enables the platform-budget checks (L2 capacity, L1 tile
    footprints, digital weight memory, legal targets); ``config``
    carries the compile-time overrides (``check_l2``, ``l1_budget``).
    """
    label = f"{compiled.name}" + (
        f"[{compiled.config_name}]" if compiled.config_name else "")
    result = CheckResult(target=label)
    if compiled.graph is not None:
        result.add(check_graph(compiled.graph, stage="graph"), "graph")
    result.add(check_memory_plan(
        compiled,
        l2_bytes=soc.params.l2_bytes if soc is not None else None,
        check_l2=config.check_l2 if config is not None else True,
    ), "memory")
    result.add(check_compiled_plan(
        compiled,
        params=soc.params if soc is not None else None,
        l1_budget=config.l1_budget if config is not None else None,
        accelerators=(list(soc.accelerators) if soc is not None else None),
    ), "plan")
    return result


def verify_artifact(target: Any, deep: bool = True) -> CheckResult:
    """Run the artifact verifier over a ``.dna`` path or raw dict."""
    if isinstance(target, dict):
        label = str(target.get("model", "artifact"))
        diags = check_artifact_dict(target, deep=deep)
    else:
        label = os.path.basename(str(target))
        diags = check_artifact_file(str(target), deep=deep)
    result = CheckResult(target=label)
    result.add(diags, "artifact")
    return result


def assert_valid(result: CheckResult) -> CheckResult:
    """Raise :class:`VerificationError` when ``result`` has errors."""
    if not result.ok:
        raise VerificationError(result.render())
    return result


def verify_grid(models: Optional[List[str]] = None,
                configs: Optional[List[str]] = None,
                artifacts: bool = True) -> List[CheckResult]:
    """Clean-pass sweep: zoo models x Table I configurations.

    Each cell is compiled fresh and verified; with ``artifacts=True``
    the deployment is additionally packed to a ``.dna`` file and the
    file re-verified (deep mode). Cells whose deployment legitimately
    does not fit L2 — the paper's MobileNet-on-plain-TVM OoM — are
    recorded as an INFO-level ``V-RUN-001`` skip, not a failure.
    """
    from ..core.compiler import compile_model
    from ..eval.harness import CONFIGS, resolve_config
    from ..frontend.modelzoo import MLPERF_TINY
    from ..serve.artifact import save_artifact

    results: List[CheckResult] = []
    for model in (models or sorted(MLPERF_TINY)):
        for config_name in (configs or list(CONFIGS)):
            precision, soc, config = resolve_config(config_name)
            graph = MLPERF_TINY[model](precision=precision)
            label = f"{model}/{config_name}"
            try:
                compiled = compile_model(graph, soc, config)
            except OutOfMemoryError as exc:
                skip = CheckResult(target=label)
                skip.add([info("V-RUN-001", "compile", str(exc))], "run")
                results.append(skip)
                continue
            result = verify_model(compiled, soc=soc, config=config)
            result.target = label
            results.append(result)
            if not artifacts:
                continue
            art_result = CheckResult(target=f"{label}.dna")
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, f"{model}-{config_name}.dna")
                save_artifact(path, compiled, soc, config)
                art_result.add(check_artifact_file(path, deep=True),
                               "artifact")
            results.append(art_result)
    return results


def grid_report(results: List[CheckResult]) -> Dict[str, Any]:
    """The ``repro check --json`` document (schema ``repro-check/1``)."""
    return {
        "schema": CHECK_SCHEMA,
        "ok": all(r.ok for r in results),
        "targets": [r.to_dict() for r in results],
    }
