"""Deployment harness: the four Table I configurations, end to end.

Each configuration pairs a model *precision variant* with a platform
setup, exactly mirroring the paper's columns:

* ``cpu-tvm``  — int8 model, no accelerators, plain-TVM flow
  (no offload, no buffer reuse, TVM runtime),
* ``digital``  — int8 model, digital accelerator only, HTVM flow,
* ``analog``   — ternary model, analog accelerator only, HTVM flow,
* ``mixed``    — mixed-precision model, both accelerators, HTVM flow.

Every run is verified bit-exact against the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.compiler import compile_model
from ..core.config import HTVM, TVM_CPU
from ..core.program import CompiledModel
from ..errors import OutOfMemoryError
from ..frontend.modelzoo import MLPERF_TINY
from ..runtime import ExecutionResult, Executor, random_inputs, run_reference
from ..soc import DianaParams, get_platform, get_platform_spec, latency_ms
from .grid import fan_out
from .tables import format_table, fmt_ms
from . import paper

#: configuration label -> (model precision, soc kwargs, compiler config)
CONFIGS: Dict[str, tuple] = {
    "cpu-tvm": ("int8", dict(enable_digital=False, enable_analog=False),
                TVM_CPU),
    "digital": ("int8", dict(enable_analog=False), HTVM),
    "analog": ("ternary", dict(enable_digital=False), HTVM),
    "mixed": ("mixed", dict(), HTVM),
}


@dataclass
class DeploymentResult:
    """Outcome of one (model, configuration) deployment."""

    model: str
    config: str
    mapping: str = "rules"
    oom: bool = False
    latency_ms: Optional[float] = None
    peak_ms: Optional[float] = None
    size_kb: Optional[float] = None
    verified: Optional[bool] = None
    compiled: Optional[CompiledModel] = None
    execution: Optional[ExecutionResult] = None


def resolve_config(label: str, *, platform: Optional[str] = None,
                   mapping: Optional[str] = None,
                   depthfirst: Optional[str] = None,
                   params: Optional[DianaParams] = None) -> tuple:
    """``(precision, soc, cfg)`` of one configuration label.

    ``mapping`` / ``depthfirst`` override the label's
    ``CompilerConfig.mapping_strategy`` / ``depthfirst``; ``params``
    overrides the platform's calibration constants. Off the default
    ``"diana"``, ``platform``'s registered spec decides the accelerator
    set and the zoo precision, the label only supplies the compiler
    knobs, and the platform identity flows into the config fingerprint.
    """
    precision, soc_kwargs, cfg = CONFIGS[label]
    if mapping:
        cfg = cfg.with_overrides(mapping_strategy=mapping)
    if depthfirst:
        cfg = cfg.with_overrides(depthfirst=depthfirst)
    if platform and platform != "diana":
        return (get_platform_spec(platform).model_precision,
                get_platform(platform, params=params),
                cfg.with_overrides(platform=platform))
    return precision, get_platform("diana", params=params, **soc_kwargs), cfg


def _finish_deployment(result: DeploymentResult, compiled, soc,
                       seed: int, exec_mode: str,
                       verify: bool) -> DeploymentResult:
    """Shared execute-and-report tail of the deploy entry points."""
    feeds = random_inputs(compiled.graph, seed=seed + 1)
    execution = Executor(soc, exec_mode=exec_mode).run(compiled, feeds)
    if verify:
        reference = run_reference(compiled.graph, feeds)
        result.verified = bool(np.array_equal(
            np.asarray(reference), np.asarray(execution.output)))

    result.latency_ms = latency_ms(execution.total_cycles, soc.params)
    result.peak_ms = latency_ms(execution.peak_cycles, soc.params)
    result.size_kb = compiled.binary_size_bytes / 1024
    result.compiled = compiled
    result.execution = execution
    return result


def deploy(model: str, config: str,
           params: Optional[DianaParams] = None,
           verify: bool = True,
           seed: int = 0,
           exec_mode: str = "tiled",
           mapping: Optional[str] = None,
           depthfirst: Optional[str] = None) -> DeploymentResult:
    """Compile + simulate one MLPerf Tiny model in one configuration.

    ``exec_mode`` selects the simulator's functional path for
    accelerator layers: ``"tiled"`` (default) executes every DORY tile
    and is the verification mode; ``"fast"`` computes full layers in
    one kernel call with byte-identical outputs and identical cycle
    counts; ``"native"`` runs the compiled shared library (see
    :class:`~repro.runtime.Executor`).

    ``mapping`` overrides the configuration's
    ``CompilerConfig.mapping_strategy`` (``"rules"``, ``"greedy"`` or
    ``"dp"``); ``None`` keeps the config's own strategy. ``depthfirst``
    likewise overrides ``CompilerConfig.depthfirst``
    (``"auto"``/``"on"``/``"off"``).

    ``verify`` re-checks the output against the golden reference
    interpreter. A caller that already validated this deployment (e.g.
    the serving path, which checks artifacts once at pack time) passes
    ``verify=False`` to skip it; ``result.verified`` is then ``None``.
    """
    if model not in MLPERF_TINY:
        raise KeyError(f"unknown model {model!r}; have {sorted(MLPERF_TINY)}")
    precision, soc, cfg = resolve_config(config, mapping=mapping,
                                         depthfirst=depthfirst,
                                         params=params)
    graph = MLPERF_TINY[model](precision=precision, seed=seed)

    result = DeploymentResult(model=model, config=config,
                              mapping=cfg.mapping_strategy)
    try:
        compiled = compile_model(graph, soc, cfg)
    except OutOfMemoryError:
        result.oom = True
        # size is still reportable: compile without the L2 check
        compiled = compile_model(graph, soc, cfg.with_overrides(check_l2=False))
        result.size_kb = compiled.binary_size_bytes / 1024
        result.compiled = compiled
        return result

    return _finish_deployment(result, compiled, soc, seed, exec_mode, verify)


def deploy_artifact(artifact,
                    seed: int = 0,
                    exec_mode: str = "fast",
                    verify: bool = False) -> DeploymentResult:
    """Simulate a packed ``.dna`` artifact — no compilation at all.

    ``artifact`` is a path or a
    :class:`~repro.serve.artifact.LoadedArtifact`. By default the
    pack-time validation record is trusted: ``result.verified`` is
    carried over from the artifact and the reference interpreter is
    *not* re-run (the serving hot path). Pass ``verify=True`` to force
    a fresh bit-exact check anyway.
    """
    from ..serve.artifact import LoadedArtifact, load_artifact
    if not isinstance(artifact, LoadedArtifact):
        artifact = load_artifact(artifact)
    result = DeploymentResult(
        model=artifact.model.name, config=artifact.config.name,
        mapping=artifact.config.mapping_strategy)
    result = _finish_deployment(result, artifact.model, artifact.soc,
                                seed, exec_mode, verify)
    if not verify and artifact.validation is not None:
        result.verified = bool(artifact.validation.get("passed"))
    return result


def run_table1(models: Optional[List[str]] = None,
               configs: Optional[List[str]] = None,
               params: Optional[DianaParams] = None,
               verify: bool = True,
               jobs: Optional[int] = None,
               exec_mode: str = "tiled",
               mapping: Optional[str] = None) -> List[DeploymentResult]:
    """All Table I cells (or a subset).

    ``exec_mode`` is forwarded to every :func:`deploy` (``"fast"``
    accelerates large sweeps; results are bit- and cycle-identical).
    ``mapping`` overrides the mapping strategy of every cell (e.g.
    ``"dp"`` regenerates the table under the cost-driven mapper).
    ``jobs > 1`` deploys cells concurrently (thread fan-out; the
    compiler, simulator and the shared tiling cache are thread-safe and
    every cell is independent). Results keep the serial
    model-major/config-minor order and are value-identical to a serial
    run — each deployment is deterministic in (model, config, params).
    """
    models = models or sorted(MLPERF_TINY)
    configs = configs or list(CONFIGS)
    cells = [(m, c) for m in models for c in configs]
    return fan_out(
        lambda cell: deploy(*cell, params=params, verify=verify,
                            exec_mode=exec_mode, mapping=mapping),
        cells, jobs)


def format_table1(results: List[DeploymentResult]) -> str:
    """Paper-style Table I with paper-reported values alongside.

    A ``mapping`` column appears only when some result used a
    non-default strategy, so the baseline rendering is unchanged.
    """
    with_mapping = any(r.mapping != "rules" for r in results)
    headers = ["model", "config"]
    if with_mapping:
        headers.append("mapping")
    headers += ["peak ms", "HTVM ms", "size kB",
                "paper peak", "paper HTVM", "paper kB", "exact"]
    rows = []
    for r in results:
        ref = paper.TABLE1.get(r.model, {}).get(r.config, (None, None, None))
        rows.append([
            r.model, r.config,
            *([r.mapping] if with_mapping else []),
            "OoM" if r.oom else fmt_ms(r.peak_ms),
            "OoM" if r.oom else fmt_ms(r.latency_ms),
            None if r.size_kb is None else f"{r.size_kb:.0f}",
            "OoM" if (ref[1] is None and ref[0] is None) else fmt_ms(ref[0]),
            "OoM" if ref[1] is None else fmt_ms(ref[1]),
            ref[2],
            r.verified,
        ])
    return format_table(
        headers, rows,
        title="Table I — MLPerf Tiny on DIANA (measured vs. paper)")


def summarize_claims(results: List[DeploymentResult]) -> Dict[str, float]:
    """Recompute the paper's headline end-to-end claims."""
    by_key = {(r.model, r.config): r for r in results}

    def lat(model, config):
        r = by_key.get((model, config))
        return r.latency_ms if r and r.latency_ms else None

    claims: Dict[str, float] = {}
    if lat("resnet", "cpu-tvm") and lat("resnet", "digital"):
        claims["resnet_digital_speedup_over_tvm"] = (
            lat("resnet", "cpu-tvm") / lat("resnet", "digital"))
    if lat("resnet", "cpu-tvm") and lat("resnet", "mixed"):
        claims["resnet_mixed_speedup_over_tvm"] = (
            lat("resnet", "cpu-tvm") / lat("resnet", "mixed"))
    if lat("dscnn", "analog") and lat("dscnn", "mixed"):
        claims["dscnn_mixed_speedup_over_analog"] = (
            lat("dscnn", "analog") / lat("dscnn", "mixed"))
    cpu = by_key.get(("resnet", "cpu-tvm"))
    dig = by_key.get(("resnet", "digital"))
    if cpu and dig and cpu.size_kb and dig.size_kb:
        claims["resnet_binary_reduction"] = 1 - dig.size_kb / cpu.size_kb
    return claims
