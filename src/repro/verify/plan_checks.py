"""Compiled-plan / tiling verifier.

Checks the executable program a compile produced: dataflow order over
named buffers, exact tile coverage of every accelerator layer's output
geometry (no gaps, no overlaps, partial-sum blocks that tile the input
channels exactly), per-tile L1 footprints within the budget the tiler
promised, and that the recorded per-tile byte counts — the inputs of
the DMA/cycle cost model — agree with values re-derived from the layer
geometry.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.program import AccelStep, CompiledModel, CpuKernelStep
from ..dory.tiler import _l1_bytes
from ..dory.tiling_types import tiles_of
from ..dory.weights import fits_weight_memory
from ..soc.params import DianaParams
from .diagnostics import Diagnostic, error

_STAGE = "plan"


def _check_dataflow(compiled: CompiledModel,
                    diags: List[Diagnostic]) -> None:
    """Every operand produced before consumed; unique producers."""
    available = set(compiled.input_names)
    for step in compiled.steps:
        for name in step.input_names:
            if name not in available:
                diags.append(error(
                    "V-PLAN-001", _STAGE,
                    f"consumes {name!r} which no earlier step produced",
                    step.name))
        if step.output_name in available:
            diags.append(error(
                "V-PLAN-002", _STAGE,
                f"produces {step.output_name!r} which already exists",
                step.name))
        available.add(step.output_name)
        for name in list(step.input_names) + [step.output_name]:
            if name not in compiled.buffers:
                diags.append(error(
                    "V-PLAN-003", _STAGE,
                    f"buffer {name!r} has no BufferSpec", step.name))
    if compiled.output_name not in available:
        diags.append(error(
            "V-PLAN-003", _STAGE,
            f"network output {compiled.output_name!r} is never produced"))


def _check_geometry(step: AccelStep, compiled: CompiledModel,
                    diags: List[Diagnostic]) -> bool:
    """Layer spec self-consistent and matching its input buffers."""
    spec = step.spec
    try:
        spec.validate()
    except Exception as exc:
        diags.append(error("V-PLAN-008", _STAGE, str(exc), step.name))
        return False
    data_inputs = step.input_names[:2 if spec.kind == "add" else 1]
    for name in data_inputs:
        buf = compiled.buffers.get(name)
        if buf is not None and \
                buf.ttype.num_elements != spec.input_elements():
            diags.append(error(
                "V-PLAN-008", _STAGE,
                f"spec reads {spec.input_elements()} elements but buffer "
                f"{name!r} holds {buf.ttype.num_elements}", step.name))
    return True


def _check_tiles(step: AccelStep, compiled: CompiledModel,
                 diags: List[Diagnostic]) -> None:
    """Tile loop covers the written output exactly, reductions tile C."""
    spec, cfg = step.spec, step.tiling.cfg
    out_buf = compiled.buffers.get(step.output_name)
    if out_buf is not None and \
            out_buf.ttype.num_elements != spec.out_channels * spec.oy * spec.ox:
        diags.append(error(
            "V-PLAN-004", _STAGE,
            f"tile grid spans {spec.out_channels}x{spec.oy}x{spec.ox} "
            f"(= {spec.out_channels * spec.oy * spec.ox} elements) but "
            f"the output buffer {step.output_name!r} holds "
            f"{out_buf.ttype.num_elements} — the loop would write "
            "outside the tensor or leave part of it stale", step.name))
    coverage = np.zeros((spec.out_channels, spec.oy, spec.ox),
                        dtype=np.int32)
    red_blocks = {}
    for t in tiles_of(spec, cfg):
        if (t.k0 < 0 or t.oy0 < 0 or t.ox0 < 0
                or t.k1 > spec.out_channels or t.oy1 > spec.oy
                or t.ox1 > spec.ox):
            diags.append(error(
                "V-PLAN-004", _STAGE,
                f"tile [{t.k0}:{t.k1}, {t.oy0}:{t.oy1}, {t.ox0}:{t.ox1}] "
                f"exceeds the {spec.out_channels}x{spec.oy}x{spec.ox} "
                "output", step.name))
            return
        if t.last_reduction:
            coverage[t.k0:t.k1, t.oy0:t.oy1, t.ox0:t.ox1] += 1
        red_blocks.setdefault((t.k0, t.oy0, t.ox0), []).append(
            (t.c0, t.c1, t.last_reduction))
    if coverage.min() < 1:
        missed = int((coverage == 0).sum())
        diags.append(error(
            "V-PLAN-004", _STAGE,
            f"tile loop leaves {missed} of {coverage.size} output "
            "elements uncovered (gap)", step.name))
    if coverage.max() > 1:
        multi = int((coverage > 1).sum())
        diags.append(error(
            "V-PLAN-004", _STAGE,
            f"tile loop writes {multi} output elements more than once "
            "(overlap)", step.name))
    for (k0, oy0, ox0), blocks in red_blocks.items():
        cursor = 0
        bad = blocks[-1][1] != spec.in_channels or not blocks[-1][2] \
            or any(last for c0, c1, last in blocks[:-1])
        for c0, c1, _last in blocks:
            if c0 != cursor or c1 <= c0:
                bad = True
                break
            cursor = c1
        if bad or cursor != spec.in_channels:
            diags.append(error(
                "V-PLAN-004", _STAGE,
                f"partial-sum blocks of output tile ({k0},{oy0},{ox0}) do"
                f" not tile the {spec.in_channels} input channels exactly",
                step.name))
            return


def _check_l1(step: AccelStep, params: DianaParams,
              l1_budget: Optional[int],
              diags: List[Diagnostic]) -> None:
    """Eq. 2 feasibility + recorded bytes == re-derived bytes."""
    spec, sol = step.spec, step.tiling
    in_b, out_b, w_b = _l1_bytes(spec, sol.cfg, step.accel_target)
    budget = params.l1_bytes if l1_budget is None else int(l1_budget)
    if in_b + out_b + w_b > budget:
        diags.append(error(
            "V-PLAN-005", _STAGE,
            f"nominal tile footprint {in_b + out_b + w_b} B "
            f"(in {in_b} + out {out_b} + weights {w_b}) exceeds the "
            f"L1 budget {budget} B", step.name))
    recorded = (sol.l1_in_bytes, sol.l1_out_bytes, sol.l1_weight_bytes)
    if recorded != (in_b, out_b, w_b):
        diags.append(error(
            "V-PLAN-006", _STAGE,
            f"recorded per-tile bytes {recorded} disagree with the "
            f"re-derived (in, out, weight) = ({in_b}, {out_b}, {w_b}) — "
            "the cost model would price the wrong DMA stream", step.name))
    if not fits_weight_memory(w_b, step.accel_target, params):
        diags.append(error(
            "V-PLAN-007", _STAGE,
            f"weight tile {w_b} B exceeds the digital weight "
            f"memory ({params.dig_weight_bytes} B)", step.name))


def check_compiled_plan(compiled: CompiledModel,
                        params: Optional[DianaParams] = None,
                        l1_budget: Optional[int] = None,
                        accelerators: Optional[List[str]] = None
                        ) -> List[Diagnostic]:
    """Run every compiled-plan invariant check; returns the findings.

    ``params`` enables the L1/weight-memory budget checks,
    ``l1_budget`` mirrors ``CompilerConfig.l1_budget`` (Eq. 2 override)
    and ``accelerators`` — when given — restricts legal step targets.
    """
    diags: List[Diagnostic] = []
    _check_dataflow(compiled, diags)
    for step in compiled.steps:
        if isinstance(step, CpuKernelStep):
            if step.body is None:
                diags.append(error(
                    "V-PLAN-008", _STAGE, "CPU step carries no fused body",
                    step.name))
            continue
        if not isinstance(step, AccelStep):
            diags.append(error(
                "V-PLAN-008", _STAGE,
                f"unknown step type {type(step).__name__}", step.name))
            continue
        if step.spec is None or step.tiling is None:
            diags.append(error(
                "V-PLAN-008", _STAGE,
                "accelerator step carries no spec/tiling", step.name))
            continue
        if accelerators is not None and \
                step.accel_target not in accelerators:
            diags.append(error(
                "V-PLAN-009", _STAGE,
                f"targets {step.accel_target!r}; platform offers "
                f"{sorted(accelerators)}", step.name))
        if not _check_geometry(step, compiled, diags):
            continue
        _check_tiles(step, compiled, diags)
        if params is not None:
            _check_l1(step, params, l1_budget, diags)
    return diags
