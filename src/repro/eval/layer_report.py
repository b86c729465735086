"""Per-layer deployment report — the one per-layer view of a deployment.

DORY-style layer table for a compiled model: one row per step with its
geometry, target, tiling, modeled cycles (total, share of the modeled
total, and split into the executor's phases — the per-kernel costs the
paper's Table I and Fig. 2 sum), throughput and energy.

Given traced ``exec.step`` spans, each row also carries the step's
measured host time (minimum over the traced runs) and its share of the
measured total. Shares compare like with like: the modeled column is a
DIANA cycle budget, the measured one is host wall-clock, and only their
*distributions* over layers are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.program import AccelStep, CompiledModel, CpuKernelStep
from ..soc.energy import kernel_energy_pj
from ..soc.params import DianaParams
from ..soc.perf import PerfCounters
from .tables import format_table

#: ``KernelRecord.cycles`` category -> column header, in display order
PHASES = (
    ("runtime", "runtime"),
    ("weight_dma", "W-DMA"),
    ("act_dma", "A-DMA"),
    ("accel_compute", "compute"),
    ("tile_loop", "tile loop"),
    ("cpu_compute", "CPU"),
)

#: span name of the executor's per-step instrumentation
STEP_SPAN = "exec.step"


@dataclass
class LayerRow:
    """One row of the per-layer report."""

    name: str
    target: str
    geometry: str
    tiles: int
    cycles: float
    macs_per_cycle: float
    energy_uj: float
    phases: Dict[str, float] = field(default_factory=dict)
    measured_ms: Optional[float] = None


def _geometry_of(step) -> str:
    if isinstance(step, AccelStep):
        s = step.spec
        if s.kind == "dense":
            return f"dense {s.in_channels}->{s.out_channels}"
        if s.kind == "add":
            return f"add {s.in_channels}x{s.oy}x{s.ox}"
        tag = "dw" if s.is_depthwise else "conv"
        return (f"{tag} {s.in_channels}->{s.out_channels} "
                f"{s.fy}x{s.fx}/{s.strides[0]} @{s.oy}x{s.ox}")
    if isinstance(step, CpuKernelStep):
        ops = "+".join(c.op.split(".")[-1] for c in step.body.calls())
        return ops[:34]
    return "?"


def measured_step_ms(spans: Iterable, exec_mode: Optional[str] = None,
                     ) -> Dict[str, float]:
    """Host ms per step name: the minimum over its ``exec.step`` spans
    (the least-noise estimate of the step's cost on this host).

    With ``exec_mode``, spans recorded in another mode are ignored — a
    fleet trace also holds the pack-time validation runs (tiled).
    """
    best: Dict[str, float] = {}
    for span in spans:
        if span.name != STEP_SPAN:
            continue
        if exec_mode is not None and span.attrs.get(
                "exec_mode", exec_mode) != exec_mode:
            continue
        step = str(span.attrs.get("step", "?"))
        best[step] = min(best.get(step, span.duration_ms), span.duration_ms)
    return best


def layer_report(model: CompiledModel, perf: PerfCounters,
                 params: DianaParams,
                 measured: Optional[Dict[str, float]] = None,
                 ) -> List[LayerRow]:
    """Join the compiled steps with their kernel records.

    ``perf`` is an execution's ``result.perf`` or
    ``account_model(model, soc)``; ``measured`` maps step names to host
    ms (see :func:`measured_step_ms`).
    """
    measured = measured or {}
    return [LayerRow(
        name=step.name,
        target=step.target,
        geometry=_geometry_of(step),
        tiles=rec.num_tiles,
        cycles=rec.total_cycles,
        macs_per_cycle=rec.throughput_macs_per_cycle,
        energy_uj=kernel_energy_pj(rec, params) / 1e6,
        phases=dict(rec.cycles),
        measured_ms=measured.get(step.name),
    ) for step, rec in zip(model.steps, perf.records)]


def format_layer_report(rows: List[LayerRow],
                        top: Optional[int] = None) -> str:
    """Render the report, optionally only the ``top`` slowest layers.

    The host-ms columns appear only when some row was measured.
    """
    selected = rows
    title = "per-layer report"
    if top is not None:
        selected = sorted(rows, key=lambda r: -r.cycles)[:top]
        title = f"per-layer report — top {top} by cycles"
    total_cycles = sum(r.cycles for r in rows) or 1.0
    timed = any(r.measured_ms is not None for r in rows)
    total_ms = sum(r.measured_ms or 0.0 for r in rows) or 1.0
    headers = ["layer", "target", "geometry", "tiles", "cycles", "share",
               *(h for _, h in PHASES), "MAC/cy", "uJ"]
    if timed:
        headers += ["host ms", "host share"]
    table_rows = []
    for r in selected:
        row = [r.name, r.target, r.geometry, r.tiles, f"{r.cycles:,.0f}",
               f"{100 * r.cycles / total_cycles:.1f}%",
               *(f"{r.phases[c]:,.0f}" if r.phases.get(c) else None
                 for c, _ in PHASES),
               f"{r.macs_per_cycle:.1f}", f"{r.energy_uj:.2f}"]
        if timed:
            row += ([None, None] if r.measured_ms is None else
                    [f"{r.measured_ms:.3f}",
                     f"{100 * r.measured_ms / total_ms:.1f}%"])
        table_rows.append(row)
    return format_table(headers, table_rows, title=title)
