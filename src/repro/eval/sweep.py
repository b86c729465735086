"""Design-space exploration sweeps.

Because both the compiler and the platform are parameterized, the
reproduction doubles as an architectural what-if tool: how would the
MLPerf Tiny results change with a smaller L1, a bigger PE array, a
faster DMA port, or a different weight memory? The paper motivates
exactly this kind of hardware/software co-design loop (Sec. II:
"Hardware-software co-design is a crucial ingredient").

Each sweep recompiles (the tiler adapts to the new constraints) and
re-simulates, so results include compiler adaptation, not just linear
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ReproError
from ..soc import DianaParams
from .grid import fan_out
from .harness import deploy
from .tables import format_table


@dataclass
class SweepPoint:
    """One (parameter value, model) measurement."""

    param: str
    value: object
    model: str
    config: str
    latency_ms: Optional[float]
    size_kb: Optional[float]
    oom: bool = False


def sweep_param(param: str, values: Sequence, model: str = "resnet",
                config: str = "digital",
                base: Optional[DianaParams] = None,
                jobs: Optional[int] = None,
                exec_mode: str = "fast",
                mapping: Optional[str] = None) -> List[SweepPoint]:
    """Re-deploy ``model`` while sweeping one platform parameter.

    ``param`` must be a field of :class:`~repro.soc.DianaParams`
    (e.g. ``"l1_bytes"``, ``"dma_act_bytes_per_cycle"``,
    ``"dig_weight_bytes"``). ``mapping`` selects the mapping strategy
    each point compiles with (the cost-driven mapper re-adapts the
    assignment to every swept platform).

    Sweeps default to ``exec_mode="fast"``: cycle counts (the sweep's
    output) are identical to tiled execution, and tile-accurate
    functional simulation of every point would only burn wall-clock —
    pass ``exec_mode="tiled"`` to re-verify schedules anyway.

    ``jobs > 1`` evaluates the sweep points concurrently; each point is
    an independent (params, model) deployment, so the result list is
    identical to the serial one (and stays in ``values`` order).
    """
    base = base or DianaParams()
    if not hasattr(base, param):
        raise ReproError(f"unknown platform parameter {param!r}")

    def _point(value) -> SweepPoint:
        params = base.with_overrides(**{param: value})
        try:
            r = deploy(model, config, params=params, verify=False,
                       exec_mode=exec_mode, mapping=mapping)
        except ReproError:
            return SweepPoint(param, value, model, config,
                              None, None, oom=True)
        return SweepPoint(
            param, value, model, config,
            latency_ms=r.latency_ms, size_kb=r.size_kb, oom=r.oom)

    return fan_out(_point, values, jobs)


def l1_size_sweep(model: str = "resnet",
                  sizes_kb: Sequence[int] = (256, 128, 64, 32, 16, 8),
                  config: str = "digital") -> List[SweepPoint]:
    """How much shared L1 does the deployment actually need?"""
    return sweep_param("l1_bytes", [kb * 1024 for kb in sizes_kb],
                       model=model, config=config)


def weight_memory_sweep(model: str = "toyadmos",
                        sizes_kb: Sequence[int] = (64, 32, 16, 8),
                        config: str = "digital") -> List[SweepPoint]:
    """Shrinking the digital weight memory forces more K-tiling."""
    return sweep_param("dig_weight_bytes", [kb * 1024 for kb in sizes_kb],
                       model=model, config=config)


def format_sweep(points: List[SweepPoint], unit: str = "") -> str:
    if not points:
        return "(empty sweep)"
    param = points[0].param
    rows = []
    for p in points:
        rows.append([
            f"{p.value}{unit}",
            "OoM/infeasible" if (p.oom or p.latency_ms is None)
            else f"{p.latency_ms:.3f}",
            None if p.size_kb is None else f"{p.size_kb:.0f}",
        ])
    return format_table(
        [param, f"{points[0].model} {points[0].config} ms", "size kB"],
        rows, title=f"sweep: {param} ({points[0].model}/{points[0].config})")
