"""Energy model for the simulated DIANA SoC (extension experiment).

The HTVM paper evaluates latency and binary size; the underlying DIANA
ISSCC paper [Ueyoshi et al., 2022] motivates the heterogeneous design
with *energy*: the analog in-memory-compute core delivers roughly an
order of magnitude better energy per MAC than the digital core, which
in turn beats the CPU by more than an order of magnitude (the paper's
introduction: accelerators reduce "energy consumption by more than one
order of magnitude compared to general-purpose processors").

This module converts the executor's cycle/MAC accounting into energy
estimates so deployments can also be compared on energy — an extension
that follows directly from the paper's motivation. Constants are
order-of-magnitude figures for a 22 nm-class TinyML SoC and are
documented per term; they are *not* calibrated against silicon
measurements (none are published per-network).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .params import DianaParams
from .perf import KernelRecord, PerfCounters


@dataclass(frozen=True)
class EnergyParams:
    """Energy constants (picojoules)."""

    #: CPU core energy per cycle (RISC-V @ 260 MHz, ~40 uW/MHz class).
    cpu_pj_per_cycle: float = 160.0
    #: digital accelerator energy per 8-bit MAC.
    digital_pj_per_mac: float = 0.35
    #: analog IMC energy per MAC (ternary, charge-domain).
    analog_pj_per_mac: float = 0.04
    #: accelerator static/control energy per busy cycle.
    accel_pj_per_cycle: float = 25.0
    #: DMA energy per byte moved between L2 and L1 / weight memories.
    dma_pj_per_byte: float = 1.2
    #: host-side energy per cycle spent in runtime / tile loops.
    host_pj_per_cycle: float = 160.0
    #: L2 leakage per cycle of total execution.
    leakage_pj_per_cycle: float = 12.0


DEFAULT_ENERGY = EnergyParams()


def kernel_energy_pj(rec: KernelRecord, soc_params: DianaParams,
                     energy: EnergyParams = DEFAULT_ENERGY) -> float:
    """Energy estimate of one kernel record, by category."""
    total = 0.0
    if rec.target == "cpu":
        return rec.total_cycles * energy.cpu_pj_per_cycle
    if rec.target == "soc.analog":
        total += rec.macs * energy.analog_pj_per_mac
    else:
        total += rec.macs * energy.digital_pj_per_mac
    total += rec.cycles.get("accel_compute", 0.0) * energy.accel_pj_per_cycle
    dma_cycles = (rec.cycles.get("act_dma", 0.0)
                  + rec.cycles.get("weight_dma", 0.0))
    total += dma_cycles * soc_params.dma_bytes_per_cycle * energy.dma_pj_per_byte
    host_cycles = (rec.cycles.get("runtime", 0.0)
                   + rec.cycles.get("tile_loop", 0.0))
    total += host_cycles * energy.host_pj_per_cycle
    return total


def execution_energy_uj(perf: PerfCounters, soc_params: DianaParams,
                        energy: EnergyParams = DEFAULT_ENERGY) -> float:
    """Total inference energy in microjoules."""
    pj = sum(kernel_energy_pj(r, soc_params, energy) for r in perf.records)
    pj += perf.total_cycles * energy.leakage_pj_per_cycle
    return pj / 1e6


def energy_by_target_uj(perf: PerfCounters, soc_params: DianaParams,
                        energy: EnergyParams = DEFAULT_ENERGY
                        ) -> Dict[str, float]:
    """Energy split per execution target, in microjoules."""
    out: Dict[str, float] = {}
    for rec in perf.records:
        out[rec.target] = out.get(rec.target, 0.0) + kernel_energy_pj(
            rec, soc_params, energy) / 1e6
    return out
