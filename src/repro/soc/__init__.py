"""Simulated heterogeneous platforms: CPU, accelerators, memories.

The stock platform is the DIANA SoC of the paper; additional platforms
register declaratively through :mod:`repro.soc.registry` and are
constructed via :func:`get_platform` — the single construction path
used by the compiler, runtime, serving, and eval layers.
"""

from .params import DEFAULT_PARAMS, DianaParams, latency_ms
from .memory import Allocation, MemoryRegion
from .dma import contiguous_chunks, tile_transfer_counts
from .perf import KernelRecord, PerfCounters
from .digital import DigitalAccelerator
from .analog import AnalogAccelerator
from .platform import Platform
from .registry import (
    DEFAULT_PLATFORM, PlatformSpec, get_platform, get_platform_spec,
    platform_names, register_platform, unregister_platform, validate_spec,
)
from .energy import (
    DEFAULT_ENERGY, EnergyParams, energy_by_target_uj, execution_energy_uj,
    kernel_energy_pj,
)

__all__ = [
    "DEFAULT_PARAMS", "DianaParams", "latency_ms",
    "Allocation", "MemoryRegion",
    "contiguous_chunks", "tile_transfer_counts",
    "KernelRecord", "PerfCounters",
    "DigitalAccelerator", "AnalogAccelerator",
    "Platform",
    "DEFAULT_PLATFORM", "PlatformSpec", "get_platform", "get_platform_spec",
    "platform_names", "register_platform", "unregister_platform",
    "validate_spec",
    "DEFAULT_ENERGY", "EnergyParams", "energy_by_target_uj",
    "execution_energy_uj", "kernel_energy_pj",
]
