"""Performance counters, mirroring DIANA's RISC-V hardware counters.

Cycles are accumulated per category so benchmarks can report both the
"Peak" view (accelerator busy time, including the weight transfer that
the paper notes "is orchestrated in the same instruction") and the full
"HTVM" view (everything between kernel call and return on the host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


#: categories counted towards the accelerator-peak measurement.
PEAK_CATEGORIES = ("accel_compute", "weight_dma")
#: categories additionally counted in the full HTVM kernel call.
CALL_CATEGORIES = PEAK_CATEGORIES + ("act_dma", "runtime", "tile_loop")


@dataclass
class KernelRecord:
    """Cycle breakdown of one executed kernel call.

    ``counts`` are the modeled events of the call (see
    :mod:`repro.runtime.cost`); ``cycles`` is their price per category.
    """

    name: str
    target: str
    cycles: Dict[str, float] = field(default_factory=dict)
    macs: int = 0
    num_tiles: int = 1
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, category: str, cycles: float):
        self.cycles[category] = self.cycles.get(category, 0.0) + cycles

    @property
    def peak_cycles(self) -> float:
        """Accelerator busy time incl. weight transfer (paper Sec. IV-B)."""
        if self.target == "cpu":
            return self.total_cycles
        return sum(self.cycles.get(c, 0.0) for c in PEAK_CATEGORIES)

    @property
    def total_cycles(self) -> float:
        """Full call-to-return time on the RISC-V host."""
        return sum(self.cycles.values())

    @property
    def throughput_macs_per_cycle(self) -> float:
        total = self.total_cycles
        return self.macs / total if total else 0.0


class PerfCounters:
    """Accumulates kernel records for one network execution."""

    def __init__(self):
        self.records: List[KernelRecord] = []

    def start_kernel(self, name: str, target: str, macs: int = 0) -> KernelRecord:
        rec = KernelRecord(name=name, target=target, macs=macs)
        self.records.append(rec)
        return rec

    @property
    def total_cycles(self) -> float:
        return sum(r.total_cycles for r in self.records)

    @property
    def peak_cycles(self) -> float:
        """Sum of per-kernel peak views (CPU kernels count fully)."""
        return sum(r.peak_cycles for r in self.records)

    def cycles_by_target(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.target] = out.get(r.target, 0.0) + r.total_cycles
        return out

    def cycles_by_category(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for r in self.records:
            for cat, cyc in r.cycles.items():
                out[cat] = out.get(cat, 0.0) + cyc
        return out
