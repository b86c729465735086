"""All cost-model calibration constants for the simulated DIANA SoC.

Every latency / size number the simulator produces is derived from the
constants in this module. Architectural constants (memory sizes, array
dimensions, clock) are taken directly from the paper and the DIANA ISSCC
paper [Ueyoshi et al., 2022]; throughput/overhead constants are
calibrated so the *relative* results of the paper's evaluation (Fig. 4,
Fig. 5, Tables I-II) hold. EXPERIMENTS.md records paper-vs-measured for
each.

Sources for the architectural facts (paper Sec. III-C / Fig. 3):

* RISC-V RV32IMCFXpulpV2 host at 260 MHz,
* digital accelerator: 16x16 PE array, 256 8-bit MACs/cycle peak,
* analog accelerator: 1152x512 in-memory-compute array, 7-bit inputs,
  ternary weights,
* 256 kB shared L1 activation memory, 64 kB digital weight memory,
  144 kB analog weight memory (= 1152*512 ternary cells),
* 512 kB shared L2 memory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from ..errors import PlatformError

#: throughputs (bytes, MACs or elements per cycle): finite and > 0.
RATE_FIELDS = ("dma_bytes_per_cycle", "dma_act_bytes_per_cycle",
               "dig_dw_macs_per_cycle", "dig_simd_elems_per_cycle")
#: cycles per event (overheads and per-unit costs): finite and >= 0.
CYCLE_FIELDS = (
    "dma_setup_cycles", "dma_chunk_cycles", "dig_job_overhead",
    "ana_job_overhead", "ana_row_write_cycles", "ana_pixel_cycles",
    "cpu_cycles_per_mac_conv", "cpu_cycles_per_mac_dwconv",
    "cpu_cycles_per_mac_dense", "cpu_cycles_per_elem_simple",
    "cpu_cycles_per_elem_pool", "cpu_cycles_per_elem_softmax",
    "cpu_cycles_per_elem_copy", "runtime_call_overhead",
    "tile_loop_overhead")


@dataclass(frozen=True)
class DianaParams:
    """Architecture + calibration constants of the simulated platform."""

    # ---- architecture (from the paper) ------------------------------------
    clock_hz: float = 260e6
    l1_bytes: int = 256 * 1024          #: shared accelerator activation L1
    l2_bytes: int = 512 * 1024          #: shared main memory (activations + spill)
    dig_weight_bytes: int = 64 * 1024   #: digital accelerator weight memory
    dig_pe_rows: int = 16               #: PE array rows (input-channel dim)
    dig_pe_cols: int = 16               #: PE array cols (feature-width dim)
    ana_rows: int = 1152                #: IMC macro rows (C*fy*fx dim)
    ana_cols: int = 512                 #: IMC macro cols (K dim)

    # ---- DMA (L2 <-> L1 / weight memories) --------------------------------
    #: weight-path DMA bandwidth (L2 -> accelerator weight memories);
    #: the private weight SRAMs have a narrow write port.
    dma_bytes_per_cycle: float = 4.0
    #: activation-path DMA bandwidth (L2 <-> shared L1, wide TCDM port).
    dma_act_bytes_per_cycle: float = 16.0
    #: fixed cycles per DMA job (programming the uDMA).
    dma_setup_cycles: int = 40
    #: extra cycles per non-contiguous chunk (1D burst descriptor).
    dma_chunk_cycles: int = 12

    # ---- digital accelerator ----------------------------------------------
    #: fixed cycles per offloaded job (trigger + handshake + drain).
    dig_job_overhead: int = 700
    #: effective peak MACs/cycle for depthwise conv (paper Sec. IV-B:
    #: "one row of PEs ... at a maximum peak throughput of 3.75 MACs/cycle").
    dig_dw_macs_per_cycle: float = 3.75
    #: SIMD elementwise throughput (adds, requant) in elements/cycle.
    dig_simd_elems_per_cycle: float = 8.0

    # ---- analog accelerator -----------------------------------------------
    #: fixed cycles per offloaded job (incl. analog bias/settling setup).
    ana_job_overhead: int = 1500
    #: cycles to program one row of the IMC macro with ternary weights.
    ana_row_write_cycles: float = 60.0
    #: cycles per output-pixel macro activation (DAC/ADC + settling).
    ana_pixel_cycles: float = 20.0
    #: L2 storage row padding for spatial convolutions (paper: "some layer
    #: dimensions require padding the L2 memory with zeros to fill a part
    #: of the large IMC macro").
    ana_row_pad_conv: int = 1152
    #: L2 storage row padding for 1x1 convolutions / FC layers.
    ana_row_pad_pw: int = 288

    # ---- RISC-V CPU kernel throughput (TVM-generated, -O3, XpulpV2) -------
    cpu_cycles_per_mac_conv: float = 2.8
    cpu_cycles_per_mac_dwconv: float = 10.0
    cpu_cycles_per_mac_dense: float = 4.6
    cpu_cycles_per_elem_simple: float = 2.0     #: add/clip/shift/cast chains
    cpu_cycles_per_elem_pool: float = 3.0
    cpu_cycles_per_elem_softmax: float = 40.0
    cpu_cycles_per_elem_copy: float = 0.75      #: reshape/layout copies

    # ---- HTVM runtime (paper Sec. IV-B: "full kernel call ... measured
    # between the call and return on the RISC-V host") -----------------------
    #: cycles of runtime dispatch per kernel call (argument marshalling,
    #: L2 allocator bookkeeping).
    runtime_call_overhead: int = 450
    #: CPU cycles per tile iteration for loop management + DMA issue.
    tile_loop_overhead: int = 120

    # ---- binary size model (bytes) -----------------------------------------
    #: base runtime footprint of a plain TVM deployment (graph runtime).
    size_tvm_runtime: int = 16 * 1024
    #: base runtime footprint of HTVM's "low-overhead runtime".
    size_htvm_runtime: int = 10 * 1024
    #: compiled size of one unique TVM CPU kernel, by kind.
    size_cpu_kernel: dict = field(default_factory=lambda: {
        "conv2d": 3500, "dwconv2d": 2000, "dense": 1200,
        "pool": 600, "softmax": 800, "add": 500, "elementwise": 350,
        "copy": 120,
    })
    #: compiled size of one DORY accelerator layer driver, by target.
    #: Analog drivers are bigger: they embed the per-layer macro
    #: configuration (row/column mapping tables, DAC/ADC setup).
    size_accel_driver: dict = field(default_factory=lambda: {
        "soc.digital": 1600, "soc.analog": 3000,
    })

    def __post_init__(self):
        """Reject, naming the field, constants the cost model cannot
        use: rates, the clock and memory sizes must be finite and > 0,
        cycle constants finite and >= 0."""
        for name in (RATE_FIELDS + CYCLE_FIELDS
                     + ("clock_hz", "l1_bytes", "l2_bytes")):
            value, cycles = getattr(self, name), name in CYCLE_FIELDS
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and (value >= 0 if cycles else value > 0)):
                raise PlatformError(
                    f"DianaParams.{name} must be a finite number "
                    f"{'>= 0' if cycles else '> 0'}, got {value!r}")

    def with_overrides(self, **kwargs) -> "DianaParams":
        """A copy with selected constants replaced (for ablations)."""
        return replace(self, **kwargs)


#: The default calibrated parameter set used throughout the benchmarks.
DEFAULT_PARAMS = DianaParams()


def latency_ms(cycles: float, params: DianaParams = DEFAULT_PARAMS) -> float:
    """Convert simulated cycles to milliseconds at the platform clock."""
    return cycles / params.clock_hz * 1e3
