"""Cycle pricing: one table turns every modeled event into cycles.

The cores (``layer_counts``), the CPU (:func:`~repro.soc.cpu.kernel_counts`)
and the DMA model (:mod:`repro.soc.dma`) count *what happens*;
:data:`EVENTS` prices each event into one category, and :func:`price`
is the only code that turns counts into cycles. The accounting pass,
the mapping engine and the Fig. 4 / Fig. 5 evaluations all charge
through it. The categories: ``weight_dma`` and ``act_dma`` (DMA the
compute cannot hide), ``accel_compute`` (PE-array / macro busy time +
per-job handshake), ``cpu_compute`` (fused CPU kernels, host
repacking), and ``tile_loop`` + ``runtime`` — the host-side HTVM
overheads behind the gap between the paper's "Peak" and "HTVM".
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..dory.layer_spec import LayerSpec
from ..dory.tiling_types import TilingSolution
from ..soc.dma import tile_transfer_counts
from ..soc.params import DianaParams
from ..soc.perf import KernelRecord, PerfCounters

#: activation transfers double buffering overlaps with compute; priced
#: into ``act_dma`` only where compute cannot hide them (see price).
STREAMED = "streamed"

#: event -> (category, price in cycles per event): a DianaParams field,
#: a ratio of fields (``1/rate`` for a throughput) or a literal.
EVENTS = {
    "call": ("runtime", "runtime_call_overhead"),
    "tile": ("tile_loop", "tile_loop_overhead"),
    "patch": ("tile_loop", "tile_loop_overhead"),  # depth-first patch
    "weight_job": ("weight_dma", "dma_setup_cycles"),
    "weight_byte": ("weight_dma", "1/dma_bytes_per_cycle"),
    "macro_row": ("weight_dma", "ana_row_write_cycles"),
    # a layer's first input and last output tile, cross-core hand-offs
    "act_job": ("act_dma", "dma_setup_cycles"),
    "act_chunk": ("act_dma", "dma_chunk_cycles"),
    "act_byte": ("act_dma", "1/dma_act_bytes_per_cycle"),
    "stream_job": (STREAMED, "dma_setup_cycles"),
    "stream_chunk": (STREAMED, "dma_chunk_cycles"),
    "stream_byte": (STREAMED, "1/dma_act_bytes_per_cycle"),
    "pe_pass": ("accel_compute", "1"),
    # a depthwise pass runs on one PE row (peak 3.75 MACs/cycle)
    "dw_pass": ("accel_compute", "dig_pe_cols/dig_dw_macs_per_cycle"),
    "simd_elem": ("accel_compute", "1/dig_simd_elems_per_cycle"),
    "dig_job": ("accel_compute", "dig_job_overhead"),
    "macro_pixel": ("accel_compute", "ana_pixel_cycles"),
    # the analog core's near-memory SIMD path adds 16 elements/cycle
    "ana_simd_elem": ("accel_compute", "1/16"),
    "ana_job": ("accel_compute", "ana_job_overhead"),
    "cpu_mac_conv": ("cpu_compute", "cpu_cycles_per_mac_conv"),
    "cpu_mac_dwconv": ("cpu_compute", "cpu_cycles_per_mac_dwconv"),
    "cpu_mac_dense": ("cpu_compute", "cpu_cycles_per_mac_dense"),
    # per pooling tap; XpulpV2 SIMD reduces 4 taps per element cost
    "cpu_elem_pool": ("cpu_compute", "cpu_cycles_per_elem_pool/4"),
    "cpu_elem_softmax": ("cpu_compute", "cpu_cycles_per_elem_softmax"),
    "cpu_elem_copy": ("cpu_compute", "cpu_cycles_per_elem_copy"),
    "cpu_elem_simple": ("cpu_compute", "cpu_cycles_per_elem_simple"),
}

#: category order of a priced record (the order its cycles are summed).
CATEGORIES = ("runtime", "weight_dma", "tile_loop", "accel_compute",
              "cpu_compute", "act_dma")

_THETA: Dict[int, Tuple[DianaParams, Dict[str, Tuple[str, float]]]] = {}


def _theta(params: DianaParams) -> Dict[str, Tuple[str, float]]:
    """Per-event (category, price) of one params object.

    Built once per object (pricing runs inside the mapping search) and
    held with it, so its id is never recycled under the entry.
    """
    hit = _THETA.get(id(params))
    if hit is None or hit[0] is not params:
        def term(name: str) -> float:
            return float(name if name.isdigit() else getattr(params, name))

        if len(_THETA) >= 64:
            _THETA.clear()
        theta = {}
        for event, (category, expr) in EVENTS.items():
            num, _, den = expr.partition("/")
            theta[event] = (category, term(num) / term(den or "1"))
        hit = _THETA[id(params)] = (params, theta)
    return hit[1]


def price(counts: Mapping[str, int], params: DianaParams
          ) -> Dict[str, float]:
    """Cycles per category of one kernel's event counts.

    Every category is ``counts · θ``, except that streamed activation
    transfers stall only where compute cannot hide them:
    ``act_dma`` = exposed + ``max(0, streamed - accel_compute)``.
    """
    theta = _theta(params)
    sums: Dict[str, float] = {}
    for event, n in counts.items():
        category, cost = theta[event]
        sums[category] = sums.get(category, 0.0) + n * cost
    streamed = sums.pop(STREAMED, None)
    if streamed is not None:
        sums["act_dma"] = sums.get("act_dma", 0.0) + max(
            0.0, streamed - sums.get("accel_compute", 0.0))
    return {c: sums[c] for c in CATEGORIES if c in sums}


def charge(rec: KernelRecord, counts: Dict[str, int], params: DianaParams):
    """Store ``counts`` on a fresh record and price them into its cycles."""
    rec.counts = counts
    rec.cycles = price(counts, params)


def accel_counts(accel, spec: LayerSpec,
                 sol: TilingSolution) -> Dict[str, int]:
    """Events of one tiled accelerator layer.

    The call and its tiles, the core's own compute and weight events,
    and the activation DMA. DORY ping-pongs the L1 buffers, so only the
    first tile's input fill and the last tile's drain are exposed; the
    transfers in between stream behind compute.
    """
    tiles = sol.tiles()
    counts = {"call": 1, "tile": len(tiles)}
    counts.update(accel.layer_counts(spec, tiles))
    in_shape = (spec.in_channels, spec.iy, spec.ix)
    out_shape = (spec.out_channels, spec.oy, spec.ox)
    operands = 2 if spec.kind == "add" else 1
    total = [0, 0, 0]
    first = None
    for tile in tiles:
        fill = [operands * n
                for n in tile_transfer_counts(in_shape, tile.in_shape)]
        first = first or fill
        # partial-sum blocks keep their int32 tile in L1: write-back
        # happens only after the last reduction block.
        drain = (tile_transfer_counts(out_shape, tile.out_shape)
                 if tile.last_reduction else (0, 0, 0))
        total = [t + f + d for t, f, d in zip(total, fill, drain)]
    exposed = [f + d for f, d in zip(first, drain)]
    for i, kind in enumerate(("job", "chunk", "byte")):
        counts["act_" + kind] = exposed[i]
        counts["stream_" + kind] = total[i] - exposed[i]
    return counts


def accumulate_accel_cost(rec: KernelRecord, accel, spec: LayerSpec,
                          sol: TilingSolution, params: DianaParams,
                          recompute_ratio: float = 1.0,
                          num_patches: int = 0):
    """Charge one tiled accelerator layer.

    In a fused depth-first chain (``num_patches`` > 0) the layer still
    executes its DORY tiling per patch and pays one host-side loop
    iteration per patch. The halo overlap between patches is priced by
    scaling the compute and activation-DMA categories with the layer's
    exact patched/nominal MAC ratio. Weights are charged once — chain
    layers are early high-resolution stages whose filters stay
    resident across patches.
    """
    counts = accel_counts(accel, spec, sol)
    if num_patches:
        counts["patch"] = num_patches
    rec.num_tiles = counts["tile"]
    charge(rec, counts, params)
    extra = max(0.0, recompute_ratio - 1.0)
    if extra:
        rec.add("accel_compute", extra * rec.cycles.get("accel_compute", 0.0))
        rec.add("act_dma", extra * rec.cycles.get("act_dma", 0.0))


def cost_layer(spec: LayerSpec, sol: TilingSolution, accel,
               params: DianaParams) -> KernelRecord:
    """Stand-alone cost of one layer under a given tiling."""
    rec = PerfCounters().start_kernel(spec.name, accel.name,
                                      macs=spec.macs())
    accumulate_accel_cost(rec, accel, spec, sol, params)
    return rec
