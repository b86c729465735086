"""Cycle accounting for tiled accelerator layers.

Shared between the full-network accounting pass
(:func:`~repro.runtime.accounting.account_model`), the mapping engine's
candidate pricing and the single-layer evaluations of Fig. 4 / Fig. 5,
so every benchmark and test charges exactly the same cost model:

* ``weight_dma`` — filling the digital weight memory per output-channel
  block / programming the analog macro once per layer,
* ``act_dma`` — L2<->L1 tile transfers (chunked, stride-aware),
* ``accel_compute`` — PE-array / macro busy cycles + per-job handshake,
* ``tile_loop`` + ``runtime`` — host-side HTVM overheads (the
  difference between the paper's "Peak" and "HTVM" measurements).
"""

from __future__ import annotations

from ..dory.layer_spec import LayerSpec
from ..dory.tiling_types import TilingSolution
from ..soc.dma import tile_transfer_cycles
from ..soc.params import DianaParams
from ..soc.perf import KernelRecord, PerfCounters


def accumulate_accel_cost(rec: KernelRecord, accel, spec: LayerSpec,
                          sol: TilingSolution, params: DianaParams):
    """Charge all cycle categories for one tiled accelerator layer.

    Activation DMA is double-buffered (DORY ping-pongs the L1 buffers),
    so only the part of the transfer stream that compute cannot hide is
    charged: the first tile's input fill, the last tile's drain, and
    any residual when the layer is DMA-bound.
    """
    rec.add("runtime", params.runtime_call_overhead)

    # weight-stationary cores (the AiMC macro) program their array once
    # per layer; weight-streaming cores (digital-style, recognised by a
    # per-tile ``weight_tile_bytes`` method) refill per channel block.
    weight_streaming = hasattr(accel, "weight_tile_bytes")
    if not weight_streaming and spec.kind != "add":
        rec.add("weight_dma", accel.weight_load_cycles(
            spec, spec.in_channels, spec.out_channels))

    in_shape = (spec.in_channels, spec.iy, spec.ix)
    out_shape = (spec.out_channels, spec.oy, spec.ox)
    tiles = sol.tiles()
    rec.num_tiles = len(tiles)
    current_block = None
    in_dma = []
    out_dma = []
    compute = []
    for tile in tiles:
        k_t, oy_t, ox_t = tile.out_shape
        c_t = tile.c1 - tile.c0
        if (weight_streaming and spec.kind != "add"
                and (tile.k0, tile.c0) != current_block):
            current_block = (tile.k0, tile.c0)
            w_bytes = accel.weight_tile_bytes(spec, c_t, k_t)
            rec.add("weight_dma", accel.weight_load_cycles(w_bytes))
        operands = 2 if spec.kind == "add" else 1
        in_dma.append(operands * tile_transfer_cycles(
            in_shape, tile.in_shape, 1.0, params))
        # partial-sum blocks keep their int32 tile in L1: write-back
        # happens only after the last reduction block.
        out_dma.append(tile_transfer_cycles(
            out_shape, tile.out_shape, 1.0, params)
            if tile.last_reduction else 0.0)
        compute.append(accel.compute_cycles(spec, c_t, k_t, oy_t, ox_t)
                       + accel.job_overhead)
        rec.add("tile_loop", params.tile_loop_overhead)

    rec.add("accel_compute", sum(compute))
    # double-buffered pipeline: prologue + epilogue + DMA-bound residual
    hidden_budget = sum(compute)
    streamed = sum(in_dma) + sum(out_dma) - in_dma[0] - out_dma[-1]
    stall = in_dma[0] + out_dma[-1] + max(0.0, streamed - hidden_budget)
    rec.add("act_dma", stall)


def cost_layer(spec: LayerSpec, sol: TilingSolution, accel,
               params: DianaParams) -> KernelRecord:
    """Stand-alone cost of one layer under a given tiling."""
    perf = PerfCounters()
    rec = perf.start_kernel(spec.name, accel.name, macs=spec.macs())
    accumulate_accel_cost(rec, accel, spec, sol, params)
    return rec


def accumulate_depthfirst_cost(rec: KernelRecord, accel, spec: LayerSpec,
                               sol: TilingSolution, params: DianaParams,
                               recompute_ratio: float, num_patches: int):
    """Charge one layer of a fused depth-first chain.

    The layer still executes its DORY tiling per patch, so the base
    charge is the standard :func:`accumulate_accel_cost`; the halo
    overlap between patches is then priced by scaling the compute and
    activation-DMA categories with the layer's exact patched/nominal
    MAC ratio. Weights are charged once — chain layers are early
    high-resolution stages whose filters stay resident across patches —
    and each patch pays one host-side loop iteration on top.
    """
    accumulate_accel_cost(rec, accel, spec, sol, params)
    extra = max(0.0, recompute_ratio - 1.0)
    if extra:
        rec.add("accel_compute", extra * rec.cycles.get("accel_compute", 0.0))
        rec.add("act_dma", extra * rec.cycles.get("act_dma", 0.0))
    rec.add("tile_loop", num_patches * params.tile_loop_overhead)

