"""Model of DIANA's digital DNN accelerator.

A 2D SIMD array of 16x16 processing elements delivering up to 256 8-bit
MACs/cycle, with requantization/ReLU at the output and a private 64 kB
weight memory (paper Sec. III-C). Convolutions map input channels and
feature-width positions onto the 16 PE rows/columns, which is why the
tiling heuristics of Eqs. (3)-(4) reward tile sizes that are multiples
of 16 — partial blocks leave PE rows/columns idle.

The model is split into:

* capability checks (:meth:`DigitalAccelerator.supports`),
* event counts (:meth:`layer_counts`, :meth:`passes`), priced by
  :mod:`repro.runtime.cost`,
* a bit-exact functional kernel (:meth:`execute`, shared with the
  analog core by :class:`~repro.soc.accelerator.MacAccelerator`), so
  tiled accelerator execution can be verified against the reference
  interpreter.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from ..dory.layer_spec import LayerSpec
from ..dory.tiling_types import Tile
from ..errors import SimulationError
from .accelerator import MacAccelerator

TARGET = "soc.digital"


class DigitalAccelerator(MacAccelerator):
    """Event-count + functional model of the 16x16 PE digital accelerator."""

    name = TARGET
    #: coarse-grained ops the hardware executes as one instruction.
    supported_kinds = ("conv2d", "dwconv2d", "dense", "add")
    #: weight precisions the datapath accepts.
    supported_weight_dtypes = ("int8",)
    #: activation precisions.
    supported_act_dtypes = ("int8", "int7")

    # -- capability -----------------------------------------------------------

    def supports(self, spec: LayerSpec) -> Tuple[bool, str]:
        """Accelerator-aware rule check (paper Sec. III-A).

        Verifies operator kind, bit precisions, and parameter ranges.
        Returns (ok, reason-if-not).
        """
        if spec.kind not in self.supported_kinds:
            return False, f"kind {spec.kind} not supported"
        if spec.kind != "add" and spec.weight_dtype not in self.supported_weight_dtypes:
            return False, f"weight dtype {spec.weight_dtype} not supported"
        if spec.in_dtype not in self.supported_act_dtypes:
            return False, f"activation dtype {spec.in_dtype} not supported"
        if spec.kind in ("conv2d", "dwconv2d"):
            if max(spec.fy, spec.fx) > 16:
                return False, "kernel size > 16 not supported"
            if max(spec.strides) > 4:
                return False, "stride > 4 not supported"
        if spec.shift < 0 or spec.shift > 31:
            return False, "requant shift out of range"
        return True, ""

    # -- event counts -------------------------------------------------------------

    #: the event one tile's busy time is counted in, by layer kind.
    pass_events = {"conv2d": "pe_pass", "dense": "pe_pass",
                   "dwconv2d": "dw_pass", "add": "simd_elem"}

    def passes(self, spec: LayerSpec, c_t: int, k_t: int,
               oy_t: int, ox_t: int) -> int:
        """Busy events of one tile (``pass_events[spec.kind]``).

        Conv2D: each PE pass consumes 16 input channels x 16
        feature-width positions, iterating over output channels, rows
        and filter taps:
        ``K_t * oy_t * fy * fx * ceil(C_t/16) * ceil(ix_t/16)``.
        FC: input channels x output channels are unrolled on the array:
        ``ceil(C_t/16) * ceil(K_t/16)``.
        Depthwise: only one PE row is used (paper Sec. IV-B, peak 3.75
        MACs/cycle), one pass per channel, row, tap and width block.
        Add: one SIMD element per output element.
        """
        p = self.params
        if spec.kind == "conv2d":
            ix_t = min((ox_t - 1) * spec.strides[1] + spec.fx, spec.ix)
            return (k_t * oy_t * spec.fy * spec.fx
                    * math.ceil(c_t / p.dig_pe_rows)
                    * math.ceil(ix_t / p.dig_pe_cols))
        if spec.kind == "dwconv2d":
            ix_t = min((ox_t - 1) * spec.strides[1] + spec.fx, spec.ix)
            return (c_t * oy_t * spec.fy * spec.fx
                    * math.ceil(ix_t / p.dig_pe_cols))
        if spec.kind == "dense":
            return (math.ceil(c_t / p.dig_pe_rows)
                    * math.ceil(k_t / p.dig_pe_cols))
        if spec.kind == "add":
            return c_t * oy_t * ox_t
        raise SimulationError(f"digital: unsupported kind {spec.kind}")

    def layer_counts(self, spec: LayerSpec,
                     tiles: Sequence[Tile]) -> Dict[str, int]:
        """Compute and weight events of one tiled layer.

        Every tile is one job (trigger + handshake + drain) of
        :meth:`passes`. Weights stream: each change of the (K, C) block
        refills the weight memory with one weight-path DMA job of the
        block's int8 weights (FC layers have ``fy = fx = 1``).
        """
        busy = w_jobs = w_bytes = 0
        block = None
        for tile in tiles:
            k_t, c_t = tile.k1 - tile.k0, tile.c1 - tile.c0
            busy += self.passes(spec, c_t, k_t, tile.oy1 - tile.oy0,
                                tile.ox1 - tile.ox0)
            if (tile.k0, tile.c0) != block:
                block = (tile.k0, tile.c0)
                w_jobs += 1
                w_bytes += ((c_t if spec.is_depthwise else k_t * c_t)
                            * spec.fy * spec.fx)
        counts = {self.pass_events[spec.kind]: busy, "dig_job": len(tiles)}
        if spec.kind != "add":
            counts.update(weight_job=w_jobs, weight_byte=w_bytes)
        return counts
