"""Model of DIANA's analog in-memory-compute (AiMC) accelerator.

An array of 1152x512 SRAM-based compute cells executing MACs with 7-bit
inputs and ternary weights (paper Sec. III-C). A convolution maps its
reduction dimension (C * fy * fx) onto the rows and its output channels
(K) onto the columns, so "to maximize analog accelerator utilization, we
spatially unroll C and K as much as possible". One macro activation
produces partial sums for all mapped columns; throughput peaks near
500k MACs/cycle when the array is full.

Weights must be (re)programmed into the macro for every layer — the
paper attributes the analog core's end-to-end losses partly to "the
overhead of filling the analog accelerator weight memory for each
layer" — counted as one write per macro row.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..dory.layer_spec import LayerSpec
from ..dory.tiling_types import Tile
from ..dory.weights import macro_rows
from ..errors import SimulationError
from .. import numerics as K
from .accelerator import MacAccelerator, out_range

TARGET = "soc.analog"


class AnalogAccelerator(MacAccelerator):
    """Event-count + functional model of the 1152x512 AiMC accelerator."""

    name = TARGET
    #: the analog core executes Conv2D (and FC-as-Conv2D) plus residual
    #: adds; depthwise conv is NOT supported (paper Sec. IV-C).
    supported_kinds = ("conv2d", "dense", "add")
    supported_weight_dtypes = ("ternary",)
    supported_act_dtypes = ("int7",)

    # -- capability -----------------------------------------------------------

    def supports(self, spec: LayerSpec) -> Tuple[bool, str]:
        """Accelerator-aware rule check for the analog core."""
        if spec.kind not in self.supported_kinds:
            return False, f"kind {spec.kind} not supported"
        if spec.kind != "add":
            if spec.weight_dtype not in self.supported_weight_dtypes:
                return False, f"weight dtype {spec.weight_dtype} not supported"
            if spec.in_dtype not in self.supported_act_dtypes:
                return False, f"activation dtype {spec.in_dtype} not supported (7-bit inputs)"
        if spec.kind == "conv2d" and max(spec.fy, spec.fx) > 16:
            return False, "kernel size > 16 not supported"
        return True, ""

    # -- mapping ----------------------------------------------------------------

    def row_blocks(self, spec: LayerSpec, c_t: int) -> int:
        """Macro reloads needed when the reduction exceeds 1152 rows."""
        return math.ceil(macro_rows(spec, c_t) / self.params.ana_rows)

    def col_blocks(self, k_t: int) -> int:
        return math.ceil(k_t / self.params.ana_cols)

    # -- event counts -------------------------------------------------------------

    def layer_counts(self, spec: LayerSpec,
                     tiles: Sequence[Tile]) -> Dict[str, int]:
        """Compute and weight events of one tiled layer.

        Weights are stationary: the macro is programmed once per layer,
        one row write per mapped row per column block. Every tile is
        one job firing one macro activation (DAC, analog settle, ADC)
        per output pixel per (row block, column block); residual adds
        run on the near-memory SIMD path instead.
        """
        if spec.kind == "add":
            elems = sum((t.c1 - t.c0) * (t.oy1 - t.oy0) * (t.ox1 - t.ox0)
                        for t in tiles)
            return {"ana_simd_elem": elems, "ana_job": len(tiles)}
        pixels = 0
        for t in tiles:
            blocks = (self.row_blocks(spec, t.c1 - t.c0)
                      * self.col_blocks(t.k1 - t.k0))
            if spec.kind == "conv2d":
                blocks *= (t.oy1 - t.oy0) * (t.ox1 - t.ox0)
            pixels += blocks
        return {
            "macro_row": (macro_rows(spec, spec.in_channels)
                          * self.col_blocks(spec.out_channels)),
            "macro_pixel": pixels, "ana_job": len(tiles)}

    # -- functional model -----------------------------------------------------------

    def check_operands(self, x: np.ndarray, w: Optional[np.ndarray]):
        """Range-check operands against the 7-bit/ternary datapath.

        ``execute`` computes the ideal (noise-free) integer result; see
        :meth:`execute_noisy` for the optional analog-noise model.
        """
        # an edge tile's slab can be empty (all of it is zero border)
        if x.size and (x.min() < -64 or x.max() > 63):
            raise SimulationError(
                f"analog input exceeds 7-bit range: [{x.min()}, {x.max()}]")
        if w is not None and (w.min() < -1 or w.max() > 1):
            raise SimulationError("analog weights must be ternary")

    def execute_noisy(self, spec: LayerSpec, x: np.ndarray,
                      w: Optional[np.ndarray], bias: Optional[np.ndarray],
                      noise_sigma: float, rng: np.random.Generator,
                      padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Analog execution with additive Gaussian accumulator noise.

        Models AiMC non-idealities (an extension beyond the paper's
        latency study; useful for accuracy-impact experiments). Noise is
        added to the int32 accumulator before requantization, scaled by
        ``noise_sigma`` standard deviations per mapped row.
        """
        acc = self.accumulate(spec, x, w, padding)
        if bias is not None:
            acc = K.bias_add(acc, bias, axis=1)
        rows = macro_rows(spec, spec.in_channels)
        noise = rng.normal(0.0, noise_sigma * math.sqrt(rows), acc.shape)
        acc = acc + np.rint(noise).astype(np.int32)
        return K.requantize(acc, spec.shift, spec.relu, *out_range(spec))
