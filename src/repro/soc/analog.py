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
layer" — modelled as a per-row write cost.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..dory.layer_spec import LayerSpec
from ..errors import SimulationError
from .. import numerics as K
from .params import DianaParams

TARGET = "soc.analog"


class AnalogAccelerator:
    """Cost + functional model of the 1152x512 AiMC accelerator."""

    name = TARGET
    #: the analog core executes Conv2D (and FC-as-Conv2D) plus residual
    #: adds; depthwise conv is NOT supported (paper Sec. IV-C).
    supported_kinds = ("conv2d", "dense", "add")
    supported_weight_dtypes = ("ternary",)
    supported_act_dtypes = ("int7",)

    def __init__(self, params: DianaParams):
        self.params = params

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

    def mapped_rows(self, spec: LayerSpec, c_t: int) -> int:
        """Macro rows consumed by a (partial) reduction of ``c_t`` channels."""
        if spec.kind == "dense":
            return c_t
        return c_t * spec.fy * spec.fx

    def row_blocks(self, spec: LayerSpec, c_t: int) -> int:
        """Macro reloads needed when the reduction exceeds 1152 rows."""
        return math.ceil(self.mapped_rows(spec, c_t) / self.params.ana_rows)

    def col_blocks(self, k_t: int) -> int:
        return math.ceil(k_t / self.params.ana_cols)

    # -- cycle model --------------------------------------------------------------

    def compute_cycles(self, spec: LayerSpec, c_t: int, k_t: int,
                       oy_t: int, ox_t: int) -> float:
        """Macro activation cycles for one tile.

        One activation per output pixel per (row-block, col-block);
        each costs ``ana_pixel_cycles`` (DAC, analog settle, ADC).
        """
        p = self.params
        if spec.kind == "add":
            return c_t * oy_t * ox_t / 16.0  # near-memory SIMD path
        blocks = self.row_blocks(spec, c_t) * self.col_blocks(k_t)
        pixels = oy_t * ox_t if spec.kind == "conv2d" else 1
        return pixels * blocks * p.ana_pixel_cycles

    def weight_load_cycles(self, spec: LayerSpec, c_t: int, k_t: int) -> float:
        """Cycles to program the macro with a tile's ternary weights."""
        if spec.kind == "add":
            return 0.0
        rows = min(self.mapped_rows(spec, c_t),
                   self.params.ana_rows * self.row_blocks(spec, c_t))
        return rows * self.col_blocks(k_t) * self.params.ana_row_write_cycles

    def weight_storage_bytes(self, spec: LayerSpec) -> int:
        """L2 bytes of the layer's ternary weights, with macro padding.

        Spatial convolutions pad the reduction rows to the full macro
        height; 1x1/FC layers use a quadrant-granular layout (see
        DESIGN.md for the calibration discussion).
        """
        p = self.params
        if spec.kind == "add":
            return 0
        rows = self.mapped_rows(spec, spec.in_channels)
        pad = (p.ana_row_pad_conv
               if (spec.kind == "conv2d" and spec.fy * spec.fx > 1)
               else p.ana_row_pad_pw)
        padded = math.ceil(rows / pad) * pad
        # 2-bit packed ternary cells
        return (padded * spec.out_channels * 2 + 7) // 8

    @property
    def job_overhead(self) -> int:
        return self.params.ana_job_overhead

    # -- functional model -----------------------------------------------------------

    def execute(self, spec: LayerSpec, x: np.ndarray,
                w: Optional[np.ndarray], bias: Optional[np.ndarray],
                y: Optional[np.ndarray] = None,
                padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Bit-exact result of one analog layer invocation.

        The simulator computes the ideal (noise-free) integer result;
        see :meth:`execute_noisy` for the optional analog-noise model.
        Inputs are range-checked against the 7-bit datapath.
        """
        if spec.kind == "add":
            if y is None:
                raise SimulationError("add layer needs two operands")
            return self.finalize(spec, K.add(x, y), bias)
        pad = spec.padding if padding is None else padding
        self._check_operands(x, w)
        if spec.kind == "conv2d":
            acc = K.conv2d_acc(x, w, spec.strides, pad, 1)
            reduction = w.shape[1] * w.shape[2] * w.shape[3]
        elif spec.kind == "dense":
            acc = K.dense_acc(x, w)
            reduction = x.shape[-1]
        else:
            raise SimulationError(f"analog: no MAC path for kind {spec.kind}")
        lo, hi = (-64, 63) if spec.out_dtype == "int7" else (-128, 127)
        # |int7 x ternary| <= 2**14 per MAC (loose but safe bound)
        return K.requantize_acc(acc, bias, spec.shift, spec.relu, lo, hi,
                                acc_bound=reduction << 14)

    def _check_operands(self, x: np.ndarray, w: Optional[np.ndarray]):
        """Range-check operands against the 7-bit/ternary datapath."""
        # an edge tile's slab can be empty (all of it is zero border)
        if x.size and (x.min() < -64 or x.max() > 63):
            raise SimulationError(
                f"analog input exceeds 7-bit range: [{x.min()}, {x.max()}]")
        if w is not None and (w.min() < -1 or w.max() > 1):
            raise SimulationError("analog weights must be ternary")

    def accumulate(self, spec: LayerSpec, x: np.ndarray, w: np.ndarray,
                   padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """int32 partial sums of one MAC tile (7-bit inputs, ternary w)."""
        pad = spec.padding if padding is None else padding
        self._check_operands(x, w)
        if spec.kind == "conv2d":
            return K.conv2d(x, w, spec.strides, pad, 1)
        if spec.kind == "dense":
            return K.dense(x, w)
        raise SimulationError(f"analog: no MAC path for kind {spec.kind}")

    def finalize(self, spec: LayerSpec, acc: np.ndarray,
                 bias: Optional[np.ndarray]) -> np.ndarray:
        """Bias-add + requantization of a completed accumulator tile."""
        lo, hi = (-64, 63) if spec.out_dtype == "int7" else (-128, 127)
        return K.bias_requantize(acc, bias, spec.shift, spec.relu, lo, hi)

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
        pad = spec.padding if padding is None else padding
        if spec.kind == "conv2d":
            acc = K.conv2d(x, w, spec.strides, pad, 1)
        elif spec.kind == "dense":
            acc = K.dense(x, w)
        else:
            raise SimulationError("noisy path models MAC layers only")
        if bias is not None:
            acc = K.bias_add(acc, bias, axis=1)
        rows = self.mapped_rows(spec, spec.in_channels)
        noise = rng.normal(0.0, noise_sigma * math.sqrt(rows), acc.shape)
        acc = acc + np.rint(noise).astype(np.int32)
        lo, hi = (-64, 63) if spec.out_dtype == "int7" else (-128, 127)
        return K.requantize(acc, spec.shift, spec.relu, lo, hi)
