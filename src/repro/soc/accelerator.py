"""Functional model shared by the tiled MAC-array accelerators.

Both DIANA cores run one coarse-grained instruction per tile — a conv
(grouped when depthwise), FC or residual add, then bias-add +
requantization — and differ only in what they accept, what a tile
costs and the analog datapath's operand check (:meth:`check_operands`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import numerics as K
from ..dory.layer_spec import LayerSpec
from ..errors import SimulationError
from .params import DianaParams


def out_range(spec: LayerSpec) -> Tuple[int, int]:
    """Saturation bounds of the layer's output precision."""
    return (-64, 63) if spec.out_dtype == "int7" else (-128, 127)


class MacAccelerator:
    """Bit-exact functional model of one tiled MAC-array core."""

    name = "accelerator"

    def __init__(self, params: DianaParams):
        self.params = params

    def check_operands(self, x: np.ndarray, w: Optional[np.ndarray]):
        """Reject operands the datapath cannot hold (none by default)."""

    def _mac(self, spec: LayerSpec, x: np.ndarray, w: np.ndarray,
             padding: Optional[Tuple[int, int]], exact: bool):
        """(accumulator, reduction length) of one MAC tile."""
        self.check_operands(x, w)
        pad = spec.padding if padding is None else padding
        if spec.kind in ("conv2d", "dwconv2d"):
            groups = x.shape[1] if spec.is_depthwise else 1
            conv = K.conv2d_acc if exact else K.conv2d
            return (conv(x, w, spec.strides, pad, groups),
                    w.shape[1] * w.shape[2] * w.shape[3])
        if spec.kind == "dense":
            return (K.dense_acc if exact else K.dense)(x, w), x.shape[-1]
        raise SimulationError(f"{self.name}: no MAC path for kind {spec.kind}")

    def accumulate(self, spec: LayerSpec, x: np.ndarray, w: np.ndarray,
                   padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """int32 partial sums of one (possibly C-partial) MAC tile.

        When DORY tiles the input channels, the core writes raw int32
        accumulator tiles to L1; requantization happens only on the
        last reduction block (:meth:`finalize`).
        """
        return self._mac(spec, x, w, padding, exact=False)[0]

    def finalize(self, spec: LayerSpec, acc: np.ndarray,
                 bias: Optional[np.ndarray]) -> np.ndarray:
        """Bias-add + requantization of a completed accumulator tile."""
        return K.bias_requantize(acc, bias, spec.shift, spec.relu,
                                 *out_range(spec))

    def execute(self, spec: LayerSpec, x: np.ndarray,
                w: Optional[np.ndarray], bias: Optional[np.ndarray],
                y: Optional[np.ndarray] = None,
                padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Bit-exact result of one coarse-grained instruction.

        ``x`` is the input tile (NCHW or NC), ``y`` the second operand
        for ``add`` layers. ``padding`` overrides the spec padding (tile
        interiors are not padded).

        MAC layers keep the raw accumulator in its exact MAC dtype and
        requantize through :func:`repro.numerics.requantize_acc` — the
        int32 bounce only happens when exactness is not provable. Tiled
        partial-sum execution (:meth:`accumulate`/:meth:`finalize`)
        still materializes int32 L1 tiles, as the hardware does.
        """
        if spec.kind == "add":
            if y is None:
                raise SimulationError("add layer needs two operands")
            return self.finalize(spec, K.add(x, y), bias)
        acc, reduction = self._mac(spec, x, w, padding, exact=True)
        # |int8 x int8| and |int7 x ternary| <= 2**14 per MAC:
        # reduction << 14 bounds |acc|
        return K.requantize_acc(acc, bias, spec.shift, spec.relu,
                                *out_range(spec),
                                acc_bound=reduction << 14)
