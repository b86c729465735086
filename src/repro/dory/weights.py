"""How many bytes a layer's weights take: the one owner of every rule.

DORY "stores the weights in the SoC's global memory (L2) in the most
optimal data layout" (paper Sec. III-B), and analog layers pad L2 "with
zeros to fill a part of the large IMC macro" (Sec. IV-C). Those layout
decisions set Table I's weight bytes and the weight-DMA stream every
modeled cycle pays for, so each is written here once:

* (a) :func:`l1_weight_bytes` — one L1 weight tile (the tiler's Eq. 2
  term, the verifier's re-derivation, the digital core's weight DMA),
* (b) :func:`macro_rows` — the analog macro rows a reduction slice
  occupies (its L2 padding lives in :func:`l2_weight_bytes`),
* (c) :func:`l2_weight_bytes` — the layer's weights as stored in L2
  (the binary-size model's weight term),
* (d) :func:`fits_weight_memory` — the digital core's weight-memory
  capacity (the tiler's feasibility and V-PLAN-007).

Tile arguments may be ints or int64 NumPy columns; the rules branch on
the layer, never on tile values, so a result broadcasts like its inputs.
"""

from __future__ import annotations

from ..soc.params import DianaParams
from .layer_spec import LayerSpec

_ANALOG = "soc.analog"
_DIGITAL = "soc.digital"


def l1_weight_bytes(spec: LayerSpec, c_t, k_t, target: str):
    """Rule (a): int8 bytes of one ``c_t`` x ``k_t`` weight tile in L1.

    ``(c_t if depthwise else k_t * c_t) * fy * fx`` (FC layers have
    ``fy = fx = 1``); 0 for ``add`` and on the analog core, whose
    ternary weights live inside the IMC macro.
    """
    if spec.kind == "add" or target == _ANALOG:
        return 0
    return (c_t if spec.is_depthwise else k_t * c_t) * spec.fy * spec.fx


def macro_rows(spec: LayerSpec, c_t):
    """Rule (b): analog macro rows a ``c_t``-channel reduction maps to.

    The reduction dimension goes onto the rows: ``c_t`` for FC layers,
    ``c_t * fy * fx`` for convolutions.
    """
    return c_t if spec.kind == "dense" else c_t * spec.fy * spec.fx


def l2_weight_bytes(spec: LayerSpec, target: str,
                    params: DianaParams) -> int:
    """Rule (c): bytes of the layer's weights as stored in L2.

    On the analog core the macro rows (rule b) are zero-padded to the
    full macro height for spatial convolutions and to the quadrant
    granularity for 1x1/FC layers, times K columns of 2-bit ternary
    cells. Everywhere else: one int8 weight tile (rule a) at full
    extents.
    """
    if target != _ANALOG:
        return l1_weight_bytes(spec, spec.in_channels, spec.out_channels,
                               target)
    if spec.kind == "add":
        return 0
    pad = (params.ana_row_pad_conv
           if spec.kind == "conv2d" and spec.fy * spec.fx > 1
           else params.ana_row_pad_pw)
    padded = -(-macro_rows(spec, spec.in_channels) // pad) * pad
    return (padded * spec.out_channels * 2 + 7) // 8


def fits_weight_memory(w_b, target: str, params: DianaParams):
    """Rule (d): does a weight tile of ``w_b`` bytes fit the core's
    weight memory? Only the digital core has a private one."""
    if target != _DIGITAL:
        return True
    return w_b <= params.dig_weight_bytes
