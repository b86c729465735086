"""Event counts of the RISC-V host CPU executing TVM-generated kernels.

The RV32IMCFXpulpV2 core runs the operator-fused C kernels that TVM's
native lowering produces for everything not dispatched to an
accelerator. A kernel call is counted as MACs per kernel kind (conv,
depthwise, dense) or output elements per op class (pool taps, softmax,
copies, simple elementwise ops); :mod:`repro.runtime.cost` prices them
with throughput constants calibrated against the paper's Table I CPU
column — e.g. ResNet-8 at 12.5 MMACs and 134.11 ms @ 260 MHz implies
~2.8 cycles/MAC for 8-bit convolutions with XpulpV2 SIMD.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir import Call, Graph


def _call_event(call: Call) -> Tuple[str, int]:
    """(event, count) of one call in a fused kernel body."""
    op = call.op
    out_elems = call.ttype.num_elements
    if op == "nn.conv2d":
        groups = call.attrs["groups"]
        depthwise = groups > 1 and groups == call.inputs[0].shape[1]
        return ("cpu_mac_dwconv" if depthwise else "cpu_mac_conv",
                call.macs())
    if op == "nn.dense":
        return "cpu_mac_dense", call.macs()
    if op in ("nn.avg_pool2d", "nn.max_pool2d", "nn.global_avg_pool2d"):
        window = (call.inputs[0].shape[2:] if op == "nn.global_avg_pool2d"
                  else call.attrs["pool_size"])
        return "cpu_elem_pool", out_elems * window[0] * window[1]
    if op == "nn.softmax":
        return "cpu_elem_softmax", out_elems
    if op in ("reshape", "nn.batch_flatten", "nn.pad", "concatenate"):
        return "cpu_elem_copy", out_elems
    return "cpu_elem_simple", out_elems


def kernel_counts(body: Graph) -> Dict[str, int]:
    """Events of one fused kernel call: the runtime call itself plus
    every op of the body.

    Fusion means elementwise tails are nearly free in reality; the
    model still counts their elements, since the XpulpV2 core executes
    the fused inner-loop epilogue per element.
    """
    counts: Dict[str, int] = {}
    for call in body.calls():
        event, n = _call_event(call)
        counts[event] = counts.get(event, 0) + n
    counts["call"] = 1
    return counts
