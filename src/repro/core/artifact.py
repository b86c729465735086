"""Binary-size model.

The paper's Table I compares compiled binary sizes (weights + code +
runtime in DIANA's 512 kB L2). The reproduction models each component
transparently:

* **runtime**: plain TVM ships its graph runtime (~16 kB); HTVM's
  "low-overhead runtime" is smaller (~10 kB).
* **CPU kernels**: TVM emits one function per *unique fused-kernel
  signature* — networks with many distinct layer shapes (ResNet's
  convolutions) pay per shape, while shape-repetitive networks
  (ToyAdmos' FC stack) share code.
* **accelerator drivers**: the DORY backend emits one driver per
  *layer* — smaller each than a TVM conv kernel ("DIANA's
  coarse-grained accelerator requires fewer instructions ... to perform
  certain operators"), but not deduplicated.
* **weights**: int8 raw for CPU/digital layers; 2-bit-packed ternary
  with IMC-macro row padding for analog layers (the padding is why some
  ternary networks have *larger* binaries, per Sec. IV-C). Accelerator
  weight bytes come from :func:`repro.dory.weights.l2_weight_bytes`.

This reproduces the direction of every Table I size delta; absolute
values are within ~15% (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..codegen.cpu import classify_body, kernel_signature
from ..dory.weights import l2_weight_bytes
from ..ir import Constant
from ..soc.params import DianaParams
from .program import AccelStep, CpuKernelStep, SizeBreakdown, Step


def _body_constant_bytes(body) -> int:
    total = 0
    for node in body.topo_order():
        if isinstance(node, Constant):
            total += node.value.storage_bytes
    return total


def compute_size(steps: List[Step], params: DianaParams,
                 runtime: str = "htvm") -> SizeBreakdown:
    """Model the deployed binary size for a compiled step list."""
    size = SizeBreakdown()
    size.runtime = (params.size_htvm_runtime if runtime == "htvm"
                    else params.size_tvm_runtime)

    seen_signatures: Set[Tuple] = set()

    for step in steps:
        if isinstance(step, CpuKernelStep):
            sig = kernel_signature(step.body)
            if sig not in seen_signatures:
                seen_signatures.add(sig)
                kind = classify_body(step.body)
                size.cpu_kernels += params.size_cpu_kernel[kind]
            size.weights += _body_constant_bytes(step.body)
        elif isinstance(step, AccelStep):
            size.accel_drivers += params.size_accel_driver.get(
                step.accel_target, 1500)
            spec = step.spec
            size.weights += l2_weight_bytes(spec, step.accel_target, params)
            if spec.bias is not None:
                size.weights += spec.bias.nbytes
    return size
