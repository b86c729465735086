"""Compiled program representation.

Compilation produces a :class:`CompiledModel` holding two synchronized
views of the deployment:

* a *structured program* — an ordered list of :class:`Step` objects
  (fused CPU kernels and tiled accelerator layers) over named L2
  buffers — executed by the runtime simulator, and
* *C sources* — the code a real HTVM run would hand to GCC, emitted
  from the very same steps, used for inspection and the binary-size
  model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dory.layer_spec import LayerSpec
from ..dory.memory_plan import MemoryPlan
from ..dory.tiling_types import TilingSolution
from ..ir import Graph, TensorType
from ..ir.serialization import graph_digest


@dataclass
class BufferSpec:
    """One L2 activation buffer."""

    name: str
    ttype: TensorType

    @property
    def size_bytes(self) -> int:
        return self.ttype.storage_bytes


@dataclass
class Step:
    """Base class: one kernel invocation in the network function."""

    name: str
    input_names: List[str]
    output_name: str

    @property
    def target(self) -> str:
        raise NotImplementedError


@dataclass
class CpuKernelStep(Step):
    """A fused CPU kernel generated by the native TVM-style path."""

    body: Graph = None
    signature: str = ""

    @property
    def target(self) -> str:
        return "cpu"


@dataclass
class AccelStep(Step):
    """A DORY-generated tiled accelerator layer."""

    accel_target: str = ""
    spec: LayerSpec = None
    tiling: TilingSolution = None

    @property
    def target(self) -> str:
        return self.accel_target


@dataclass
class DepthFirstChain:
    """One fused depth-first (patch-based) schedule over consecutive steps.

    The compilation product of ``CompilerConfig.depthfirst``: steps
    ``[start, start+length)`` are convolution layers whose interiors are
    evaluated patch by patch with halo recompute, so the L2 memory plan
    sizes their intermediate buffers at patch granularity
    (``per_layer_patch_bytes``) instead of full feature maps. The
    executor runs it patch-wise in every ``exec_mode``; bit-exact vs.
    layer-by-layer execution, with cycles priced through
    :func:`~repro.runtime.cost.accumulate_accel_cost`.
    """

    start: int                        #: index of the first fused step
    length: int                       #: number of fused steps (>= 2)
    patch_grid: Tuple[int, int]       #: (rows, cols) of output patches
    num_patches: int
    peak_bytes: int                   #: chain in + out + patch-pair peak
    patch_buffer_bytes: int           #: worst co-resident patch pair
    per_layer_patch_bytes: List[int]  #: planned slab size per layer output
    recompute_factor: float           #: patched / nominal MACs, whole chain
    per_layer_recompute: List[float]

    @property
    def stop(self) -> int:
        """Index one past the last fused step."""
        return self.start + self.length


@dataclass
class SizeBreakdown:
    """Binary size model output (bytes)."""

    runtime: int = 0
    cpu_kernels: int = 0
    accel_drivers: int = 0
    weights: int = 0

    @property
    def total(self) -> int:
        return self.runtime + self.cpu_kernels + self.accel_drivers + self.weights

    def report(self) -> str:
        return (f"binary {self.total/1024:.1f} kB = runtime {self.runtime/1024:.1f}"
                f" + cpu kernels {self.cpu_kernels/1024:.1f}"
                f" + accel drivers {self.accel_drivers/1024:.1f}"
                f" + weights {self.weights/1024:.1f}")


@dataclass
class CompiledModel:
    """The deployable artifact for one (model, platform, config) triple."""

    name: str
    config_name: str
    steps: List[Step]
    buffers: Dict[str, BufferSpec]
    input_names: List[str]
    output_name: str
    memory_plan: MemoryPlan
    size: SizeBreakdown
    c_sources: Dict[str, str] = field(default_factory=dict)
    dispatch_decisions: list = field(default_factory=list)
    graph: Optional[Graph] = None
    #: fused depth-first schedules (empty for layer-by-layer models).
    depthfirst_chains: List[DepthFirstChain] = field(default_factory=list)
    #: registered platform the model was compiled for (soc.registry).
    platform: str = "diana"

    @property
    def binary_size_bytes(self) -> int:
        return self.size.total

    @property
    def l2_required_bytes(self) -> int:
        """Static image + peak activation arena (must fit DIANA's 512 kB)."""
        return self.size.total + self.memory_plan.arena_bytes

    def steps_by_target(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.steps:
            out[s.target] = out.get(s.target, 0) + 1
        return out

    def summary(self) -> str:
        targets = ", ".join(f"{k}: {v}" for k, v in
                            sorted(self.steps_by_target().items()))
        return (f"{self.name} [{self.config_name}] — {len(self.steps)} kernels"
                f" ({targets}); {self.size.report()};"
                f" arena {self.memory_plan.arena_bytes/1024:.1f} kB")

    def fingerprint(self) -> str:
        """Content digest of the deployable: program, plan and weights.

        Two compiled models with equal fingerprints execute
        byte-identically with identical modeled cycles: the digest
        covers the step sequence (targets, tile configurations, fused
        CPU bodies via the graph digest), the buffer set, the L2
        memory plan and the size model. The serving artifact store
        uses it to prove a loaded ``.dna`` file equals a fresh compile
        without re-running either.
        """
        record = {
            "name": self.name,
            "config": self.config_name,
            "inputs": self.input_names,
            "output": self.output_name,
            "graph": graph_digest(self.graph) if self.graph is not None
                     else None,
            "buffers": {n: [list(b.ttype.shape), b.ttype.dtype.name]
                        for n, b in sorted(self.buffers.items())},
            "plan": {
                "offsets": dict(sorted(self.memory_plan.offsets.items())),
                "arena": self.memory_plan.arena_bytes,
                "reuse": self.memory_plan.reuse,
            },
            "size": [self.size.runtime, self.size.cpu_kernels,
                     self.size.accel_drivers, self.size.weights],
            "steps": [],
        }
        if self.platform != "diana":
            # key present only off the stock platform, so every
            # historical diana fingerprint stays byte-exact
            record["platform"] = self.platform
        if self.depthfirst_chains:
            # key present only for fused models, so fingerprints of
            # every pre-existing layer-by-layer deployment are stable
            record["depthfirst"] = [
                [c.start, c.length, list(c.patch_grid),
                 list(c.per_layer_patch_bytes)]
                for c in self.depthfirst_chains]
        for s in self.steps:
            entry = {"name": s.name, "target": s.target,
                     "inputs": s.input_names, "output": s.output_name}
            if isinstance(s, AccelStep):
                cfg = s.tiling.cfg
                entry["tiling"] = [cfg.c_t, cfg.k_t, cfg.oy_t, cfg.ox_t,
                                   s.tiling.l1_in_bytes,
                                   s.tiling.l1_out_bytes,
                                   s.tiling.l1_weight_bytes]
                entry["spec"] = [s.spec.kind, s.spec.in_channels,
                                 s.spec.out_channels, s.spec.iy, s.spec.ix,
                                 s.spec.fy, s.spec.fx,
                                 list(s.spec.strides), list(s.spec.padding),
                                 s.spec.weight_dtype, s.spec.shift,
                                 s.spec.relu]
            elif isinstance(s, CpuKernelStep):
                entry["signature"] = s.signature
            record["steps"].append(entry)
        payload = json.dumps(record, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()
