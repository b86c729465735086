#!/usr/bin/env python3
"""Port HTVM to a new accelerator — the paper's generality claim.

"To support a specific heterogeneous platform, the user has to provide
to HTVM only three components: (1) the hardware specifications ... and
operations supported by the dedicated hardware, (2) the heuristics to
maximize the accelerator utilization and (3) the platform-specific
instructions" (paper Sec. III-C).

This example provides those three components for a fictitious
32x32-PE "BigNPU", registers a ``diana-bignpu`` platform through the
plugin API (``repro.soc.register_platform``), and deploys ResNet-8
onto it — without touching the compiler. Because registration makes
the platform a first-class name, the same definition also works from
the CLI::

    REPRO_PLATFORMS=examples.custom_accelerator \
        repro run resnet --platform diana-bignpu
    REPRO_PLATFORMS=examples.custom_accelerator \
        repro dse --platforms diana diana-bignpu --models resnet

Run:  python examples/custom_accelerator.py
"""

import math
import os
import tempfile

import numpy as np

from repro import Executor, HTVM, compile_model, latency_ms
from repro.errors import ArtifactError
from repro.frontend.modelzoo import resnet8
from repro.runtime import random_inputs, run_reference
from repro.serve import load_artifact, pack_model
from repro.soc import PlatformSpec, get_platform, register_platform
from repro.soc.digital import DigitalAccelerator


class BigNpu(DigitalAccelerator):
    """Component (1)+(3): capabilities and a 32x32 MAC array.

    It reuses the digital core's coarse-grained instruction set (so the
    functional model is inherited) but quadruples the array, keeping
    the same weight memory. The plugin only says *what happens* — how
    many one-cycle PE passes a tile takes — and the shared price table
    (``repro.runtime.cost``) turns those counts into cycles.
    """

    name = "soc.bignpu"
    ARRAY = 32

    def passes(self, spec, c_t, k_t, oy_t, ox_t):
        # same mapping as the 16x16 core but with 32-wide rows/columns
        if spec.kind == "conv2d":
            ix_t = min((ox_t - 1) * spec.strides[1] + spec.fx, spec.ix)
            return (k_t * oy_t * spec.fy * spec.fx
                    * math.ceil(c_t / self.ARRAY)
                    * math.ceil(ix_t / self.ARRAY))
        return super().passes(spec, c_t, k_t, oy_t, ox_t)


def prefer_bignpu(spec, accepted):
    """Component (2), selection side: send everything it can take to
    the NPU; fall back to whatever else accepted the layer."""
    if "soc.bignpu" in accepted:
        return "soc.bignpu"
    return accepted[0]


# Registration is the porting step: one declarative spec. Importing
# this module is enough to make "diana-bignpu" resolvable everywhere —
# get_platform, repro --platform, repro dse, artifact loading.
register_platform(PlatformSpec(
    name="diana-bignpu",
    accelerators={"soc.digital": DigitalAccelerator,
                  "soc.bignpu": BigNpu},
    prefer=prefer_bignpu,
    model_precision="int8",
    description="example plugin: DIANA digital core + fictitious "
                "32x32-PE BigNPU (examples/custom_accelerator.py)",
))


def main():
    graph = resnet8(precision="int8")
    feeds = random_inputs(graph, seed=0)

    # stock DIANA (digital column) as the baseline
    base_soc = get_platform("diana", enable_analog=False)
    base = compile_model(graph, base_soc, HTVM)
    base_res = Executor(base_soc).run(base, feeds)

    # the registered plugin platform: its prefer hook steers dispatch,
    # no compiler or selector code is touched
    npu_soc = get_platform("diana-bignpu")
    npu_model = compile_model(graph, npu_soc, HTVM)
    print("dispatch on the diana-bignpu platform:")
    for d in npu_model.dispatch_decisions[:5]:
        print(f"  {d.layer_name:<28} -> {d.target}")
    print("  ...")

    npu_res = Executor(npu_soc).run(npu_model, feeds)
    assert np.array_equal(npu_res.output, run_reference(npu_model.graph,
                                                        feeds))

    # platform identity flows into fingerprints and artifacts
    assert npu_model.platform == "diana-bignpu"
    assert npu_model.fingerprint() != base.fingerprint()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "resnet8.bignpu.dna")
        pack_model(graph, npu_soc, HTVM.with_overrides(
            platform="diana-bignpu"), path)
        art = load_artifact(path, expected_platform="diana-bignpu")
        replay = Executor(art.soc).run(art.model, feeds)
        assert np.array_equal(replay.output, npu_res.output)
        try:  # a diana deployment must refuse the BigNPU artifact
            load_artifact(path, expected_platform="diana")
        except ArtifactError as exc:
            assert "V-ART-012" in str(exc)
            print("\ncross-platform load rejected as expected:")
            print(f"  {exc}")

    print(f"\nResNet-8 on stock DIANA digital : "
          f"{latency_ms(base_res.total_cycles):.3f} ms")
    print(f"ResNet-8 on DIANA + BigNPU      : "
          f"{latency_ms(npu_res.total_cycles):.3f} ms")
    print(f"speed-up from the larger array  : "
          f"{base_res.total_cycles / npu_res.total_cycles:.2f}x")
    print("\n(bit-exact against the reference interpreter in both cases)")


if __name__ == "__main__":
    main()
