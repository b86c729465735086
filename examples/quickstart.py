#!/usr/bin/env python3
"""Quickstart: compile and simulate ResNet-8 on DIANA with HTVM.

Walks the full flow of the paper's Fig. 1:

    quantized model -> pattern matching -> dispatch -> DORY tiling
    -> memory planning -> C emission -> simulated execution

and verifies the deployment bit-exactly against the reference
interpreter.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Executor, HTVM, compile_model, get_platform, latency_ms
from repro.eval.layer_report import format_layer_report, layer_report
from repro.frontend.modelzoo import resnet8
from repro.runtime import random_inputs, run_reference


def main():
    # 1. build the quantized model (MLPerf Tiny ResNet-8, int8 weights)
    graph = resnet8(precision="int8")
    print(f"model: {graph.name}, {graph.total_macs() / 1e6:.2f} MMACs, "
          f"{graph.weight_bytes() / 1024:.1f} kB weights")

    # 2. compile for the DIANA SoC with the full HTVM flow (the
    #    platform registry lists alternatives: `repro platforms`)
    soc = get_platform("diana")
    model = compile_model(graph, soc, HTVM)
    print(model.summary())
    print("\ndispatch decisions:")
    for d in model.dispatch_decisions:
        print(f"  {d.layer_name:<28} -> {d.target}")

    # 3. peek at the generated C
    driver = next(s for n, s in model.c_sources.items() if "dory" in n)
    print("\nfirst generated DORY driver:")
    print("\n".join(driver.splitlines()[:6]))

    # 4. run one inference on the simulated SoC
    feeds = random_inputs(graph, seed=0)
    result = Executor(soc).run(model, feeds)
    print(f"\nlatency: {latency_ms(result.total_cycles):.3f} ms "
          f"(peak view {latency_ms(result.peak_cycles):.3f} ms) "
          f"@ {soc.params.clock_hz / 1e6:.0f} MHz")
    print(f"predicted class: {int(np.argmax(result.output))}")

    # 5. verify against the golden interpreter
    reference = run_reference(model.graph, feeds)
    assert np.array_equal(result.output, reference)
    print("bit-exact vs reference interpreter: OK")

    # 6. per-layer breakdown: cycles by phase, share, MAC/cycle, energy
    print()
    print(format_layer_report(layer_report(model, result.perf, soc.params)))


if __name__ == "__main__":
    main()
