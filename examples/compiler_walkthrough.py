#!/usr/bin/env python3
"""Walk through every stage of the HTVM flow on a small model.

Prints the intermediate state after each box of the paper's Fig. 1:
the ingested Relay-style graph, the optimized graph, the pattern
matches, the dispatch decisions, the DORY tiling of one layer, the L2
memory plan, a generated C driver, and finally the simulated execution
with its per-layer report (cycles by phase for every kernel).

Run:  python examples/compiler_walkthrough.py
"""

import numpy as np

from repro import Executor, HTVM, compile_model, get_platform
from repro.mapping import assign_targets, dispatch_summary
from repro.eval.layer_report import format_layer_report, layer_report
from repro.frontend import import_model
from repro.ir import graph_to_text
from repro.patterns import default_specs, find_matches, partition
from repro.runtime import random_inputs, run_reference
from repro.transforms import canonicalize, eliminate_dead_code, fold_constants

MODEL = {
    "name": "walkthrough",
    "input": {"shape": [1, 8, 16, 16], "dtype": "int8"},
    "layers": [
        {"type": "conv2d", "filters": 16, "kernel": 3, "padding": 1},
        {"type": "residual", "layers": [
            {"type": "conv2d", "filters": 16, "kernel": 3, "padding": 1,
             "relu": False},
        ]},
        {"type": "max_pool", "size": 2},
        {"type": "flatten"},
        {"type": "dense", "units": 10},
        {"type": "softmax"},
    ],
}


def banner(title):
    print()
    print("=" * 72)
    print(f"== {title}")
    print("=" * 72)


def main():
    banner("1. ingest (model description -> IR)")
    graph = import_model(MODEL, seed=0)
    print(graph_to_text(graph))

    banner("2. TVM-style front-end optimizations")
    graph = eliminate_dead_code(fold_constants(canonicalize(graph)))
    print(f"{len(graph.calls())} calls after canonicalize/fold/DCE")

    banner("3. accelerator-aware pattern matching (paper Listing 1)")
    matches = find_matches(graph, default_specs())
    for m in matches:
        print(f"  matched {m.spec.name:<14} root={m.root!r} "
              f"({len(m.interior)} fused ops)")
    partitioned = partition(graph, default_specs())

    banner("4. dispatching (rule checks + bit-width selection)")
    soc = get_platform("diana")
    dispatched, decisions = assign_targets(partitioned, soc)
    print(dispatch_summary(decisions))

    banner("5. the full compile (fusion, DORY tiling, planning, codegen)")
    model = compile_model(graph, soc, HTVM)
    print(model.summary())
    accel_step = next(s for s in model.steps if s.target != "cpu")
    sol = accel_step.tiling
    print(f"\nDORY tiling of {accel_step.spec.name}: "
          f"C_t={sol.cfg.c_t} K_t={sol.cfg.k_t} OY_t={sol.cfg.oy_t} "
          f"-> {sol.num_tiles} tile(s), "
          f"L1 use {sol.l1_total_bytes}/{soc.params.l1_bytes} B "
          f"(needs_tiling={sol.needs_tiling})")

    banner("6. L2 activation memory plan")
    print(model.memory_plan.report())

    banner("7. one generated DORY driver")
    name = next(n for n in model.c_sources if n.startswith("dory"))
    print(model.c_sources[name])

    banner("8. simulated execution + verification")
    feeds = random_inputs(graph, seed=1)
    result = Executor(soc).run(model, feeds)
    exact = np.array_equal(result.output, run_reference(model.graph, feeds))
    print(f"bit-exact vs reference: {exact}")
    print()
    print(format_layer_report(layer_report(model, result.perf, soc.params)))


if __name__ == "__main__":
    main()
