"""Depth-first schedule benchmark: peak-L2 reduction vs. cycle overhead.

For each model (digital configuration, 16 kB Eq. 2 tiling budget — the
Table I memory-constrained cell) the benchmark measures three
deployments on the simulated SoC:

* ``base``   — layer-by-layer compile, fast execution,
* ``fused``  — ``depthfirst="on"`` at the stock 512 kB L2: every
  eligible chain fused, outputs asserted byte-identical to base,
* ``rescue`` — ``depthfirst="auto"`` on a *shrunk* L2 sized so the
  layer-by-layer deployment no longer fits: the compile must succeed,
  the measured execution peak must respect the budget, and the output
  must match the reference interpreter bit for bit.

Any violation raises (this is the CI ``depthfirst-smoke`` gate;
``--check`` runs the assertions for one model and skips the artifact).
Results land in ``BENCH_depthfirst.json``.

Runs standalone (``python benchmarks/bench_depthfirst.py``) and under
pytest.
"""

import argparse
import dataclasses
import json
import pathlib
import sys

import numpy as np

from repro.core.compiler import compile_model
from repro.errors import OutOfMemoryError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, random_inputs, run_reference
from repro.soc import DEFAULT_PARAMS, DianaSoC

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_depthfirst.json"
MODELS = ("resnet", "mobilenet", "dscnn")
L1_BUDGET = 16 * 1024
#: models the auto rescue is known to save at 80% of their arena —
#: an OutOfMemoryError from their rescue compile is a regression, not
#: an acceptable outcome (dscnn's arena floor lies outside its chains,
#: so it is legitimately unrescuable and stays off this list).
REQUIRE_RESCUE = ("resnet", "mobilenet")


class DepthFirstGateError(AssertionError):
    """A depth-first invariant (bit-exactness or budget) failed."""


def _compile(model, cfg_overrides, params=None):
    precision, soc_kwargs, cfg = CONFIGS["digital"]
    graph = MLPERF_TINY[model](precision=precision)
    soc = DianaSoC(params=params, **soc_kwargs)
    cfg = cfg.with_overrides(l1_budget=L1_BUDGET, **cfg_overrides)
    return graph, soc, compile_model(graph, soc, cfg)


def bench_model(model: str) -> dict:
    graph, soc, base = _compile(model, dict(check_l2=False))
    feeds = random_inputs(graph, seed=1)
    golden = np.asarray(run_reference(graph, feeds))
    run_base = Executor(soc, exec_mode="fast").run(base, feeds)
    if not np.array_equal(run_base.output, golden):
        raise DepthFirstGateError(f"{model}: base run != reference")

    # -- fused at stock L2 ---------------------------------------------------
    _, _, fused = _compile(model, dict(check_l2=False, depthfirst="on"))
    run_fused = Executor(soc, exec_mode="fast").run(fused, feeds)
    if not np.array_equal(run_fused.output, golden):
        raise DepthFirstGateError(
            f"{model}: depth-first output != layer-by-layer")

    # -- auto rescue on a shrunk L2 ------------------------------------------
    # size the platform so layer-by-layer no longer fits (static image
    # + 80% of its activation arena), forcing the rescue path
    tight_l2 = base.size.total + int(base.memory_plan.arena_bytes * 0.8)
    params = dataclasses.replace(DEFAULT_PARAMS, l2_bytes=tight_l2)
    rescue = None
    try:
        _, rsoc, rescued = _compile(model, dict(depthfirst="auto"),
                                    params=params)
    except OutOfMemoryError:
        if model in REQUIRE_RESCUE:
            raise DepthFirstGateError(
                f"{model}: auto rescue regressed — no longer compiles "
                f"at {tight_l2} B L2")
        rescued = rsoc = None  # genuinely unrescuable at this budget
    if rescued is not None:
        if not rescued.depthfirst_chains:
            raise DepthFirstGateError(
                f"{model}: rescue compile adopted no chains")
        run_rescue = Executor(rsoc, exec_mode="fast").run(rescued, feeds)
        if not np.array_equal(run_rescue.output, golden):
            raise DepthFirstGateError(f"{model}: rescued run != reference")
        if run_rescue.l2_peak_bytes > tight_l2:
            raise DepthFirstGateError(
                f"{model}: rescued peak {run_rescue.l2_peak_bytes} B "
                f"exceeds the {tight_l2} B budget")
        rescue = {
            "l2_budget_bytes": tight_l2,
            "chains": len(rescued.depthfirst_chains),
            "arena_bytes": rescued.memory_plan.arena_bytes,
            "l2_peak_bytes": run_rescue.l2_peak_bytes,
            "cycles": run_rescue.total_cycles,
        }

    chains = fused.depthfirst_chains
    return {
        "config": "digital",
        "l1_budget_bytes": L1_BUDGET,
        "base": {
            "arena_bytes": base.memory_plan.arena_bytes,
            "l2_peak_bytes": run_base.l2_peak_bytes,
            "cycles": run_base.total_cycles,
        },
        "fused": {
            "chains": [
                {"start": c.start, "length": c.length,
                 "patch_grid": list(c.patch_grid),
                 "recompute_factor": round(c.recompute_factor, 4)}
                for c in chains],
            "arena_bytes": fused.memory_plan.arena_bytes,
            "l2_peak_bytes": run_fused.l2_peak_bytes,
            "cycles": run_fused.total_cycles,
        },
        "rescue": rescue,
        "arena_reduction": round(
            base.memory_plan.arena_bytes
            / max(1, fused.memory_plan.arena_bytes), 4),
        "cycle_overhead": round(
            run_fused.total_cycles / run_base.total_cycles, 4),
        "bit_exact": True,
    }


def run_bench(models=MODELS, write=True) -> dict:
    record = {"l1_budget_bytes": L1_BUDGET, "models": {}}
    for model in models:
        record["models"][model] = bench_model(model)
        m = record["models"][model]
        print(f"{model:<10} arena {m['base']['arena_bytes']:>7} -> "
              f"{m['fused']['arena_bytes']:>7} B "
              f"({m['arena_reduction']:.2f}x), cycles x"
              f"{m['cycle_overhead']:.2f}, "
              f"{len(m['fused']['chains'])} chains"
              + (f", rescue fits {m['rescue']['l2_budget_bytes']} B"
                 if m["rescue"] else ""))
    if write:
        OUT.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {OUT}")
    return record


def test_depthfirst_gate():
    """Pytest entry: the assertions are the benchmark's point."""
    record = run_bench(models=("resnet",), write=False)
    assert record["models"]["resnet"]["bit_exact"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+", default=list(MODELS),
                        choices=sorted(MLPERF_TINY))
    parser.add_argument("--check", action="store_true",
                        help="assert the gates on one model, no artifact")
    parser.add_argument("--out", default=str(OUT))
    args = parser.parse_args(argv)
    if args.check:
        bench_model(args.models[0])
        print(f"depth-first gates hold for {args.models[0]}")
        return 0
    record = run_bench(models=args.models, write=False)
    pathlib.Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
