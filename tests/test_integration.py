"""End-to-end integration tests across the full MLPerf Tiny suite.

The heavyweight invariant: for every model and every deployment
configuration, the simulated SoC execution is byte-identical to the
reference interpreter, and the relative performance relationships of
the paper hold.
"""

import numpy as np
import pytest

from repro.core import HTVM, TVM_CPU, compile_model
from repro.errors import OutOfMemoryError
from repro.eval.harness import CONFIGS
from repro.frontend.modelzoo import MLPERF_TINY
from repro.runtime import Executor, random_inputs, run_reference
from repro.soc import get_platform, latency_ms

CELLS = [(m, c) for m in sorted(MLPERF_TINY) for c in CONFIGS]


@pytest.mark.parametrize("model_name,config", CELLS)
def test_bit_exact_everywhere(model_name, config):
    precision, soc_kwargs, cfg = CONFIGS[config]
    graph = MLPERF_TINY[model_name](precision=precision)
    soc = get_platform("diana", **soc_kwargs)
    try:
        model = compile_model(graph, soc, cfg)
    except OutOfMemoryError:
        assert (model_name, config) == ("mobilenet", "cpu-tvm")
        return
    feeds = random_inputs(graph, seed=13)
    result = Executor(soc).run(model, feeds)
    reference = run_reference(model.graph, feeds)
    np.testing.assert_array_equal(np.asarray(result.output),
                                  np.asarray(reference))


class TestRelativePerformance:
    """The paper's qualitative performance relationships."""

    @pytest.fixture(scope="class")
    def latencies(self):
        out = {}
        for model_name, config in CELLS:
            precision, soc_kwargs, cfg = CONFIGS[config]
            graph = MLPERF_TINY[model_name](precision=precision)
            soc = get_platform("diana", **soc_kwargs)
            try:
                compiled = compile_model(graph, soc, cfg)
            except OutOfMemoryError:
                out[(model_name, config)] = None
                continue
            res = Executor(soc).run(compiled, random_inputs(graph, seed=1))
            out[(model_name, config)] = latency_ms(res.total_cycles)
        return out

    def test_accelerators_beat_cpu_everywhere(self, latencies):
        for model in MLPERF_TINY:
            cpu = latencies[(model, "cpu-tvm")]
            if cpu is None:
                continue
            assert latencies[(model, "digital")] < cpu
            assert latencies[(model, "analog")] < cpu

    def test_resnet_digital_speedup_order_of_magnitude(self, latencies):
        ratio = (latencies[("resnet", "cpu-tvm")]
                 / latencies[("resnet", "digital")])
        assert ratio > 80  # paper: 112x

    def test_dw_models_suffer_on_analog(self, latencies):
        # DS-CNN / MobileNet fall back to the CPU for DW layers
        assert (latencies[("dscnn", "analog")]
                > 5 * latencies[("dscnn", "digital")])
        assert (latencies[("mobilenet", "analog")]
                > 5 * latencies[("mobilenet", "digital")])

    def test_mixed_close_to_best(self, latencies):
        # the paper has mixed ResNet slightly *better* than digital;
        # our analog cost model keeps it slightly worse (documented in
        # EXPERIMENTS.md), so the bound here is 1.6x of the best
        # single-accelerator configuration.
        for model in MLPERF_TINY:
            best = min(latencies[(model, "digital")],
                       latencies[(model, "analog")])
            assert latencies[(model, "mixed")] <= best * 1.6

    def test_dscnn_mixed_vs_analog_8x(self, latencies):
        ratio = latencies[("dscnn", "analog")] / latencies[("dscnn", "mixed")]
        assert ratio > 5  # paper: 8x

    def test_latencies_against_paper_within_3x(self, latencies):
        from repro.eval import paper
        for (model, config), ours in latencies.items():
            ref = paper.TABLE1[model][{
                "cpu-tvm": "cpu-tvm", "digital": "digital",
                "analog": "analog", "mixed": "mixed"}[config]][1]
            if ours is None or ref is None:
                continue
            assert ref / 3 < ours < ref * 3, (model, config, ours, ref)


class TestMemoryBehaviour:
    def test_htvm_arena_much_smaller_than_tvm(self):
        graph = MLPERF_TINY["mobilenet"]()
        soc = get_platform("diana", enable_analog=False)
        htvm = compile_model(graph, soc, HTVM)
        tvm = compile_model(graph, soc, TVM_CPU.with_overrides(check_l2=False))
        assert htvm.memory_plan.arena_bytes < tvm.memory_plan.arena_bytes / 3

    def test_l2_peak_within_capacity(self):
        graph = MLPERF_TINY["resnet"]()
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM)
        res = Executor(soc).run(model, random_inputs(graph, seed=0))
        assert res.l2_peak_bytes <= soc.params.l2_bytes
