"""Compiler driver tests: configs, OoM, artifacts, memory plans."""

import numpy as np
import pytest

from repro.core import (
    AccelStep, CompilerConfig, CpuKernelStep, HTVM, TVM_CPU, compile_model,
)
from repro.errors import CodegenError, OutOfMemoryError
from repro.frontend.modelzoo import mobilenet_v1, resnet8, toyadmos_dae
from repro.runtime import Executor, random_inputs
from repro.soc import get_platform
from helpers import build_small_cnn


class TestConfigs:
    def test_htvm_offloads(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        kinds = model.steps_by_target()
        assert kinds.get("soc.digital", 0) == 4
        assert kinds.get("cpu", 0) >= 2

    def test_tvm_cpu_never_offloads(self, cpu_soc, small_cnn):
        model = compile_model(small_cnn, cpu_soc, TVM_CPU)
        assert set(model.steps_by_target()) == {"cpu"}

    def test_offload_false_even_with_accelerators(self, soc, small_cnn):
        model = compile_model(small_cnn, soc, TVM_CPU)
        assert set(model.steps_by_target()) == {"cpu"}

    def test_config_overrides(self):
        cfg = HTVM.with_overrides(l1_budget=1024)
        assert cfg.l1_budget == 1024
        assert HTVM.l1_budget is None

    def test_unknown_heuristics_rejected(self, digital_soc, small_cnn):
        with pytest.raises(CodegenError, match="heuristic"):
            compile_model(small_cnn, digital_soc,
                          HTVM.with_overrides(heuristics="bogus"))


class TestOutOfMemory:
    def test_mobilenet_tvm_oom(self, cpu_soc):
        with pytest.raises(OutOfMemoryError):
            compile_model(mobilenet_v1(), cpu_soc, TVM_CPU)

    def test_mobilenet_htvm_fits(self):
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(mobilenet_v1(), soc, HTVM)
        assert model.l2_required_bytes <= soc.params.l2_bytes

    def test_resnet_tvm_fits(self, cpu_soc):
        model = compile_model(resnet8(), cpu_soc, TVM_CPU)
        assert model.l2_required_bytes <= cpu_soc.params.l2_bytes

    def test_check_disabled_compiles_anyway(self, cpu_soc):
        cfg = TVM_CPU.with_overrides(check_l2=False)
        model = compile_model(mobilenet_v1(), cpu_soc, cfg)
        assert model.l2_required_bytes > cpu_soc.params.l2_bytes


class TestArtifact:
    def test_c_sources_emitted(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        assert "network.c" in model.c_sources
        net = model.c_sources["network.c"]
        assert "l2_arena" in net
        dory = [s for n, s in model.c_sources.items() if "dory" in n]
        assert dory and "diana_digital_run" in dory[0]

    def test_buffer_offsets_planned_for_all(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        for step in model.steps:
            assert step.output_name in model.memory_plan.offsets
        for name in model.input_names:
            assert name in model.memory_plan.offsets

    def test_size_breakdown_consistent(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        s = model.size
        assert s.total == (s.runtime + s.cpu_kernels + s.accel_drivers
                           + s.weights)
        assert s.weights > 0 and s.runtime > 0

    def test_summary_readable(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        assert "small_cnn" in model.summary()

    def test_steps_reference_known_buffers(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        for step in model.steps:
            for name in step.input_names + [step.output_name]:
                assert name in model.buffers


class TestKernelDedup:
    def test_repeated_fc_shapes_share_cpu_kernels(self, cpu_soc):
        model = compile_model(toyadmos_dae(), cpu_soc, TVM_CPU)
        steps = [s for s in model.steps if isinstance(s, CpuKernelStep)]
        signatures = {s.signature for s in steps}
        # 10 FC layers but few unique shapes
        assert len(steps) == 10
        assert len(signatures) <= 5

    def test_accel_drivers_per_layer(self, digital_soc):
        model = compile_model(toyadmos_dae(), digital_soc, HTVM)
        accel = [s for s in model.steps if isinstance(s, AccelStep)]
        assert len(accel) == 10
        # one driver source per layer, never deduplicated
        dory_files = [n for n in model.c_sources if n.startswith("dory_")]
        assert len(dory_files) == 10


class TestNaiveTilingConfig:
    def test_naive_config_compiles_and_runs(self, digital_soc, small_cnn):
        from repro.core import HTVM_NAIVE_TILING
        model = compile_model(small_cnn, digital_soc, HTVM_NAIVE_TILING)
        feeds = random_inputs(small_cnn, seed=0)
        result = Executor(digital_soc).run(model, feeds)
        from repro.runtime import run_reference
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))
