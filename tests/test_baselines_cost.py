"""Baseline flows, cost accounting, and perf-counter tests."""

import pytest

from repro.baselines import compile_tvm_cpu
from repro.dory import DoryTiler, digital_heuristics, make_conv_spec, make_dense_spec
from repro.errors import OutOfMemoryError
from repro.eval import fig4
from repro.frontend.modelzoo import mobilenet_v1, resnet8
from repro.runtime.cost import cost_layer
from repro.soc import DEFAULT_PARAMS, PerfCounters, get_platform
from repro.soc.perf import KernelRecord


class TestTvmCpuBaseline:
    def test_compiles_resnet(self):
        model = compile_tvm_cpu(resnet8())
        assert set(model.steps_by_target()) == {"cpu"}
        assert model.size.runtime == DEFAULT_PARAMS.size_tvm_runtime

    def test_mobilenet_oom(self):
        with pytest.raises(OutOfMemoryError):
            compile_tvm_cpu(mobilenet_v1())

    def test_oom_check_can_be_disabled(self):
        model = compile_tvm_cpu(mobilenet_v1(), check_l2=False)
        assert model.memory_plan.reuse is False


class TestNaiveTiling:
    """The hardware-agnostic baseline is Fig. 4's ``baseline`` strategy."""

    @staticmethod
    def _speedups(spec, budgets_kb):
        points = fig4.sweep(layers=[spec], strategies=["baseline", "full"],
                            budgets=[kb * 1024 for kb in budgets_kb])
        cycles = {(p.strategy, p.budget_bytes): p.cycles for p in points}
        return [cycles["baseline", kb * 1024] / cycles["full", kb * 1024]
                for kb in budgets_kb]

    def test_solve_naive_respects_budget(self):
        spec = make_conv_spec("c", 64, 64, 32, 32, padding=(1, 1))
        (point,) = fig4.sweep(layers=[spec], strategies=["baseline"],
                              budgets=[16 * 1024])
        assert point.cycles is not None
        assert point.l1_bytes <= 16 * 1024

    def test_comparison_structure(self):
        spec = make_conv_spec("c", 64, 128, 32, 32, padding=(1, 1))
        points = fig4.sweep(layers=[spec], strategies=["baseline", "full"],
                            budgets=[12 * 1024])
        assert all(p.cycles > 0 for p in points)
        (speedup,) = self._speedups(spec, [12])
        assert speedup >= 0.9  # heuristics never notably worse

    def test_speedup_exists_at_awkward_budget(self):
        # sweep budgets; heuristics must win somewhere (Fig. 4 claim)
        spec = make_conv_spec("L3", 64, 128, 32, 32, padding=(1, 1))
        assert max(self._speedups(spec, [12, 8, 6, 4, 3])) > 1.2


class TestCostAccounting:
    def _cost(self, spec, budget=None, target="soc.digital"):
        soc = get_platform("diana")
        tiler = DoryTiler(target, soc.params, digital_heuristics(),
                          l1_budget=budget)
        sol = tiler.solve(spec)
        return cost_layer(spec, sol, soc.accelerator(target), soc.params), sol

    def test_categories_present(self):
        rec, _ = self._cost(make_conv_spec("c", 32, 32, 32, 32, padding=(1, 1)))
        for cat in ("accel_compute", "weight_dma", "act_dma", "runtime",
                    "tile_loop"):
            assert cat in rec.cycles

    def test_peak_excludes_host_overheads(self):
        rec, _ = self._cost(make_conv_spec("c", 32, 32, 32, 32, padding=(1, 1)))
        assert rec.peak_cycles == (rec.cycles["accel_compute"]
                                   + rec.cycles["weight_dma"])
        assert rec.total_cycles > rec.peak_cycles

    def test_tiled_layer_costs_more_than_untiled(self):
        spec = make_conv_spec("c", 32, 64, 32, 32, padding=(1, 1))
        untiled, _ = self._cost(spec)
        tiled, sol = self._cost(spec, budget=8 * 1024)
        assert sol.needs_tiling
        assert tiled.total_cycles > untiled.total_cycles

    def test_weight_dma_scales_with_k_blocks(self):
        spec = make_dense_spec("fc", 640, 512)  # 320 kB of weights
        rec, sol = self._cost(spec)
        w_cycles = rec.cycles["weight_dma"]
        # the full weight matrix must flow through the 4 B/cy port
        assert w_cycles >= 640 * 512 / DEFAULT_PARAMS.dma_bytes_per_cycle

    def test_dma_hidden_when_compute_bound(self):
        spec = make_conv_spec("c", 64, 64, 32, 32, padding=(1, 1))
        rec, sol = self._cost(spec, budget=32 * 1024)
        # double buffering: visible DMA well below the raw stream
        raw = (spec.input_elements() + spec.output_elements()) * sol.num_tiles
        assert rec.cycles["act_dma"] < raw


class TestPerfCounters:
    def test_aggregation(self):
        perf = PerfCounters()
        a = perf.start_kernel("k0", "soc.digital", macs=100)
        a.add("accel_compute", 50)
        a.add("runtime", 10)
        b = perf.start_kernel("k1", "cpu", macs=0)
        b.add("cpu_compute", 40)
        assert perf.total_cycles == 100
        assert perf.cycles_by_target() == {"soc.digital": 60, "cpu": 40}
        assert perf.cycles_by_category()["runtime"] == 10

    def test_peak_semantics(self):
        rec = KernelRecord("k", "soc.digital")
        rec.add("accel_compute", 100)
        rec.add("weight_dma", 20)
        rec.add("act_dma", 30)
        assert rec.peak_cycles == 120
        cpu = KernelRecord("c", "cpu")
        cpu.add("cpu_compute", 77)
        assert cpu.peak_cycles == 77

    def test_throughput(self):
        rec = KernelRecord("k", "soc.digital", macs=1000)
        rec.add("accel_compute", 500)
        assert rec.throughput_macs_per_cycle == 2.0
