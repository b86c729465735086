"""Tests for the extension modules: energy, importer, random model
generator, DOT export, CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.core import HTVM, compile_model
from repro.errors import UnsupportedError
from repro.frontend import import_model
from repro.frontend.modelzoo import RandomNetConfig, random_cnn
from repro.ir import graph_to_dot, save_dot
from repro.runtime import Executor, random_inputs, run_reference
from repro.soc import (
    DEFAULT_ENERGY, EnergyParams, energy_by_target_uj,
    execution_energy_uj, get_platform,
)
from helpers import build_small_cnn


@pytest.fixture(scope="module")
def executed():
    soc = get_platform("diana", enable_analog=False)
    graph = build_small_cnn()
    model = compile_model(graph, soc, HTVM)
    result = Executor(soc).run(model, random_inputs(graph, seed=0))
    return soc, model, result


class TestEnergy:
    def test_positive_total(self, executed):
        soc, _, result = executed
        energy = execution_energy_uj(result.perf, soc.params)
        assert energy > 0

    def test_split_sums_close_to_total(self, executed):
        soc, _, result = executed
        split = energy_by_target_uj(result.perf, soc.params)
        total = execution_energy_uj(result.perf, soc.params)
        assert sum(split.values()) <= total  # leakage not in the split
        assert set(split) == {"cpu", "soc.digital"}

    def test_analog_beats_digital_per_mac(self):
        """The motivation of heterogeneous TinyML: analog MACs are
        an order of magnitude cheaper."""
        from repro.eval.harness import deploy
        dig = deploy("resnet", "digital", verify=False)
        ana = deploy("resnet", "analog", verify=False)
        macs = 12.5e6
        e_dig = execution_energy_uj(dig.execution.perf,
                                    get_platform("diana").params)
        e_ana = execution_energy_uj(ana.execution.perf,
                                    get_platform("diana").params)
        # analog spends MUCH less on MACs, though overheads remain
        assert e_ana < e_dig

    def test_cpu_much_more_expensive(self):
        from repro.eval.harness import deploy
        cpu = deploy("resnet", "cpu-tvm", verify=False)
        dig = deploy("resnet", "digital", verify=False)
        params = get_platform("diana").params
        e_cpu = execution_energy_uj(cpu.execution.perf, params)
        e_dig = execution_energy_uj(dig.execution.perf, params)
        assert e_cpu / e_dig > 10  # "more than one order of magnitude"

    def test_custom_params(self, executed):
        soc, _, result = executed
        cheap = EnergyParams(cpu_pj_per_cycle=0.0, host_pj_per_cycle=0.0,
                             leakage_pj_per_cycle=0.0)
        assert (execution_energy_uj(result.perf, soc.params, cheap)
                < execution_energy_uj(result.perf, soc.params, DEFAULT_ENERGY))


class TestImporter:
    DESC = {
        "name": "tiny",
        "input": {"shape": [1, 3, 16, 16], "dtype": "int8"},
        "layers": [
            {"type": "conv2d", "filters": 8, "kernel": 3, "padding": 1},
            {"type": "residual", "layers": [
                {"type": "conv2d", "filters": 8, "kernel": 3,
                 "padding": 1, "relu": False},
            ]},
            {"type": "depthwise_conv2d"},
            {"type": "max_pool", "size": 2},
            {"type": "global_avg_pool"},
            {"type": "flatten"},
            {"type": "dense", "units": 4},
            {"type": "softmax"},
        ],
    }

    def test_import_and_run(self):
        graph = import_model(self.DESC, seed=1)
        out = run_reference(graph, random_inputs(graph, seed=0))
        assert out.shape == (1, 4)

    def test_json_roundtrip_of_description(self):
        graph = import_model(json.loads(json.dumps(self.DESC)), seed=1)
        assert graph.name == "tiny"

    def test_compiles_end_to_end(self):
        graph = import_model(self.DESC, seed=1)
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(graph, soc, HTVM)
        feeds = random_inputs(graph, seed=2)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))

    def test_inline_weights(self):
        desc = {
            "input": {"shape": [1, 2], "dtype": "int8"},
            "layers": [
                {"type": "dense", "units": 2, "shift": 0,
                 "weights": [[1, 0], [0, 1]]},
            ],
        }
        graph = import_model(desc)
        dense = [c for c in graph.calls() if c.op == "nn.dense"][0]
        np.testing.assert_array_equal(dense.inputs[1].value.data,
                                      [[1, 0], [0, 1]])

    def test_unknown_layer_rejected(self):
        desc = {"input": {"shape": [1, 4]},
                "layers": [{"type": "lstm"}]}
        with pytest.raises(UnsupportedError, match="lstm"):
            import_model(desc)

    def test_missing_input_rejected(self):
        with pytest.raises(UnsupportedError, match="input"):
            import_model({"layers": []})


class TestRandomNet:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_nets_compile_and_verify(self, seed):
        graph = random_cnn(seed)
        soc = get_platform("diana")
        model = compile_model(graph, soc,
                              HTVM.with_overrides(check_l2=False))
        feeds = random_inputs(graph, seed=seed + 100)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))

    def test_reproducible(self):
        a = random_cnn(3)
        b = random_cnn(3)
        assert [c.op for c in a.calls()] == [c.op for c in b.calls()]

    def test_int7_variant(self):
        cfg = RandomNetConfig(precision="int7")
        graph = random_cnn(1, cfg)
        assert graph.inputs[0].dtype.name == "int7"
        out = run_reference(graph, random_inputs(graph, seed=0))
        assert out.shape == (1, 10)


class TestDot:
    def test_contains_nodes_and_edges(self, small_cnn):
        dot = graph_to_dot(small_cnn)
        assert dot.startswith("digraph")
        assert "nn.conv2d" in dot
        assert "->" in dot

    def test_partitioned_colors(self, small_cnn):
        from repro.mapping import assign_targets
        from repro.patterns import default_specs, partition
        soc = get_platform("diana", enable_analog=False)
        g, _ = assign_targets(partition(small_cnn, default_specs()), soc)
        dot = graph_to_dot(g)
        assert "#d9ead3" in dot  # digital green

    def test_save(self, small_cnn, tmp_path):
        path = tmp_path / "g.dot"
        save_dot(small_cnn, str(path))
        assert path.read_text().startswith("digraph")


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True, text=True, timeout=300)

    def test_models(self):
        proc = self.run_cli("models")
        assert proc.returncode == 0
        assert "resnet" in proc.stdout

    def test_run_resnet(self):
        proc = self.run_cli("run", "resnet", "--config", "digital",
                            "--layers")
        assert proc.returncode == 0, proc.stderr
        assert "bit-exact vs reference: True" in proc.stdout
        assert "per-layer report" in proc.stdout
        assert "uJ" in proc.stdout

    def test_compile_writes_sources(self, tmp_path):
        out = tmp_path / "build"
        proc = self.run_cli("compile", "toyadmos", "--config", "digital",
                            "--out-dir", str(out),
                            "--dot", str(tmp_path / "g.dot"))
        assert proc.returncode == 0, proc.stderr
        assert (out / "network.c").exists()
        assert (tmp_path / "g.dot").exists()

    def test_oom_exit_code(self):
        proc = self.run_cli("compile", "mobilenet", "--config", "cpu-tvm")
        assert proc.returncode == 2
        assert "OUT OF MEMORY" in proc.stdout

    def test_unknown_model(self):
        proc = self.run_cli("run", "alexnet")
        assert proc.returncode != 0
