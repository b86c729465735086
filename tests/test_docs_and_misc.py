"""Documentation consistency + miscellaneous coverage tests."""

import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDocs:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/COSTMODEL.md",
        "docs/SERVING.md", "docs/DEPTHFIRST.md", "docs/CHECKS.md",
        "docs/PLATFORMS.md"])
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 1000

    def test_readme_quickstart_block_executes(self):
        """The README's quickstart code block must actually run."""
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README has no python quickstart block"
        exec_globals = {}
        exec(blocks[0], exec_globals)  # raises on failure

    def test_design_references_real_modules(self):
        import importlib
        design = (ROOT / "DESIGN.md").read_text()
        for mod in re.findall(r"`repro[./]([a-z_]+)`", design):
            importlib.import_module(f"repro.{mod}")

    def test_experiments_mentions_every_table1_cell(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for model in ("DS-CNN", "MobileNet", "ResNet", "ToyAdmos"):
            assert model in text

    def test_design_confirms_paper_identity(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "DAC 2023" in design
        assert "verified" in design.lower()


class TestPrinterAndReprs:
    def test_node_reprs(self, small_cnn):
        for node in small_cnn.topo_order():
            assert repr(node)

    def test_match_result_repr(self, small_cnn):
        from repro.patterns import conv2d_pattern, find_matches, default_specs
        matches = find_matches(small_cnn, default_specs())
        assert "MatchResult" in repr(matches[0])

    def test_pattern_reprs(self):
        from repro.patterns import conv2d_pattern, is_constant, wildcard
        assert repr(wildcard()) == "*"
        assert repr(is_constant()) == "const"
        assert "nn.conv2d" in repr(conv2d_pattern())

    def test_graph_repr(self, small_cnn):
        assert "small_cnn" in repr(small_cnn)

    def test_memory_region_repr(self):
        from repro.soc import MemoryRegion
        m = MemoryRegion("L2", 100)
        m.alloc("x", 10)
        assert "L2" in repr(m) and "10/100" in repr(m)

    def test_dot_with_constants(self, small_cnn):
        from repro.ir import graph_to_dot
        with_c = graph_to_dot(small_cnn, include_constants=True)
        without = graph_to_dot(small_cnn, include_constants=False)
        assert with_c.count("const") > without.count("const")


class TestCliFast:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                              capture_output=True, text=True, timeout=600)

    def test_fig5_command(self):
        proc = self.run_cli("fig5")
        assert proc.returncode == 0
        assert "Fig. 5" in proc.stdout

    def test_table2_command(self):
        proc = self.run_cli("table2")
        assert proc.returncode == 0
        assert "Table II" in proc.stdout

    def test_run_json_model_roundtrip(self, tmp_path):
        from repro.frontend.modelzoo import resnet8
        from repro.ir import save_graph
        path = tmp_path / "model.json"
        save_graph(resnet8(), str(path))
        proc = self.run_cli("run", str(path), "--config", "digital")
        assert proc.returncode == 0, proc.stderr
        assert "bit-exact vs reference: True" in proc.stdout


class TestMiscNumerics:
    def test_softmax_other_axis(self):
        from repro import numerics as K
        x = np.arange(6, dtype=np.int8).reshape(2, 3)
        out = K.softmax(x, axis=0)
        np.testing.assert_allclose(out.sum(axis=0), [1, 1, 1], atol=1e-5)

    def test_right_shift_large(self):
        from repro import numerics as K
        out = K.right_shift(np.array([1 << 30], np.int32), 30)
        assert out[0] == 1

    def test_legalize_skips_dynamic_weights(self):
        from repro.ir import Call, GraphBuilder
        from repro.transforms import dense_to_conv2d
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4), "int8")
        w = b.input("w", (2, 4), "int8")  # dynamic weight input
        g = b.finish(b.call("nn.dense", [x, w]))
        g2 = dense_to_conv2d(g)
        assert any(c.op == "nn.dense" for c in g2.calls())

    def test_dense_driver_emission(self):
        from repro.dory import (
            DoryTiler, digital_heuristics, emit_accel_layer, make_dense_spec,
        )
        from repro.soc import DEFAULT_PARAMS
        spec = make_dense_spec("fc", 640, 128)
        sol = DoryTiler("soc.digital", DEFAULT_PARAMS,
                        digital_heuristics()).solve(spec)
        src = emit_accel_layer("fc_driver", sol, DEFAULT_PARAMS)
        assert "kind=dense" in src
        assert "diana_dig_load_weights" in src
