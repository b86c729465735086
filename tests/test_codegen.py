"""C code generation and binary-size model tests."""

import re
import shutil
import subprocess

import pytest

from repro.codegen import classify_body, emit_cpu_kernel, kernel_signature
from repro.codegen.c_writer import CWriter
from repro.core import HTVM, TVM_CPU, compile_model
from repro.dory import DoryTiler, digital_heuristics, emit_accel_layer, make_conv_spec
from repro.frontend.modelzoo import resnet8, toyadmos_dae
from repro.soc import DEFAULT_PARAMS, get_platform
from repro.transforms import fuse_cpu_ops
from helpers import build_small_cnn


def fused_bodies(graph):
    return [c for c in fuse_cpu_ops(graph).composites()]


class TestCWriter:
    def test_indentation(self):
        w = CWriter()
        w.open("void f()")
        w.line("int x = 1;")
        w.close()
        src = w.source()
        assert "void f() {" in src
        assert "  int x = 1;" in src
        assert src.rstrip().endswith("}")

    def test_comment(self):
        w = CWriter()
        w.comment("hello")
        assert "/* hello */" in w.source()


class TestCpuKernelEmission:
    def test_conv_kernel_has_loops(self, small_cnn):
        comps = fused_bodies(small_cnn)
        conv_comp = comps[0]
        src = emit_cpu_kernel("fused_conv", conv_comp)
        assert "void fused_conv(" in src
        assert "for (int k = 0" in src
        assert "acc +=" in src

    def test_signature_dedup(self):
        g = toyadmos_dae()
        comps = fused_bodies(g)
        sigs = [kernel_signature(c.body) for c in comps]
        # 4 identical 128x128 FC layers share one signature
        assert len(set(sigs)) < len(sigs)

    def test_signature_distinguishes_shapes(self, small_cnn):
        comps = fused_bodies(small_cnn)
        sigs = {kernel_signature(c.body) for c in comps}
        assert len(sigs) == len(comps)

    def test_classify(self, small_cnn):
        comps = fused_bodies(small_cnn)
        kinds = [classify_body(c.body) for c in comps]
        assert "conv2d" in kinds
        assert "dense" in kinds
        assert "softmax" in kinds


class TestDoryEmission:
    def test_driver_structure(self):
        spec = make_conv_spec("c", 32, 64, 32, 32, padding=(1, 1))
        sol = DoryTiler("soc.digital", DEFAULT_PARAMS, digital_heuristics(),
                        l1_budget=32 * 1024).solve(spec)
        src = emit_accel_layer("dory_layer_0", sol, DEFAULT_PARAMS)
        assert "diana_digital_run" in src
        assert "dma_2d_in" in src
        assert "for (int k0 = 0" in src
        assert str(sol.num_tiles) in src

    def test_analog_driver_loads_macro(self):
        spec = make_conv_spec("c", 32, 64, 16, 16, padding=(1, 1),
                              weight_dtype="ternary")
        sol = DoryTiler("soc.analog", DEFAULT_PARAMS, [],).solve(spec)
        src = emit_accel_layer("dory_layer_1", sol, DEFAULT_PARAMS)
        assert "diana_analog_load_macro" in src
        assert "diana_analog_run" in src


class TestSizeModel:
    def test_tvm_runtime_larger_than_htvm(self, cpu_soc, digital_soc, small_cnn):
        tvm = compile_model(small_cnn, cpu_soc, TVM_CPU)
        htvm = compile_model(small_cnn, digital_soc, HTVM)
        assert tvm.size.runtime > htvm.size.runtime

    def test_resnet_digital_binary_shrinks(self):
        # the paper's headline: ResNet binary shrinks ~12.3% vs plain TVM
        cpu = get_platform("diana", enable_digital=False, enable_analog=False)
        dig = get_platform("diana", enable_analog=False)
        tvm = compile_model(resnet8(), cpu, TVM_CPU)
        htvm = compile_model(resnet8(), dig, HTVM)
        reduction = 1 - htvm.binary_size_bytes / tvm.binary_size_bytes
        assert 0.05 < reduction < 0.25

    def test_toyadmos_digital_binary_grows(self):
        # per-layer DORY drivers beat TVM's kernel sharing here
        cpu = get_platform("diana", enable_digital=False, enable_analog=False)
        dig = get_platform("diana", enable_analog=False)
        tvm = compile_model(toyadmos_dae(), cpu, TVM_CPU)
        htvm = compile_model(toyadmos_dae(), dig, HTVM)
        assert htvm.binary_size_bytes > tvm.binary_size_bytes

    def test_ternary_weights_smaller_for_toyadmos(self):
        dig = get_platform("diana", enable_analog=False)
        ana = get_platform("diana", enable_digital=False)
        int8 = compile_model(toyadmos_dae(), dig, HTVM)
        tern = compile_model(toyadmos_dae(precision="ternary"), ana, HTVM)
        assert tern.size.weights < int8.size.weights

    def test_resnet_analog_padding_inflates_weights(self):
        # ternary is 2-bit, but macro row padding blows ResNet back up
        ana = get_platform("diana", enable_digital=False)
        tern = compile_model(resnet8(precision="ternary"), ana, HTVM)
        raw_ternary = resnet8(precision="ternary").weight_bytes()
        assert tern.size.weights > raw_ternary


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not available")
def _compiler():
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


class TestNetworkEmission:
    """Regressions for the emitted top-level network function."""

    def test_network_defines_every_sizeof_identifier(self, digital_soc,
                                                     small_cnn):
        # the historical bug: memcpy(output, ..., sizeof_<output>) was
        # emitted with no matching enum when the output buffer's size
        # constant was never declared — the network only compiled by
        # accident against sources that happened to define it.
        model = compile_model(small_cnn, digital_soc, HTVM)
        src = model.c_sources["network.c"]
        used = set(re.findall(r"\bsizeof_(\w+)", src))
        defined = set(re.findall(r"enum \{ sizeof_(\w+) =", src))
        assert used, "network.c should reference planned buffer sizes"
        assert used <= defined, f"undefined: {sorted(used - defined)}"

    def test_network_includes_runtime_header(self, digital_soc, small_cnn):
        model = compile_model(small_cnn, digital_soc, HTVM)
        assert "repro_runtime.h" in model.c_sources
        assert '#include "repro_runtime.h"' in model.c_sources["network.c"]

    def test_prototypes_deduplicated(self):
        # toyadmos has 4 identical 128x128 FC layers sharing one kernel;
        # its prototype must appear exactly once in network.c
        g = toyadmos_dae()
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(g, soc, HTVM)
        src = model.c_sources["network.c"]
        protos = re.findall(r"^void (\w+)\(.*\);$", src, re.M)
        assert len(protos) == len(set(protos))


class TestCSyntax:
    """Every generated source set compiles standalone, warnings fatal."""

    @pytest.mark.skipif(_compiler() is None, reason="no C compiler")
    @pytest.mark.parametrize("graph_fn", [build_small_cnn, toyadmos_dae,
                                          resnet8])
    def test_sources_compile_standalone(self, digital_soc, graph_fn,
                                        tmp_path):
        model = compile_model(graph_fn(), digital_soc, HTVM)
        for name, src in model.c_sources.items():
            (tmp_path / name).write_text(src)
        cc = _compiler()
        for name in model.c_sources:
            if not name.endswith(".c"):
                continue
            proc = subprocess.run(
                [cc, "-fsyntax-only", "-std=c11", "-Wall", "-Werror",
                 "-I", str(tmp_path), str(tmp_path / name)],
                capture_output=True, text=True)
            assert proc.returncode == 0, f"{name}:\n{proc.stderr}"

    @pytest.mark.skipif(_compiler() is None, reason="no C compiler")
    def test_native_source_compiles_standalone(self, digital_soc,
                                               small_cnn, tmp_path):
        from repro.codegen import emit_native_sources

        model = compile_model(small_cnn, digital_soc, HTVM)
        path = tmp_path / "native.c"
        path.write_text(emit_native_sources(model))
        proc = subprocess.run(
            [_compiler(), "-fsyntax-only", "-std=c11", "-Wall", "-Werror",
             str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, f"native.c:\n{proc.stderr}"
